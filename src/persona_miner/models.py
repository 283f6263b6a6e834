"""Core domain types for mined repository interaction data.

Everything here is an immutable value object; instances round-trip through
the archive format. Events and their payloads are named tuples, so an event
also equals a plain tuple of its fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from typing import NamedTuple, Optional

from .errors import DataValidationError


# the six interaction types counted per repo-individual, as the archive spells
# them; this order is the order of the RC features
ALL_KINDS: tuple[str, ...] = ("CommitCreated", "IssueCreated", "IssueClosed",
                              "IssueAssigned", "PRCreated", "PRClosed")


def check_slug(text: str) -> str:
    """``text`` if it names a GitHub repository as ``owner/name``: both parts
    non-empty, and no ``/`` in the name. Two slugs equal after ``lower()`` name
    one repository, as owner/name pairs are case-insensitive on GitHub."""
    owner, _, name = text.partition("/")
    if not owner or not name:
        raise DataValidationError("repo slug parts must be non-empty")
    if "/" in name:
        raise DataValidationError("repo slug parts must not contain '/'")
    return text


# a typing.NamedTuple may not define its own __new__, so each check runs in a subclass
class CommitPayload(NamedTuple("CommitPayload", [("message", str),
                                                 ("changed_files", tuple[str, ...])])):
    """Commit message and changed paths attached to a CommitCreated event."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, message: str = "", changed_files: tuple[str, ...] = ()):
        if len(set(changed_files)) != len(changed_files):
            raise DataValidationError("changed_files must not contain duplicates")
        return tuple.__new__(cls, (message, changed_files))


class InteractionEvent(NamedTuple("InteractionEvent", [
        ("actor", str), ("kind", str), ("timestamp", datetime),
        ("subject_id", str), ("payload", Optional[CommitPayload])])):
    """One timestamped actor interaction of one of the six kinds; its
    repository is the enclosing :class:`InteractionSet`'s."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, actor: str, kind: str, timestamp: datetime,
                subject_id: str, payload: Optional[CommitPayload] = None):
        if not isinstance(actor, str) or not actor:
            raise DataValidationError(f"actor must be a non-empty string, not {actor!r}")
        if not isinstance(subject_id, str) or not subject_id:
            raise DataValidationError(
                f"subject_id must be a non-empty string, not {subject_id!r}")
        if timestamp.tzinfo is None:
            raise DataValidationError("timestamps must be timezone-aware")
        return tuple.__new__(cls, (actor, kind, timestamp, subject_id, payload))


@dataclass(frozen=True)
class InteractionSet:
    """All events fetched for one repository."""

    repo: str
    events: tuple[InteractionEvent, ...]
    fetched_at: datetime
    incomplete: bool = False


def parse_utc(text: str) -> datetime:
    """Parse an ISO-8601 timestamp and normalize it to UTC."""
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def isoformat_utc(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")
