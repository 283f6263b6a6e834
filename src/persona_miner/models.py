"""Core domain types for mined repository interaction data.

Everything here is an immutable value object; instances round-trip through
the archive format.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import Optional

from .errors import DataValidationError


class InteractionKind(str, Enum):
    """The six interaction types counted per repo-individual."""

    COMMIT_CREATED = "CommitCreated"
    ISSUE_CREATED = "IssueCreated"
    ISSUE_CLOSED = "IssueClosed"
    ISSUE_ASSIGNED = "IssueAssigned"
    PR_CREATED = "PRCreated"
    PR_CLOSED = "PRClosed"


ALL_KINDS: tuple[InteractionKind, ...] = tuple(InteractionKind)


@dataclass(frozen=True)
class RepoSlug:
    """An owner/name pair identifying one GitHub repository."""

    owner: str
    name: str

    def __post_init__(self):
        if not self.owner or not self.name:
            raise DataValidationError("repo slug parts must be non-empty")
        if "/" in self.owner or "/" in self.name:
            raise DataValidationError("repo slug parts must not contain '/'")

    def __str__(self) -> str:
        return f"{self.owner}/{self.name}"

    @classmethod
    def parse(cls, text: str) -> "RepoSlug":
        owner, _, name = text.partition("/")
        return cls(owner, name)


@dataclass(frozen=True, slots=True)
class CommitPayload:
    """Commit message and changed paths attached to a CommitCreated event."""

    message: str = ""
    changed_files: tuple[str, ...] = ()

    def __post_init__(self):
        if len(set(self.changed_files)) != len(self.changed_files):
            raise DataValidationError("changed_files must not contain duplicates")


@dataclass(frozen=True, slots=True)
class InteractionEvent:
    """One timestamped actor interaction of one of the six kinds; its
    repository is the enclosing :class:`InteractionSet`'s."""

    actor: str
    kind: InteractionKind
    timestamp: datetime
    subject_id: str
    payload: Optional[CommitPayload] = None

    def __post_init__(self):
        if not isinstance(self.actor, str) or not self.actor:
            raise DataValidationError(
                f"actor must be a non-empty string, not {self.actor!r}")
        if not isinstance(self.subject_id, str) or not self.subject_id:
            raise DataValidationError(
                f"subject_id must be a non-empty string, not {self.subject_id!r}")
        if self.timestamp.tzinfo is None:
            raise DataValidationError("timestamps must be timezone-aware")


@dataclass(frozen=True)
class InteractionSet:
    """All events fetched for one repository."""

    repo: RepoSlug
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
