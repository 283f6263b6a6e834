"""Offline archive of fetched interaction sets.

Format: JSON Lines. The first line is a header object
``{"format": "persona-miner-archive", "version": 1}``; each following line is
either a repo marker or an event. A marker's events are the event lines that
follow it up to the next marker: each must carry the marker's ``"repo"``
string, and their number must equal the marker's ``n_events``. Each repo has
one marker, and two slugs that differ only in case are one repo. Round-trips
are exact field-for-field.

An event line spelled exactly as :func:`save_archive` writes it, with no
escape in its strings, is read by one pattern; a line spelled any other way,
or holding a field the writer never writes (an empty actor or subject, an
unknown kind, a timestamp not in :func:`isoformat_utc`'s form), is read by
``json``. Both are held to the same rules, with the same errors.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from datetime import datetime
from pathlib import Path
from typing import Union

from .errors import ArchiveFormatError, DataValidationError, open_utf8, write_utf8
from .models import (
    ALL_KINDS,
    CommitPayload,
    InteractionEvent,
    InteractionSet,
    check_slug,
    isoformat_utc,
    parse_utc,
)

ARCHIVE_FORMAT = "persona-miner-archive"
ARCHIVE_VERSION = 1

_raw_decode = json.JSONDecoder().raw_decode
_fromisoformat = datetime.fromisoformat
_JSON_WHITESPACE = " \t\n\r"
# a character a JSON string holds as itself: no quote, backslash or control character
_CHAR = r'[^"\\\x00-\x1f]'
_FIELD, _NON_EMPTY = f'"({_CHAR}*)"', f'"({_CHAR}+)"'
_TIMESTAMP = r'"([0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}(?:\.[0-9]{6})?Z)"'
# a stripped event line as json.dumps(_event_to_obj(...)) spells it, keys in order
# and ", " and ": " between them, holding only what the writer writes: a non-empty
# actor and subject, a known kind and isoformat_utc's timestamp; the last group
# holds the changed_files items
_EVENT_LINE = (
    rf'\{{"type": "event", "repo": {_FIELD}, "actor": {_NON_EMPTY}, '
    rf'"kind": "({"|".join(ALL_KINDS)})", "timestamp": {_TIMESTAMP}, '
    rf'"subject_id": {_NON_EMPTY}(?:, "payload": \{{"message": {_FIELD}, '
    rf'"changed_files": \[((?:"{_CHAR}*"(?:, "{_CHAR}*")*)?)\]\}})?\}}'
)


def _event_to_obj(repo: str, ev: InteractionEvent) -> dict:
    obj = {
        "type": "event",
        "repo": repo,
        "actor": ev.actor,
        "kind": ev.kind,
        "timestamp": isoformat_utc(ev.timestamp),
        "subject_id": ev.subject_id,
    }
    if ev.payload is not None:
        obj["payload"] = {
            "message": ev.payload.message,
            "changed_files": list(ev.payload.changed_files),
        }
    return obj


def save_archive(sets: list[InteractionSet], path: Union[str, Path]) -> None:
    """Write interaction sets to ``path`` as a versioned JSON Lines archive,
    replacing it whole; a repo listed twice, in any letter case, which
    :func:`load_archive` rejects, raises first."""
    first_sets: dict[str, int] = {}  # every repo's first set
    for i, iset in enumerate(sets):
        if first_sets.setdefault(iset.repo.lower(), i) != i:
            raise DataValidationError(f"repo {iset.repo} is listed again")
    with write_utf8(path) as fh:
        fh.write(json.dumps({"format": ARCHIVE_FORMAT, "version": ARCHIVE_VERSION}))
        fh.write("\n")
        for iset in sets:
            marker = {
                "type": "repo",
                "repo": iset.repo,
                "fetched_at": isoformat_utc(iset.fetched_at),
                "incomplete": iset.incomplete,
                "n_events": len(iset.events),
            }
            fh.write(json.dumps(marker))
            fh.write("\n")
            for ev in iset.events:
                fh.write(json.dumps(_event_to_obj(marker["repo"], ev)))
                fh.write("\n")


def load_archive(path: Union[str, Path]) -> list[InteractionSet]:
    """Load an archive written by :func:`save_archive`.

    Raises :class:`ArchiveFormatError` on a missing/unknown header, and with
    the ``path:line`` at fault on a malformed line (a field of the wrong type,
    or a string holding an unpaired surrogate, among them), a byte that is not
    UTF-8, an event whose repo is not its marker's, a repo whose event count is
    not its ``n_events``, or a second marker for one repo, in any letter case.
    """
    path = Path(path)
    event_line = re.compile(_EVENT_LINE).fullmatch  # not at import: re caches it
    with open_utf8(path, ArchiveFormatError) as fh:
        header_line = fh.readline()
        if not header_line.strip():
            raise ArchiveFormatError(f"{path}: empty file, expected archive header")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise ArchiveFormatError(f"{path}: unparseable header") from exc
        if not isinstance(header, dict) or header.get("format") != ARCHIVE_FORMAT:
            raise ArchiveFormatError(f"{path}: not a {ARCHIVE_FORMAT} file")
        if header.get("version") != ARCHIVE_VERSION:
            raise ArchiveFormatError(
                f"{path}: unsupported archive version {header.get('version')!r}"
            )

        sets: list[InteractionSet] = []
        head: InteractionSet | None = None  # the open repo's set, without events
        marker_at, repo, n_events = 0, "", 0  # its marker's line and fields
        marker_lines: dict[str, int] = {}  # every repo's marker line, by slug.lower()
        events: list[InteractionEvent] = []

        def close_repo():
            if head is None:
                return
            if len(events) != n_events:
                raise ArchiveFormatError(
                    f"{path}:{marker_at}: repo {repo} has {len(events)} events, "
                    f"but its marker says n_events={n_events!r}"
                )
            sets.append(replace(head, events=tuple(events)))

        for lineno, line in enumerate(fh, start=2):
            text = line.strip(_JSON_WHITESPACE)
            if not text or text.isspace():  # blank, as line.strip() would say
                continue
            try:
                match = event_line(text)
                if match is None:
                    # json.loads(line), which strips the same whitespace first
                    obj, end = _raw_decode(text)
                    if end != len(text):
                        raise json.JSONDecodeError("Extra data", text, end)
                    if "\\u" in text:  # only an escape can make an unpaired surrogate,
                        # which encode() refuses with a UnicodeEncodeError, a ValueError
                        json.dumps(obj, ensure_ascii=False).encode("utf-8")
                    line_type = obj.get("type")
                else:
                    line_type = "event"
                if line_type == "repo":
                    close_repo()
                    marker_at, repo, n_events = lineno, obj["repo"], obj["n_events"]
                    incomplete = obj.get("incomplete", False)
                    if type(n_events) is not int:  # not a float, nor a bool
                        raise DataValidationError(
                            f"n_events must be an integer, not {n_events!r}")
                    if type(incomplete) is not bool:
                        raise DataValidationError(
                            f"incomplete must be true or false, not {incomplete!r}")
                    first_at = marker_lines.setdefault(check_slug(repo).lower(), lineno)
                    if first_at != lineno:
                        raise ArchiveFormatError(
                            f"{path}:{lineno}: repo {repo} is listed again; its first "
                            f"marker is at line {first_at}")
                    events = []
                    head = InteractionSet(
                        repo=repo,
                        events=(),
                        fetched_at=parse_utc(obj["fetched_at"]),
                        incomplete=incomplete,
                    )
                elif line_type == "event":  # either spelling, checked in one order
                    if head is None:
                        raise ArchiveFormatError(
                            f"{path}:{lineno}: event before any repo marker"
                        )
                    if match is not None:
                        (ev_repo, actor, kind, timestamp, subject, message,
                         files) = match.groups()
                    else:
                        ev_repo, payload = obj["repo"], obj.get("payload")
                        if payload is not None:
                            message, files = payload["message"], payload["changed_files"]
                        actor, kind, timestamp, subject = (
                            obj["actor"], obj["kind"], obj["timestamp"], obj["subject_id"])
                    if ev_repo != repo:
                        raise ArchiveFormatError(
                            f"{path}:{lineno}: event repo {ev_repo!r} does not "
                            f"match its marker's {repo!r}")
                    if match is not None:
                        # the pattern proved every check InteractionEvent makes and
                        # all but two of the rest: the duplicate files, which
                        # CommitPayload checks, then the calendar, which parse_utc's
                        # fromisoformat call checks and which gives timezone.utc
                        payload = None
                        if message is not None:  # exact: no item holds a quote
                            files = files[1:-1].split('", "') if files else ()
                            payload = CommitPayload(message, tuple(files))
                        events.append(tuple.__new__(InteractionEvent, (
                            actor, sys.intern(kind),
                            _fromisoformat(timestamp.replace("Z", "+00:00")),
                            subject, payload)))
                        continue
                    if payload is not None:
                        if not isinstance(message, str):
                            raise DataValidationError(
                                f"commit message must be a string, not {message!r}")
                        if (not isinstance(files, list)
                                or not all(isinstance(f, str) for f in files)):
                            raise DataValidationError(
                                f"changed_files must be a list of strings, not {files!r}")
                        payload = CommitPayload(message, tuple(files))
                    if kind not in ALL_KINDS:
                        raise ValueError(f"unknown interaction kind {kind!r}")
                    events.append(InteractionEvent(actor, sys.intern(kind),
                                                   parse_utc(timestamp), subject, payload))
                else:
                    raise ArchiveFormatError(
                        f"{path}:{lineno}: unknown line type {line_type!r}"
                    )
            except (AttributeError, KeyError, TypeError, ValueError,
                    DataValidationError) as exc:
                raise ArchiveFormatError(
                    f"{path}:{lineno}: malformed line ({type(exc).__name__}: {exc})"
                ) from exc
        close_repo()
    return sets
