"""Exception hierarchy shared across the pipeline, and the UTF-8 text reader
whose decoding errors name the line at fault."""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path


class PersonaMinerError(Exception):
    """Base class for all package errors."""


class ConfigError(PersonaMinerError, ValueError):
    """Invalid or missing configuration (bad patterns, bad paths, bad values)."""


class RetryableFetchError(PersonaMinerError):
    """Transient transport failure; the caller may retry."""


class RateBudgetError(PersonaMinerError):
    """API rate budget exhausted; carries the reset time when known."""

    def __init__(self, message: str, reset_at=None):
        super().__init__(message)
        self.reset_at = reset_at


class ArchiveFormatError(PersonaMinerError):
    """Archive header missing, malformed, or of an unsupported version."""


class DataValidationError(PersonaMinerError):
    """Inconsistent or out-of-contract data passed between stages."""


@contextmanager
def open_utf8(path, error: type[PersonaMinerError], newline: str | None = None):
    """Open ``path`` to read as UTF-8 text. A byte that is not UTF-8 raises
    ``error`` naming ``path:line``.

    Text mode decodes ahead of the lines read, a chunk at a time, so the line at
    fault is found by re-reading the file in binary; that happens on the error
    path only. A UTF-8 sequence never holds a CR or LF byte, so each line
    decodes on its own, and ``bytes.splitlines`` breaks lines where text mode does.
    """
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as line_exc:
                    raise error(f"{path}:{lineno}: not UTF-8 ({line_exc})") from exc
            raise error(f"{path}: not UTF-8 ({exc})") from exc
