"""Exception hierarchy shared across the pipeline, the UTF-8 text reader
whose decoding errors name the line at fault, and the writers every output
file and directory goes through."""

from __future__ import annotations

import csv
import json
import os
import sys
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


def make_dir(path) -> Path:
    """Make the directory ``path`` and any missing parents; a path that cannot
    be made (one whose parent is a regular file, say) raises :class:`ConfigError`."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot make directory ({exc.strerror})") from exc
    return Path(path)


def check_makeable_dir(path) -> None:
    """Raise :class:`ConfigError`, as :func:`make_dir` would later, when the
    nearest existing ancestor of the directory ``path`` is not a directory."""
    ancestor = next(filter(os.path.exists, (Path(path), *Path(path).parents)), None)
    if ancestor is not None and not os.path.isdir(ancestor):
        raise ConfigError(f"{path}: cannot make directory ({ancestor} is not a directory)")


@contextmanager
def write_utf8(path, newline: str | None = None):
    """Open ``path`` to write as UTF-8 text, replacing the file whole or not at
    all: the text goes to a temporary file beside ``path``, which is renamed
    onto it on a clean exit and removed on any exception. A symbolic link is
    followed; a path naming anything but a regular file, or one beside which
    no file can be made, raises :class:`ConfigError`.

    A path that is the file standard output writes to (``/dev/stdout``, say) is
    written through standard output instead, after what was printed before."""
    try:
        to_stdout = os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError, AttributeError):  # no such file, or no stdout descriptor
        to_stdout = False
    if to_stdout:
        sys.stdout.flush()
        with open(sys.stdout.fileno(), "w", encoding="utf-8", newline=newline,
                  closefd=False) as fh:
            yield fh
        return
    target = Path(path)
    if target.exists() and not target.is_file():
        raise ConfigError(f"{path}: not a regular file")
    target = target.resolve()
    tmp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write ({exc.strerror})") from exc
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each of ``rows`` as a CSV file."""
    with write_utf8(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, obj, sort_keys: bool = False) -> None:
    """Write ``obj`` as indented JSON and a final newline."""
    with write_utf8(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n")
