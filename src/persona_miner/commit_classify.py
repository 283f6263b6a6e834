"""Commit classification by message keywords, size, and changed-file types.

Three independent classifiers, each total and deterministic, each returning
the string that classification.csv holds:
- development type from the first word of the commit message, matched
  against verb-stem prefixes;
- size class from the number of changed files, by the bounds of SIZE_CLASSES;
- activity type from ordered pattern rules over changed paths.

The stem and pattern tables are shipped as data files, which own the names
of the development types and activity categories.
"""

from __future__ import annotations

import json
import math
import re
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .errors import DataValidationError, write_csv
from .models import CommitPayload, InteractionSet

UNCLASSIFIED = "Unclassified"
# (size class, inclusive upper bound on the changed-file count) in order
SIZE_CLASSES = (("Tiny", 5), ("Small", 25), ("Medium", 125), ("Large", math.inf))


def _data(name: str) -> dict:
    return json.loads(
        resources.files("persona_miner.data").joinpath(name).read_text("utf-8"))


# (dev_type, stems) in file order
KEYWORD_STEMS = tuple((name, tuple(stems)) for name, stems
                      in _data("commit_keywords.json")["stems"].items())
_activity = _data("activity_rules.json")
# (category, pattern) in file order; a rule's patterns become one alternation
ACTIVITY_RULES = tuple((rule["category"], re.compile(
    "|".join(f"(?:{p})" for p in rule["patterns"]), re.IGNORECASE))
    for rule in _activity["rules"])
ACTIVITY_FALLBACK = _activity["fallback"]


def classify_message(message: str) -> str:
    """Match the first word of the lowercased message against stems in table order."""
    text = message.strip().lower()
    if not text:
        return UNCLASSIFIED
    first_word = text.split()[0]
    for dev_type, stems in KEYWORD_STEMS:
        if first_word.startswith(stems):
            return dev_type
    return UNCLASSIFIED


def classify_size(n_files: int) -> str:
    """Bucket a commit by number of changed files."""
    if n_files < 1:
        raise DataValidationError(
            "a commit with a payload must list at least one file; "
            "payload-absent commits skip size classification"
        )
    return next(name for name, bound in SIZE_CLASSES if n_files <= bound)


def classify_files(paths: Sequence[str]) -> str:
    """First rule (in declared order) matched by ANY path wins; else fallback."""
    for category, pattern in ACTIVITY_RULES:
        if any(pattern.search(p) for p in paths):
            return category
    return ACTIVITY_FALLBACK


def classify_commit(payload: Optional[CommitPayload]) -> tuple[str, str, str]:
    """(dev_type, size_class, activity_type); size_class is "payload-absent"
    when the payload lacks a file list."""
    message, files = (payload.message, payload.changed_files) if payload else ("", ())
    return (classify_message(message),
            classify_size(len(files)) if files else "payload-absent",
            classify_files(files))


def classify_archive(sets: Iterable[InteractionSet]) -> list[tuple]:
    """(sha, repo, dev_type, size_class, activity_type) of every created
    commit, repo by repo in repo order."""
    return [
        (ev.subject_id, iset.repo, *classify_commit(ev.payload))
        for iset in sorted(sets, key=lambda s: s.repo)
        for ev in iset.events
        if ev.kind == "CommitCreated"
    ]


def write_classification_csv(rows: Iterable[tuple], path: Union[str, Path]) -> None:
    """Rows are classify_archive's tuples."""
    write_csv(path, ["sha", "repo", "dev_type", "size_class", "activity_type"], rows)
