"""Commit classification by message keywords, size, and changed-file types.

Three independent classifiers, each total and deterministic:
- development type from the first word of the commit message, matched
  against verb-stem prefixes;
- size class from the number of changed files, with the fixed bounds
  TINY_MAX, SMALL_MAX and MEDIUM_MAX;
- activity type from ordered pattern rules over changed paths.

The stem and pattern tables are shipped as data files.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional, Union

from .errors import DataValidationError, write_csv
from .models import CommitPayload, InteractionKind, InteractionSet


class DevelopmentType(str, Enum):
    FORWARD_ENGINEERING = "ForwardEngineering"
    REENGINEERING = "Reengineering"
    CORRECTIVE_ENGINEERING = "CorrectiveEngineering"
    MANAGEMENT = "Management"
    UNCLASSIFIED = "Unclassified"


class SizeClass(str, Enum):
    TINY = "Tiny"
    SMALL = "Small"
    MEDIUM = "Medium"
    LARGE = "Large"


# inclusive upper bounds on the changed-file count; above MEDIUM_MAX is Large
TINY_MAX = 5
SMALL_MAX = 25
MEDIUM_MAX = 125


def _data(name: str) -> dict:
    return json.loads(
        resources.files("persona_miner.data").joinpath(name).read_text("utf-8"))


# (dev_type, stems) in file order
KEYWORD_STEMS = tuple(
    (DevelopmentType(name), tuple(words))
    for name, words in _data("commit_keywords.json")["stems"].items())
_activity = _data("activity_rules.json")
# (category, pattern) in file order; a rule's patterns become one alternation
ACTIVITY_RULES = tuple((rule["category"], re.compile(
    "|".join(f"(?:{p})" for p in rule["patterns"]), re.IGNORECASE))
    for rule in _activity["rules"])
ACTIVITY_FALLBACK = _activity["fallback"]


def classify_message(message: str) -> DevelopmentType:
    """Match the first word of the lowercased message against stems in table order."""
    text = message.strip().lower()
    if not text:
        return DevelopmentType.UNCLASSIFIED
    first_word = text.split()[0]
    for dev_type, stems in KEYWORD_STEMS:
        if first_word.startswith(stems):
            return dev_type
    return DevelopmentType.UNCLASSIFIED


def classify_size(n_files: int) -> SizeClass:
    """Bucket a commit by number of changed files."""
    if n_files < 1:
        raise DataValidationError(
            "a commit with a payload must list at least one file; "
            "payload-absent commits skip size classification"
        )
    if n_files <= TINY_MAX:
        return SizeClass.TINY
    if n_files <= SMALL_MAX:
        return SizeClass.SMALL
    if n_files <= MEDIUM_MAX:
        return SizeClass.MEDIUM
    return SizeClass.LARGE


def classify_files(paths: list[str]) -> str:
    """First rule (in declared order) matched by ANY path wins; else fallback."""
    for category, pattern in ACTIVITY_RULES:
        if any(pattern.search(p) for p in paths):
            return category
    return ACTIVITY_FALLBACK


def classify_commit(payload: Optional[CommitPayload],
                    ) -> tuple[DevelopmentType, Optional[SizeClass], str]:
    """(dev_type, size_class, activity_type); size_class is None when the
    payload lacks a file list."""
    message = payload.message if payload else ""
    files = list(payload.changed_files) if payload else []
    return (classify_message(message),
            classify_size(len(files)) if files else None,
            classify_files(files))


def classify_archive(sets: Iterable[InteractionSet]) -> list[tuple]:
    """(sha, repo, dev_type, size_class, activity_type) of every created
    commit, repo by repo in repo order."""
    return [
        (ev.subject_id, str(iset.repo), *classify_commit(ev.payload))
        for iset in sorted(sets, key=lambda s: str(s.repo))
        for ev in iset.events
        if ev.kind == InteractionKind.COMMIT_CREATED
    ]


def write_classification_csv(rows: Iterable[tuple], path: Union[str, Path]) -> None:
    """Rows are classify_archive's tuples."""
    write_csv(path, ["sha", "repo", "dev_type", "size_class", "activity_type"], (
        [sha, repo, dev_type.value, size.value if size else "payload-absent", activity]
        for sha, repo, dev_type, size, activity in rows))
