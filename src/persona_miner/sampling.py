"""Inclusion/exclusion criteria and seeded sub-sampling of eligible repos."""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Union

from .errors import ConfigError, DataValidationError, write_csv
from .models import check_slug


# the seven inclusion criteria: public, MIN_COMMITTERS <= committers <
# MAX_COMMITTERS, an allowed license, an allowed language, not a fork, and at
# least MIN_AGE_DAYS old
MIN_COMMITTERS = 10
MAX_COMMITTERS = 307
MIN_AGE_DAYS = 1000
ALLOWED_LICENSES = ("MIT", "BSD-2-Clause", "BSD-3-Clause", "Apache-2.0", "ISC")
ALLOWED_LANGUAGES = ("Python", "R", "C", "C++", "Java", "JavaScript", "MATLAB",
                     "Shell", "Fortran", "Ruby")

# a repo's (slug, failed_criteria), each failure a (criterion id, reason); the
# repo is eligible when failed_criteria is empty
Decision = tuple[str, tuple[tuple[str, str], ...]]


def _count(summary: dict, field: str) -> int:
    value = summary.get(field, 0)
    if type(value) is not int:  # a JSON integer; bool is an int subclass
        raise TypeError(f"{field} must be an integer, not {value!r}")
    if value < 0:
        raise ValueError(f"{field} must be >= 0")
    return value


def apply_inclusion_criteria(summary: dict) -> Decision:
    """Judge one summaries-file entry; only ``repo`` is required. Each field is
    checked as it is read, and every criterion is evaluated (no short-circuit)
    so the failure list is complete."""
    if not isinstance(summary, dict):
        raise TypeError(f"expected an object, not {type(summary).__name__}")
    slug = check_slug(summary["repo"])
    failed: list[tuple[str, str]] = []

    visibility = summary.get("visibility", "public")
    if visibility not in ("public", "private", "missing"):
        raise ValueError(f"visibility must be public, private or missing, "
                         f"not {visibility!r}")
    if visibility != "public":
        failed.append(("public", f"repository is {visibility}, not public"))
    committers = _count(summary, "unique_committers")
    if committers < MIN_COMMITTERS:
        failed.append(("min_committers", f"{committers} committers < {MIN_COMMITTERS}"))
    if committers >= MAX_COMMITTERS:
        failed.append(("max_committers", f"{committers} committers >= {MAX_COMMITTERS}"))
    license_id = summary.get("license_id")
    if license_id is None:
        failed.append(("license", "no license visible"))
    elif not isinstance(license_id, str):
        raise TypeError(f"license_id must be a string or null, not {license_id!r}")
    elif license_id not in ALLOWED_LICENSES:
        failed.append(("license", f"unrecognized license {license_id!r}"))
    languages = summary.get("languages", [])
    if not (isinstance(languages, list)
            and all(isinstance(lang, str) for lang in languages)):
        raise TypeError(f"languages must be a list of strings, not {languages!r}")
    if not any(lang in ALLOWED_LANGUAGES for lang in languages):
        failed.append(("language", "no repository language is in the allowed list"
                       if languages else "unrecognized"))
    is_fork = summary.get("is_fork", False)
    if not isinstance(is_fork, bool):
        raise TypeError(f"is_fork must be true or false, not {is_fork!r}")
    if is_fork:
        failed.append(("fork", "repository is a fork"))
    age_days = _count(summary, "age_days")
    if age_days < MIN_AGE_DAYS:
        failed.append(("age", f"{age_days} days old < {MIN_AGE_DAYS}"))

    return slug, tuple(failed)


def screen_summaries(path: Union[str, Path]) -> list[Decision]:
    """One decision per entry of a JSON list of repo summaries. A file or entry
    that cannot be read, or a second entry for one repo in any letter case, is
    a DataValidationError naming it."""
    try:
        raw = json.loads(Path(path).read_text("utf-8"))
    except ValueError as exc:
        raise DataValidationError(f"{path}: not JSON ({exc})") from exc
    if not isinstance(raw, list):
        raise DataValidationError(f"{path}: expected a JSON list of repo summaries")
    decisions = []
    first_entries: dict[str, int] = {}  # every repo's first entry, by slug.lower()
    for i, summary in enumerate(raw):
        try:
            decisions.append(apply_inclusion_criteria(summary))
        except (AttributeError, KeyError, TypeError, ValueError,
                DataValidationError) as exc:
            raise DataValidationError(f"{path}: summary entry {i}: "
                                      f"{type(exc).__name__}: {exc}") from exc
        slug = decisions[-1][0]
        first = first_entries.setdefault(slug.lower(), i)
        if first != i:
            raise DataValidationError(f"{path}: summary entry {i}: repo {slug} is listed "
                                      f"again; its first entry is {first}")
    return decisions


def subsample(eligible: list[str], fraction: float, seed: int) -> list[str]:
    """Pick floor(fraction * n) slugs uniformly without replacement.

    Uses Python's Mersenne Twister (random.Random) on the slugs in slug order,
    so the picks depend only on the set of slugs and the seed, and a given
    seed reproduces across platforms. Output is sorted by slug.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], not {fraction!r}")
    n_pick = math.floor(fraction * len(eligible))
    picked = random.Random(seed).sample(sorted(eligible), n_pick)
    return sorted(picked)


def write_eligibility_report(decisions: list[Decision],
                             path: Union[str, Path]) -> None:
    """Emit one CSV row per repo with a semicolon-joined failed-criteria column."""
    write_csv(path, ["repo", "eligible", "failed_criteria"], (
        [slug, "false" if failed else "true",
         ";".join(f"{cid}: {reason}" for cid, reason in failed)]
        for slug, failed in decisions))
