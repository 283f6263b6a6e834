"""Inclusion/exclusion criteria and seeded sub-sampling of eligible repos."""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .errors import ConfigError, DataValidationError, write_csv
from .models import RepoSlug, RepoSummary, Visibility


# the seven inclusion criteria: public, MIN_COMMITTERS <= committers <
# MAX_COMMITTERS, an allowed license, an allowed language, not a fork, and at
# least MIN_AGE_DAYS old
MIN_COMMITTERS = 10
MAX_COMMITTERS = 307
MIN_AGE_DAYS = 1000
ALLOWED_LICENSES = ("MIT", "BSD-2-Clause", "BSD-3-Clause", "Apache-2.0", "ISC")
ALLOWED_LANGUAGES = ("Python", "R", "C", "C++", "Java", "JavaScript", "MATLAB",
                     "Shell", "Fortran", "Ruby")

# stable criterion identifiers used in EligibilityDecision.failed_criteria
CRITERION_PUBLIC = "public"
CRITERION_MIN_COMMITTERS = "min_committers"
CRITERION_MAX_COMMITTERS = "max_committers"
CRITERION_LICENSE = "license"
CRITERION_LANGUAGE = "language"
CRITERION_FORK = "fork"
CRITERION_AGE = "age"


@dataclass(frozen=True)
class EligibilityDecision:
    slug: RepoSlug
    failed_criteria: tuple[tuple[str, str], ...]  # (criterion id, reason)

    @property
    def eligible(self) -> bool:
        return not self.failed_criteria


def _count(obj: dict, field: str) -> int:
    value = obj.get(field, 0)
    if type(value) is not int:  # a JSON integer; bool is an int subclass
        raise TypeError(f"{field} must be an integer, not {value!r}")
    return value


def load_repo_summaries(path: Union[str, Path]) -> list[RepoSummary]:
    """The summaries in a JSON list of objects; only ``repo`` is required. A
    file or entry that cannot be read is a DataValidationError naming it."""
    try:
        raw = json.loads(Path(path).read_text("utf-8"))
    except ValueError as exc:
        raise DataValidationError(f"{path}: not JSON ({exc})") from exc
    if not isinstance(raw, list):
        raise DataValidationError(f"{path}: expected a JSON list of repo summaries")
    summaries = []
    for i, obj in enumerate(raw):
        try:
            if not isinstance(obj, dict):
                raise TypeError(f"expected an object, not {type(obj).__name__}")
            languages = obj.get("languages", [])
            if not (isinstance(languages, list)
                    and all(isinstance(lang, str) for lang in languages)):
                raise TypeError(f"languages must be a list of strings, not {languages!r}")
            is_fork = obj.get("is_fork", False)
            if not isinstance(is_fork, bool):
                raise TypeError(f"is_fork must be true or false, not {is_fork!r}")
            summaries.append(RepoSummary(
                slug=RepoSlug.parse(obj["repo"]),
                visibility=Visibility(obj.get("visibility", "public")),
                unique_committers=_count(obj, "unique_committers"),
                license_id=obj.get("license_id"),
                languages=tuple(languages),
                is_fork=is_fork,
                age_days=_count(obj, "age_days"),
            ))
        except (AttributeError, KeyError, TypeError, ValueError,
                DataValidationError) as exc:
            raise DataValidationError(f"{path}: summary entry {i}: "
                                      f"{type(exc).__name__}: {exc}") from exc
    return summaries


def apply_inclusion_criteria(summary: RepoSummary) -> EligibilityDecision:
    """Evaluate every criterion (no short-circuit) so the failure list is complete."""
    failed: list[tuple[str, str]] = []

    if summary.visibility != Visibility.PUBLIC:
        failed.append((CRITERION_PUBLIC,
                       f"repository is {summary.visibility.value}, not public"))
    if summary.unique_committers < MIN_COMMITTERS:
        failed.append((CRITERION_MIN_COMMITTERS,
                       f"{summary.unique_committers} committers < {MIN_COMMITTERS}"))
    if summary.unique_committers >= MAX_COMMITTERS:
        failed.append((CRITERION_MAX_COMMITTERS,
                       f"{summary.unique_committers} committers >= {MAX_COMMITTERS}"))
    if summary.license_id in ALLOWED_LICENSES:
        pass
    elif summary.license_id is None:
        failed.append((CRITERION_LICENSE, "no license visible"))
    else:
        failed.append((CRITERION_LICENSE,
                       f"unrecognized license {summary.license_id!r}"))
    if not any(lang in ALLOWED_LANGUAGES for lang in summary.languages):
        failed.append((CRITERION_LANGUAGE,
                       "no repository language is in the allowed list"
                       if summary.languages else "unrecognized"))
    if summary.is_fork:
        failed.append((CRITERION_FORK, "repository is a fork"))
    if summary.age_days < MIN_AGE_DAYS:
        failed.append((CRITERION_AGE,
                       f"{summary.age_days} days old < {MIN_AGE_DAYS}"))

    return EligibilityDecision(slug=summary.slug, failed_criteria=tuple(failed))


def subsample(eligible: list[RepoSlug], fraction: float, seed: int) -> list[RepoSlug]:
    """Pick floor(fraction * n) slugs uniformly without replacement.

    Uses Python's Mersenne Twister (random.Random) so a given seed reproduces
    across platforms. Output is sorted by slug for determinism.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], not {fraction!r}")
    n_pick = math.floor(fraction * len(eligible))
    rng = random.Random(seed)
    picked = rng.sample(eligible, n_pick)
    return sorted(picked, key=str)


def write_eligibility_report(decisions: list[EligibilityDecision],
                             path: Union[str, Path]) -> None:
    """Emit one CSV row per repo with a semicolon-joined failed-criteria column."""
    write_csv(path, ["repo", "eligible", "failed_criteria"], (
        [str(d.slug), "true" if d.eligible else "false",
         ";".join(f"{cid}: {reason}" for cid, reason in d.failed_criteria)]
        for d in decisions))
