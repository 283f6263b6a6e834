"""Per-contributor contribution metrics.

A repo-individual is one (login, repository) pair. Each of the six interaction
types yields a repository contribution (RC): the percentage of the repo's
interactions of that type made by this individual. The ten clustering features
are the six RCs, their mean (MRC), net created-minus-closed issues, the share
of all interactions, and the share of interaction days.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, timezone
from pathlib import Path
from typing import Iterable, Union

from .errors import DataValidationError, open_utf8, write_csv
from .models import ALL_KINDS, InteractionSet, check_slug

FEATURE_NAMES: tuple[str, ...] = (
    "rc_commits_created",
    "rc_issues_created",
    "rc_issues_closed",
    "rc_issues_assigned",
    "rc_prs_created",
    "rc_prs_closed",
    "mrc",
    "pct_created_minus_closed_issues",
    "pct_sum_n_interactions",
    "pct_interaction_days",
)

_BOT_SUFFIX = "[bot]"


def _is_bot_login(login: str, deny_list: frozenset[str]) -> bool:
    return login.endswith(_BOT_SUFFIX) or login in deny_list


@dataclass(frozen=True)
class RepoIndividual:
    repo: str
    login: str
    counts: dict[str, int]
    n_days: int
    is_bot_flagged: bool = False


@dataclass(frozen=True)
class MetricVector:
    """One repo-individual's row: the ten clustering features, in
    FEATURE_NAMES order, and the metadata that is not clustered."""

    features: tuple[float, ...]
    uit: int
    repo: str
    login: str
    is_bot_flagged: bool = False

    def __post_init__(self):
        if len(self.features) != len(FEATURE_NAMES) or not all(
                isinstance(x, float) and math.isfinite(x) for x in self.features):
            raise DataValidationError(f"a metric row needs {len(FEATURE_NAMES)} "
                                      f"finite floats, not {self.features!r}")

    @classmethod
    def from_rcs(cls, rcs: tuple[float, ...], share_of_interactions: float,
                 share_of_days: float, uit: int, repo: str, login: str,
                 is_bot_flagged: bool = False) -> "MetricVector":
        """The row whose MRC and net created-minus-closed issues derive from
        ``rcs``, the six RCs in ALL_KINDS order; a negative net is a net closer."""
        return cls((*rcs, compute_mrc(rcs), rcs[1] - rcs[2], share_of_interactions,
                    share_of_days), uit, repo, login, is_bot_flagged)


def build_repo_individuals(
    iset: InteractionSet,
    bot_deny_list: frozenset[str] = frozenset(),
) -> list[RepoIndividual]:
    """Tally events into one RepoIndividual per distinct actor.

    ``n_days`` counts UTC calendar dates with at least one event. Individuals
    are returned sorted by login for deterministic downstream output.
    """
    counts: dict[str, dict[str, int]] = {}
    dates: dict[str, set[date]] = {}
    for ev in iset.events:
        actor_counts = counts.get(ev.actor)
        if actor_counts is None:
            actor_counts = counts[ev.actor] = dict.fromkeys(ALL_KINDS, 0)
            dates[ev.actor] = set()
        actor_counts[ev.kind] += 1
        dates[ev.actor].add(ev.timestamp.astimezone(timezone.utc).date())

    return [
        RepoIndividual(
            repo=iset.repo,
            login=login,
            counts=counts[login],
            n_days=len(dates[login]),
            is_bot_flagged=_is_bot_login(login, bot_deny_list),
        )
        for login in sorted(counts)
    ]


def compute_mrc(six_rcs: Iterable[float]) -> float:
    """Arithmetic mean of the six RCs; absent types count as zero."""
    rcs = tuple(six_rcs)
    if len(rcs) != 6:
        raise DataValidationError(f"expected 6 RC values, got {len(rcs)}")
    return sum(rcs) / 6


def _pct(part: int, whole: int) -> float:
    """100 * part / whole; a zero whole maps to 0.0 by convention."""
    return 100.0 * part / whole if whole else 0.0


def assemble_metric_vectors(individuals: list[RepoIndividual]) -> list[MetricVector]:
    """Compute the ten-feature vector for every individual of one repo; every
    share is of the sums over ``individuals``."""
    totals = [sum(ind.counts[k] for ind in individuals) for k in ALL_KINDS]
    sum_interactions = sum(totals)
    sum_days = sum(ind.n_days for ind in individuals)
    return [
        MetricVector.from_rcs(
            tuple(_pct(ind.counts[k], total) for k, total in zip(ALL_KINDS, totals)),
            _pct(sum(ind.counts.values()), sum_interactions),
            _pct(ind.n_days, sum_days),
            uit=sum(1 for v in ind.counts.values() if v > 0),
            repo=ind.repo,
            login=ind.login,
            is_bot_flagged=ind.is_bot_flagged,
        )
        for ind in individuals
    ]


def metric_table(
    sets: Iterable[InteractionSet],
    exclude_bots: bool = False,
    bot_deny_list: frozenset[str] = frozenset(),
) -> tuple[list[RepoIndividual], list[MetricVector]]:
    """Tally every repo, in repo order, into individuals and metric vectors.

    With ``exclude_bots`` the flagged individuals are dropped before the repo
    totals are taken, so every percentage is a share of the kept population.
    """
    individuals: list[RepoIndividual] = []
    vectors: list[MetricVector] = []
    for iset in sorted(sets, key=lambda s: s.repo):
        repo_individuals = build_repo_individuals(iset, bot_deny_list)
        if exclude_bots:
            repo_individuals = [i for i in repo_individuals if not i.is_bot_flagged]
        individuals.extend(repo_individuals)
        vectors.extend(assemble_metric_vectors(repo_individuals))
    return individuals, vectors


METRICS_CSV_COLUMNS: tuple[str, ...] = FEATURE_NAMES + ("repo", "login", "uit", "is_bot")


def write_metrics_csv(vectors: list[MetricVector], path: Union[str, Path]) -> None:
    write_csv(path, METRICS_CSV_COLUMNS, (
        [*map(repr, v.features), v.repo, v.login, v.uit,
         "true" if v.is_bot_flagged else "false"] for v in vectors))


def check_row_once(first_lines: dict, key: tuple[str, str], path, line: int) -> None:
    """Note ``line`` as the first of (repo, login) ``key`` in a CSV file, or
    fail naming ``path:line`` and the first line: a key may have one row, and
    repos that differ only in case name one repository."""
    first = first_lines.setdefault((key[0].lower(), key[1]), line)
    if first != line:
        raise DataValidationError(f"{path}:{line}: repeated row for {key}; the first "
                                  f"is at line {first}")


def read_metrics_csv(path: Union[str, Path]) -> list[MetricVector]:
    """Read a metrics file; a malformed row, a second row for one
    (repo, login), or a byte that is not UTF-8 is an error naming ``path:line``."""
    with open_utf8(path, DataValidationError, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != METRICS_CSV_COLUMNS:
            raise DataValidationError(f"{path}: unexpected metrics CSV header")
        vectors, first_lines = [], {}
        for row in reader:
            try:
                if len(row) != len(METRICS_CSV_COLUMNS):
                    raise ValueError(f"{len(row)} columns, expected "
                                     f"{len(METRICS_CSV_COLUMNS)}")
                *features, repo, login, uit, is_bot = row
                if is_bot not in ("true", "false"):
                    raise ValueError(f"is_bot must be true or false, not {is_bot!r}")
                vectors.append(MetricVector(tuple(map(float, features)), int(uit),
                                            check_slug(repo), login,
                                            is_bot == "true"))
            except (ValueError, DataValidationError) as exc:
                raise DataValidationError(
                    f"{path}:{reader.line_num}: malformed metrics row ({exc})") from exc
            check_row_once(first_lines, (repo, login), path, reader.line_num)
    return vectors
