"""Machine-readable summary artifacts: totals, UpSet counts, composition.

All emitters use stable ordering so identical inputs give byte-identical
files; plot rendering is left to external tooling.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence, Union

from .errors import DataValidationError, open_utf8, write_csv, write_json
from .metrics import RepoIndividual, check_row_once
from .models import ALL_KINDS


def interaction_totals(
    individuals: Sequence[RepoIndividual],
) -> dict[str, tuple[int, float]]:
    """Per-kind counts and their percentage of all interactions."""
    totals = {k: 0 for k in ALL_KINDS}
    for ind in individuals:
        for kind, count in ind.counts.items():
            totals[kind] += count
    grand = sum(totals.values())
    return {
        kind: (count, 100.0 * count / grand if grand else 0.0)
        for kind, count in totals.items()
    }


def upset_counts(individuals: Sequence[RepoIndividual]) -> dict[tuple[str, ...], int]:
    """Count individuals per exact combination of nonzero interaction kinds,
    keyed by the kinds in ALL_KINDS order; the counts sum to the
    individual count."""
    counts: dict[tuple[str, ...], int] = {}
    for ind in individuals:
        combo = tuple(k for k in ALL_KINDS if ind.counts[k] > 0)
        counts[combo] = counts.get(combo, 0) + 1
    return counts


def composition(individuals: Sequence[RepoIndividual], labels: Sequence[int],
                ) -> list[tuple[str, dict[int, int]]]:
    """(repo, {cluster: count of individuals}) pairs in repo order, clusters
    ascending; ``labels`` holds each individual's cluster."""
    per_repo: dict[str, dict[int, int]] = {}
    for ind, label in zip(individuals, labels):
        clusters = per_repo.setdefault(ind.repo, {})
        clusters[label] = clusters.get(label, 0) + 1
    return [(repo, dict(sorted(clusters.items())))
            for repo, clusters in sorted(per_repo.items())]


# -- file emission --------------------------------------------------------


def write_totals_csv(totals: dict[str, tuple[int, float]],
                     path: Union[str, Path]) -> None:
    write_csv(path, ["interaction_type", "count", "percentage"],
              ([kind, totals[kind][0], repr(totals[kind][1])] for kind in ALL_KINDS))


def write_upset_json(counts: dict[tuple[str, ...], int],
                     path: Union[str, Path]) -> None:
    entries = [
        {"combination": list(combo), "count": count}
        for combo, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    write_json(path, {"format": "persona-miner-upset", "version": 1,
                      "combinations": entries})


def write_composition_csv(rows: Sequence[tuple[str, dict[int, int]]],
                          path: Union[str, Path]) -> None:
    """One row per (repo, {cluster: count}) pair; the first row also carries
    the fraction of repos with two or more clusters."""
    n_mixed = sum(len(clusters) >= 2 for _, clusters in rows)
    write_csv(path, ["repo", "clusters_present", "counts_per_cluster", "mixed_fraction"], (
        [repo, ";".join(map(str, clusters)),
         ";".join(f"{c}:{n}" for c, n in clusters.items()),
         repr(n_mixed / len(rows)) if i == 0 else ""]
        for i, (repo, clusters) in enumerate(rows)))


def write_labels_csv(individuals: Sequence, clusters: Sequence[int],
                     subclusters: Sequence[int], path: Union[str, Path]) -> None:
    """Row i is individuals[i]'s repo and login (anything with ``repo`` and
    ``login``), clusters[i] and subclusters[i]. Sequences of unequal length
    are a ValueError."""
    write_csv(path, ["repo", "login", "cluster", "subcluster"], (
        [ind.repo, ind.login, cluster, sub]
        for ind, cluster, sub in zip(individuals, clusters, subclusters, strict=True)))


def read_labels_csv(path: Union[str, Path], individuals: Sequence) -> tuple[int, ...]:
    """The cluster a labels file gives each of ``individuals`` (anything with
    ``repo`` and ``login``), in their order; repos that differ only in case
    match. An individual with no row, a row for no individual, a second row for
    one (repo, login), a row without four columns, a cluster or subcluster that
    is not a non-negative integer, a byte that is not UTF-8, or ids that do not
    run 0..k-1 is an error."""
    wanted = {(ind.repo.lower(), ind.login) for ind in individuals}
    with open_utf8(path, DataValidationError, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["repo", "login", "cluster", "subcluster"]:
            raise DataValidationError(f"{path}: unexpected labels header")
        labels, first_lines = {}, {}
        for row in reader:
            for field in ("cluster", "subcluster"):
                value = row[field]  # None in a row cut short
                if value is None or not value.isdecimal():
                    raise DataValidationError(f"{path}:{reader.line_num}: {field} must be "
                                              f"a non-negative integer, not {value!r}")
            if None in row:  # DictReader's key for the cells past the fourth
                raise DataValidationError(f"{path}:{reader.line_num}: a labels row has "
                                          f"4 columns, not {4 + len(row[None])}")
            key = (row["repo"], row["login"])
            check_row_once(first_lines, key, path, reader.line_num)
            folded = (key[0].lower(), key[1])
            if folded not in wanted:
                raise DataValidationError(f"{path}:{reader.line_num}: {key} is not an "
                                          f"individual of the input")
            labels[folded] = int(row["cluster"])
    ids = tuple(labels.get((ind.repo.lower(), ind.login)) for ind in individuals)
    if None in ids:
        ind = individuals[ids.index(None)]
        raise DataValidationError(f"no cluster label for individual {(ind.repo, ind.login)}")
    if set(ids) != set(range(max(ids, default=-1) + 1)):
        raise DataValidationError(f"{path}: labels must cover 0..k-1 with no empty cluster")
    return ids


def write_reports(individuals: Sequence[RepoIndividual], labels: Sequence[int],
                  output_dir: Union[str, Path]) -> None:
    """Write totals.csv, upset.json and composition.csv into ``output_dir``;
    ``labels`` holds each individual's cluster."""
    out = Path(output_dir)
    write_totals_csv(interaction_totals(individuals), out / "totals.csv")
    write_upset_json(upset_counts(individuals), out / "upset.json")
    write_composition_csv(composition(individuals, labels), out / "composition.csv")
