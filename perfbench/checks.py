"""Output checks against independent oracles and the generator's counts.

Every function returns a list of failure messages; an empty list means the
outputs are correct. The oracles are ``scipy.cluster.hierarchy`` for Ward
partitions and ``scipy.stats`` for the ANOVA and Tukey p-values.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
from scipy import stats as sps
from scipy.cluster import hierarchy

ANOVA_P_TOL = 1e-9
TUKEY_P_TOL = 1e-6  # the in-package studentized range targets 1e-8
MIN_RECOVERY = 0.99
N_FEATURES = 10


def read_csv(path: Path) -> list[dict[str, str]]:
    with Path(path).open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_metric_rows(path: Path) -> tuple[list[str], list[tuple[str, str]], np.ndarray]:
    """Feature names, (repo, login) keys and the feature matrix of metrics.csv."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        keys, rows = [], []
        for row in reader:
            keys.append((row[10], row[11]))
            rows.append([float(x) for x in row[:N_FEATURES]])
    return header[:N_FEATURES], keys, np.asarray(rows, dtype=float).reshape(-1, N_FEATURES)


def canonical(labels) -> tuple[int, ...]:
    """Relabel clusters in order of first appearance, so equal partitions
    compare equal whatever their label numbers."""
    seen: dict = {}
    return tuple(seen.setdefault(lab, len(seen)) for lab in labels)


def ward_partition(rows: np.ndarray, k: int) -> tuple[int, ...]:
    tree = hierarchy.linkage(rows, method="ward")
    return canonical(hierarchy.cut_tree(tree, n_clusters=k).ravel())


def check_partitions(rows: np.ndarray, clusters: list[int], subclusters: list[int],
                     sub_k: dict[int, int] | None) -> list[str]:
    """Global labels, and with ``sub_k`` the labels within each parent, equal
    the scipy Ward partition at the reported k."""
    k = max(clusters) + 1
    if canonical(clusters) != ward_partition(rows, k):
        return [f"cluster labels differ from scipy Ward at k={k}"]
    failures = []
    labels = np.asarray(clusters)
    subs = np.asarray(subclusters)
    for parent in range(k):
        members = np.flatnonzero(labels == parent)
        want_k = (sub_k or {}).get(parent, 1)
        if sub_k is None or len(members) < 3:
            if np.any(subs[members] != 0):
                failures.append(f"parent {parent}: unexpected sub-cluster labels")
        elif canonical(subs[members]) != ward_partition(rows[members], want_k):
            failures.append(f"parent {parent}: sub-clusters differ from scipy Ward "
                            f"at k={want_k}")
    return failures


def check_stats(rows: np.ndarray, clusters: list[int], feature_names: list[str],
                stats_obj: dict) -> list[str]:
    """ANOVA p-values match f_oneway; Tukey p-values match studentized_range."""
    labels = np.asarray(clusters)
    k = int(labels.max()) + 1
    failures = []
    for f_idx, name in enumerate(feature_names):
        groups = [rows[labels == c, f_idx] for c in range(k)]
        want = float(sps.f_oneway(*groups).pvalue)
        got = stats_obj["anova"][name]["p_value"]
        if not abs(got - want) <= ANOVA_P_TOL:
            failures.append(f"anova {name}: p={got!r}, scipy {want!r}")
        df = sum(len(g) for g in groups) - k
        ms_within = sum(float(((g - g.mean()) ** 2).sum()) for g in groups) / df
        pairs = stats_obj["tukey"][name]
        expected_pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
        if [(p["group_a"], p["group_b"]) for p in pairs] != expected_pairs:
            failures.append(f"tukey {name}: pairs are not all {k}-choose-2 pairs")
            continue
        q = np.array([
            abs(groups[a].mean() - groups[b].mean())
            / np.sqrt(ms_within / 2.0 * (1.0 / len(groups[a]) + 1.0 / len(groups[b])))
            for a, b in expected_pairs
        ])
        want_p = sps.studentized_range.sf(q, k, df)
        for pair, want_pair in zip(pairs, want_p.tolist()):
            if not abs(pair["p_adjusted"] - want_pair) <= TUKEY_P_TOL:
                failures.append(f"tukey {name} {pair['group_a']}-{pair['group_b']}: "
                                f"p={pair['p_adjusted']!r}, scipy {want_pair!r}")
    return failures


def check_counts(expected: dict, out: Path, with_bots: bool) -> list[str]:
    """totals.csv, upset.json, classification.csv and metrics.csv row counts
    equal the generator's counts."""
    failures = []
    prefix = "" if with_bots else "nonbot_"
    totals = {r["interaction_type"]: int(r["count"]) for r in read_csv(out / "totals.csv")}
    if totals != expected[prefix + "events_by_kind"]:
        failures.append(f"totals.csv {totals} != {expected[prefix + 'events_by_kind']}")
    upset = json.loads((out / "upset.json").read_text("utf-8"))
    combos = {"+".join(e["combination"]): e["count"] for e in upset["combinations"]}
    if combos != expected[prefix + "upset"]:
        failures.append("upset.json combinations differ from the generator's")
    n_class = len(read_csv(out / "classification.csv"))
    if n_class != expected["commits"]:
        failures.append(f"classification.csv has {n_class} rows, expected "
                        f"{expected['commits']}")
    n_metrics = len(read_csv(out / "metrics.csv"))
    if n_metrics != expected["individuals"] - expected["bots"]:
        failures.append(f"metrics.csv has {n_metrics} rows, expected "
                        f"{expected['individuals'] - expected['bots']}")
    return failures


def check_recovery(personas_csv: Path, truth_csv: Path) -> list[str]:
    """Direct nearest-centroid assignment recovers simgen's ground truth."""
    truth = {r["login"]: r["archetype"] for r in read_csv(truth_csv)}
    rows = read_csv(personas_csv)
    hits = sum(truth.get(r["login"]) == r["persona"] for r in rows)
    share = hits / len(truth) if truth else 0.0
    if len(rows) != len(truth) or share < MIN_RECOVERY:
        return [f"direct-assign recovery {share:.4f} < {MIN_RECOVERY}"]
    return []


def digest(out: Path) -> str:
    """sha256 over every output file; run_manifest.json without its timestamps."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(out).rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "run_manifest.json":
            manifest = json.loads(data)
            manifest.pop("started_at", None)
            manifest.pop("finished_at", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(str(path.relative_to(out)).encode() + b"\0" + data + b"\0")
    return h.hexdigest()
