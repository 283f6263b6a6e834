"""End-to-end orchestration: archive in, report directory out.

``run_pipeline`` computes every result, then writes every output file; a run
caches nothing and repeats every stage. A rerun with the same archive and
settings yields byte-identical outputs but for run_manifest.json's timestamps.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from . import __version__
from .archive import load_archive
from .cluster import agglomerate, cut, members, select_k, subcluster
from .commit_classify import classify_archive, write_classification_csv
from .errors import ConfigError, check_makeable_dir, make_dir, write_json
from .metrics import FEATURE_NAMES, MetricVector, metric_table, write_metrics_csv
from .personas import (
    UNMATCHED_DISTANCE,
    load_profiles,
    order_clusters_by_interactivity,
    label_subcluster,
    write_personas_csv,
)
from .report import write_labels_csv, write_reports
from .stats import stats_block, write_stats_json

if TYPE_CHECKING:  # numpy is imported where it is used, keeping it off CLI start
    import numpy as np


def check_k_range(k_min: int, k_max: int) -> None:
    """CH needs k >= 2, so a k range must have 2 <= k_min <= k_max. Clamping
    k_max to n - 1 comes later, once the data are known."""
    if not 2 <= k_min <= k_max:
        raise ConfigError(f"k range [{k_min}, {k_max}] needs 2 <= k_min <= k_max")


def feature_matrix(vectors: list[MetricVector]) -> np.ndarray:
    """The ten clustering features of every vector, one row each."""
    import numpy as np

    return np.asarray([v.features for v in vectors], dtype=float)


def cluster_and_label(
    rows: np.ndarray,
    profiles,
    k_min: int = 2,
    k_max: int = 10,
):
    """Cluster, sub-cluster, and label sub-cluster centroids with personas.

    ``rows`` is ``feature_matrix(vectors)``. Returns (initial_labels,
    sub_labels, personas, diagnostics): ``personas[i]`` is row i's
    sub-cluster's (persona, distance), and ``diagnostics`` is in the shape
    stats.json writes: ``initial_k``, the CH score of each k as ``ch_scores``
    and each parent's sub-cluster count as ``sub_k``, both keyed by strings.
    Inputs are percentages already; no standardization is applied before
    clustering.
    """
    k_best, scores = select_k(rows, k_min=k_min, k_max=k_max)
    initial = cut(agglomerate(rows), k_best)

    sub_labels = [0] * len(rows)
    personas: list[tuple[str, float]] = [None] * len(rows)
    sub_k: dict[str, int] = {}
    for parent, rows_of_parent in enumerate(members(initial)):
        groups = members(subcluster(rows[rows_of_parent], k_min=k_min, k_max=k_max))
        sub_k[str(parent)] = len(groups)
        for sub, local in enumerate(groups):
            group = [rows_of_parent[j] for j in local]
            persona = label_subcluster(
                tuple(float(x) for x in rows[group, :6].mean(axis=0)),
                profiles, max_distance=UNMATCHED_DISTANCE)
            for i in group:
                sub_labels[i] = sub
                personas[i] = persona

    diagnostics = {"initial_k": k_best, "sub_k": sub_k,
                   "ch_scores": {str(k): v for k, v in scores.items()}}
    return initial, tuple(sub_labels), personas, diagnostics


def run_pipeline(archive_path: Union[str, Path], output_dir: Union[str, Path], *,
                 seed: int = 0, k_min: int = 2, k_max: int = 10,
                 persona_profile_path: Optional[str] = None,
                 exclude_bots: bool = False,
                 bot_deny_list: tuple[str, ...] = ()) -> tuple[int, int]:
    """Execute all stages in order and write every report file into
    ``output_dir``; return (number of individuals, initial k).

    ``seed`` is recorded in the manifest only: the pipeline draws no random
    numbers.
    """
    started_at = datetime.now(timezone.utc)
    check_k_range(k_min, k_max)
    check_makeable_dir(output_dir)

    # every result is computed before the output directory is made, so that an
    # input the pipeline rejects, or a failing stage, leaves no output behind
    sets = load_archive(archive_path)
    deny = frozenset(bot_deny_list)
    individuals, vectors = metric_table(sets, exclude_bots=exclude_bots, bot_deny_list=deny)
    profiles = load_profiles(persona_profile_path)
    rows = feature_matrix(vectors)
    initial, sub_labels, personas, diagnostics = cluster_and_label(
        rows, profiles, k_min=k_min, k_max=k_max)
    clusters = members(initial)
    classifications = classify_archive(sets)
    dendro = agglomerate(rows)
    mrc = FEATURE_NAMES.index("mrc")
    levels = order_clusters_by_interactivity(
        {c: float(rows[m, mrc].mean()) for c, m in enumerate(clusters)},
        {c: len(m) for c, m in enumerate(clusters)},
    )
    stats = stats_block(rows, clusters)

    out = make_dir(output_dir)
    write_metrics_csv(vectors, out / "metrics.csv")
    write_classification_csv(classifications, out / "classification.csv")
    dendro.save_json(out / "dendrogram.json")
    write_labels_csv(vectors, initial, sub_labels, out / "labels.csv")
    write_personas_csv(vectors, personas, out / "personas.csv", (initial, sub_labels))
    diagnostics["interactivity_levels"] = {str(k): v for k, v in (levels or {}).items()}
    write_stats_json(stats, out / "stats.json", diagnostics=diagnostics)
    write_reports(individuals, initial, out)

    # the config hash digests every setting but the output directory
    settings = {"archive_path": archive_path, "seed": seed, "k_min": k_min,
                "k_max": k_max, "persona_profile_path": persona_profile_path,
                "exclude_bots": exclude_bots, "bot_deny_list": sorted(deny)}
    persona_counts = Counter(name for name, _dist in personas)

    manifest = {
        "format": "persona-miner-manifest",
        "version": 1,
        "tool_version": __version__,
        "inputs": {"archive": str(archive_path)},
        "seed": seed,
        "config_hash": hashlib.sha256(json.dumps(
            settings, sort_keys=True, default=str).encode()).hexdigest(),
        "n_individuals": len(vectors),
        "initial_k": diagnostics["initial_k"],
        "persona_counts": dict(sorted(persona_counts.items())),
        "started_at": started_at.isoformat(),
        "finished_at": datetime.now(timezone.utc).isoformat(),
    }
    write_json(out / "run_manifest.json", manifest, sort_keys=True)

    return len(vectors), diagnostics["initial_k"]
