"""Persona reference profiles and nearest-centroid labeling.

Distances use only the six RC dimensions: MRC is derivable from them and
would double-weight the same information, and the other percentage features
have no published reference values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence, Union

from .errors import ConfigError, DataValidationError, write_csv
from .metrics import MetricVector

UNMATCHED = "Unmatched persona"
UNMATCHED_DISTANCE = 25.0  # run's sub-cluster centroids beyond it are UNMATCHED

INTERACTIVITY_LEVELS = ("Low", "Moderate", "High")


@dataclass(frozen=True)
class PersonaProfile:
    name: str
    interactivity: str
    centroid: tuple[float, ...]  # six RC reference means

    def __post_init__(self):
        if len(self.centroid) != 6:
            raise ConfigError("persona centroid must have six RC values")
        if any(not 0.0 <= v <= 100.0 for v in self.centroid):
            raise ConfigError("persona centroid values must be in [0, 100]")
        if self.interactivity not in INTERACTIVITY_LEVELS:
            raise ConfigError(f"unknown interactivity {self.interactivity!r}")


def load_profiles(path: Optional[Union[str, Path]] = None) -> tuple[PersonaProfile, ...]:
    """Profiles from ``path``, else the bundled ``personas.json``; a file that
    cannot be read as profiles, or holds none, is a ConfigError naming it."""
    source = Path(path) if path is not None else \
        resources.files("persona_miner.data").joinpath("personas.json")
    try:
        profiles = tuple(
            PersonaProfile(
                name=p["name"],
                interactivity=p["interactivity"],
                centroid=tuple(float(v) for v in p["centroid"]),
            )
            for p in json.loads(source.read_text("utf-8"))["profiles"]
        )
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: bad persona profiles "
                          f"({type(exc).__name__}: {exc})") from exc
    if not profiles:
        raise ConfigError(f"{source}: bad persona profiles (none listed)")
    return profiles


def order_clusters_by_interactivity(
    cluster_mean_mrcs: dict[int, float],
    cluster_sizes: dict[int, int],
) -> Optional[dict[int, str]]:
    """Map ascending mean MRC onto Low < Moderate < High for exactly 3 clusters.

    Ties break by cluster size descending. Any other number of clusters has
    no standard levels and yields None.
    """
    if len(cluster_mean_mrcs) != 3:
        return None
    ordered = sorted(
        cluster_mean_mrcs,
        key=lambda c: (cluster_mean_mrcs[c], -cluster_sizes[c], c),
    )
    return {c: INTERACTIVITY_LEVELS[i] for i, c in enumerate(ordered)}


def _distance(a: Sequence[float], b: Sequence[float]) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def label_subcluster(
    subcluster_centroid: Sequence[float],
    profiles: Sequence[PersonaProfile],
    max_distance: Optional[float] = None,
) -> tuple[str, float]:
    """Nearest reference centroid by Euclidean distance over the six RCs.

    Ties break by profile declaration order. With ``max_distance`` set, a
    nearest distance beyond it yields the honest "Unmatched persona" label.
    """
    centroid = tuple(subcluster_centroid)
    if len(centroid) != 6:
        raise DataValidationError("sub-cluster centroid must have six RC values")
    best_name, best_dist = None, math.inf
    for profile in profiles:
        dist = _distance(centroid, profile.centroid)
        if dist < best_dist:
            best_name, best_dist = profile.name, dist
    if max_distance is not None and best_dist > max_distance:
        return UNMATCHED, best_dist
    return best_name, best_dist


def assign_persona(v: MetricVector, profiles: Sequence[PersonaProfile]) -> tuple[str, float]:
    """Direct-mode (persona, distance) of one individual by its six RC values only."""
    return label_subcluster(v.features[:6], profiles)


def write_personas_csv(vectors: Sequence[MetricVector], personas: Sequence[tuple[str, float]],
                       path: Union[str, Path], columns: Optional[tuple] = None) -> None:
    """Row i is vectors[i]'s repo and login, personas[i]'s (persona, distance)
    and, with ``columns``, run's (cluster, subcluster) label columns; without
    them both cells are empty. Sequences of unequal length are a ValueError."""
    clusters, subclusters = columns or (("",) * len(vectors),) * 2
    write_csv(path, ["repo", "login", "persona", "distance", "cluster", "subcluster"], (
        [v.repo, v.login, name, repr(dist), cluster, sub]
        for v, (name, dist), cluster, sub
        in zip(vectors, personas, clusters, subclusters, strict=True)))
