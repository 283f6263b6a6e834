"""Synthetic metric vectors drawn around persona reference centroids.

Round-trip validation harness: generate noisy vectors per archetype, push
them through clustering and labeling, and check how much ground truth is
recovered. Noise is truncated-Gaussian via clamping to [0, 100].
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

from .errors import ConfigError
from .metrics import MetricVector, compute_mrc
from .models import RepoSlug
from .personas import DEFAULT_PROFILES, PersonaProfile


@dataclass(frozen=True)
class ArchetypeSpec:
    name: str
    centroid: tuple[float, ...]  # six RC means
    noise_sd: float
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ConfigError("count must be >= 0")
        if self.noise_sd < 0:
            raise ConfigError("noise_sd must be >= 0")
        if len(self.centroid) != 6:
            raise ConfigError("archetype centroid must have six RC values")


def default_archetypes(count: int = 200, noise_sd: float = 2.0,
                       profiles: Sequence[PersonaProfile] = DEFAULT_PROFILES,
                       ) -> list[ArchetypeSpec]:
    return [
        ArchetypeSpec(name=p.name, centroid=p.centroid, noise_sd=noise_sd,
                      count=count)
        for p in profiles
    ]


def load_archetype_specs(path: Union[str, Path]) -> list[ArchetypeSpec]:
    """The specs of an ``{"archetypes": [...]}`` file; a file that cannot be
    read as specs is a ConfigError naming it."""
    try:
        return [
            ArchetypeSpec(
                name=a["name"],
                centroid=tuple(float(v) for v in a["centroid"]),
                noise_sd=float(a.get("noise_sd", 0.0)),
                count=int(a["count"]),
            )
            for a in json.loads(Path(path).read_text("utf-8"))["archetypes"]
        ]
    except (OSError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad archetype specs "
                          f"({type(exc).__name__}: {exc})") from exc


def generate(specs: Sequence[ArchetypeSpec], seed: int,
             ) -> tuple[list[MetricVector], list[str]]:
    """Generate vectors and their ground-truth archetype names.

    Six RCs are centroid + clamped Gaussian noise, and
    :meth:`MetricVector.from_rcs` derives the MRC and net-issues features. The
    two share-style features have no reference values, so they reuse the MRC
    as a consistent stand-in.
    """
    import numpy as np

    if not specs:
        raise ConfigError("specs must be non-empty")
    rng = np.random.default_rng(seed)
    vectors: list[MetricVector] = []
    truth: list[str] = []
    repo = RepoSlug("simgen", "synthetic")
    serial = 0
    for spec in specs:
        noise = rng.normal(0.0, spec.noise_sd, size=(spec.count, 6)) \
            if spec.noise_sd > 0 else np.zeros((spec.count, 6))
        rcs = np.clip(np.asarray(spec.centroid) + noise, 0.0, 100.0)
        for row in rcs:
            six = tuple(float(x) for x in row)
            mrc = compute_mrc(six)
            uit = sum(1 for v in six if v > 0) or 1
            vectors.append(MetricVector.from_rcs(six, mrc, mrc, uit, repo,
                                                 f"sim-{serial:05d}"))
            truth.append(spec.name)
            serial += 1
    return vectors, truth
