"""Synthetic metric vectors drawn around persona reference centroids.

Round-trip validation harness: generate noisy vectors per persona profile,
push them through clustering and labeling, and check how much ground truth
is recovered. Noise is truncated-Gaussian via clamping to [0, 100].
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import ConfigError
from .metrics import MetricVector, compute_mrc
from .personas import PersonaProfile


def generate(profiles: Sequence[PersonaProfile], count: int, noise_sd: float,
             seed: int) -> tuple[list[MetricVector], list[str]]:
    """Generate ``count`` vectors per profile and their ground-truth names.

    Six RCs are centroid + clamped Gaussian noise, and
    :meth:`MetricVector.from_rcs` derives the MRC and net-issues features. The
    two share-style features have no reference values, so they reuse the MRC
    as a consistent stand-in.
    """
    import numpy as np

    if count < 0:
        raise ConfigError("count must be >= 0")
    if not 0 <= noise_sd < math.inf:  # NaN included
        raise ConfigError("noise_sd must be >= 0 and finite")
    rng = np.random.default_rng(seed)
    centroids = np.repeat([p.centroid for p in profiles], count, axis=0)
    rcs = np.clip(centroids + rng.normal(0.0, noise_sd, size=centroids.shape),
                  0.0, 100.0)
    vectors: list[MetricVector] = []
    for serial, row in enumerate(rcs):
        six = tuple(float(x) for x in row)
        mrc = compute_mrc(six)
        uit = sum(1 for v in six if v > 0) or 1
        vectors.append(MetricVector.from_rcs(six, mrc, mrc, uit, "simgen/synthetic",
                                             f"sim-{serial:05d}"))
    return vectors, [p.name for p in profiles for _ in range(count)]
