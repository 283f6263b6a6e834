"""Ward-linkage clustering, with k chosen by CH from its merge heights.

The merge loop runs the Lance-Williams recurrence on squared Euclidean
distances over an updateable n*n dissimilarity matrix. Reported merge heights
are the square roots of the recurrence values, so two singleton points merge
at their plain Euclidean distance. The matrix is built a block of rows at a
time against the rows from the block's own first row on, and mirrored, so
each pair is computed once.

A vector nn caches, for every cluster slot, the smallest entry of its row
(inf once the slot is merged away). Each merge takes the global minimum from
nn in O(n), then refreshes nn in O(n): a row whose minimum sat in one of the
two merged columns and grew is rescanned, every other row takes the minimum
of its cached value and its one new entry. This is the "generic" algorithm of
Muellner (2011, arXiv:1109.2378); it merges in the same order and with the
same arithmetic as a full scan of the matrix, so typical time is O(n^2) and
memory is O(n^2), with no n*n*d difference tensor. Each step updates whole
rows rather than gathering the active slots: a slot merged away holds inf in
its row and column, so its entries come out inf again and the matrix after
each step is the one a gather would leave. Ties on the merge dissimilarity
break toward the lexicographically lowest (a, b) node-id pair for
cross-platform determinism, searched among the slots whose nn holds the
minimum; when exactly two slots hold it they are each other's nearest
neighbour, and the search is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import TYPE_CHECKING, Union

from .errors import DataValidationError, write_json

if TYPE_CHECKING:  # numpy is imported where it is used, keeping it off CLI start
    import numpy as np


@dataclass(frozen=True)
class Dendrogram:
    """Merge tree: leaf ids 0..n-1, internal ids n..2n-2, n-1 merges."""

    n_leaves: int
    merges: tuple[tuple[int, int, float, int], ...]  # (a, b, height, new_size)

    def save_json(self, path: Union[str, Path]) -> None:
        obj = {"n_leaves": self.n_leaves,
               "merges": [[a, b, h, s] for a, b, h, s in self.merges]}
        write_json(path, obj)


def members(labels: tuple[int, ...]) -> list[list[int]]:
    """Row indices of each cluster, indexed by cluster id; k is the largest
    id plus one."""
    groups: list[list[int]] = [[] for _ in range(max(labels, default=-1) + 1)]
    for idx, label in enumerate(labels):
        groups[label].append(idx)
    return groups


def _validate_rows(vectors) -> np.ndarray:
    import numpy as np

    rows = np.asarray(vectors, dtype=float)
    if rows.ndim == 1:
        rows = rows.reshape(-1, 1)
    if rows.size and not np.all(np.isfinite(rows)):
        raise DataValidationError("input rows must be finite (no NaN/inf)")
    return rows


_BLOCK_ELEMENTS = 1 << 16  # about 0.5 MB of float64 per difference tensor


def _squared_distances(rows: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, built triangularly a block at a time.

    Each block of rows runs the same einsum over its difference tensor against
    the rows from its own first row on; the block fills its rows of the upper
    triangle and, transposed, its columns of the lower. (x_i - x_j)**2 and
    (x_j - x_i)**2 are the same float and einsum sums them in the same order,
    so every entry equals the one a single n*n*d tensor would give, bit for
    bit, the matrix is exactly symmetric, and the temporary stays near
    _BLOCK_ELEMENTS floats.
    """
    import numpy as np

    n, d = rows.shape
    d2 = np.empty((n, n))
    step = max(1, _BLOCK_ELEMENTS // max(n * d, 1))
    for start in range(0, n, step):
        stop = start + step
        diff = rows[start:stop, None, :] - rows[None, start:, :]
        block = np.einsum("ijk,ijk->ij", diff, diff)
        d2[start:stop, start:] = block
        d2[start:, start:stop] = block.T
    return d2


def agglomerate(vectors) -> Dendrogram:
    """Build the full Ward merge tree for the given rows."""
    import numpy as np

    rows = _validate_rows(vectors)
    n = rows.shape[0]
    if n < 1:
        raise DataValidationError("need at least one row")

    # squared Euclidean distances between current clusters; inf marks inactive
    work = _squared_distances(rows)
    if not np.all(np.isfinite(work)):
        raise DataValidationError("squared distances overflow; rescale the rows")
    np.fill_diagonal(work, np.inf)
    nn = work.min(axis=1)  # nn[s]: smallest entry of row s, inf once s is merged

    size = np.ones(n)
    node_id = np.arange(n)
    merges: list[tuple[int, int, float, int]] = []

    for step in range(n - 1):
        min_val = nn.min()
        if not min_val < math.inf:  # the recurrence overflowed to inf or NaN
            raise DataValidationError("Ward distances overflow; rescale the rows")
        # every slot pair at min_val has both rows' cached minimum at min_val,
        # so the tie search reads only the tied slots' rows and columns
        tied = (nn == min_val).nonzero()[0]
        if len(tied) == 2:  # one pair holds min_val: no tie to break
            i, j = int(tied[0]), int(tied[1])
            a, b = sorted((int(node_id[i]), int(node_id[j])))
        else:  # exact ties break toward the lexicographically lowest node-id pair
            rs, cs = np.nonzero(work[np.ix_(tied, tied)] == min_val)
            ci, cj = tied[rs], tied[cs]
            upper = ci < cj
            ci, cj = ci[upper], cj[upper]
            a_ids, b_ids = node_id[ci], node_id[cj]
            lo, hi = np.minimum(a_ids, b_ids), np.maximum(a_ids, b_ids)
            best = int(np.argmin(lo * (2 * n) + hi))
            i, j = int(ci[best]), int(cj[best])
            a, b = int(lo[best]), int(hi[best])
        ni, nj = float(size[i]), float(size[j])
        merges.append((a, b, math.sqrt(max(float(min_val), 0.0)), int(ni + nj)))

        # Lance-Williams update for Ward over whole rows, merged cluster kept in
        # slot i. Slots i, j and those merged away hold inf in wi or wj, so
        # come out inf.
        wi, wj = work[i], work[j]
        dij = float(wi[j])
        new = ((size + ni) * wi + (size + nj) * wj - size * dij) / (size + (ni + nj))

        # a row's minimum can only grow if it sat in column i or j, that is if
        # min(wi, wj) equals it, and the new entry is larger; only those rows
        # are rescanned, every other row keeps min(old minimum, new entry)
        grown = (np.minimum(wi, wj) == nn) & (new > nn)
        grown[i] = grown[j] = False

        work[i] = new
        work[:, i] = new
        work[j] = np.inf
        work[:, j] = np.inf
        size[i] = ni + nj
        node_id[i] = n + step

        np.minimum(nn, new, out=nn)
        for s in grown.nonzero()[0].tolist():
            nn[s] = work[s].min()
        nn[i] = wi.min()
        nn[j] = np.inf

    return Dendrogram(n_leaves=n, merges=tuple(merges))


def cut(dendrogram: Dendrogram, k: int) -> tuple[int, ...]:
    """Undo the last k-1 merges; each leaf's cluster id, by ascending smallest leaf id."""
    n = dendrogram.n_leaves
    if not 1 <= k <= n:
        raise DataValidationError(f"k={k} out of range [1, {n}]")

    parent = list(range(2 * n - 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx, (a, b, _h, _s) in enumerate(dendrogram.merges[: n - k]):
        new_node = n + idx
        parent[find(a)] = new_node
        parent[find(b)] = new_node

    roots: dict[int, int] = {}
    for leaf in range(n):
        root = find(leaf)
        if root not in roots:
            roots[root] = len(roots)  # ascending smallest-member order
    return tuple(roots[find(leaf)] for leaf in range(n))


def select_k(vectors, k_min: int = 2, k_max: int = 10,
             ) -> tuple[int, dict[int, float]]:
    """Return the Calinski-Harabasz (CH) argmax over [k_min, k_max] and the scores.

    A Ward merge at height h adds h**2 / 2 to the within-cluster sum of
    squares, so W(k), that sum over the first n-k merges, gives CH(k) =
    ((W(1) - W(k)) / (k - 1)) / (W(k) / (n - k)), and +inf if W(k) == 0.
    k_max is clamped to n-1, so n <= k_min leaves an empty range, an error.
    Ties (and multiple +inf degenerate scores) break toward the smallest k.
    """
    rows = _validate_rows(vectors)
    n = rows.shape[0]
    k_max = min(k_max, n - 1)
    if k_min > k_max:
        raise DataValidationError(f"empty k range [{k_min}, {k_max}]")
    if k_min < 2:
        raise DataValidationError("CH index needs k >= 2")
    merges = agglomerate(rows).merges
    within = list(accumulate((h * h / 2 for _a, _b, h, _s in merges), initial=0.0))
    scores: dict[int, float] = {}
    for k in range(k_min, k_max + 1):
        w = within[n - k]
        scores[k] = math.inf if w == 0.0 else ((within[-1] - w) / (k - 1)) / (w / (n - k))
    best = max(sorted(scores), key=lambda k: scores[k])
    return best, scores


def subcluster(rows, k_min: int = 2, k_max: int = 10) -> tuple[int, ...]:
    """Each row's sub-cluster id within one parent cluster. A parent of at most
    ``k_min`` rows stays one cluster: clamped to n - 1, its k range is empty."""
    n = len(rows)
    if n <= k_min:
        return (0,) * n
    k_best, _scores = select_k(rows, k_min=k_min, k_max=k_max)
    return cut(agglomerate(rows), k_best)
