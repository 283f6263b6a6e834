import math

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage

from persona_miner import cluster as cluster_module
from persona_miner.cluster import (
    Dendrogram,
    agglomerate,
    cut,
    select_k,
    subcluster,
)
from persona_miner.errors import DataValidationError


def naive_ward(rows):
    """Independent oracle: greedy Ward merges via the explicit centroid formula.

    Merge cost d2(A, B) = 2|A||B|/(|A|+|B|) * ||centroid_A - centroid_B||^2,
    evaluated from scratch each step over the member points (no Lance-Williams
    recurrence). Ties break toward the lexicographically lowest node-id pair.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    clusters = {i: [i] for i in range(n)}  # node_id -> member leaf rows
    merges = []
    next_id = n
    for _ in range(n - 1):
        best = None
        for a in sorted(clusters):
            for b in sorted(clusters):
                if a >= b:
                    continue
                ca = rows[clusters[a]].mean(axis=0)
                cb = rows[clusters[b]].mean(axis=0)
                na, nb = len(clusters[a]), len(clusters[b])
                d2 = 2.0 * na * nb / (na + nb) * float(np.sum((ca - cb) ** 2))
                if best is None or d2 < best[0] - 1e-12 or (
                    abs(d2 - best[0]) <= 1e-12 and (a, b) < best[1:]
                ):
                    best = (d2, a, b)
        d2, a, b = best
        members = clusters.pop(a) + clusters.pop(b)
        clusters[next_id] = members
        merges.append((a, b, math.sqrt(max(d2, 0.0)), len(members)))
        next_id += 1
    return merges


def _reference_ward(rows):
    """Reference for bit-exact checks: the O(n^3) full-scan Lance-Williams loop.

    Every step scans the whole matrix for its minimum. agglomerate must give
    the same merges, compared with ==, because it runs the same recurrence in
    the same order and only caches the row minima.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    diff = rows[:, None, :] - rows[None, :, :]
    work = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(work, np.inf)
    size = np.ones(n)
    node_id = np.arange(n)
    active = np.ones(n, dtype=bool)
    merges = []
    for step in range(n - 1):
        min_val = float(np.min(work))
        best_pair = None
        best_key = None
        for ci, cj in np.argwhere(work == min_val):
            if ci >= cj:
                continue
            a, b = int(node_id[ci]), int(node_id[cj])
            key = (min(a, b), max(a, b))
            if best_key is None or key < best_key:
                best_key = key
                best_pair = (int(ci), int(cj))
        i, j = best_pair
        a, b = best_key
        merges.append((a, b, math.sqrt(max(min_val, 0.0)), int(size[i] + size[j])))
        ni, nj = size[i], size[j]
        dij = work[i, j]
        mask = active.copy()
        mask[i] = False
        mask[j] = False
        nm = size[mask]
        new = ((ni + nm) * work[i, mask] + (nj + nm) * work[j, mask] - nm * dij) / (
            ni + nj + nm
        )
        work[i, mask] = new
        work[mask, i] = new
        active[j] = False
        work[j, :] = np.inf
        work[:, j] = np.inf
        work[i, i] = np.inf
        size[i] = ni + nj
        node_id[i] = n + step
    return tuple(merges)


def ch_index(vectors, labels: tuple[int, ...]) -> float:
    """Test-only oracle: Calinski-Harabasz from the clusters' centroids, with k
    the largest id plus one; zero within-cluster scatter reports +inf."""
    rows = np.asarray(vectors, dtype=float)
    n = rows.shape[0]
    k = max(labels) + 1
    if k < 2:
        raise DataValidationError("CH index needs k >= 2")
    if n <= k:
        raise DataValidationError("CH index needs n > k")
    lab = np.asarray(labels)
    grand_mean = rows.mean(axis=0)
    between = 0.0
    within = 0.0
    for c in range(k):
        members = rows[lab == c]
        centroid = members.mean(axis=0)
        between += len(members) * float(np.sum((centroid - grand_mean) ** 2))
        within += float(np.sum((members - centroid) ** 2))
    if within == 0.0:
        return math.inf
    return (between / (k - 1)) / (within / (n - k))


def test_single_point():
    dendro = agglomerate([[1.0, 2.0]])
    assert dendro.n_leaves == 1
    assert dendro.merges == ()


def test_two_points_merge_at_euclidean_distance():
    dendro = agglomerate([[0.0], [6.0]])
    (a, b, h, s), = dendro.merges
    assert (a, b, s) == (0, 1, 2)
    assert abs(h - 6.0) < 1e-12


def test_identical_points_zero_height_lowest_pair_first():
    dendro = agglomerate([[3.0, 3.0]] * 3)
    assert dendro.merges[0][:2] == (0, 1)
    assert dendro.merges[0][2] == 0.0
    assert dendro.merges[1][:2] == (2, 3)


def test_matches_naive_oracle_on_random_inputs():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 16))
        rows = rng.normal(size=(n, 4))
        dendro = agglomerate(rows)
        expected = naive_ward(rows)
        assert len(dendro.merges) == len(expected)
        for got, want in zip(dendro.merges, expected):
            assert got[0] == want[0] and got[1] == want[1]
            assert abs(got[2] - want[2]) < 1e-9
            assert got[3] == want[3]


def _family_rows(family, rng, n, d):
    if family == "normal":
        return rng.normal(size=(n, d))
    if family == "lattice":
        return rng.integers(-2, 3, size=(n, d)).astype(float)
    if family == "grid25":
        return np.round(rng.uniform(0.0, 100.0, size=(n, d)) / 25.0) * 25.0
    return np.tile(rng.normal(size=(1, d)), (n, 1))  # all identical


def _reference_inputs(family, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 81))
    d = int(rng.integers(1, 7))
    return _family_rows(family, rng, n, d)


@pytest.mark.parametrize("family", ["normal", "lattice", "grid25", "identical"])
def test_matches_reference_bit_for_bit(family):
    for seed in range(25):
        rows = _reference_inputs(family, seed)
        assert agglomerate(rows).merges == _reference_ward(rows)


@pytest.mark.parametrize("family", ["normal", "lattice"])
@pytest.mark.parametrize("n", [7, 150, 301])
def test_squared_distances_across_blocks_bit_for_bit(monkeypatch, family, n):
    # small blocks: the triangular build spans many blocks, each mirrored
    monkeypatch.setattr(cluster_module, "_BLOCK_ELEMENTS", 64)
    for d in (1, 3, 10):
        rows = _family_rows(family, np.random.default_rng(n + d), n, d)
        diff = rows[:, None, :] - rows[None, :, :]
        full = np.einsum("ijk,ijk->ij", diff, diff)
        built = cluster_module._squared_distances(rows)
        assert np.array_equal(built.view(np.int64), full.view(np.int64)), d
        assert np.array_equal(built.view(np.int64), built.T.view(np.int64)), d


@pytest.mark.parametrize("family, n, d", [
    ("lattice", 300, 4), ("lattice", 151, 6), ("grid25", 300, 3), ("grid25", 97, 5),
    ("identical", 120, 2),
])
def test_matches_reference_across_blocks(monkeypatch, family, n, d):
    monkeypatch.setattr(cluster_module, "_BLOCK_ELEMENTS", 64)
    rows = _family_rows(family, np.random.default_rng(n), n, d)
    assert agglomerate(rows).merges == _reference_ward(rows)


@pytest.mark.parametrize("quantised", [False, True], ids=["two-slot", "tied-slots"])
def test_matches_reference_at_run_scale(quantised):
    # a continuous draw has one pair at each minimum, so nearly every step
    # takes the two-slot path; rounding to a 25-grid ties many pairs at once
    rows = np.random.default_rng(500).normal(50.0, 30.0, size=(500, 10))
    if quantised:
        rows = np.round(rows / 25.0) * 25.0
    merges = agglomerate(rows).merges
    assert merges == _reference_ward(rows)
    distinct_heights = len({m[2] for m in merges})
    if quantised:
        assert distinct_heights < len(merges) // 2
    else:
        assert distinct_heights == len(merges)


def test_nearest_neighbour_ties_in_different_columns():
    # row 1 has two nearest neighbours at distance 1 (columns 0 and 2), row 4
    # has one (column 3) at the same distance: the lowest pair (0, 1) goes first
    rows = [[0.0], [1.0], [2.0], [10.0], [11.0]]
    merges = agglomerate(rows).merges
    assert merges == _reference_ward(rows)
    assert [m[:2] for m in merges[:2]] == [(0, 1), (3, 4)]
    # mirrored, the same distances sit in other columns; ids still decide
    mirrored = [[11.0], [10.0], [2.0], [1.0], [0.0]]
    merges = agglomerate(mirrored).merges
    assert merges == _reference_ward(mirrored)
    assert [m[:2] for m in merges[:2]] == [(0, 1), (2, 3)]


def test_overflowing_distances_rejected():
    with pytest.raises(DataValidationError):
        agglomerate([[1e200], [-1e200]])
    # the squared distances fit, but the Lance-Williams recurrence overflows:
    # to inf on the first rows, to NaN (inf - inf) on the second
    for rows in ([[0.0], [1.0], [5e153], [-5e153]],
                 [[0.0, 0.0], [1e154, 0.0], [5e153, 8.7e153], [5e153, 8.7e153]]):
        with pytest.warns(RuntimeWarning) as record:
            with pytest.raises(DataValidationError, match="Ward distances overflow"):
                agglomerate(rows)
        assert any("overflow" in str(w.message) for w in record), rows


def _first_appearance(labels):
    order = {}
    return tuple(order.setdefault(lab, len(order)) for lab in labels)


@pytest.mark.parametrize("n", [500, 1000])
def test_matches_scipy_ward(n):
    rows = np.random.default_rng(n).normal(size=(n, 10))
    dendro = agglomerate(rows)
    linked = linkage(rows, method="ward")
    heights = np.sort([m[2] for m in dendro.merges])
    np.testing.assert_allclose(heights, linked[:, 2], rtol=1e-9, atol=0.0)
    for k in range(2, 11):
        expected = _first_appearance(fcluster(linked, t=k, criterion="maxclust"))
        assert cut(dendro, k) == expected


def test_subcluster_same_as_with_reference_ward(monkeypatch):
    rng = np.random.default_rng(11)
    rows = _blobs(rng, [(0.0, 0.0, 0.0), (8.0, 0.0, 0.0), (0.0, 8.0, 0.0)],
                  n_per=40, sd=1.5)
    parent_rows = rows[:80]  # the first two blobs, as one parent cluster
    fast, fast_scores = subcluster(parent_rows), select_k(parent_rows)[1]
    monkeypatch.setattr(
        cluster_module, "agglomerate",
        lambda vectors: Dendrogram(n_leaves=len(vectors),
                                   merges=_reference_ward(vectors)),
    )
    slow, slow_scores = subcluster(parent_rows), select_k(parent_rows)[1]
    assert max(fast) >= 1 and max(slow) >= 1  # split, not left whole
    assert (fast, fast_scores) == (slow, slow_scores)


def test_heights_monotone_nondecreasing():
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        rows = rng.normal(size=(40, 10))
        heights = [m[2] for m in agglomerate(rows).merges]
        assert all(h2 >= h1 - 1e-12 for h1, h2 in zip(heights, heights[1:]))


def test_nan_rejected():
    with pytest.raises(DataValidationError):
        agglomerate([[0.0], [float("nan")]])


def test_cut_k1_and_kn():
    rows = [[0.0], [1.0], [10.0], [11.0]]
    dendro = agglomerate(rows)
    assert cut(dendro, 1) == (0, 0, 0, 0)
    assert cut(dendro, 4) == (0, 1, 2, 3)


def test_cut_is_partition_with_expected_groups():
    rows = [[0.0], [1.0], [10.0], [11.0]]
    assert cut(agglomerate(rows), 2) == (0, 0, 1, 1)


def test_cut_labels_ordered_by_smallest_leaf():
    # clusters are numbered by their smallest member leaf id
    rows = [[100.0], [0.0], [100.5], [0.5]]
    assert cut(agglomerate(rows), 2) == (0, 1, 0, 1)


def test_members_lists_rows_by_cluster_id():
    assert cluster_module.members((2, 0, 1, 0, 2)) == [[1, 3], [2], [0, 4]]
    assert cluster_module.members(()) == []


def test_cut_out_of_range():
    dendro = agglomerate([[0.0], [1.0]])
    with pytest.raises(DataValidationError):
        cut(dendro, 0)
    with pytest.raises(DataValidationError):
        cut(dendro, 3)


def test_ch_fixture_exactly_200():
    rows = [[0.0], [1.0], [10.0], [11.0]]
    assert abs(ch_index(rows, (0, 0, 1, 1)) - 200.0) < 1e-9


def test_ch_infinite_on_zero_within_scatter():
    rows = [[0.0], [0.0], [5.0], [5.0]]
    assert ch_index(rows, (0, 0, 1, 1)) == math.inf


def test_ch_invariant_under_label_permutation():
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(20, 3))
    labels = tuple(int(x) for x in rng.integers(0, 3, 20))
    assert set(labels) == {0, 1, 2}
    swapped = tuple({0: 2, 1: 0, 2: 1}[l] for l in labels)
    assert abs(ch_index(rows, labels) - ch_index(rows, swapped)) < 1e-9


def test_ch_invariant_under_row_reorder():
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(15, 4))
    labels = tuple(int(x) for x in rng.integers(0, 2, 15))
    if len(set(labels)) < 2:
        labels = (0,) * 7 + (1,) * 8
    perm = rng.permutation(15)
    a = ch_index(rows, labels)
    b = ch_index(rows[perm], tuple(labels[i] for i in perm))
    assert abs(a - b) < 1e-9


def _blobs(rng, centers, n_per, sd):
    rows = np.concatenate([
        rng.normal(loc=c, scale=sd, size=(n_per, len(c))) for c in centers
    ])
    return rows


def test_select_k_three_blobs():
    hits = 0
    centers = [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0)]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        rows = _blobs(rng, centers, n_per=60, sd=1.0)
        best, _scores = select_k(rows, 2, 10)
        hits += best == 3
    assert hits >= 95


def test_select_k_clamps_to_n_minus_1():
    rows = [[0.0], [1.0], [10.0]]
    best, scores = select_k(rows, 2, 10)
    assert set(scores) == {2}
    assert best == 2


def test_select_k_needs_three_rows():
    with pytest.raises(DataValidationError):
        select_k([[0.0], [1.0]])


def test_select_k_tie_prefers_smallest_k():
    # two perfect blobs: k=2 gives +inf; any larger k with zero scatter also
    # gives +inf, so the tie must resolve to 2
    rows = [[0.0]] * 3 + [[10.0]] * 3
    best, scores = select_k(rows, 2, 5)
    assert best == 2
    assert scores[2] == math.inf


@pytest.mark.parametrize("d", [1, 10])
def test_select_k_repeated_rows_pick_k2(d):
    # two groups of exact repeats: W(k) is exactly 0 at every k >= 2, so every
    # score is +inf and the tie goes to k = 2, never a split of equal rows
    rows = [[0.1] * d] * 3 + [[0.7] * d] * 3
    best, scores = select_k(rows, 2, 5)
    assert best == 2
    assert scores == {k: math.inf for k in range(2, 6)}
    assert subcluster(np.array(rows)) == (0, 0, 0, 1, 1, 1)


def _score_inputs(family, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 61))
    d = int(rng.integers(1, 7))
    if family == "normal":
        return rng.normal(size=(n, d))
    if family == "lattice":  # integer rows: tied distances and exact repeats
        return rng.integers(-2, 3, size=(n, d)).astype(float)
    # repeats of 12 or more distinct rows, more than the largest k, so no cut
    # has zero scatter, where the oracle's centroids carry rounding noise
    base = rng.normal(size=(max(n, 12), d))
    rows = np.concatenate([base, base[rng.integers(0, len(base), size=n)]])
    return rows[rng.permutation(len(rows))]


@pytest.mark.parametrize("family", ["normal", "lattice", "duplicates"])
def test_select_k_scores_match_ch_oracle(family):
    for seed in range(30):
        rows = _score_inputs(family, seed)
        best, scores = select_k(rows, 2, 10)
        tree = agglomerate(rows)
        oracle = {k: ch_index(rows, cut(tree, k)) for k in scores}
        for k, score in scores.items():
            if oracle[k] == math.inf:
                assert score == math.inf, (seed, k)
            else:
                assert abs(score - oracle[k]) <= 1e-12 * oracle[k], (seed, k)
        assert best == max(sorted(oracle), key=lambda k: oracle[k]), seed


def test_subcluster_splits_parent():
    rows = np.array([[0.0], [0.5], [10.0], [10.5], [100.0], [101.0],
                     [200.0], [201.0]])
    # parent 0 of labels (0,0,0,0,1,1,1,1)
    assert subcluster(rows[:4], k_max=3) == (0, 0, 1, 1)


def test_subcluster_tiny_parent_unsplittable():
    rows = np.array([[0.0], [1.0], [50.0]])
    assert subcluster(rows[2:]) == (0,)  # parent 1 of labels (0, 0, 1)


def test_subcluster_parent_of_k_min_rows_stays_whole():
    # 3 rows clamp k_max to 2, below k_min = 3: no k to try, so one cluster
    assert subcluster(np.array([[0.0], [1.0], [50.0]]), k_min=3) == (0, 0, 0)


def test_dendrogram_json_round_trip(tmp_path):
    import json

    dendro = agglomerate([[0.0], [1.0], [5.0]])
    path = tmp_path / "d.json"
    dendro.save_json(path)
    obj = json.loads(path.read_text())
    assert obj["n_leaves"] == 3
    assert len(obj["merges"]) == 2
