"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test is self-contained and uses independent oracles (recompute-from-
scratch clustering, SVD for PCA, scipy.stats for ANOVA/Tukey) rather than the
implementation's own code paths wherever the criterion demands equivalence.
"""

import json
import math
import random
import time
from datetime import datetime, timedelta, timezone

import numpy as np
import scipy.stats

from persona_miner import commit_classify
from persona_miner.cluster import agglomerate, select_k
from persona_miner.commit_classify import (
    ACTIVITY_FALLBACK,
    ACTIVITY_RULES,
    KEYWORD_STEMS,
    classify_commit,
    classify_files,
    classify_message,
)
from persona_miner.archive import load_archive
from persona_miner.metrics import (
    ALL_KINDS,
    FEATURE_NAMES,
    assemble_metric_vectors,
    build_repo_individuals,
)
from persona_miner.models import (
    InteractionEvent,
    InteractionSet,
)
from persona_miner.personas import assign_persona, label_subcluster, load_profiles
from persona_miner.pipeline import cluster_and_label, feature_matrix, run_pipeline
from persona_miner.sampling import apply_inclusion_criteria, subsample
from persona_miner.simgen import generate
from persona_miner.stats import one_way_anova, pca, tukey_hsd


# -- criterion 1: Ward oracle equivalence ----------------------------------

def _naive_ward(rows):
    """Recompute-from-scratch greedy Ward merges (no recurrence reuse)."""
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    clusters = {i: [i] for i in range(n)}
    merges = []
    next_id = n
    for _ in range(n - 1):
        ids = sorted(clusters)
        cents = np.array([rows[clusters[c]].mean(axis=0) for c in ids])
        sizes = np.array([len(clusters[c]) for c in ids], dtype=float)
        diff = cents[:, None, :] - cents[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        cost = 2.0 * sizes[:, None] * sizes[None, :] / (
            sizes[:, None] + sizes[None, :]) * dist2
        iu = np.triu_indices(len(ids), k=1)
        flat = cost[iu]
        min_val = flat.min()
        best = min(
            (ids[int(iu[0][x])], ids[int(iu[1][x])])
            for x in np.flatnonzero(flat == min_val)
        )
        a, b = best
        members = clusters.pop(a) + clusters.pop(b)
        clusters[next_id] = members
        merges.append((a, b, math.sqrt(max(float(min_val), 0.0)), len(members)))
        next_id += 1
    return merges


def test_criterion_1_ward_matches_naive_oracle_100_seeds():
    impl_time = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 65))  # n <= 64
        rows = rng.normal(size=(n, 10))  # d = 10
        start = time.perf_counter()
        dendro = agglomerate(rows)
        impl_time += time.perf_counter() - start
        expected = _naive_ward(rows)
        assert len(dendro.merges) == n - 1
        for got, want in zip(dendro.merges, expected):
            assert (got[0], got[1]) == (want[0], want[1])  # exact pair match
            assert abs(got[2] - want[2]) <= 1e-9  # pinned height tolerance
            assert got[3] == want[3]
    assert impl_time < 5.0  # pinned runtime budget


# -- criterion 2: CH index and k selection ---------------------------------

def test_criterion_2_ch_fixture_and_blob_k_selection():
    fixture = [[0.0], [1.0], [10.0], [11.0]]
    assert abs(select_k(fixture, 2, 3)[1][2] - 200.0) <= 1e-9  # pinned

    hits = 0
    centers = [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0)]  # separation 20 = 20x sd
    for seed in range(100):
        rng = np.random.default_rng(seed)
        rows = np.concatenate([
            rng.normal(loc=c, scale=1.0, size=(60, 2)) for c in centers
        ])
        best, _ = select_k(rows, 2, 10)
        hits += best == 3
    assert hits >= 95


# -- criterion 3: PCA ------------------------------------------------------

def test_criterion_3_pca_orthonormality_oracle_and_rank1():
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(80, 10)) * rng.uniform(0.5, 5.0, size=10)
    result = pca(rows, n_components=10)
    comp = np.array(result["components"])
    assert np.max(np.abs(comp @ comp.T - np.eye(10))) <= 1e-9  # orthonormal

    centered = rows - rows.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)  # independent eigen-oracle
    var = s ** 2 / (rows.shape[0] - 1)
    oracle = var / var.sum()
    assert np.max(np.abs(np.array(result["explained_variance_ratio"]) - oracle)) \
        <= 1e-9

    t = np.linspace(-1, 1, 30)
    rank1 = np.stack([t, 2 * t, -t], axis=1)
    first_ratio = pca(rank1, n_components=1)["explained_variance_ratio"][0]
    assert abs(first_ratio - 1.0) <= 1e-12  # pinned


# -- criterion 4: metrics invariants on 1,000 generated repos --------------

def _generated_repo(rng: random.Random, idx: int) -> InteractionSet:
    repo = f"gen/repo{idx:04d}"
    t0 = datetime(2023, 1, 1, tzinfo=timezone.utc)
    events = []
    serial = 0
    for actor_idx in range(rng.randint(1, 6)):
        for kind in ALL_KINDS:
            for _ in range(rng.randint(0, 3)):
                serial += 1
                events.append(InteractionEvent(
                    actor=f"user{actor_idx}", kind=kind,
                    timestamp=t0 + timedelta(hours=rng.randint(0, 8000)),
                    subject_id=f"s{serial}",
                ))
    if not events:
        events.append(InteractionEvent(
            actor="user0", kind="CommitCreated",
            timestamp=t0, subject_id="s0",
        ))
    return InteractionSet(repo=repo, events=tuple(events),
                          fetched_at=t0 + timedelta(days=400))


def test_criterion_4_metrics_invariants_on_1000_repos():
    rng = random.Random(41)
    mrc, days = FEATURE_NAMES.index("mrc"), FEATURE_NAMES.index("pct_interaction_days")
    for idx in range(1000):
        individuals = build_repo_individuals(_generated_repo(rng, idx))
        vectors = assemble_metric_vectors(individuals)
        for kind_idx, kind in enumerate(ALL_KINDS):
            if sum(i.counts[kind] for i in individuals) > 0:
                col = sum(v.features[kind_idx] for v in vectors)
                assert abs(col - 100.0) <= 1e-9  # pinned
        for v in vectors:
            assert v.features[mrc] == sum(v.features[:6]) / 6  # exact, same arithmetic
            assert 1 <= v.uit <= 6
        assert abs(sum(v.features[days] for v in vectors) - 100.0) <= 1e-9


# -- criterion 5: persona round-trip ---------------------------------------

def test_criterion_5_persona_round_trip():
    profiles = load_profiles()
    for profile in profiles:  # each centroid self-labels at distance 0
        name, dist = label_subcluster(profile.centroid, profiles)
        assert name == profile.name and dist == 0.0

    vectors, truth = generate(profiles, count=200, noise_sd=2.0, seed=0)

    direct_hits = sum(assign_persona(v, profiles)[0] == t
                      for v, t in zip(vectors, truth))
    assert direct_hits / len(vectors) >= 0.99  # pinned

    _initial, _sub, personas, _diag = cluster_and_label(
        feature_matrix(vectors), profiles)
    full_hits = sum(name == t for (name, _dist), t in zip(personas, truth))
    assert full_hits / len(vectors) >= 0.90  # pinned


# -- criterion 6: ANOVA / Tukey --------------------------------------------

def test_criterion_6_anova_and_tukey():
    equal = one_way_anova([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    assert equal["f_statistic"] == 0.0

    fixture = one_way_anova([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert abs(fixture["f_statistic"] - 13.5) <= 1e-9  # pinned
    _f, p_oracle = scipy.stats.f_oneway([1, 2, 3], [4, 5, 6])
    assert abs(fixture["p_value"] - p_oracle) <= 1e-9

    rng = np.random.default_rng(6)
    a, b = rng.normal(0, 1, 15), rng.normal(1, 1, 11)
    t_stat, _ = scipy.stats.ttest_ind(a, b)
    assert abs(one_way_anova([a, b])["f_statistic"] - t_stat ** 2) <= 1e-9  # F == t^2

    groups = [[10.0, 10.5, 9.5, 10.2], [10.1, 10.4, 9.8, 10.0],
              [50.0, 50.5, 49.5, 50.2]]
    pairs = tukey_hsd(groups)
    rejected = {(p["group_a"], p["group_b"]) for p in pairs if p["reject"]}
    assert rejected == {(0, 2), (1, 2)}  # exactly the two outlier pairs
    oracle = scipy.stats.tukey_hsd(*groups)
    for pair in pairs:
        assert abs(pair["p_adjusted"]
                   - oracle.pvalue[pair["group_a"], pair["group_b"]]) <= 1e-6


# -- criterion 7: commit classification ------------------------------------

def test_criterion_7_classification_totality_and_order(fixture_archive_path, monkeypatch):
    categories = {category for category, _ in ACTIVITY_RULES} | {
        ACTIVITY_FALLBACK}
    dev_types = {dev_type for dev_type, _ in KEYWORD_STEMS} | {"Unclassified"}
    n_commits = 0
    for iset in load_archive(fixture_archive_path):
        for ev in iset.events:
            if ev.kind == "CommitCreated":
                n_commits += 1
                dev_type, _size_class, activity_type = classify_commit(ev.payload)
                assert dev_type in dev_types
                assert activity_type in categories
    assert n_commits > 0

    assert classify_message("") == "Unclassified"

    rules = ACTIVITY_RULES
    doc_idx = next(i for i, (category, _) in enumerate(rules)
                   if category == "documentation")
    reordered = (rules[doc_idx],) + tuple(r for i, r in enumerate(rules) if i != doc_idx)
    multi = ["docs/guide.md", "src/main.c"]
    assert classify_files(multi) == "code"
    monkeypatch.setattr(commit_classify, "ACTIVITY_RULES", reordered)
    assert classify_files(multi) == "documentation"


# -- criterion 8: end-to-end determinism -----------------------------------

def test_criterion_8_pipeline_determinism(fixture_archive_path, tmp_path):
    start = time.perf_counter()
    first, second = tmp_path / "run1", tmp_path / "run2"
    for out in (first, second):
        run_pipeline(str(fixture_archive_path), str(out), seed=0)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0  # pinned runtime budget

    names = {p.name for p in first.iterdir()}
    assert names == {p.name for p in second.iterdir()}
    for name in sorted(names - {"run_manifest.json"}):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    m1 = json.loads((first / "run_manifest.json").read_text())
    m2 = json.loads((second / "run_manifest.json").read_text())
    for key in ("started_at", "finished_at"):  # only timestamps may differ
        m1.pop(key), m2.pop(key)
    assert m1 == m2


# -- criterion 9: sampling -------------------------------------------------

def test_criterion_9_sampling_properties():
    rng = random.Random(90)
    for _ in range(1000):  # pinned case count
        n = rng.randint(0, 400)
        fraction = rng.uniform(0.01, 1.0)
        seed = rng.randint(0, 2**32 - 1)
        slugs = [f"org/r{i:04d}" for i in range(n)]
        picked = subsample(slugs, fraction, seed)
        assert len(picked) == math.floor(fraction * n)
        assert picked == subsample(slugs, fraction, seed)  # seed reproduces
        assert set(picked) <= set(slugs)

    failing = dict(
        repo="org/repo", visibility="private",
        unique_committers=5000, license_id="Proprietary",
        languages=["Brainfuck"], is_fork=True, age_days=3,
    )
    _slug, failed_criteria = apply_inclusion_criteria(failing)
    failed = [cid for cid, _reason in failed_criteria]
    # every violated criterion reported, in declaration order, no short-circuit
    assert failed == ["public", "max_committers", "license", "language",
                      "fork", "age"]
    _slug, low = apply_inclusion_criteria(dict(
        repo="org/tiny", visibility="private",
        unique_committers=1, license_id=None, languages=[], is_fork=True,
        age_days=0,
    ))
    assert [c for c, _ in low] == [
        "public", "min_committers", "license", "language", "fork", "age"]
