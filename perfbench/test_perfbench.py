"""Tests of the benchmark's own parts: generator, tracer arithmetic, checker.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import types
from itertools import combinations

import numpy as np
import pytest
from scipy import stats as sps

import checks
import tracer
from archive_gen import KINDS, ArchiveSpec, write_archive

SMALL = ArchiveSpec(n_repos=4, individuals_per_repo=6, mean_events=20,
                    bot_every=2, bot_events=5)


# -- generator ---------------------------------------------------------------

def test_generator_is_byte_deterministic_per_seed(tmp_path):
    a, b, c = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    assert write_archive(a, SMALL, seed=7) == write_archive(b, SMALL, seed=7)
    assert a.read_bytes() == b.read_bytes()
    write_archive(c, SMALL, seed=8)
    assert a.read_bytes() != c.read_bytes()


def test_generator_counts_match_the_archive(tmp_path):
    path = tmp_path / "a.jsonl"
    expected = write_archive(path, SMALL, seed=3)
    header, *lines = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    assert header == {"format": "persona-miner-archive", "version": 1}
    events = [o for o in lines if o["type"] == "event"]
    by_kind = {k: sum(1 for e in events if e["kind"] == k) for k in KINDS}
    people = {(e["repo"], e["actor"]) for e in events}
    assert by_kind == expected["events_by_kind"]
    assert len(events) == expected["events"]
    assert len(people) == expected["individuals"]
    assert sum(1 for _r, login in people if login.endswith("[bot]")) == expected["bots"] == 2
    assert sum(expected["upset"].values()) == expected["individuals"]
    commits = [e for e in events if e["kind"] == "CommitCreated"]
    assert len(commits) == expected["commits"]
    assert all(e["payload"]["changed_files"] for e in commits)
    for repo_marker in (o for o in lines if o["type"] == "repo"):
        n = sum(1 for e in events if e["repo"] == repo_marker["repo"])
        assert n == repo_marker["n_events"]


# -- tracer --------------------------------------------------------------------

def test_self_times_of_nested_spans():
    spans = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["a.inner", 1, 2.0, 3.0],
        ["b", 0, 5.0, 9.0],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    summary = tracer.summarize(spans)
    assert summary["root"] == {"calls": 1, "self_s": 3.0, "total_s": 10.0}


def test_self_time_counts_overlapping_children_once():
    spans = [["p", -1, 0.0, 10.0], ["c1", 0, 1.0, 4.0], ["c2", 0, 3.0, 6.0],
             ["c3", 0, 9.0, 12.0]]  # c3 is clipped to its parent's end
    assert tracer.self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_wrapped_calls_record_parent_and_self_time():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))

    inner = tr.wrap("m.inner", lambda: None)

    def outer_fn():
        inner()
        inner()

    outer = tr.wrap("m.outer", outer_fn)
    outer()
    # outer opens at 0; inner spans 1-2 and 3-4; outer closes at 5
    assert [s[1] for s in tr.spans] == [-1, 0, 0]
    summary = tracer.summarize(tr.spans)
    assert summary["m.outer"] == {"calls": 1, "self_s": 3.0, "total_s": 5.0}
    assert summary["m.inner"] == {"calls": 2, "self_s": 2.0, "total_s": 2.0}


def test_patch_layers_wraps_every_namespace_that_imported_a_function():
    pkg, layer, user = (types.ModuleType(n) for n in ("fakepkg", "fakepkg.layer",
                                                       "fakepkg.user"))
    exec("def work(rows):\n    return len(rows)\n"
         "def _private():\n    return 0\n", layer.__dict__)
    user.work = layer.work
    names = ("fakepkg", "fakepkg.layer", "fakepkg.user")
    sys.modules.update(zip(names, (pkg, layer, user)))
    try:
        tr = tracer.Tracer()
        patched = tracer.patch_layers(tr, "fakepkg", ("layer",),
                                      amounts={"layer.work": lambda rows: len(rows)})
        assert layer.work(["x"]) == 1 and user.work(["x", "y"]) == 2
        assert tracer.summarize(tr.spans)["layer.work"]["calls"] == 2
        assert tr.amounts == {"layer.work": 3}
        assert len(patched) == 2  # the private helper stays unwrapped
        tracer.unpatch(patched)
        assert user.work is layer.work and not hasattr(user.work, "__wrapped__")
    finally:
        for name in names:
            sys.modules.pop(name)


# -- checker -------------------------------------------------------------------

def _blobs(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0] * 10, [20.0] * 10, [0.0] * 5 + [40.0] * 5])
    return np.vstack([c + rng.normal(0, 1.5, size=(20, 10)) for c in centers])


def test_partition_check_accepts_ward_and_rejects_permuted_labels():
    rows = _blobs()
    labels = list(checks.ward_partition(rows, 3))
    subs = [0] * len(rows)
    assert checks.check_partitions(rows, labels, subs, None) == []

    renamed = [(lab + 1) % 3 for lab in labels]  # same partition, other names
    assert checks.check_partitions(rows, renamed, subs, None) == []

    swapped = list(labels)
    i, j = 0, labels.index(next(lab for lab in labels if lab != labels[0]))
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert checks.check_partitions(rows, swapped, subs, None) != []


def test_partition_check_compares_sub_clusters_per_parent():
    rows = _blobs()
    labels = list(checks.ward_partition(rows, 3))
    subs = [0] * len(rows)
    for parent in range(3):
        members = [i for i, lab in enumerate(labels) if lab == parent]
        for i, sub in zip(members, checks.ward_partition(rows[members], 2)):
            subs[i] = sub
    sub_k = {0: 2, 1: 2, 2: 2}
    assert checks.check_partitions(rows, labels, subs, sub_k) == []
    subs[members[0]] = 1 - subs[members[0]]
    assert checks.check_partitions(rows, labels, subs, sub_k) != []


def _stats_obj(rows: np.ndarray, labels: list[int], names: list[str]) -> dict:
    lab = np.asarray(labels)
    k = lab.max() + 1
    obj = {"anova": {}, "tukey": {}}
    for f, name in enumerate(names):
        groups = [rows[lab == c, f] for c in range(k)]
        obj["anova"][name] = {"p_value": float(sps.f_oneway(*groups).pvalue)}
        oracle = sps.tukey_hsd(*groups)
        obj["tukey"][name] = [{"group_a": a, "group_b": b,
                               "p_adjusted": float(oracle.pvalue[a, b])}
                              for a, b in combinations(range(k), 2)]
    return obj


def test_stats_check_rejects_a_perturbed_p_value():
    rng = np.random.default_rng(1)
    rows = rng.normal(0, 1, size=(30, 10))
    rows[10:20, :] += 0.8
    labels = [0] * 10 + [1] * 10 + [2] * 10
    names = [f"f{i}" for i in range(10)]
    obj = _stats_obj(rows, labels, names)
    assert checks.check_stats(rows, labels, names, obj) == []

    obj["tukey"]["f3"][1]["p_adjusted"] += 10 * checks.TUKEY_P_TOL
    assert len(checks.check_stats(rows, labels, names, obj)) == 1
    obj = _stats_obj(rows, labels, names)
    obj["anova"]["f0"]["p_value"] += 10 * checks.ANOVA_P_TOL
    assert len(checks.check_stats(rows, labels, names, obj)) == 1


def _write_report(out, by_kind, combos, n_commits, n_metric_rows):
    out.mkdir(exist_ok=True)
    (out / "totals.csv").write_text(
        "interaction_type,count,percentage\n"
        + "".join(f"{k},{n},0.0\n" for k, n in by_kind.items()), "utf-8")
    (out / "upset.json").write_text(json.dumps({"combinations": [
        {"combination": c.split("+"), "count": n} for c, n in combos.items()]}), "utf-8")
    (out / "classification.csv").write_text(
        "sha,repo,dev_type,size_class,activity_type\n" + "x,o/r,A,B,C\n" * n_commits,
        "utf-8")
    (out / "metrics.csv").write_text("h\n" + "r\n" * n_metric_rows, "utf-8")


def test_count_check_rejects_a_wrong_count(tmp_path):
    expected = write_archive(tmp_path / "a.jsonl", SMALL, seed=5)
    good = (expected["events_by_kind"], expected["upset"], expected["commits"],
            expected["individuals"] - expected["bots"])
    _write_report(tmp_path / "ok", *good)
    assert checks.check_counts(expected, tmp_path / "ok", with_bots=True) == []
    assert checks.check_counts(expected, tmp_path / "ok", with_bots=False) != []

    _write_report(tmp_path / "bad", *good[:2], good[2] - 1, good[3])
    assert len(checks.check_counts(expected, tmp_path / "bad", with_bots=True)) == 1


@pytest.mark.parametrize("wrong, ok", [(1, True), (3, False)])
def test_recovery_check_threshold(tmp_path, wrong, ok):
    truth = tmp_path / "truth.csv"
    personas = tmp_path / "personas.csv"
    truth.write_text("login,archetype\n" + "".join(f"u{i},P{i % 7}\n" for i in range(200)),
                     "utf-8")
    personas.write_text("repo,login,persona\n" + "".join(
        f"s/s,u{i},{'X' if i < wrong else f'P{i % 7}'}\n" for i in range(200)), "utf-8")
    assert (checks.check_recovery(personas, truth) == []) is ok


def test_digest_ignores_manifest_timestamps_only(tmp_path):
    manifest = {"seed": 1, "started_at": "t0", "finished_at": "t1"}
    (tmp_path / "run_manifest.json").write_text(json.dumps(manifest), "utf-8")
    (tmp_path / "labels.csv").write_text("a\n", "utf-8")
    first = checks.digest(tmp_path)
    manifest.update(started_at="t2", finished_at="t3")
    (tmp_path / "run_manifest.json").write_text(json.dumps(manifest), "utf-8")
    assert checks.digest(tmp_path) == first
    (tmp_path / "labels.csv").write_text("b\n", "utf-8")
    assert checks.digest(tmp_path) != first
