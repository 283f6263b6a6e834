"""persona-miner benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload run-wide --seed 1 --seconds 50 --trace 0

Untraced (``--trace 0``): a closed loop with one client. Each sequence runs a
workload's command chain as fresh ``python -m persona_miner.cli`` processes,
one at a time; the next sequence starts only after the previous one ends, and
only while it is expected to finish within ``--seconds``. Reports end-to-end
metrics as medians over the sequences.

Traced (``--trace 1``): the same chain runs in this process with the public
functions of every layer module wrapped (see tracer.py) and reports per-layer
self times, call counts and the call-count self-checks.

Either way the outputs are checked (see checks.py) and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import checks
import tracer
from archive_gen import ArchiveSpec, write_archive

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PACKAGE = "persona_miner"
DEADLINE_S = 170.0  # the whole run, set-up included, ends before this
SETUP_STARTS = 9
ARCHIVE = "archive.jsonl"
SIMGEN_COUNT = 72  # per persona, so 504 rows
# At the CLI default of 2.0, direct nearest-centroid recovery is below 0.99
# on about one seed in four (Ephemeral and Occasional centroids are close);
# at 1.5 it stayed at or above 0.99 and CH picked k=7 on seeds 1-74.
SIMGEN_NOISE_SD = 1.5
LAYERS = ("archive", "metrics", "commit_classify", "cluster", "pipeline",
          "personas", "stats", "report")
SUBCOMMANDS = ("run", "simulate", "cluster", "analyze", "assign", "metrics",
               "classify", "report")


@dataclass(frozen=True)
class Workload:
    archive: ArchiveSpec | None
    steps: Callable[[Path, Path, int], list[list[str]]]  # (archive, out, seed)
    check: Callable[[Path, dict], list[str]]  # (out, expected) -> failures
    # (out, expected) -> expected call counts in the traced run
    calls: Callable[[Path, dict], dict[str, int]]


def _labels(out: Path) -> tuple[list[int], list[int]]:
    rows = checks.read_csv(out / "labels.csv")
    return [int(r["cluster"]) for r in rows], [int(r["subcluster"]) for r in rows]


def _check_clustering(out: Path, stats_obj: dict, sub_k: dict[int, int] | None) -> list[str]:
    names, keys, rows = checks.read_metric_rows(out / "metrics.csv")
    label_rows = checks.read_csv(out / "labels.csv")
    if [(r["repo"], r["login"]) for r in label_rows] != keys:
        return ["labels.csv rows do not follow metrics.csv"]
    clusters, subs = _labels(out)
    return (checks.check_partitions(rows, clusters, subs, sub_k)
            + checks.check_stats(rows, clusters, names, stats_obj))


def _pairs_calls(out: Path) -> int:
    k = max(_labels(out)[0]) + 1
    return checks.N_FEATURES * comb(k, 2)


# -- run-wide: the whole pipeline on ~1,000 repo-individuals in ~100 repos --

def _wide_check(out: Path, expected: dict) -> list[str]:
    stats_obj = json.loads((out / "stats.json").read_text("utf-8"))
    sub_k = {int(p): k for p, k in stats_obj["diagnostics"]["sub_k"].items()}
    return (checks.check_counts(expected, out, with_bots=False)
            + _check_clustering(out, stats_obj, sub_k))


def _wide_calls(out: Path, expected: dict) -> dict[str, int]:
    clusters, _ = _labels(out)
    splittable = sum(1 for c in set(clusters) if clusters.count(c) >= 3)
    return {"cluster.agglomerate": 3 + 2 * splittable,
            "stats.studentized_range_cdf": _pairs_calls(out),
            "archive.load_archive": 1}


# -- stages-simgen: simulate -> cluster -> analyze -> assign ---------------

def _simgen_steps(_archive: Path, out: Path, seed: int) -> list[list[str]]:
    metrics = str(out / "metrics.csv")
    labels = str(out / "labels.csv")
    return [
        ["simulate", "--count", str(SIMGEN_COUNT), "--noise-sd", str(SIMGEN_NOISE_SD),
         "--seed", str(seed),
         "--metrics-output", metrics, "--truth-output", str(out / "truth.csv")],
        ["cluster", "--metrics", metrics, "--labels-output", labels],
        ["analyze", "--metrics", metrics, "--labels", labels,
         "--output", str(out / "stats.json")],
        ["assign", "--metrics", metrics, "--output", str(out / "personas.csv")],
    ]


def _simgen_check(out: Path, _expected: dict) -> list[str]:
    stats_obj = json.loads((out / "stats.json").read_text("utf-8"))
    return (_check_clustering(out, stats_obj, None)
            + checks.check_recovery(out / "personas.csv", out / "truth.csv"))


# -- ingest-deep: metrics -> classify -> report on ~70k events -------------

def _deep_steps(archive: Path, out: Path, _seed: int) -> list[list[str]]:
    return [
        ["metrics", "--archive", str(archive), "--exclude-bots",
         "--output", str(out / "metrics.csv")],
        ["classify", "--archive", str(archive),
         "--output", str(out / "classification.csv")],
        ["report", "--archive", str(archive), "--output-dir", str(out)],
    ]


WORKLOADS = {
    "run-wide": Workload(
        archive=ArchiveSpec(n_repos=50, individuals_per_repo=10, mean_events=10,
                            bot_every=25, bot_events=6),
        steps=lambda archive, out, seed: [
            ["run", "--archive", str(archive), "--exclude-bots", "--seed", str(seed),
             "--output-dir", str(out)]],
        check=_wide_check,
        calls=_wide_calls,
    ),
    "stages-simgen": Workload(
        archive=None,
        steps=_simgen_steps,
        check=_simgen_check,
        calls=lambda out, _e: {"cluster.agglomerate": 2,
                               "stats.studentized_range_cdf": _pairs_calls(out),
                               "archive.load_archive": 0},
    ),
    "ingest-deep": Workload(
        archive=ArchiveSpec(n_repos=12, individuals_per_repo=14, mean_events=370,
                            bot_every=3, bot_events=140),
        steps=_deep_steps,
        check=lambda out, expected: checks.check_counts(expected, out, with_bots=True),
        calls=lambda _o, _e: {"cluster.agglomerate": 0,
                              "stats.studentized_range_cdf": 0,
                              "archive.load_archive": 3},
    ),
}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], cwd: Path, log: Path, timeout: float) -> tuple[int, float, float]:
    """Run one CLI process to completion; return (exit code, cpu s, peak RSS MB).

    A timed-out process is killed and reported with exit code -9.
    """
    with log.open("ab") as fh:
        proc = subprocess.Popen([sys.executable, "-m", f"{PACKAGE}.cli", *args],
                                cwd=cwd, env=_child_env(), stdout=fh, stderr=fh)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def measure_setup(cwd: Path, deadline: Deadline) -> list[float]:
    """Wall times of fresh ``persona-miner --help`` starts."""
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        code, _cpu, _rss = run_child(["--help"], cwd, cwd / "setup.log", deadline.left())
        if code != 0:
            raise RuntimeError(f"persona-miner --help exited with {code}")
        times.append(time.perf_counter() - t0)
    return times


@dataclass
class Sequence:
    wall_s: float
    failures: list[str]
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    summary: dict | None = None  # traced: tracer.summarize() of its spans
    n_spans: int = 0
    amounts: dict | None = None


def run_sequence(steps: list[list[str]], run_dir: Path, deadline: Deadline) -> Sequence:
    t0 = time.perf_counter()
    cpu, rss, failures = 0.0, 0.0, []
    for args in steps:
        code, used, peak = run_child(args, run_dir, run_dir / "cli.log", deadline.left())
        cpu += used
        rss = max(rss, peak)
        if code != 0:
            failures.append(f"{args[0]} exited with {code}")
            break
    return Sequence(time.perf_counter() - t0, failures, cpu, rss)


def run_sequence_traced(steps: list[list[str]], run_dir: Path,
                        deadline: Deadline) -> Sequence:
    from persona_miner import cli

    tr = tracer.Tracer()
    patched = tracer.patch_layers(tr, PACKAGE, LAYERS, amounts={
        "cluster.agglomerate": lambda vectors, *a, **k: len(vectors)})
    failures = []
    cwd = os.getcwd()
    os.chdir(run_dir)
    t0 = time.perf_counter()
    try:
        for args in steps:
            if deadline.left() <= 0:
                failures.append(f"{args[0]}: out of time")
                break
            with tr.span(f"cli.{args[0]}"), contextlib.redirect_stdout(io.StringIO()):
                try:
                    cli.main.main(args=args, prog_name="persona-miner",
                                  standalone_mode=False)
                except SystemExit as exc:
                    if exc.code:
                        failures.append(f"{args[0]} exited with {exc.code}")
                except Exception as exc:  # noqa: BLE001 - a crash fails the sequence
                    failures.append(f"{args[0]} raised {type(exc).__name__}: {exc}")
            if failures:
                break
    finally:
        wall = time.perf_counter() - t0
        os.chdir(cwd)
        tracer.unpatch(patched)
    return Sequence(wall, failures, summary=tracer.summarize(tr.spans),
                    n_spans=len(tr.spans), amounts=tr.amounts)


def layer_metrics(seq: Sequence, expected: dict, individuals: int,
                  span_cost: float) -> dict[str, tuple[float, str]]:
    summary = seq.summary

    def stat(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    m: dict[str, tuple[float, str]] = {}
    for name in ("archive.load_archive", "metrics.build_repo_individuals",
                 "commit_classify.classify_commit", "cluster.agglomerate",
                 "cluster.ch_index", "stats.studentized_range_cdf"):
        m[f"{name}.calls"] = (stat(name, "calls"), "count")
    for name in ("archive.load_archive", "metrics.build_repo_individuals",
                 "metrics.assemble_metric_vectors", "metrics.read_metrics_csv",
                 "metrics.write_metrics_csv", "commit_classify.classify_commit",
                 "commit_classify.write_classification_csv", "cluster.agglomerate",
                 "cluster.select_k", "cluster.ch_index", "cluster.subcluster",
                 "pipeline.run_pipeline", "pipeline.cluster_and_label",
                 "personas.assign_persona", "stats.pca", "stats.one_way_anova",
                 "stats.tukey_hsd", "stats.studentized_range_cdf",
                 "report.interaction_totals", "report.upset_counts",
                 "report.composition"):
        m[f"{name}.self_s"] = (stat(name, "self_s"), "s")
    m["cluster.cut.calls"] = (stat("cluster.cut", "calls"), "count")
    m["personas.label_subcluster.calls"] = (stat("personas.label_subcluster", "calls"),
                                            "count")
    loads = stat("archive.load_archive", "calls")
    m["archive.us_per_event"] = (
        1e6 * stat("archive.load_archive", "total_s") / (loads * expected["events"])
        if loads and expected.get("events") else 0.0, "us")
    m["cluster.agglomerate.rows_per_individual"] = (
        seq.amounts.get("cluster.agglomerate", 0) / individuals if individuals else 0.0,
        "ratio")
    cdf_calls = stat("stats.studentized_range_cdf", "calls")
    m["stats.ms_per_range_cdf"] = (
        1e3 * stat("stats.studentized_range_cdf", "total_s") / cdf_calls
        if cdf_calls else 0.0, "ms")
    m["report.writers.self_s"] = (
        sum(row["self_s"] for name, row in summary.items()
            if name.startswith("report.write_")), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(row["self_s"] for name, row in summary.items()
                                    if name.startswith(layer + ".")), "s")
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.wall_s"] = (stat(f"cli.{sub}", "total_s"), "s")
    in_layers = sum(row["self_s"] for name, row in summary.items()
                    if not name.startswith("cli."))
    m["trace.wall_s"] = (seq.wall_s, "s")
    m["trace.unattributed_s"] = (seq.wall_s - in_layers, "s")
    m["trace.overhead_s"] = (seq.n_spans * span_cost, "s")
    return m


def call_check_failures(seq: Sequence, want: dict[str, int]) -> list[str]:
    failures = []
    for name, count in want.items():
        got = seq.summary.get(name, {}).get("calls", 0)
        if got != count:
            failures.append(f"self-check: {name}.calls={got}, expected {count}")
    return failures


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **{var: os.environ.get(var) for var in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def host_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs us now.

    Printed, not reported as a metric. It shows when a slow run was a slow
    host rather than slow code.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    deadline = Deadline(DEADLINE_S)
    workload = WORKLOADS[opts.workload]
    run_dir = WORK / f"{opts.workload}-s{opts.seed}-t{opts.trace}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return _run(opts, workload, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(opts, workload: Workload, run_dir: Path, deadline: Deadline) -> int:
    print("env:", json.dumps(environment(), sort_keys=True))
    expected = (write_archive(run_dir / ARCHIVE, workload.archive, opts.seed)
                if workload.archive else {})
    if opts.trace:
        sys.path.insert(0, str(SRC))
        import persona_miner
        if Path(persona_miner.__file__).resolve().parent != SRC / PACKAGE:
            print(f"error: imported {persona_miner.__file__}, not {SRC}", file=sys.stderr)
            return 2
        span_cost = tracer.span_cost_s()
        runner = run_sequence_traced
    else:
        setup_times = measure_setup(run_dir, deadline)
        runner = run_sequence

    sequences: list[Sequence] = []
    ref_out, ref_digest, ref_failures = None, "", []
    probe_before = host_probe_ms()
    t_start = time.perf_counter()
    while True:
        # relative paths, so outputs that record them match across runs
        name = f"seq{len(sequences)}"
        out = run_dir / name
        out.mkdir()
        seq = runner(workload.steps(Path(ARCHIVE), Path(name), opts.seed), run_dir, deadline)
        if not seq.failures:
            digest = checks.digest(out)
            if ref_out is None:
                ref_out, ref_digest = out, digest
                try:
                    ref_failures = workload.check(out, expected)
                except Exception as exc:  # noqa: BLE001 - malformed output fails the check
                    ref_failures = [f"output check raised {type(exc).__name__}: {exc}"]
                if opts.trace and not ref_failures:
                    want_calls = workload.calls(out, expected)
            if digest != ref_digest:
                seq.failures.append("output digest differs from the first sequence")
            seq.failures += ref_failures
            if opts.trace and not ref_failures:
                seq.failures += call_check_failures(seq, want_calls)
        if out != ref_out:
            shutil.rmtree(out, ignore_errors=True)
        sequences.append(seq)
        for failure in seq.failures:
            print(f"FAIL sequence {len(sequences) - 1}: {failure}")
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(s.wall_s for s in sequences)
        if elapsed + typical > opts.seconds or deadline.left() < 2 * typical:
            break

    probe_after = host_probe_ms()
    failed = sum(1 for s in sequences if s.failures)
    ok = [s for s in sequences if not s.failures]
    individuals = len(checks.read_csv(ref_out / "metrics.csv")) if ok else 0
    metrics: dict[str, tuple[float, str]] = {}
    if ok and opts.trace:
        per_seq = [layer_metrics(s, expected, individuals, span_cost) for s in ok]
        metrics = {name: (statistics.median(p[name][0] for p in per_seq), unit)
                   for name, (_value, unit) in per_seq[0].items()}
    elif ok:
        metrics = {
            "wall_s": (statistics.median(s.wall_s for s in ok), "s"),
            "cpu_s": (statistics.median(s.cpu_s for s in ok), "s"),
            # a mean: one process's peak lands on one of two levels, at random
            "peak_rss_mb": (statistics.fmean(s.peak_rss_mb for s in ok), "MB"),
            "individuals_per_s": (statistics.median(individuals / s.wall_s for s in ok),
                                  "1/s"),
        }
    if not opts.trace:
        metrics["setup_s"] = (statistics.median(setup_times), "s")

    print(f"workload {opts.workload} seed {opts.seed}: {individuals} individuals"
          + (f", {expected['events']} events, {expected['commits']} commits"
             if expected else "")
          + f"; {len(sequences)} sequence(s), {failed} failed")
    print(f"fail_ratio = {failed / len(sequences):.6g} ratio")
    print("sequence wall s:", " ".join(f"{s.wall_s:.3f}" for s in sequences))
    if not opts.trace:
        print("setup start s:", " ".join(f"{t:.3f}" for t in setup_times))
    print(f"host probe ms: {probe_before:.3f} before, {probe_after:.3f} after")
    if ref_out:
        print(f"output digest {ref_digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(sequences),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
