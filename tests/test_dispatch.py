"""Outputs that do not depend on the CPU they ran on.

numpy picks its SIMD kernels at run time from the CPU, and OpenBLAS built
with DYNAMIC_ARCH picks its kernels the same way. Both choices can be
switched for one process, so each leg reruns the same commands in a
subprocess under another choice and compares the files with those of the
default choice.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import persona_miner
from persona_miner.cli import main

SWITCHES = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")

# run on the fixture, then analyze on simulated rows clustered once beforehand
SCRIPT = (
    "import sys\n"
    "from persona_miner.cli import main\n"
    "archive, metrics, labels, out = sys.argv[1:]\n"
    "main(['run', '--archive', archive, '--output-dir', out], standalone_mode=False)\n"
    "main(['analyze', '--metrics', metrics, '--labels', labels,\n"
    "      '--output', out + '/sim-stats.json'], standalone_mode=False)\n"
)


def numpy_dispatch_targets() -> list[str]:
    """The dispatch targets above numpy's baseline that this CPU enables."""
    umath = pytest.importorskip("numpy._core._multiarray_umath")  # numpy 2 spelling
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def _outputs(archive: Path, metrics: Path, labels: Path, out: Path,
             switch: dict[str, str]) -> Path:
    src = str(Path(persona_miner.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in SWITCHES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", SCRIPT, str(archive), str(metrics),
                    str(labels), str(out)], env={**env, **switch}, check=True,
                   capture_output=True)
    return out


@pytest.fixture(scope="module")
def default_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("dispatch")
    metrics, labels = tmp / "sim.csv", tmp / "sim-labels.csv"
    runner = CliRunner()
    for args in (["simulate", "--count", "20", "--seed", "0", "--metrics-output", str(metrics)],
                 ["cluster", "--metrics", str(metrics), "--labels-output", str(labels)]):
        assert runner.invoke(main, args, catch_exceptions=False).exit_code == 0
    archive = Path(__file__).parent / "fixtures" / "archive_3repos.jsonl"
    return archive, metrics, labels, _outputs(archive, metrics, labels, tmp / "default", {})


def _assert_stats_close(got, want, where="", key=None):
    """Every non-float and every reject is equal, each Tukey p_adjusted is
    within 1e-15 absolute, and every other float within 1e-12 relative."""
    if isinstance(want, float):
        assert isinstance(got, float), where
        tol = {"abs_tol": 1e-15} if key == "p_adjusted" else {"rel_tol": 1e-12}
        assert math.isclose(got, want, **tol), (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for k in want:
            _assert_stats_close(got[k], want[k], f"{where}.{k}", k)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_stats_close(g, w, f"{where}[{i}]", key)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.mark.parametrize("leg", ["numpy-below-dispatch", "openblas-haswell",
                                 "openblas-prescott"])
def test_outputs_do_not_depend_on_cpu_dispatch(default_outputs, tmp_path, leg):
    if leg == "numpy-below-dispatch":
        targets = numpy_dispatch_targets()
        if not targets:
            pytest.skip("this CPU enables no numpy dispatch target above the baseline")
        switch = {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    else:
        switch = {"OPENBLAS_CORETYPE": leg.removeprefix("openblas-").capitalize()}
    *inputs, want = default_outputs
    got = _outputs(*inputs, tmp_path / leg, switch)

    names = sorted(p.name for p in want.iterdir())
    assert names == sorted(p.name for p in got.iterdir())
    # the manifest holds the run's timestamps and output path
    for name in names:
        if name == "run_manifest.json":
            continue
        if name.endswith("stats.json"):
            _assert_stats_close(json.loads((got / name).read_text("utf-8")),
                                json.loads((want / name).read_text("utf-8")), name)
        else:
            assert (got / name).read_bytes() == (want / name).read_bytes(), name
