import csv
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import persona_miner
from persona_miner.errors import DataValidationError
from persona_miner.personas import DEFAULT_PROFILES, load_profiles
from persona_miner.pipeline import RunConfig, cluster_and_label, run_pipeline
from persona_miner.simgen import generate

TIMESTAMP_KEYS = {"started_at", "finished_at"}

EXPECTED_FILES = {
    "metrics.csv", "classification.csv", "dendrogram.json", "labels.csv",
    "personas.csv", "stats.json", "totals.csv", "upset.json",
    "composition.csv", "run_manifest.json",
}


def _run(fixture_archive_path, tmp_path, name, **over):
    cfg = RunConfig(archive_path=str(fixture_archive_path),
                    output_dir=str(tmp_path / name), seed=0, **over)
    return cfg, run_pipeline(cfg)


def test_all_output_files_written(fixture_archive_path, tmp_path):
    _cfg, result = _run(fixture_archive_path, tmp_path, "out")
    assert {p.name for p in result.output_dir.iterdir()} == EXPECTED_FILES
    assert result.n_individuals > 0
    manifest = json.loads((result.output_dir / "run_manifest.json").read_text())
    assert sum(manifest["persona_counts"].values()) == result.n_individuals


def test_rerun_is_byte_identical_except_manifest_timestamps(
        fixture_archive_path, tmp_path):
    _, first = _run(fixture_archive_path, tmp_path, "a")
    _, second = _run(fixture_archive_path, tmp_path, "b")
    for name in sorted(EXPECTED_FILES - {"run_manifest.json"}):
        assert (first.output_dir / name).read_bytes() == \
            (second.output_dir / name).read_bytes(), name
    m1 = json.loads((first.output_dir / "run_manifest.json").read_text())
    m2 = json.loads((second.output_dir / "run_manifest.json").read_text())
    for key in TIMESTAMP_KEYS:
        m1.pop(key), m2.pop(key)
    assert m1 == m2


def test_manifest_contents(fixture_archive_path, tmp_path):
    cfg, result = _run(fixture_archive_path, tmp_path, "out")
    manifest = json.loads((result.output_dir / "run_manifest.json").read_text())
    assert manifest["format"] == "persona-miner-manifest"
    assert manifest["seed"] == 0
    assert manifest["config_hash"] == cfg.config_hash()
    assert manifest["n_individuals"] == result.n_individuals
    with (result.output_dir / "personas.csv").open(newline="") as fh:
        counts = Counter(row["persona"] for row in csv.DictReader(fh))
    assert list(manifest["persona_counts"].items()) == sorted(counts.items())


def test_exclude_bots_shrinks_population(fixture_archive_path, tmp_path):
    _, keep = _run(fixture_archive_path, tmp_path, "keep")
    _, drop = _run(fixture_archive_path, tmp_path, "drop", exclude_bots=True)
    assert drop.n_individuals < keep.n_individuals
    metrics = (Path(drop.output_dir) / "metrics.csv").read_text()
    assert "[bot]" not in metrics


def test_config_source_validation():
    with pytest.raises(DataValidationError):
        RunConfig()  # no source


def test_config_hash_tracks_settings(fixture_archive_path):
    a = RunConfig(archive_path=str(fixture_archive_path), seed=0)
    b = RunConfig(archive_path=str(fixture_archive_path), seed=1)
    assert a.config_hash() == RunConfig(
        archive_path=str(fixture_archive_path), seed=0).config_hash()
    assert a.config_hash() != b.config_hash()


def test_cluster_and_label_small_population():
    # two rows clamp k_max to 1, below k_min: the same error as any empty k range
    vectors, _ = generate(DEFAULT_PROFILES[:2], count=1, noise_sd=0.0, seed=0)
    with pytest.raises(DataValidationError, match=r"empty k range \[2, 1\]"):
        cluster_and_label(vectors, DEFAULT_PROFILES)


def test_pipeline_import_loads_no_fetch_layer():
    src = str(Path(persona_miner.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, persona_miner.pipeline; "
            "print(sorted(m for m in sys.modules "
            "if m in ('persona_miner.github', 'persona_miner.transport')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert proc.stdout.strip() == "[]"


def test_cluster_and_label_synthetic_recovery():
    vectors, truth = generate(DEFAULT_PROFILES, count=25, noise_sd=1.0, seed=3)
    _initial, _sub, assignments, diag = cluster_and_label(vectors,
                                                          DEFAULT_PROFILES)
    hits = sum(a.persona == t for a, t in zip(assignments, truth))
    assert hits / len(truth) >= 0.9
    assert diag["initial_k"] >= 2


# Persona-recovery oracle for the run path: CH's initial k and the share of
# rows labelled with their archetype, on 7 x 72 simulated rows. On seeds 1-60
# k was 7 at sd 1.5 and 6 at sd 2.0 every time, and the lowest recovery was
# 0.988 and 0.960; the floors leave a margin below those.
@pytest.mark.parametrize("noise_sd, initial_k, floor", [(1.5, 7, 0.98), (2.0, 6, 0.95)])
@pytest.mark.parametrize("seed", range(1, 11))
def test_run_path_recovers_personas(seed, noise_sd, initial_k, floor):
    vectors, truth = generate(DEFAULT_PROFILES, count=72, noise_sd=noise_sd, seed=seed)
    _initial, _sub, assignments, diag = cluster_and_label(vectors, load_profiles(None))
    assert diag["initial_k"] == initial_k
    hits = sum(a.persona == t for a, t in zip(assignments, truth))
    assert hits / len(truth) >= floor


def test_stats_json_structure(fixture_archive_path, tmp_path):
    _, result = _run(fixture_archive_path, tmp_path, "out")
    stats = json.loads((result.output_dir / "stats.json").read_text())
    assert stats["format"] == "persona-miner-stats"
    assert stats["pca"] is not None
    ratios = stats["pca"]["explained_variance_ratio"]
    assert len(ratios) == 3
    assert all(0.0 <= r <= 1.0 for r in ratios)
    assert len(stats["feature_importance"][0]) == 10
