import csv
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import persona_miner
from persona_miner.archive import load_archive, save_archive
from persona_miner.commit_classify import classify_archive, write_classification_csv
from persona_miner.errors import DataValidationError
from persona_miner.metrics import metric_table, write_metrics_csv
from persona_miner.personas import load_profiles, write_personas_csv
from persona_miner.pipeline import cluster_and_label, feature_matrix, run_pipeline
from persona_miner.report import write_labels_csv
from persona_miner.simgen import generate

from conftest import csv_slugs, interaction_sets

PROFILES = load_profiles()
TIMESTAMP_KEYS = {"started_at", "finished_at"}

EXPECTED_FILES = {
    "metrics.csv", "classification.csv", "dendrogram.json", "labels.csv",
    "personas.csv", "stats.json", "totals.csv", "upset.json",
    "composition.csv", "run_manifest.json",
}


def _run(archive_path, tmp_path, name, **settings):
    """The output directory of a run, and its individual count."""
    out = tmp_path / name
    n_individuals, _initial_k = run_pipeline(str(archive_path), str(out), **settings)
    return out, n_individuals


def test_all_output_files_written(fixture_archive_path, tmp_path):
    out, n_individuals = _run(fixture_archive_path, tmp_path, "out")
    assert {p.name for p in out.iterdir()} == EXPECTED_FILES
    assert n_individuals > 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert sum(manifest["persona_counts"].values()) == n_individuals


def test_rerun_is_byte_identical_except_manifest_timestamps(
        fixture_archive_path, tmp_path):
    first, _ = _run(fixture_archive_path, tmp_path, "a")
    second, _ = _run(fixture_archive_path, tmp_path, "b")
    for name in sorted(EXPECTED_FILES - {"run_manifest.json"}):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    m1 = json.loads((first / "run_manifest.json").read_text())
    m2 = json.loads((second / "run_manifest.json").read_text())
    for key in TIMESTAMP_KEYS:
        m1.pop(key), m2.pop(key)
    assert m1 == m2


def test_manifest_contents(fixture_archive_path, tmp_path):
    out, n_individuals = _run(fixture_archive_path, tmp_path, "out")
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["format"] == "persona-miner-manifest"
    assert manifest["seed"] == 0
    assert manifest["n_individuals"] == n_individuals
    with (out / "personas.csv").open(newline="") as fh:
        counts = Counter(row["persona"] for row in csv.DictReader(fh))
    assert list(manifest["persona_counts"].items()) == sorted(counts.items())


def test_exclude_bots_shrinks_population(fixture_archive_path, tmp_path):
    _, keep = _run(fixture_archive_path, tmp_path, "keep")
    drop, n_drop = _run(fixture_archive_path, tmp_path, "drop", exclude_bots=True)
    assert n_drop < keep
    assert "[bot]" not in (drop / "metrics.csv").read_text()


def test_manifest_config_hash_digests_every_setting_but_output_dir(
        fixture_archive_path, tmp_path):
    # the hash is the sha256 of the sorted-key JSON of these seven settings;
    # the archive and profiles are named by the path as given, and the deny
    # list as a sorted set
    archive_copy = tmp_path / "copy.jsonl"
    shutil.copyfile(fixture_archive_path, archive_copy)
    profiles = str(Path(persona_miner.__file__).parent / "data" / "personas.json")
    base = {"archive_path": str(fixture_archive_path), "seed": 0, "k_min": 2,
            "k_max": 10, "persona_profile_path": None, "exclude_bots": False,
            "bot_deny_list": ()}

    def manifest_hash(name, settings):
        run_pipeline(output_dir=str(tmp_path / name), **settings)
        return json.loads((tmp_path / name / "run_manifest.json").read_text())["config_hash"]

    def digest(settings):
        return hashlib.sha256(json.dumps(settings, sort_keys=True).encode()).hexdigest()

    assert manifest_hash("base", base) == digest(base)
    assert manifest_hash("elsewhere", base) == digest(base)
    for key, value in (("archive_path", str(archive_copy)), ("seed", 1), ("k_min", 3),
                       ("k_max", 9), ("persona_profile_path", profiles),
                       ("exclude_bots", True), ("bot_deny_list", ("ada",))):
        changed = {**base, key: value}
        assert manifest_hash(key, changed) == digest(changed) != digest(base), key
    deny = {**base, "bot_deny_list": ("ada", "bob")}
    for name, logins in (("bob-ada", ("bob", "ada")), ("bob-ada-ada", ("bob", "ada", "ada"))):
        assert manifest_hash(name, {**base, "bot_deny_list": logins}) == digest(deny), name


def test_cluster_and_label_small_population():
    # two rows clamp k_max to 1, below k_min: the same error as any empty k range
    vectors, _ = generate(PROFILES[:2], count=1, noise_sd=0.0, seed=0)
    with pytest.raises(DataValidationError, match=r"empty k range \[2, 1\]"):
        cluster_and_label(feature_matrix(vectors), PROFILES)


# each call passes one sequence a row shorter or longer than the vectors
@pytest.mark.parametrize("write", [
    lambda vs, path: write_labels_csv(vs, (0,) * len(vs), (0,) * (len(vs) - 1), path),
    lambda vs, path: write_labels_csv(vs[:-1], (0,) * len(vs), (0,) * len(vs), path),
    lambda vs, path: write_personas_csv(vs, [("p", 0.0)] * (len(vs) - 1), path),
    lambda vs, path: write_personas_csv(vs[:-1], [("p", 0.0)] * len(vs), path),
    lambda vs, path: write_personas_csv(vs, [("p", 0.0)] * len(vs), path,
                                        ((0,) * len(vs), (0,) * (len(vs) + 1))),
    lambda vs, path: write_personas_csv(vs, [("p", 0.0)] * len(vs), path,
                                        ((0,) * (len(vs) - 1), (0,) * len(vs))),
], ids=["labels-subclusters", "labels-individuals", "personas-pairs",
        "personas-vectors", "personas-subclusters", "personas-clusters"])
def test_row_writers_refuse_unequal_lengths(tmp_path, write):
    vectors, _ = generate(PROFILES, count=1, noise_sd=0.0, seed=0)
    with pytest.raises(ValueError, match=r"^zip\(\) argument \d is (shorter|longer)"):
        write(vectors, tmp_path / "out.csv")
    assert list(tmp_path.iterdir()) == []  # neither the file nor its temporary


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
    vectors, truth = generate(PROFILES, count=25, noise_sd=1.0, seed=3)
    _initial, _sub, personas, diag = cluster_and_label(feature_matrix(vectors), PROFILES)
    hits = sum(name == t for (name, _dist), t in zip(personas, truth))
    assert hits / len(truth) >= 0.9
    assert diag["initial_k"] >= 2


# Persona-recovery oracle for the run path: CH's initial k and the share of
# rows labelled with their archetype, on 7 x 72 simulated rows. On seeds 1-60
# k was 7 at sd 1.5 and 6 at sd 2.0 every time, and the lowest recovery was
# 0.988 and 0.960; the floors leave a margin below those.
@pytest.mark.parametrize("noise_sd, initial_k, floor", [(1.5, 7, 0.98), (2.0, 6, 0.95)])
@pytest.mark.parametrize("seed", range(1, 11))
def test_run_path_recovers_personas(seed, noise_sd, initial_k, floor):
    vectors, truth = generate(PROFILES, count=72, noise_sd=noise_sd, seed=seed)
    _initial, _sub, personas, diag = cluster_and_label(feature_matrix(vectors),
                                                       load_profiles(None))
    assert diag["initial_k"] == initial_k
    hits = sum(name == t for (name, _dist), t in zip(personas, truth))
    assert hits / len(truth) >= floor


def test_stats_json_structure(fixture_archive_path, tmp_path):
    out, _ = _run(fixture_archive_path, tmp_path, "out")
    stats = json.loads((out / "stats.json").read_text())
    assert stats["format"] == "persona-miner-stats"
    assert stats["pca"] is not None
    ratios = stats["pca"]["explained_variance_ratio"]
    assert len(ratios) == 3
    assert all(0.0 <= r <= 1.0 for r in ratios)
    assert len(stats["feature_importance"][0]) == 10


# run outputs that hold no archive order; classification.csv holds one row per
# commit event, in the archive's event order
ORDER_FREE_FILES = ("metrics.csv", "labels.csv", "personas.csv", "stats.json",
                    "dendrogram.json", "totals.csv", "upset.json", "composition.csv")


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_run_outputs_ignore_archive_order(fixture_archive_path, tmp_path, seed):
    # shuffle the repo blocks, and the events within each repo
    header, *lines = fixture_archive_path.read_text("utf-8").splitlines()
    blocks = []
    for line in lines:
        if json.loads(line)["type"] == "repo":
            blocks.append((line, []))
        else:
            blocks[-1][1].append(line)
    rng = random.Random(seed)
    rng.shuffle(blocks)
    for _marker, events in blocks:
        rng.shuffle(events)
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("\n".join([header, *(line for marker, events in blocks
                                              for line in (marker, *events))]) + "\n",
                        "utf-8")
    assert shuffled.read_bytes() != fixture_archive_path.read_bytes()

    original, _ = _run(fixture_archive_path, tmp_path, "original", exclude_bots=True)
    permuted, _ = _run(shuffled, tmp_path, "shuffled", exclude_bots=True)
    for name in ORDER_FREE_FILES:
        assert (permuted / name).read_bytes() == (original / name).read_bytes(), name
    classified = [sorted((out / "classification.csv").read_text("utf-8").splitlines())
                  for out in (original, permuted)]
    assert classified[0] == classified[1]


@given(sets=st.lists(interaction_sets(), max_size=3, unique_by=lambda s: s.repo),
       order=st.randoms(use_true_random=False), exclude_bots=st.booleans())
@settings(max_examples=50, deadline=None)
def test_metrics_and_classification_ignore_archive_order(tmp_path_factory, sets, order,
                                                         exclude_bots):
    # the repos, and the events within each repo, in a drawn order
    shuffled = [replace(s, events=tuple(order.sample(s.events, len(s.events))))
                for s in order.sample(sets, len(sets))]
    outs = []
    for archive_sets in (sets, shuffled):
        out = tmp_path_factory.mktemp("out")
        save_archive(archive_sets, out / "archive.jsonl")
        loaded = load_archive(out / "archive.jsonl")
        write_metrics_csv(metric_table(loaded, exclude_bots)[1], out / "metrics.csv")
        write_classification_csv(classify_archive(loaded), out / "classification.csv")
        outs.append(out)
    original, permuted = outs
    assert (permuted / "metrics.csv").read_bytes() == (original / "metrics.csv").read_bytes()
    assert Counter((permuted / "classification.csv").read_text("utf-8").splitlines()) == \
        Counter((original / "classification.csv").read_text("utf-8").splitlines())


@given(sets=st.lists(interaction_sets(), max_size=3, unique_by=lambda s: s.repo))
@settings(max_examples=50, deadline=None)
def test_metrics_ignore_doubled_events(tmp_path_factory, sets):
    # every event twice: the copy right after it, under subject_id + "-dup"
    doubled = [replace(s, events=tuple(copy for ev in s.events for copy in (
        ev, ev._replace(subject_id=ev.subject_id + "-dup")))) for s in sets]
    for exclude_bots in (False, True):
        outs = []
        for archive_sets in (sets, doubled):
            out = tmp_path_factory.mktemp("out")
            save_archive(archive_sets, out / "archive.jsonl")
            loaded = load_archive(out / "archive.jsonl")
            write_metrics_csv(metric_table(loaded, exclude_bots)[1], out / "metrics.csv")
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[1] == outs[0], exclude_bots


@pytest.mark.parametrize("exclude_bots", [False, True], ids=["all", "exclude-bots"])
def test_run_outputs_ignore_doubled_events(fixture_archive_path, tmp_path, exclude_bots):
    # every event twice: the copy at the same time, under a fresh subject_id
    header, *lines = fixture_archive_path.read_text("utf-8").splitlines()
    doubled_lines = [header]
    for line in lines:
        record = json.loads(line)
        if record["type"] == "repo":
            doubled_lines.append(json.dumps({**record, "n_events": 2 * record["n_events"]}))
        else:
            doubled_lines += [line, json.dumps(
                {**record, "subject_id": record["subject_id"] + "-dup"})]
    doubled = tmp_path / "doubled.jsonl"
    doubled.write_text("\n".join(doubled_lines) + "\n", "utf-8")

    single, _ = _run(fixture_archive_path, tmp_path, "single", exclude_bots=exclude_bots)
    twice, _ = _run(doubled, tmp_path, "doubled", exclude_bots=exclude_bots)
    for name in ORDER_FREE_FILES:
        if name != "totals.csv":
            assert (twice / name).read_bytes() == (single / name).read_bytes(), name
    totals = [list(csv.reader((out / "totals.csv").open(encoding="utf-8", newline="")))
              for out in (single, twice)]
    assert totals[1][0] == totals[0][0]
    assert [(kind, int(count) * 2, share) for kind, count, share in totals[0][1:]] == \
        [(kind, int(count), share) for kind, count, share in totals[1][1:]]


@pytest.mark.parametrize("exclude_bots", [False, True], ids=["all", "exclude-bots"])
def test_run_outputs_follow_renamed_logins(fixture_archive_path, tmp_path, monkeypatch,
                                           exclude_bots):
    # each login becomes user-NN, NN its rank among all logins, and a bot keeps
    # its [bot] suffix: the logins sort as before and the same ones are bots
    header, *lines = fixture_archive_path.read_text("utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    logins = sorted({r["actor"] for r in records if r["type"] == "event"})
    renamed = {login: f"user-{rank:02d}" + "[bot]" * login.endswith("[bot]")
               for rank, login in enumerate(logins)}
    assert sorted(renamed.values()) == [renamed[login] for login in logins]
    assert not set(renamed.values()) & set(logins)
    outs = {}
    for name, rename in (("original", {}), ("renamed", renamed)):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        # the same relative archive path, so that the manifests' config hashes agree
        Path("archive.jsonl").write_text("\n".join([header, *(json.dumps(
            {**r, "actor": rename.get(r["actor"], r["actor"])} if "actor" in r else r)
            for r in records)]) + "\n", "utf-8")
        outs[name], _ = _run("archive.jsonl", tmp_path / name, "out",
                             exclude_bots=exclude_bots)

    login_files = []
    for name in sorted(EXPECTED_FILES - {"run_manifest.json"}):
        original, changed = ((outs[k] / name).read_bytes() for k in outs)
        if not (name.endswith(".csv") and b",login," in original.split(b"\r\n")[0]):
            assert changed == original, name
            continue
        login_files.append(name)
        rows = [list(csv.reader(text.decode("utf-8").splitlines()))
                for text in (original, changed)]
        col = rows[0][0].index("login")
        for row in rows[0][1:]:
            row[col] = renamed[row[col]]
        assert rows[1] == rows[0], name
    assert login_files == ["labels.csv", "metrics.csv", "personas.csv"]
    manifests = [json.loads((outs[k] / "run_manifest.json").read_text()) for k in outs]
    for manifest in manifests:
        for key in TIMESTAMP_KEYS:
            manifest.pop(key)
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("exclude_bots", [False, True], ids=["all", "exclude-bots"])
def test_appended_repo_leaves_other_metric_rows(fixture_archive_path, tmp_path,
                                               exclude_bots):
    # a new repo at the end: every other event of bio-team/seqkit, under a new name
    text = fixture_archive_path.read_text("utf-8")
    events = [{**r, "repo": "zeta-lab/newcomer"}
              for r in map(json.loads, text.splitlines()[1:])
              if r["type"] == "event" and r["repo"] == "bio-team/seqkit"][::2]
    marker = {"type": "repo", "repo": "zeta-lab/newcomer",
              "fetched_at": "2024-06-01T00:00:00Z", "incomplete": False,
              "n_events": len(events)}
    extended = tmp_path / "extended.jsonl"
    extended.write_text(text + "\n".join(map(json.dumps, [marker, *events])) + "\n",
                        "utf-8")

    rows = []
    for archive, name in ((fixture_archive_path, "original"), (extended, "extended")):
        out, _ = _run(archive, tmp_path, name, exclude_bots=exclude_bots)
        rows.append((out / "metrics.csv").read_bytes().splitlines(keepends=True))
    new_rows = [row for row in rows[1] if b",zeta-lab/newcomer," in row]
    assert len(new_rows) >= 2
    assert [row for row in rows[1] if row not in new_rows] == rows[0]


def _metrics_rows(sets, out, exclude_bots):
    """metrics.csv of ``sets`` saved to and loaded from an archive in ``out``,
    as parsed rows."""
    save_archive(sets, out / "archive.jsonl")
    vectors = metric_table(load_archive(out / "archive.jsonl"), exclude_bots)[1]
    write_metrics_csv(vectors, out / "metrics.csv")
    with (out / "metrics.csv").open(encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


@given(sets=st.lists(interaction_sets(), max_size=3, unique_by=lambda s: s.repo),
       names=st.lists(st.text(min_size=1, max_size=8).filter(
           lambda name: not name.endswith("[bot]")), min_size=6, max_size=6, unique=True),
       exclude_bots=st.booleans())
@settings(max_examples=50, deadline=None)
def test_metrics_follow_renamed_logins(tmp_path_factory, sets, names, exclude_bots):
    # each login gets a drawn name, in any sort order, and a bot keeps its [bot]
    # suffix: the rows are the same but for the login, re-sorted within each repo
    logins = sorted({ev.actor for s in sets for ev in s.events})
    renamed = {login: name + "[bot]" * login.endswith("[bot]")
               for login, name in zip(logins, names)}
    renamed_sets = [replace(s, events=tuple(ev._replace(actor=renamed[ev.actor])
                                            for ev in s.events)) for s in sets]
    header, *rows = _metrics_rows(sets, tmp_path_factory.mktemp("out"), exclude_bots)
    renamed_header, *renamed_rows = _metrics_rows(
        renamed_sets, tmp_path_factory.mktemp("out"), exclude_bots)
    assert renamed_header == header
    repo, login = header.index("repo"), header.index("login")
    for row in rows:
        row[login] = renamed[row[login]]
    assert renamed_rows == sorted(rows, key=lambda row: (row[repo], row[login]))


@given(sets=st.lists(interaction_sets(), max_size=2, unique_by=lambda s: s.repo),
       added=interaction_sets(), repo=csv_slugs, at=st.integers(0, 2),
       exclude_bots=st.booleans())
@settings(max_examples=50, deadline=None)
def test_added_repo_leaves_other_metric_rows(tmp_path_factory, sets, added, repo, at,
                                             exclude_bots):
    # a repo of its own anywhere in the archive adds its rows and changes no other
    assume(repo.lower() not in {s.repo.lower() for s in sets})
    extended = [*sets]
    extended.insert(at, replace(added, repo=repo))
    header, *rows = _metrics_rows(sets, tmp_path_factory.mktemp("out"), exclude_bots)
    extended_header, *extended_rows = _metrics_rows(
        extended, tmp_path_factory.mktemp("out"), exclude_bots)
    assert extended_header == header
    col = header.index("repo")
    assert [row for row in extended_rows if row[col] != repo] == rows
    actors = {ev.actor for ev in added.events
              if not (exclude_bots and ev.actor.endswith("[bot]"))}
    assert len(extended_rows) - len(rows) == len(actors)
