import csv
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import persona_miner
from persona_miner import cli, pipeline
from persona_miner.cli import main

from conftest import FakeTransport, paged


@pytest.fixture()
def runner():
    return CliRunner()


def _invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_help_lists_subcommands(runner):
    result = _invoke(runner, ["--help"])
    assert result.exit_code == 0
    for cmd in ("fetch", "filter", "metrics", "classify", "cluster", "analyze",
                "assign", "report", "simulate", "run"):
        assert cmd in result.output


def test_cli_import_loads_no_scipy():
    src = str(Path(persona_miner.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, persona_miner.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert proc.stdout.strip() == "[]"


def test_run_and_stats_load_no_scipy(fixture_archive_path, tmp_path):
    src = str(Path(persona_miner.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from persona_miner.cli import main\n"
        "from persona_miner.stats import one_way_anova, tukey_hsd\n"
        f"main(['run', '--archive', {str(fixture_archive_path)!r}, "
        f"'--output-dir', {str(tmp_path / 'run')!r}], standalone_mode=False)\n"
        "groups = [[1.0, 2.0, 3.5], [4.0, 5.5, 6.0], [2.0, 2.5, 9.0]]\n"
        "assert one_way_anova(groups)['p_value'] > 0.0\n"
        "assert len(tukey_hsd(groups)) == 3\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert (tmp_path / "run" / "stats.json").exists()
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_cli_import_loads_no_numpy():
    src = str(Path(persona_miner.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    layers = ("archive", "metrics", "commit_classify", "cluster", "pipeline",
              "personas", "stats", "report")
    code = ("import json, sys, persona_miner.cli; print(json.dumps(["
            "sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'), "
            "sorted(m for m in sys.modules if m.split('.')[0] == 'email'), "
            f"[m for m in {layers!r} if 'persona_miner.' + m not in sys.modules]]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    numpy_modules, email_modules, missing_layers = json.loads(proc.stdout)
    assert numpy_modules == []
    # only fetch's Retry-After date parsing needs email.utils, which loads socket
    assert email_modules == []
    # perfbench's tracer wraps the layer functions it finds in sys.modules right
    # after importing the cli, so the cli must keep importing every layer
    assert missing_layers == []


def test_cli_import_reads_no_persona_file():
    # the profiles are read by the commands that label, not on import
    src = str(Path(persona_miner.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import json, sys\n"
            "opened = []\n"
            "sys.addaudithook(lambda event, args: event == 'open'"
            " and opened.append(str(args[0])))\n"
            "import persona_miner.cli\n"
            "print(json.dumps(opened))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    opened = json.loads(proc.stdout)
    assert any(p.endswith("commit_keywords.json") for p in opened)
    assert not [p for p in opened if p.endswith("personas.json")]


def test_metrics_subcommand(runner, fixture_archive_path, tmp_path):
    out = tmp_path / "metrics.csv"
    result = _invoke(runner, ["metrics", "--archive", str(fixture_archive_path),
                              "--output", str(out)])
    assert result.exit_code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) > 0
    assert "rc_commits_created" in rows[0]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_commands_pause_gc_and_restore_it(runner, fixture_archive_path, tmp_path,
                                          monkeypatch, enabled):
    # inside a command cyclic GC is off, but for fetch, whose time is network
    # time; after it, on success or on exit 4, the caller's setting is back
    seen = []

    def recording(*args):
        seen.append(gc.isenabled())
        return metric_table(*args)

    def pulls(_params):
        seen.append(gc.isenabled())
        return []

    metric_table = cli.metric_table
    monkeypatch.setattr(cli, "metric_table", recording)
    base = "https://api.github.com/repos/octo/proj"
    transport = FakeTransport({f"{base}/commits": paged([]), f"{base}/issues": paged([]),
                               f"{base}/pulls": pulls})
    monkeypatch.setattr(cli, "_live_transport", lambda: transport)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(fixture_archive_path.read_text().replace("2023-01-01T", "2023-13-01T", 1))
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        result = _invoke(runner, ["metrics", "--archive", str(fixture_archive_path),
                                  "--output", str(tmp_path / "metrics.csv")])
        assert result.exit_code == 0 and seen == [False]
        assert gc.isenabled() is enabled
        result = runner.invoke(main, ["metrics", "--archive", str(bad),
                                      "--output", str(tmp_path / "bad.csv")])
        assert result.exit_code == 4 and "bad.jsonl:3: " in result.output
        assert "month must be in 1..12" in result.output
        assert gc.isenabled() is enabled
        result = _invoke(runner, ["fetch", "--repos", "octo/proj",
                                  "--output", str(tmp_path / "archive.jsonl")])
        assert result.exit_code == 0 and seen == [False, True]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_metrics_exclude_bots_matches_run(runner, fixture_archive_path, tmp_path):
    out = tmp_path / "metrics.csv"
    _invoke(runner, ["metrics", "--archive", str(fixture_archive_path),
                     "--exclude-bots", "--output", str(out)])
    _invoke(runner, ["run", "--archive", str(fixture_archive_path), "--exclude-bots",
                     "--output-dir", str(tmp_path / "run")])
    assert "[bot]" not in out.read_text()
    assert out.read_bytes() == (tmp_path / "run" / "metrics.csv").read_bytes()


# sha256 of the fixture run's outputs; stats.json and dendrogram.json are left
# out because their floats may differ in the last bits across numpy builds
GOLDEN_RUN_DIGESTS = {
    False: {
        "metrics.csv": "5fa19f43ad6bef874c81dbfa482ded4dfaf2adcbf70cda62e372723e123af166",
        "classification.csv":
            "d0304d5f744655600c097a5bd51a76cd0449bb34ea5c9ec1cbcb0ba17bb3d015",
        "labels.csv": "b1562ba596aa79bda15fa8d031893a194fbda6c2e131a5b1804aa3dc6e34a361",
        "totals.csv": "cded6f15e8ad5396d44584643a1571f0345cf7de89674691f867a05c6c4997e4",
        "upset.json": "08342c312efcd004019497e2603b01aa815c46dcf044ce8f13fa1aa6f6c2f6d5",
        "composition.csv":
            "e4d4e0d125d70ba7d6d6b3d56feb1319b1dccaa635675bcdb81b5e7bb40cf343",
    },
    True: {
        "metrics.csv": "cd733052ad9295b863eb1a891f5532378520b11816085afd99a1ac33026d2768",
        "classification.csv":
            "d0304d5f744655600c097a5bd51a76cd0449bb34ea5c9ec1cbcb0ba17bb3d015",
        "labels.csv": "6a4c301ae6b6a0b1b0f85081899c439a5d799ea44be0e1d700300fee7cc2aeca",
        "totals.csv": "eec57b6f73bca145d99882f8adfe4d8ccc4a753a955579da5fdb94acf74141e1",
        "upset.json": "cdf0318d7e7f1b123282b384062c92e0caa1b5d72e0034dfebc4dfad2e5f51e2",
        "composition.csv":
            "c59a4fd9d473e8ed15258bca2fd8431ded08496ae8c171b3e3e4da9ec1504547",
    },
}


@pytest.mark.parametrize("exclude_bots", [False, True], ids=["all", "exclude-bots"])
def test_run_golden_digests(runner, fixture_archive_path, tmp_path, exclude_bots):
    out = tmp_path / "out"
    _invoke(runner, ["run", "--archive", str(fixture_archive_path), "--output-dir",
                     str(out), *(["--exclude-bots"] if exclude_bots else [])])
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN_RUN_DIGESTS[exclude_bots]}
    assert digests == GOLDEN_RUN_DIGESTS[exclude_bots]


def test_classify_subcommand(runner, fixture_archive_path, tmp_path):
    out = tmp_path / "cls.csv"
    result = _invoke(runner, ["classify", "--archive", str(fixture_archive_path),
                              "--output", str(out)])
    assert result.exit_code == 0
    rows = list(csv.DictReader(out.open()))
    assert all(r["dev_type"] and r["activity_type"] for r in rows)


def test_simulate_assign_round_trip(runner, tmp_path):
    metrics = tmp_path / "sim.csv"
    truth = tmp_path / "truth.csv"
    result = _invoke(runner, ["simulate", "--count", "50", "--noise-sd", "2.0",
                              "--seed", "0", "--metrics-output", str(metrics),
                              "--truth-output", str(truth)])
    assert result.exit_code == 0

    personas = tmp_path / "personas.csv"
    result = _invoke(runner, ["assign", "--metrics", str(metrics),
                              "--output", str(personas)])
    assert result.exit_code == 0

    truth_by_login = {r["login"]: r["archetype"]
                      for r in csv.DictReader(truth.open())}
    rows = list(csv.DictReader(personas.open()))
    hits = sum(truth_by_login[r["login"]] == r["persona"] for r in rows)
    assert hits / len(rows) >= 0.99


# sha256 of simulate's metrics.csv and truth.csv: one normal draw over all
# rows must give the bits of one draw per persona in profile order
GOLDEN_SIMULATE_DIGESTS = {
    ("--count", "72", "--noise-sd", "1.5", "--seed", "1"): (
        "c8d71709febf7687bd078355b1940b89fc75bcc43e9b110d5ce8ebb31a60ac1b",
        "4a95b96728716adc9e9bc6c1a5e732e2fb394aef4e686236f7f344ef5478b5fe"),
    ("--count", "20", "--seed", "0"): (
        "c7a0a2e65e459bf461e7d5919c137157c1282b8c18f9ba1308e7e47470c79f87",
        "e4c62070a454816a8be089adc8faf94b8fd56a6a8e7cbe09371f18602388f4ea"),
}


@pytest.mark.parametrize("args", list(GOLDEN_SIMULATE_DIGESTS))
def test_simulate_golden_digests(runner, tmp_path, args):
    bundled = Path(persona_miner.__file__).parent / "data" / "personas.json"
    for profiles in ([], ["--profiles", str(bundled)]):
        metrics, truth = tmp_path / "sim.csv", tmp_path / "truth.csv"
        _invoke(runner, ["simulate", *args, *profiles, "--metrics-output", str(metrics),
                         "--truth-output", str(truth)])
        digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in (metrics, truth))
        assert digests == GOLDEN_SIMULATE_DIGESTS[args], profiles


def test_cluster_subcommand_on_blob_metrics(runner, tmp_path):
    metrics = tmp_path / "sim.csv"
    _invoke(runner, ["simulate", "--count", "30", "--noise-sd", "1.0",
                     "--seed", "1", "--metrics-output", str(metrics)])
    labels = tmp_path / "labels.csv"
    dendro = tmp_path / "dendro.json"
    result = _invoke(runner, ["cluster", "--metrics", str(metrics),
                              "--labels-output", str(labels),
                              "--dendrogram-output", str(dendro)])
    assert result.exit_code == 0
    assert "k=" in result.output
    rows = list(csv.DictReader(labels.open()))
    assert len(rows) == 210
    assert json.loads(dendro.read_text())["n_leaves"] == 210


def test_analyze_subcommand(runner, tmp_path):
    metrics = tmp_path / "sim.csv"
    _invoke(runner, ["simulate", "--count", "20", "--noise-sd", "1.0",
                     "--seed", "2", "--metrics-output", str(metrics)])
    labels = tmp_path / "labels.csv"
    _invoke(runner, ["cluster", "--metrics", str(metrics), "--k-max", "3",
                     "--labels-output", str(labels)])
    stats = tmp_path / "stats.json"
    result = _invoke(runner, ["analyze", "--metrics", str(metrics),
                              "--labels", str(labels), "--output", str(stats)])
    assert result.exit_code == 0
    obj = json.loads(stats.read_text())
    assert obj["format"] == "persona-miner-stats"
    assert obj["pca"] is not None
    assert set(obj["anova"]) == set(obj["tukey"])


def test_report_subcommand(runner, fixture_archive_path, tmp_path):
    out = tmp_path / "reports"
    result = _invoke(runner, ["report", "--archive", str(fixture_archive_path),
                              "--output-dir", str(out)])
    assert result.exit_code == 0
    assert {p.name for p in out.iterdir()} == {"totals.csv", "upset.json",
                                               "composition.csv"}


@pytest.mark.parametrize("k_max, flags, n_individuals", [
    (10, [], 11), (3, [], 11), (10, ["--exclude-bots"], 10),
    (10, ["--exclude-bots", "--bot-deny-list", "ada"], 9),
], ids=["10", "3", "10-exclude-bots", "10-exclude-bots-deny-ada"])
def test_subcommands_reproduce_run_outputs(runner, fixture_archive_path, tmp_path,
                                           k_max, flags, n_individuals):
    archive, run_dir = str(fixture_archive_path), tmp_path / "run"
    _invoke(runner, ["run", "--archive", archive, "--k-max", str(k_max), *flags,
                     "--output-dir", str(run_dir)])
    metrics, labels = str(run_dir / "metrics.csv"), str(run_dir / "labels.csv")

    _invoke(runner, ["metrics", "--archive", archive, *flags,
                     "--output", str(tmp_path / "metrics.csv")])
    assert (tmp_path / "metrics.csv").read_bytes() == (run_dir / "metrics.csv").read_bytes()
    assert len(Path(metrics).read_text("utf-8").splitlines()) == 1 + n_individuals

    # classify takes no bot flags: run classifies every commit, a bot's included
    _invoke(runner, ["classify", "--archive", archive,
                     "--output", str(tmp_path / "classification.csv")])
    assert (tmp_path / "classification.csv").read_bytes() == \
        (run_dir / "classification.csv").read_bytes()

    _invoke(runner, ["report", "--archive", archive, "--labels", labels, *flags,
                     "--output-dir", str(tmp_path / "report")])
    for name in ("totals.csv", "upset.json", "composition.csv"):
        assert (tmp_path / "report" / name).read_bytes() == (run_dir / name).read_bytes()

    _invoke(runner, ["analyze", "--metrics", metrics, "--labels", labels,
                     "--output", str(tmp_path / "stats.json")])
    stats = json.loads((run_dir / "stats.json").read_text("utf-8"))
    del stats["diagnostics"]
    assert (tmp_path / "stats.json").read_text("utf-8") == \
        json.dumps(stats, indent=2, sort_keys=True) + "\n"

    _invoke(runner, ["cluster", "--metrics", metrics, "--k-max", str(k_max),
                     "--labels-output", str(tmp_path / "labels.csv"),
                     "--dendrogram-output", str(tmp_path / "dendrogram.json")])
    assert (tmp_path / "dendrogram.json").read_bytes() == \
        (run_dir / "dendrogram.json").read_bytes()

    def clusters(path):
        rows = csv.DictReader(Path(path).read_text("utf-8").splitlines())
        return [(r["repo"], r["login"], r["cluster"]) for r in rows]

    assert clusters(tmp_path / "labels.csv") == clusters(labels)


def test_labels_missing_an_individual_exit_4(runner, fixture_archive_path, tmp_path):
    archive, run_dir = str(fixture_archive_path), tmp_path / "run"
    _invoke(runner, ["run", "--archive", archive, "--output-dir", str(run_dir)])
    lines = (run_dir / "labels.csv").read_text().splitlines()
    repo, login, _cluster, sub = lines[2].split(",")
    bad = tmp_path / "labels.csv"
    for kept, message in (
            # the header and the first two individuals
            (lines[:3], "error: no cluster label for individual ("),
            # malformed rows: a cluster that is no integer or negative, a row cut short
            ([*lines[:2], f"{repo},{login},x,{sub}", *lines[3:]],
             f"error: {bad}:3: cluster must be a non-negative integer, not 'x'"),
            ([*lines[:2], f"{repo},{login},-1,{sub}", *lines[3:]],
             f"error: {bad}:3: cluster must be a non-negative integer, not '-1'"),
            ([*lines[:2], f"{repo},{login}", *lines[3:]],
             f"error: {bad}:3: cluster must be a non-negative integer, not None"),
            # a subcluster that is no integer, a fifth column
            ([*lines[:2], f"{repo},{login},0,abc", *lines[3:]],
             f"error: {bad}:3: subcluster must be a non-negative integer, not 'abc'"),
            ([*lines[:2], f"{repo},{login},0,0,junk", *lines[3:]],
             f"error: {bad}:3: a labels row has 4 columns, not 5"),
            # a second row for one individual, whichever cluster it names
            ([*lines, "astro-lab/spectra,carol,3,0"],
             f"error: {bad}:{len(lines) + 1}: repeated row for "
             f"('astro-lab/spectra', 'carol'); the first is at line 4"),
            # a row for no individual of the input
            ([*lines, "astro-lab/spectra,zed,0,0"],
             f"error: {bad}:{len(lines) + 1}: ('astro-lab/spectra', 'zed') is not an "
             f"individual of the input")):
        bad.write_text("\n".join(kept) + "\n")
        for args in (["report", "--archive", archive,
                      "--output-dir", str(tmp_path / "rep")],
                     ["analyze", "--metrics", str(run_dir / "metrics.csv"),
                      "--output", str(tmp_path / "stats.json")]):
            result = runner.invoke(main, [*args, "--labels", str(bad)])
            assert result.exit_code == 4
            assert message in result.output


def test_labels_from_another_bot_setting_exit_4(runner, fixture_archive_path, tmp_path):
    # labels written with the bot, read without it: at --k-max 10 the bot sits
    # alone in cluster 3, at --k-max 2 it shares cluster 1 with others, so only
    # the former leaves a gap in the cluster ids once the bot is dropped
    archive = str(fixture_archive_path)
    for k_max in ("10", "2"):
        _invoke(runner, ["run", "--archive", archive, "--k-max", k_max,
                         "--output-dir", str(tmp_path / k_max)])
        labels = tmp_path / k_max / "labels.csv"
        assert labels.read_text().splitlines()[4].startswith(
            "astro-lab/spectra,dependabot[bot],")
        result = runner.invoke(main, ["report", "--archive", archive, "--exclude-bots",
                                      "--labels", str(labels),
                                      "--output-dir", str(tmp_path / "rep")])
        assert result.exit_code == 4
        assert f"error: {labels}:5: ('astro-lab/spectra', 'dependabot[bot]') is not " \
            "an individual of the input" in result.output


def test_gapped_cluster_ids_exit_4(runner, fixture_archive_path, tmp_path):
    # ids {0, 1, 5} leave clusters 2-4 empty: analyze and report reject them alike
    archive, run_dir = str(fixture_archive_path), tmp_path / "run"
    _invoke(runner, ["run", "--archive", archive, "--k-max", "2",
                     "--output-dir", str(run_dir)])
    lines = (run_dir / "labels.csv").read_text().splitlines()
    repo, login, _cluster, sub = lines[1].split(",")
    bad = tmp_path / "labels.csv"
    bad.write_text("\n".join([lines[0], f"{repo},{login},5,{sub}", *lines[2:]]) + "\n")
    assert {r["cluster"] for r in csv.DictReader(bad.open())} == {"0", "1", "5"}
    for args in (["report", "--archive", archive, "--output-dir", str(tmp_path / "rep")],
                 ["analyze", "--metrics", str(run_dir / "metrics.csv"),
                  "--output", str(tmp_path / "stats.json")]):
        result = runner.invoke(main, [*args, "--labels", str(bad)])
        assert result.exit_code == 4
        assert f"error: {bad}: labels must cover 0..k-1 with no empty cluster" \
            in result.output


def test_repeated_metrics_row_exit_4(runner, fixture_archive_path, tmp_path):
    run_dir = tmp_path / "run"
    _invoke(runner, ["run", "--archive", str(fixture_archive_path),
                     "--output-dir", str(run_dir)])
    lines = (run_dir / "metrics.csv").read_text().splitlines()
    bad = tmp_path / "metrics.csv"
    bad.write_text("\n".join([*lines, lines[2]]) + "\n")
    for args in (["cluster", "--labels-output", str(tmp_path / "labels.csv")],
                 ["analyze", "--labels", str(run_dir / "labels.csv"),
                  "--output", str(tmp_path / "stats.json")],
                 ["assign", "--output", str(tmp_path / "personas.csv")]):
        result = runner.invoke(main, [*args, "--metrics", str(bad)])
        assert result.exit_code == 4, args[0]
        assert f"error: {bad}:{len(lines) + 1}: repeated row for " \
            f"('astro-lab/spectra', 'bob'); the first is at line 3" in result.output


def test_bad_metrics_row_exit_4(runner, fixture_archive_path, tmp_path):
    run_dir = tmp_path / "run"
    _invoke(runner, ["run", "--archive", str(fixture_archive_path),
                     "--output-dir", str(run_dir)])
    lines = (run_dir / "metrics.csv").read_text().splitlines()
    cells = lines[2].split(",")
    bad = tmp_path / "metrics.csv"
    for row in (",".join(cells[:3]),  # cut short
                ",".join(["x", *cells[1:]]),  # a feature that is no number
                ",".join(["nan", *cells[1:]]),  # a feature that is not finite
                ",".join([*cells[:-1], "yes"])):  # is_bot neither true nor false
        bad.write_text("\n".join([*lines[:2], row, *lines[3:]]) + "\n")
        for args in (["cluster", "--labels-output", str(tmp_path / "labels.csv")],
                     ["analyze", "--labels", str(run_dir / "labels.csv"),
                      "--output", str(tmp_path / "stats.json")],
                     ["assign", "--output", str(tmp_path / "personas.csv")]):
            result = runner.invoke(main, [*args, "--metrics", str(bad)])
            assert result.exit_code == 4, (row, args[0])
            assert f"error: {bad}:3: malformed metrics row (" in result.output


def test_filter_subcommand(runner, tmp_path):
    summaries = tmp_path / "summaries.json"
    summaries.write_text(json.dumps([
        {"repo": "org/good", "visibility": "public", "unique_committers": 50,
         "license_id": "MIT", "languages": ["Python"], "is_fork": False,
         "age_days": 2000},
        {"repo": "org/forked", "visibility": "public", "unique_committers": 50,
         "license_id": "MIT", "languages": ["Python"], "is_fork": True,
         "age_days": 2000},
    ]))
    out = tmp_path / "elig.csv"
    result = _invoke(runner, ["filter", "--summaries", str(summaries),
                              "--output", str(out)])
    assert result.exit_code == 0
    assert "1 eligible; sampled 1" in result.output
    assert "org/good" in result.output


GOLDEN_ELIGIBILITY_CSV = (
    b"repo,eligible,failed_criteria\r\n"
    b"org/good,true,\r\n"
    b'org/private,false,"public: repository is private, not public"\r\n'
    b"org/few,false,min_committers: 9 committers < 10\r\n"
    b"org/many,false,max_committers: 307 committers >= 307\r\n"
    b"org/gpl,false,license: unrecognized license 'GPL-3.0'\r\n"
    b"org/haskell,false,language: no repository language is in the allowed list\r\n"
    b"org/fork,false,fork: repository is a fork\r\n"
    b"org/young,false,age: 999 days old < 1000\r\n"
)


def test_filter_golden_output(runner, tmp_path):
    # one summary on every inclusive bound, then one failing each criterion
    good = {"repo": "org/good", "visibility": "public", "unique_committers": 10,
            "license_id": "MIT", "languages": ["Python"], "is_fork": False,
            "age_days": 1000}
    summaries = tmp_path / "summaries.json"
    summaries.write_text(json.dumps([good] + [
        {**good, "repo": f"org/{name}", field: value} for name, field, value in (
            ("private", "visibility", "private"), ("few", "unique_committers", 9),
            ("many", "unique_committers", 307), ("gpl", "license_id", "GPL-3.0"),
            ("haskell", "languages", ["Haskell"]), ("fork", "is_fork", True),
            ("young", "age_days", 999))]))
    out = tmp_path / "eligibility.csv"
    result = _invoke(runner, ["filter", "--summaries", str(summaries),
                              "--output", str(out)])
    assert result.exit_code == 0
    assert result.output == "1 eligible; sampled 1\norg/good\n"
    assert out.read_bytes() == GOLDEN_ELIGIBILITY_CSV


def test_filter_bad_fraction_exit_2(runner, tmp_path):
    summaries = tmp_path / "summaries.json"
    eligible = {"repo": "org/good", "visibility": "public", "unique_committers": 50,
                "license_id": "MIT", "languages": ["Python"], "is_fork": False,
                "age_days": 2000}
    for repos in ([eligible], []):  # whether or not any repo is eligible
        summaries.write_text(json.dumps(repos))
        for fraction in ("0", "1.5", "-0.5"):
            result = runner.invoke(main, ["filter", "--summaries", str(summaries),
                                          "--fraction", fraction,
                                          "--output", str(tmp_path / "elig.csv")])
            assert result.exit_code == 2, (repos, fraction)
            assert "error: fraction must be in (0, 1]" in result.output


def test_filter_bad_fraction_writes_nothing(runner, tmp_path):
    summaries = tmp_path / "summaries.json"
    summaries.write_text(json.dumps([
        {"repo": "org/good", "visibility": "public", "unique_committers": 50,
         "license_id": "MIT", "languages": ["Python"], "is_fork": False,
         "age_days": 2000}]))
    out = tmp_path / "elig.csv"
    result = runner.invoke(main, ["filter", "--summaries", str(summaries),
                                  "--fraction", "0", "--output", str(out)])
    assert result.exit_code == 2
    assert not out.exists()


def test_filter_bad_summaries_exit_4(runner, tmp_path):
    summaries = tmp_path / "summaries.json"
    good = {"repo": "org/good", "unique_committers": 50, "age_days": 2000}
    other = {**good, "repo": "org/other"}  # a repo of its own for entry 1
    cases = [("{not", "not JSON"),
             (json.dumps(good), "expected a JSON list"),
             (json.dumps([good, "org/bad"]), "summary entry 1: TypeError"),
             (json.dumps([{"unique_committers": 5}]), "summary entry 0: KeyError: 'repo'"),
             (json.dumps([good, {**other, "visibility": "weird"}]),
              "summary entry 1: ValueError: visibility must be public, private or "
              "missing, not 'weird'"),
             (json.dumps([good, {**other, "age_days": -1}]),
              "summary entry 1: ValueError: age_days must be >= 0"),
             (json.dumps([good, {**other, "unique_committers": -3}]),
              "summary entry 1: ValueError: unique_committers must be >= 0"),
             # a second entry for one repo
             (json.dumps([good, good]),
              "summary entry 1: repo org/good is listed again; its first entry is 0"),
             (json.dumps([other, other, good]),
              "summary entry 1: repo org/other is listed again; its first entry is 0"),
             # slugs that differ only in case name one repo
             (json.dumps([{**good, "repo": "org/x"}, other, {**good, "repo": "Org/X"}]),
              "summary entry 2: repo Org/X is listed again; its first entry is 0")]
    # the counts are JSON integers: no string, float, null or bool stands in for one
    for field, value in (("unique_committers", "12"), ("unique_committers", "many"),
                         ("age_days", 1000.9), ("age_days", None),
                         ("unique_committers", True)):
        cases.append((json.dumps([good, {**other, field: value}]),
                      f"summary entry 1: TypeError: {field} must be an integer, "
                      f"not {value!r}"))
    for field, value, rule in (("is_fork", "false", "must be true or false"),
                               ("languages", "Python", "must be a list of strings"),
                               ("languages", ["Python", 3], "must be a list of strings"),
                               ("license_id", 5, "must be a string or null"),
                               ("license_id", ["MIT"], "must be a string or null")):
        cases.append((json.dumps([good, {**other, field: value}]),
                      f"summary entry 1: TypeError: {field} {rule}, not {value!r}"))
    for text, message in cases:
        summaries.write_text(text)
        result = runner.invoke(main, ["filter", "--summaries", str(summaries),
                                      "--output", str(tmp_path / "elig.csv")])
        assert result.exit_code == 4, text
        assert f"error: {summaries}: {message}" in result.output, text


def test_simulate_bad_values_exit_2(runner, tmp_path):
    metrics = tmp_path / "sim.csv"
    for args, message in ((["--count", "-1"], "error: count must be >= 0"),
                          (["--noise-sd", "-0.5"], "error: noise_sd must be >= 0"),
                          (["--noise-sd", "nan"], "error: noise_sd must be >= 0"),
                          (["--noise-sd", "inf"], "error: noise_sd must be >= 0"),
                          (["--specs", "specs.json"], "No such option")):
        result = runner.invoke(main, ["simulate", *args, "--metrics-output", str(metrics)])
        assert result.exit_code == 2, args
        assert message in result.output, args
        assert not metrics.exists()


def test_bad_profiles_file_exit_2(runner, fixture_archive_path, tmp_path):
    metrics = tmp_path / "metrics.csv"
    _invoke(runner, ["metrics", "--archive", str(fixture_archive_path),
                     "--output", str(metrics)])
    profile = {"name": "Only", "interactivity": "High", "centroid": [50] * 6}
    profiles = tmp_path / "profiles.json"
    for text in ("{not json",
                 json.dumps([profile]),
                 json.dumps({"profiles": [{**profile, "interactivity": None}]}),
                 json.dumps({"profiles": [{k: v for k, v in profile.items()
                                           if k != "interactivity"}]}),
                 json.dumps({"profiles": [{k: v for k, v in profile.items()
                                           if k != "centroid"}]}),
                 json.dumps({"profiles": []})):
        profiles.write_text(text)
        for args in (["assign", "--metrics", str(metrics), "--profiles", str(profiles),
                      "--output", str(tmp_path / "personas.csv")],
                     ["run", "--archive", str(fixture_archive_path), "--profiles",
                      str(profiles), "--output-dir", str(tmp_path / "out")],
                     ["simulate", "--profiles", str(profiles),
                      "--metrics-output", str(tmp_path / "sim.csv")]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, (text, args[0])
            assert f"error: {profiles}: bad persona profiles (" in result.output


def test_run_full_pipeline_deterministic(runner, fixture_archive_path, tmp_path):
    outputs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        result = _invoke(runner, ["run", "--archive", str(fixture_archive_path),
                                  "--seed", "0", "--output-dir", str(out)])
        assert result.exit_code == 0
        assert "pipeline complete" in result.output
        outputs.append(out)
    for path in sorted(outputs[0].iterdir()):
        if path.name == "run_manifest.json":
            continue
        assert path.read_bytes() == (outputs[1] / path.name).read_bytes()


def test_run_records_seed_in_manifest(runner, fixture_archive_path, tmp_path):
    result = _invoke(runner, ["run", "--archive", str(fixture_archive_path),
                              "--output-dir", str(tmp_path / "out"), "--seed", "7",
                              "--exclude-bots"])
    assert result.exit_code == 0
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["seed"] == 7


def test_run_bot_deny_list(runner, fixture_archive_path, tmp_path):
    # the fixture's 11 individuals less its [bot] login and the listed ada
    result = _invoke(runner, ["run", "--archive", str(fixture_archive_path),
                              "--exclude-bots", "--bot-deny-list", "ada",
                              "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 0
    assert "pipeline complete: 9 individuals" in result.output


def test_run_missing_archive_is_nonzero(runner, tmp_path):
    # an archive that does not exist, or none at all, is a usage error
    for args in (["--archive", str(tmp_path / "missing.jsonl")], []):
        result = runner.invoke(main, ["run", *args, "--output-dir", str(tmp_path / "x")])
        assert result.exit_code == 2, args
    assert not (tmp_path / "x").exists()


def test_run_config_option_is_gone(runner, fixture_archive_path, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"archive_path": str(fixture_archive_path)}))
    result = runner.invoke(main, ["run", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--config" in result.output


def test_run_help_lists_its_flags(runner):
    options = {word for word in _invoke(runner, ["run", "--help"]).output.split()
               if word.startswith("--")}
    assert options == {"--archive", "--output-dir", "--seed", "--exclude-bots",
                       "--k-min", "--k-max", "--profiles", "--bot-deny-list", "--help"}


def test_run_three_clusters_get_interactivity_levels(runner, fixture_archive_path,
                                                     tmp_path):
    out = tmp_path / "out"
    _invoke(runner, ["run", "--archive", str(fixture_archive_path), "--k-min", "3",
                     "--k-max", "3", "--output-dir", str(out)])
    stats = json.loads((out / "stats.json").read_text("utf-8"))
    assert stats["diagnostics"]["initial_k"] == 3
    levels = stats["diagnostics"]["interactivity_levels"]
    assert sorted(levels) == ["0", "1", "2"]
    assert sorted(levels.values()) == ["High", "Low", "Moderate"]
    clusters = {row["cluster"] for row in csv.DictReader((out / "labels.csv").open())}
    assert clusters == {"0", "1", "2"}


def test_bad_archive_exit_4(runner, fixture_archive_path, tmp_path):
    bad = tmp_path / "bad.jsonl"
    out = tmp_path / "m.csv"
    lines = fixture_archive_path.read_text().splitlines()
    no_actor = json.loads(lines[2])
    del no_actor["actor"]
    null_actor = {**no_actor, "actor": None}
    commit = json.loads(lines[3])
    null_message = {**commit, "payload": {**commit["payload"], "message": None}}
    string_files = {**commit, "payload": {**commit["payload"], "changed_files": "docs"}}
    lone_surrogate = {**null_actor, "actor": "b\ud800b"}
    for text in ('{"format": "something-else", "version": 1}\n',
                 "\n".join([*lines[:2], json.dumps(no_actor), *lines[3:]]) + "\n",
                 "\n".join([*lines[:2], json.dumps(null_actor), *lines[3:]]) + "\n",
                 "\n".join([*lines[:3], json.dumps(null_message), *lines[4:]]) + "\n",
                 "\n".join([*lines[:3], json.dumps(string_files), *lines[4:]]) + "\n",
                 "\n".join([*lines[:2], json.dumps(lone_surrogate), *lines[3:]]) + "\n"):
        bad.write_text(text)
        for args in (["metrics", "--output", str(out)],
                     ["classify", "--output", str(out)],
                     ["report", "--output-dir", str(tmp_path / "report")],
                     ["run", "--output-dir", str(tmp_path / "run")]):
            result = runner.invoke(main, [*args, "--archive", str(bad)])
            assert result.exit_code == 4
    assert not (tmp_path / "run" / "metrics.csv").exists()


def test_non_utf8_byte_exit_4_naming_its_line(runner, fixture_archive_path, tmp_path):
    lines = fixture_archive_path.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"actor": "', b'"actor": "a\xffa', 1)
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"".join(lines))
    out = tmp_path / "run"
    result = runner.invoke(main, ["run", "--archive", str(bad), "--output-dir", str(out)])
    assert result.exit_code == 4
    assert f"error: {bad}:3: not UTF-8 (" in result.output
    assert not (out / "metrics.csv").exists()

    run_dir = tmp_path / "good"
    _invoke(runner, ["run", "--archive", str(fixture_archive_path),
                     "--output-dir", str(run_dir)])
    labels = tmp_path / "labels.csv"
    labels.write_bytes((run_dir / "labels.csv").read_bytes() + b"astro-lab/spectra,\xff,0,0\n")
    result = runner.invoke(main, ["analyze", "--metrics", str(run_dir / "metrics.csv"),
                                  "--labels", str(labels),
                                  "--output", str(tmp_path / "stats.json")])
    assert result.exit_code == 4
    assert f"error: {labels}:13: not UTF-8 (" in result.output


def test_cluster_too_few_rows_exit_4(runner, tmp_path):
    metrics = tmp_path / "sim.csv"
    _invoke(runner, ["simulate", "--count", "1", "--noise-sd", "0.0",
                     "--seed", "0", "--metrics-output", str(metrics)])
    # keep only the header plus two rows
    lines = metrics.read_text().splitlines()
    metrics.write_text("\n".join(lines[:3]) + "\n")
    result = runner.invoke(main, ["cluster", "--metrics", str(metrics),
                                  "--labels-output", str(tmp_path / "l.csv")])
    assert result.exit_code == 4


def test_empty_metric_table(runner, tmp_path):
    # no rows: assign writes the header only, and cluster's k range is empty
    metrics, personas, labels = (tmp_path / name
                                 for name in ("sim.csv", "personas.csv", "labels.csv"))
    _invoke(runner, ["simulate", "--count", "0", "--metrics-output", str(metrics)])
    assert len(metrics.read_text("utf-8").splitlines()) == 1

    result = runner.invoke(main, ["assign", "--metrics", str(metrics),
                                  "--output", str(personas)])
    assert result.exit_code == 0
    assert personas.read_bytes() == b"repo,login,persona,distance,cluster,subcluster\r\n"

    result = runner.invoke(main, ["cluster", "--metrics", str(metrics),
                                  "--labels-output", str(labels)])
    assert result.exit_code == 4
    assert "error: empty k range [2, -1]" in result.output
    assert not labels.exists()


def test_two_individuals_exit_4_for_run_and_cluster(runner, tmp_path):
    # two rows clamp k_max to 1, below k_min: run and cluster give one answer
    archive = tmp_path / "two.jsonl"
    archive.write_text("\n".join([
        '{"format": "persona-miner-archive", "version": 1}',
        '{"type": "repo", "repo": "org/a", "fetched_at": "2024-01-01T00:00:00Z", '
        '"incomplete": false, "n_events": 2}',
        *(f'{{"type": "event", "repo": "org/a", "actor": "{login}", "kind": '
          f'"CommitCreated", "timestamp": "2024-01-01T00:00:00Z", "subject_id": "c{i}"}}'
          for i, login in enumerate(("ada", "bob")))]) + "\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", "--archive", str(archive),
                                  "--output-dir", str(out)])
    assert result.exit_code == 4
    assert "error: empty k range [2, 1]" in result.output
    assert not out.exists()

    metrics = tmp_path / "metrics.csv"
    _invoke(runner, ["metrics", "--archive", str(archive), "--output", str(metrics)])
    result = runner.invoke(main, ["cluster", "--metrics", str(metrics),
                                  "--labels-output", str(tmp_path / "labels.csv")])
    assert result.exit_code == 4
    assert "error: empty k range [2, 1]" in result.output


@pytest.mark.parametrize("k_min, k_max", [(0, 10), (1, 10), (5, 3), (2, 1)])
def test_run_bad_k_range_exit_2_before_output(runner, fixture_archive_path, tmp_path,
                                              k_min, k_max):
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", "--archive", str(fixture_archive_path),
                                  "--k-min", str(k_min), "--k-max", str(k_max),
                                  "--output-dir", str(out)])
    assert result.exit_code == 2
    assert f"error: k range [{k_min}, {k_max}] needs 2 <= k_min <= k_max" in result.output
    assert not out.exists()


def test_run_k_max_option_below_2_exit_2(runner, fixture_archive_path, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", "--archive", str(fixture_archive_path),
                                  "--k-max", "1", "--output-dir", str(out)])
    assert result.exit_code == 2
    assert "error: k range [2, 1] needs 2 <= k_min <= k_max" in result.output
    assert not out.exists()


@pytest.mark.parametrize("k_min, k_max", [(0, 10), (1, 10), (5, 3), (2, 1)])
def test_cluster_bad_k_range_exit_2(runner, tmp_path, k_min, k_max):
    metrics = tmp_path / "sim.csv"
    _invoke(runner, ["simulate", "--count", "2", "--seed", "0",
                     "--metrics-output", str(metrics)])
    labels = tmp_path / "labels.csv"
    result = runner.invoke(main, ["cluster", "--metrics", str(metrics),
                                  "--k-min", str(k_min), "--k-max", str(k_max),
                                  "--labels-output", str(labels)])
    assert result.exit_code == 2
    assert f"error: k range [{k_min}, {k_max}] needs 2 <= k_min <= k_max" in result.output
    assert not labels.exists()


def test_k_min_above_rows_is_a_data_error(runner, tmp_path):
    # the clamp of k_max to n - 1 depends on the data, so it stays exit 4
    metrics = tmp_path / "sim.csv"
    _invoke(runner, ["simulate", "--count", "1", "--seed", "0",
                     "--metrics-output", str(metrics)])
    result = runner.invoke(main, ["cluster", "--metrics", str(metrics), "--k-min", "7",
                                  "--labels-output", str(tmp_path / "labels.csv")])
    assert result.exit_code == 4
    assert "error: empty k range [7, 6]" in result.output


def test_run_k_min_above_rows_fails_before_output(runner, fixture_archive_path,
                                                  tmp_path):
    # 11 individuals clamp k_max to 10, below k_min
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", "--archive", str(fixture_archive_path),
                                  "--k-min", "11", "--k-max", "12",
                                  "--output-dir", str(out)])
    assert result.exit_code == 4
    assert "error: empty k range [11, 10]" in result.output
    assert not out.exists()


def test_run_failing_stage_writes_nothing(runner, fixture_archive_path, tmp_path,
                                          monkeypatch):
    # every result is computed before the first file is written
    def failing(rows, members):
        raise ArithmeticError("no convergence")

    out = tmp_path / "out"
    args = ["run", "--archive", str(fixture_archive_path), "--output-dir", str(out)]
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "stats_block", failing)
        result = runner.invoke(main, args)
    assert isinstance(result.exception, ArithmeticError)
    assert not out.exists()

    # over an earlier run's outputs, a failing run leaves them as they were
    _invoke(runner, [*args, "--exclude-bots"])
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setattr(pipeline, "stats_block", failing)
    result = runner.invoke(main, args)
    assert isinstance(result.exception, ArithmeticError)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_report_repo_listed_twice_writes_nothing(runner, fixture_archive_path, tmp_path):
    lines = fixture_archive_path.read_text().splitlines()
    marker_at = max(i for i, line in enumerate(lines) if '"type": "repo"' in line)
    twice = tmp_path / "twice.jsonl"
    out = tmp_path / "report"
    # the second time as written, then re-spelled in another case: the same repo
    for slug in ("bio-team/seqkit", "Bio-Team/SeqKit"):
        block = [line.replace('"bio-team/seqkit"', f'"{slug}"') for line in lines[marker_at:]]
        twice.write_text("\n".join([*lines, *block]) + "\n")
        result = runner.invoke(main, ["report", "--archive", str(twice),
                                      "--output-dir", str(out)])
        assert result.exit_code == 4
        assert f"{twice}:{len(lines) + 1}: repo {slug} is listed again; its first " \
            f"marker is at line {marker_at + 1}" in result.output
        assert not out.exists()


def test_output_path_not_a_regular_file_exit_2(runner, fixture_archive_path, tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    result = runner.invoke(main, ["metrics", "--archive", str(fixture_archive_path),
                                  "--output", str(fifo)])
    assert result.exit_code == 2
    assert f"error: {fifo}: not a regular file" in result.output
    missing = tmp_path / "missing" / "metrics.csv"
    result = runner.invoke(main, ["metrics", "--archive", str(fixture_archive_path),
                                  "--output", str(missing)])
    assert result.exit_code == 2
    assert f"error: {missing}: cannot write" in result.output
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]
    assert fifo.is_fifo()


@pytest.mark.parametrize("command", ["run", "report"])
def test_output_dir_naming_a_file_exit_2(runner, tmp_path, command):
    # refused before the archive is read: reading this one would be exit 4
    archive = tmp_path / "archive.jsonl"
    archive.write_text("not an archive\n")
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    result = runner.invoke(main, [command, "--archive", str(archive),
                                  "--output-dir", str(afile)])
    assert result.exit_code == 2
    assert "Invalid value for '--output-dir'" in result.output
    assert afile.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "archive.jsonl"]



@pytest.mark.parametrize("command", ["run", "report"])
def test_output_dir_under_a_file_exit_2(runner, fixture_archive_path, tmp_path, command):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    result = runner.invoke(main, [command, "--archive", str(fixture_archive_path),
                                  "--output-dir", str(afile / "sub")])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert f"error: {afile / 'sub'}: cannot make directory (" in result.output
    assert afile.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


@pytest.mark.parametrize("command", ["run", "report"])
def test_output_dir_under_a_file_refused_before_reading(runner, tmp_path, command):
    # a malformed archive would be exit 4: exit 2 shows the archive was never read
    archive = tmp_path / "archive.jsonl"
    archive.write_text("not an archive\n")
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    result = runner.invoke(main, [command, "--archive", str(archive),
                                  "--output-dir", str(afile / "sub" / "deeper")])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert (f"error: {afile / 'sub' / 'deeper'}: cannot make directory ({afile} is not "
            "a directory)" in result.output)
    assert afile.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "archive.jsonl"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize("stdout", ["file", "pipe"])
def test_output_to_standard_output_keeps_its_lines(fixture_archive_path, tmp_path, stdout):
    src = str(Path(persona_miner.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = [sys.executable, "-m", "persona_miner.cli", "metrics",
            "--archive", str(fixture_archive_path), "--output"]
    csv_path = tmp_path / "metrics.csv"
    subprocess.run([*args, str(csv_path)], capture_output=True, env=env, check=True)
    if stdout == "file":
        redirected = tmp_path / "out.txt"
        with redirected.open("wb") as fh:
            subprocess.run([*args, "/dev/stdout"], stdout=fh, env=env, check=True)
        written = redirected.read_bytes()
    else:
        written = subprocess.run([*args, "/dev/stdout"], stdout=subprocess.PIPE,
                                 env=env, check=True).stdout
    # the CSV goes through standard output, and the command's own line follows it
    assert written == csv_path.read_bytes() + b"wrote 11 metric rows to /dev/stdout\n"

_INPUT_OPTIONS = {
    "filter": ["--summaries"], "metrics": ["--archive"], "classify": ["--archive"],
    "cluster": ["--metrics"], "analyze": ["--metrics", "--labels"],
    "assign": ["--metrics", "--profiles"], "report": ["--archive", "--labels"],
    "simulate": ["--profiles"], "run": ["--archive", "--profiles"],
}
_OUTPUT_OPTION = {"filter": "--output", "metrics": "--output", "classify": "--output",
                  "cluster": "--labels-output", "analyze": "--output", "assign": "--output",
                  "report": "--output-dir", "simulate": "--metrics-output",
                  "run": "--output-dir"}


@pytest.mark.parametrize("command, option", [
    (command, option) for command, options in _INPUT_OPTIONS.items() for option in options])
def test_input_path_naming_a_directory_exit_2(runner, fixture_archive_path, tmp_path,
                                              command, option):
    # every other input option names an existing file, so only this one is refused
    folder = tmp_path / "folder"
    folder.mkdir()
    args = [command, _OUTPUT_OPTION[command], str(tmp_path / "out")]
    for name in _INPUT_OPTIONS[command]:
        args += [name, str(folder if name == option else fixture_archive_path)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert f"Invalid value for '{option}'" in result.output
    assert "is a directory" in result.output
    assert list(tmp_path.iterdir()) == [folder]
    assert list(folder.iterdir()) == []
