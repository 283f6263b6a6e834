import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persona_miner.errors import DataValidationError
from persona_miner.metrics import RepoIndividual
from persona_miner.models import ALL_KINDS
from persona_miner.report import (
    composition,
    interaction_totals,
    read_labels_csv,
    upset_counts,
    write_composition_csv,
    write_labels_csv,
    write_totals_csv,
    write_upset_json,
)

from conftest import csv_keys



def _individual(login, repo="org/repo", **kind_counts):
    counts = {k: 0 for k in ALL_KINDS}
    counts.update(kind_counts)
    return RepoIndividual(repo=repo, login=login, counts=counts, n_days=1)


def test_interaction_totals_counts_and_percentages():
    inds = [
        _individual("ada", CommitCreated=6, IssueCreated=2),
        _individual("bob", CommitCreated=2),
    ]
    totals = interaction_totals(inds)
    assert totals["CommitCreated"] == (8, 80.0)
    assert totals["IssueCreated"] == (2, 20.0)
    assert totals["PRClosed"] == (0, 0.0)


def test_interaction_totals_empty():
    totals = interaction_totals([])
    assert all(v == (0, 0.0) for v in totals.values())


def test_upset_exact_combinations():
    inds = [
        _individual("a", CommitCreated=1),
        _individual("b", CommitCreated=3),
        _individual("c", CommitCreated=1, IssueCreated=1),
    ]
    counts = upset_counts(inds)
    assert counts == {
        ("CommitCreated",): 2,
        ("CommitCreated", "IssueCreated"): 1,
    }
    assert sum(counts.values()) == len(inds)


def test_composition_rows_and_mixed_fraction(tmp_path):
    inds = [
        _individual("a", repo="org/x", CommitCreated=1),
        _individual("b", repo="org/x", CommitCreated=1),
        _individual("c", repo="org/y", CommitCreated=1),
    ]
    rows = composition(inds, [0, 1, 2])
    assert rows == [("org/x", {0: 1, 1: 1}), ("org/y", {2: 1})]
    out = tmp_path / "comp.csv"
    write_composition_csv(rows, out)
    assert [line.split(",")[-1] for line in out.read_text().splitlines()[1:]] == ["0.5", ""]


def test_composition_empty(tmp_path):
    assert composition([], []) == []
    out = tmp_path / "comp.csv"
    write_composition_csv([], out)
    assert out.read_text().splitlines() == [
        "repo,clusters_present,counts_per_cluster,mixed_fraction"]


def test_totals_csv(tmp_path):
    totals = interaction_totals([_individual("a", CommitCreated=4)])
    out = tmp_path / "totals.csv"
    write_totals_csv(totals, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "interaction_type,count,percentage"
    assert lines[1] == "CommitCreated,4,100.0"
    assert len(lines) == 7  # header + six kinds


def test_upset_json(tmp_path):
    counts = upset_counts([_individual("a", CommitCreated=1),
                           _individual("b", CommitCreated=1),
                           _individual("c", IssueCreated=1)])
    out = tmp_path / "upset.json"
    write_upset_json(counts, out)
    obj = json.loads(out.read_text())
    assert obj["format"] == "persona-miner-upset"
    assert obj["version"] == 1
    assert obj["combinations"][0] == {"combination": ["CommitCreated"], "count": 2}


def test_composition_csv(tmp_path):
    inds = [_individual("a", CommitCreated=1), _individual("b", CommitCreated=1)]
    out = tmp_path / "comp.csv"
    write_composition_csv(composition(inds, [0, 1]), out)
    lines = out.read_text().splitlines()
    assert lines[0] == "repo,clusters_present,counts_per_cluster,mixed_fraction"
    assert lines[1] == "org/repo,0;1,0:1;1:1,1.0"


def test_labels_csv(tmp_path):
    out = tmp_path / "labels.csv"
    ada, bob = (_individual(login, "org/x", CommitCreated=1) for login in ("ada", "bob"))
    write_labels_csv([ada, bob], (1, 0), (0, 1), out)
    lines = out.read_text().splitlines()
    assert lines == ["repo,login,cluster,subcluster", "org/x,ada,1,0", "org/x,bob,0,1"]
    assert read_labels_csv(out, [bob, ada]) == (0, 1)
    # a row matches the individual whose repo differs from its own only in case
    assert read_labels_csv(out, [bob, _individual("ada", "Org/X", CommitCreated=1)]) == (0, 1)
    with pytest.raises(DataValidationError,
                       match=r"no cluster label for individual \('org/y', 'ada'\)"):
        read_labels_csv(out, [ada, bob, _individual("ada", "org/y", CommitCreated=1)])
    with pytest.raises(DataValidationError, match=re.escape(
            f"{out}:2: ('org/x', 'ada') is not an individual of the input")):
        read_labels_csv(out, [bob])


@st.composite
def _labelled_keys(draw):
    """Unique (repo, login) keys, each with a cluster; the ids run 0..k-1."""
    keys = draw(csv_keys)
    k = draw(st.integers(min_value=min(1, len(keys)), max_value=len(keys)))
    clusters = draw(st.permutations(
        [*range(k), *draw(st.lists(st.integers(0, max(k - 1, 0)),
                                   min_size=len(keys) - k, max_size=len(keys) - k))]))
    subclusters = draw(st.lists(st.integers(0, 9), min_size=len(keys),
                                max_size=len(keys)))
    return keys, clusters, subclusters, k


@given(labelled=_labelled_keys(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_labels_csv_round_trip_property(tmp_path_factory, labelled, data):
    keys, clusters, subclusters, k = labelled
    path = tmp_path_factory.mktemp("labels") / "labels.csv"
    write_labels_csv([_individual(login, repo, CommitCreated=1) for repo, login in keys],
                     clusters, subclusters, path)
    order = data.draw(st.permutations(range(len(keys))))
    individuals = [_individual(keys[i][1], keys[i][0], CommitCreated=1)
                   for i in order]
    assert read_labels_csv(path, individuals) == tuple(clusters[i] for i in order)


def test_read_labels_csv_rejects_other_header(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("repo,login,cluster\norg/x,ada,2\n", "utf-8")
    with pytest.raises(DataValidationError, match="unexpected labels header"):
        read_labels_csv(path, [])


def test_read_labels_csv_rejects_repeated_row(tmp_path):
    # a repo that differs only in case names the same repository
    path = tmp_path / "labels.csv"
    ada, bob = (_individual(login, "org/x", CommitCreated=1) for login in ("ada", "bob"))
    for repo in ("org/x", "Org/X"):
        path.write_text("repo,login,cluster,subcluster\norg/x,ada,0,0\norg/x,bob,1,0\n"
                        f"{repo},ada,1,0\n", "utf-8")
        with pytest.raises(DataValidationError, match=re.escape(
                f"{path}:4: repeated row for ('{repo}', 'ada'); the first is at line 2")):
            read_labels_csv(path, [ada, bob])


def test_read_labels_csv_names_the_line_of_a_non_utf8_byte(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_bytes(b"repo,login,cluster,subcluster\r\norg/x,ada,0,0\r\n"
                     b"org/x,bob,1,0\r\norg/x,\xff,1,0\r\n")
    ada, bob = (_individual(login, "org/x", CommitCreated=1) for login in ("ada", "bob"))
    with pytest.raises(DataValidationError, match=re.escape(f"{path}:4: not UTF-8 (")):
        read_labels_csv(path, [ada, bob])


def test_emission_is_byte_stable(tmp_path):
    inds = [_individual("a", CommitCreated=1, PRClosed=2),
            _individual("b", IssueClosed=3)]
    for name in ("x1", "x2"):
        write_upset_json(upset_counts(inds), tmp_path / f"{name}.json")
        write_totals_csv(interaction_totals(inds), tmp_path / f"{name}.csv")
    assert (tmp_path / "x1.json").read_bytes() == (tmp_path / "x2.json").read_bytes()
    assert (tmp_path / "x1.csv").read_bytes() == (tmp_path / "x2.csv").read_bytes()
