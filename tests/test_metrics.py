import math
import random
import re
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persona_miner.archive import load_archive
from persona_miner.errors import DataValidationError
from persona_miner.metrics import (
    FEATURE_NAMES,
    MetricVector,
    assemble_metric_vectors,
    build_repo_individuals,
    compute_mrc,
    metric_table,
    read_metrics_csv,
    write_metrics_csv,
)
from persona_miner.models import (
    ALL_KINDS,
    InteractionEvent,
    InteractionSet,
)

from conftest import csv_keys

REPO = "org/proj"
T0 = datetime(2023, 1, 1, tzinfo=timezone.utc)
FETCH = datetime(2024, 1, 1, tzinfo=timezone.utc)


def _ev(actor, kind, hours=0, subject="s1"):
    return InteractionEvent(actor=actor, kind=kind,
                            timestamp=T0 + timedelta(hours=hours),
                            subject_id=subject)


def _set(events, repo=REPO):
    return InteractionSet(repo=repo, events=tuple(events), fetched_at=FETCH)


def test_empty_set():
    individuals = build_repo_individuals(_set([]))
    assert individuals == []
    assert assemble_metric_vectors(individuals) == []


def test_single_commit_individual():
    individuals = build_repo_individuals(_set([_ev("ada", "CommitCreated")]))
    assert len(individuals) == 1
    ind = individuals[0]
    assert ind.counts["CommitCreated"] == 1
    assert all(ind.counts[k] == 0 for k in ALL_KINDS if k != "CommitCreated")
    assert ind.n_days == 1
    assert sum(sum(i.counts.values()) for i in individuals) == 1


def test_same_login_two_repos_two_individuals():
    r1, r2 = "org/r1", "org/r2"
    s1 = _set([_ev("ada", "CommitCreated", subject="a")], repo=r1)
    s2 = _set([_ev("ada", "CommitCreated", subject="b")], repo=r2)
    i1 = build_repo_individuals(s1)
    i2 = build_repo_individuals(s2)
    assert i1[0].repo != i2[0].repo
    assert i1[0].login == i2[0].login == "ada"


def test_same_utc_date_dedup():
    events = [_ev("ada", "CommitCreated", hours=5, subject="a"),
              _ev("ada", "CommitCreated", hours=23, subject="b")]
    individuals = build_repo_individuals(_set(events))
    assert individuals[0].n_days == 1


def test_bot_flagging():
    individuals = build_repo_individuals(
        _set([_ev("dependabot[bot]", "PRCreated")])
    )
    assert individuals[0].is_bot_flagged


def _rows(spec):
    """spec: (actor, kind, day) triples -> {login: metric row} of one repo."""
    individuals = build_repo_individuals(_set(_events(spec)))
    return {v.login: v for v in assemble_metric_vectors(individuals)}


def test_compute_rc_cases():
    rows = _rows([("ada", "CommitCreated", 0)] * 5 + [("bob", "CommitCreated", 0)] * 15
                 + [("ada", "IssueCreated", 0)] * 7)
    assert _feature(rows["ada"], "rc_commits_created") == 25.0  # 5 of 20
    assert _feature(rows["ada"], "rc_issues_created") == 100.0  # 7 of 7
    assert _feature(rows["bob"], "rc_issues_created") == 0.0
    for v in rows.values():  # a kind nobody in the repo used
        assert _feature(v, "rc_prs_closed") == 0.0


def test_compute_mrc_cases():
    assert compute_mrc((0, 0, 0, 0, 0, 0)) == 0.0
    assert compute_mrc((10, 20, 30, 0, 0, 0)) == 10.0
    assert compute_mrc((100,) * 6) == 100.0
    with pytest.raises(DataValidationError):
        compute_mrc((1, 2, 3))


def test_compute_uit_cases():
    rows = _rows([("full", k, 0) for k in ALL_KINDS]
                 + [("only_commits", "CommitCreated", 0)] * 3
                 + [("three", "CommitCreated", 0), ("three", "IssueCreated", 0),
                    ("three", "IssueCreated", 1), ("three", "PRCreated", 2)])
    assert {login: v.uit for login, v in rows.items()} == {
        "full": 6, "only_commits": 1, "three": 3}


def test_pct_interaction_days_cases():
    rows = _rows([("ada", "CommitCreated", day) for day in (0, 3)]
                 + [("bob", "IssueCreated", day) for day in range(6)])
    assert _feature(rows["ada"], "pct_interaction_days") == 25.0  # 2 of 8
    assert _feature(rows["bob"], "pct_interaction_days") == 75.0


def _feature(v, name):
    return v.features[FEATURE_NAMES.index(name)]


def test_net_created_closed_cases():
    def net(created, closed):
        v = MetricVector.from_rcs((0.0, created, closed, 0.0, 0.0, 0.0), 0.0, 0.0,
                                  uit=1, repo="org/repo", login="ada")
        return _feature(v, "pct_created_minus_closed_issues")

    assert net(10.0, 30.0) == -20.0
    assert net(42.0, 42.0) == 0.0
    assert net(100.0, 0.0) == 100.0


def test_metric_vector_needs_ten_finite_floats():
    repo = "org/repo"
    assert MetricVector((1.0,) * 10, 1, repo, "ada").features == (1.0,) * 10
    for features in ((1.0,) * 9, (1.0,) * 11, (1.0,) * 9 + (math.nan,),
                     (1.0,) * 9 + (math.inf,), (1.0,) * 9 + (1,), (1.0,) * 9 + ("1",)):
        with pytest.raises(DataValidationError):
            MetricVector(features, 1, repo, "ada")


def test_sole_contributor_all_hundreds():
    events = [_ev("ada", k, hours=i, subject=f"s{i}")
              for i, k in enumerate(ALL_KINDS)]
    vectors = assemble_metric_vectors(build_repo_individuals(_set(events)))
    v = vectors[0]
    assert v.features[:6] == (100.0,) * 6
    assert _feature(v, "mrc") == 100.0
    assert _feature(v, "pct_sum_n_interactions") == 100.0
    assert _feature(v, "pct_interaction_days") == 100.0
    assert v.uit == 6


def test_three_contributor_columns_sum_to_100():
    events = []
    subject = 0
    for actor, n_commits in [("ada", 5), ("bob", 3), ("carol", 2)]:
        for _ in range(n_commits):
            subject += 1
            events.append(_ev(actor, "CommitCreated", hours=subject,
                              subject=f"s{subject}"))
    vectors = assemble_metric_vectors(build_repo_individuals(_set(events)))
    for name in ("rc_commits_created", "pct_sum_n_interactions", "pct_interaction_days"):
        assert abs(sum(_feature(v, name) for v in vectors) - 100.0) < 1e-9


def test_ten_percent_share():
    events = [_ev("ada", "IssueCreated", hours=i, subject=f"i{i}")
              for i in range(10)]
    events += [_ev("bob", "IssueCreated", hours=100 + i, subject=f"j{i}")
               for i in range(90)]
    vectors = assemble_metric_vectors(build_repo_individuals(_set(events)))
    ada = next(v for v in vectors if v.login == "ada")
    assert abs(_feature(ada, "pct_sum_n_interactions") - 10.0) < 1e-12


def make_random_repo(rng: random.Random, repo_idx: int) -> InteractionSet:
    repo = f"gen/repo{repo_idx:04d}"
    events = []
    subject = 0
    for actor_idx in range(rng.randint(1, 8)):
        actor = f"user{actor_idx}"
        for kind in ALL_KINDS:
            for _ in range(rng.randint(0, 4)):
                subject += 1
                events.append(InteractionEvent(
                    actor=actor, kind=kind,
                    timestamp=T0 + timedelta(hours=rng.randint(0, 5000)),
                    subject_id=f"s{subject}",
                ))
    if not events:
        events.append(InteractionEvent(actor="user0", kind="CommitCreated",
                                       timestamp=T0, subject_id="s0"))
    return InteractionSet(repo=repo, events=tuple(events), fetched_at=FETCH)


def test_invariants_over_generated_repos():
    rng = random.Random(20240601)
    for repo_idx in range(200):
        iset = make_random_repo(rng, repo_idx)
        individuals = build_repo_individuals(iset)
        vectors = assemble_metric_vectors(individuals)
        assert all(i.n_days >= 1 for i in individuals)
        for kind_idx, kind in enumerate(ALL_KINDS):
            if sum(i.counts[kind] for i in individuals) > 0:
                col = sum(v.features[kind_idx] for v in vectors)
                assert abs(col - 100.0) < 1e-9
        for v in vectors:
            # exact equality with the same arithmetic (sum in field order, /6)
            assert _feature(v, "mrc") == sum(v.features[:6]) / 6
            assert 1 <= v.uit <= 6
            assert _feature(v, "pct_created_minus_closed_issues") == \
                _feature(v, "rc_issues_created") - _feature(v, "rc_issues_closed")
        if sum(i.n_days for i in individuals) > 0:
            assert abs(sum(_feature(v, "pct_interaction_days") for v in vectors)
                       - 100.0) < 1e-9


def test_metrics_csv_round_trip(tmp_path, fixture_archive_path):
    vectors = []
    for iset in sorted(load_archive(fixture_archive_path), key=lambda s: s.repo):
        vectors.extend(assemble_metric_vectors(build_repo_individuals(iset)))
    path = tmp_path / "metrics.csv"
    write_metrics_csv(vectors, path)
    assert read_metrics_csv(path) == vectors


@st.composite
def _metric_vectors(draw):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return [MetricVector(tuple(draw(st.lists(finite, min_size=len(FEATURE_NAMES),
                                             max_size=len(FEATURE_NAMES)))),
                         draw(st.integers(0, 6)), repo, login, draw(st.booleans()))
            for repo, login in draw(csv_keys)]


@given(vectors=_metric_vectors())
@settings(max_examples=100, deadline=None)
def test_metrics_csv_round_trip_property(tmp_path_factory, vectors):
    path = tmp_path_factory.mktemp("metrics") / "metrics.csv"
    write_metrics_csv(vectors, path)
    assert read_metrics_csv(path) == vectors


def test_read_metrics_csv_rejects_repeated_row(tmp_path, fixture_archive_path):
    # a repo that differs only in case names the same repository
    _individuals, vectors = metric_table(load_archive(fixture_archive_path))
    path = tmp_path / "metrics.csv"
    for repo in ("astro-lab/spectra", "Astro-Lab/Spectra"):
        write_metrics_csv(vectors + [replace(vectors[1], repo=repo)], path)
        with pytest.raises(DataValidationError, match=re.escape(
                f"{path}:{len(vectors) + 2}: repeated row for ('{repo}', 'bob'); "
                f"the first is at line 3")):
            read_metrics_csv(path)


def test_read_metrics_csv_rejects_other_header(tmp_path, fixture_archive_path):
    _individuals, vectors = metric_table(load_archive(fixture_archive_path))
    path = tmp_path / "metrics.csv"
    write_metrics_csv(vectors, path)
    header, *rows = path.read_text("utf-8").splitlines(keepends=True)
    for text in ("", "".join([header.replace("login", "user"), *rows])):
        path.write_text(text, "utf-8")
        with pytest.raises(DataValidationError,
                           match=re.escape(f"{path}: unexpected metrics CSV header")):
            read_metrics_csv(path)


def test_read_metrics_csv_names_the_line_of_a_non_utf8_byte(tmp_path, fixture_archive_path):
    _individuals, vectors = metric_table(load_archive(fixture_archive_path))
    path = tmp_path / "metrics.csv"
    write_metrics_csv(vectors, path)
    path.write_bytes(path.read_bytes().replace(b",bob,", b",b\xffb,", 1))
    bob_line = 1 + next(i for i, v in enumerate(vectors, start=1) if v.login == "bob")
    with pytest.raises(DataValidationError, match=re.escape(f"{path}:{bob_line}: not UTF-8 (")):
        read_metrics_csv(path)


def _events(spec):
    """spec: (actor, kind, day) triples -> events in one repo."""
    return [InteractionEvent(actor=actor, kind=kind,
                             timestamp=T0 + timedelta(days=day, hours=i),
                             subject_id=f"{actor}-{i}")
            for i, (actor, kind, day) in enumerate(spec)]


def _bot_filtered_route(sets, deny):
    """Reference: re-tally each repo from its events minus the bots' events."""
    individuals, vectors = [], []
    for iset in sorted(sets, key=lambda s: s.repo):
        first = build_repo_individuals(iset, deny)
        bots = {i.login for i in first if i.is_bot_flagged}
        kept = _set([ev for ev in iset.events if ev.actor not in bots], repo=iset.repo)
        repo_individuals = build_repo_individuals(kept, deny)
        individuals.extend(repo_individuals)
        vectors.extend(assemble_metric_vectors(repo_individuals))
    return individuals, vectors


def test_metric_table_matches_bot_filtered_route():
    mixed, all_bots, denied = "org/mixed", "org/allbots", "org/denied"
    sets = [
        _set(_events([("ada", "CommitCreated", 0), ("ada", "PRCreated", 1),
                      ("bob", "CommitCreated", 1), ("bob", "IssueClosed", 2),
                      ("dependabot[bot]", "PRCreated", 0),
                      ("dependabot[bot]", "CommitCreated", 3)]), repo=mixed),
        _set(_events([("ci[bot]", "CommitCreated", 0),
                      ("renovate[bot]", "PRCreated", 2)]), repo=all_bots),
        _set(_events([("cy", "IssueCreated", 0), ("cy", "IssueAssigned", 4),
                      ("releaser", "PRClosed", 0),
                      ("releaser", "IssueClosed", 5)]), repo=denied),
    ]
    deny = frozenset({"releaser"})
    individuals, vectors = metric_table(sets, exclude_bots=True, bot_deny_list=deny)
    assert (individuals, vectors) == _bot_filtered_route(sets, deny)
    assert [(v.repo, v.login) for v in vectors] == [
        ("org/denied", "cy"), ("org/mixed", "ada"), ("org/mixed", "bob")]
    # a repo of bots only leaves no rows
    assert metric_table(sets[1:2], exclude_bots=True) == ([], [])
    # without exclude_bots every row stays and the deny list only flags
    individuals, vectors = metric_table(sets, bot_deny_list=deny)
    assert len(vectors) == 7
    assert {v.login for v in vectors if v.is_bot_flagged} == {
        "ci[bot]", "dependabot[bot]", "releaser", "renovate[bot]"}
