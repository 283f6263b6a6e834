from datetime import datetime, timezone

from persona_miner.github import GitHubClient
from persona_miner.models import CommitPayload

from conftest import FakeTransport, paged

SLUG = "octo/proj"
BASE = f"https://api.github.com/repos/{SLUG}"
NOW = datetime(2024, 6, 1, tzinfo=timezone.utc)


def _commit(sha, login=None, email="dev@example.org", message="msg",
            date="2023-05-01T10:00:00Z"):
    obj = {
        "sha": sha,
        "commit": {"author": {"email": email, "date": date}, "message": message},
        "author": {"login": login} if login else None,
    }
    return obj


def _issue(number, login, created="2023-01-02T00:00:00Z", pr=False):
    obj = {"number": number, "user": {"login": login}, "created_at": created}
    if pr:
        obj["pull_request"] = {"url": "..."}
    return obj


def test_fetch_interactions_commit_and_issue_lifecycle():
    # 2 commits, 1 issue opened and closed by the same user -> 4 events, 3 kinds
    transport = FakeTransport({
        f"{BASE}/commits": paged([_commit("abc1", login="ada"),
                                  _commit("abc2", login="ada", message="wip")]),
        f"{BASE}/commits/abc1": {
            "files": [{"filename": "src/a.py"}, {"filename": "README.md"},
                      {"filename": "src/a.py"}, {"status": "removed"}]
        },
        f"{BASE}/commits/abc2": {"sha": "abc2"},  # detail without a files list
        f"{BASE}/issues": paged([_issue(7, "ada")]),
        f"{BASE}/issues/7/events": paged([
            {"event": "closed", "actor": {"login": "ada"},
             "created_at": "2023-01-05T00:00:00Z"},
        ]),
        f"{BASE}/pulls": paged([]),
    })
    iset = GitHubClient(transport=transport).fetch_interactions(SLUG, now=NOW)
    assert len(iset.events) == 4
    kinds = {e.kind for e in iset.events if e.actor == "ada"}
    assert kinds == {"CommitCreated", "IssueCreated", "IssueClosed"}
    commits = [e.payload for e in iset.events
               if e.kind == "CommitCreated"]
    assert commits == [CommitPayload("msg", ("src/a.py", "README.md")),
                       CommitPayload("wip", ())]
    assert not iset.incomplete


def test_fetch_interactions_empty_repo():
    transport = FakeTransport({
        f"{BASE}/commits": paged([]),
        f"{BASE}/issues": paged([]),
        f"{BASE}/pulls": paged([]),
    })
    iset = GitHubClient(transport=transport).fetch_interactions(SLUG, now=NOW)
    assert iset.events == ()


def test_two_assignees_give_two_assignment_events():
    transport = FakeTransport({
        f"{BASE}/commits": paged([]),
        f"{BASE}/issues": paged([_issue(3, "ada")]),
        f"{BASE}/issues/3/events": paged([
            {"event": "assigned", "assignee": {"login": "bob"},
             "created_at": "2023-01-03T00:00:00Z"},
            {"event": "assigned", "assignee": {"login": "carol"},
             "created_at": "2023-01-04T00:00:00Z"},
            # re-assignment of the same person counts once
            {"event": "assigned", "assignee": {"login": "bob"},
             "created_at": "2023-02-01T00:00:00Z"},
        ]),
        f"{BASE}/pulls": paged([]),
    })
    iset = GitHubClient(transport=transport).fetch_interactions(SLUG, now=NOW)
    assigned = [e for e in iset.events if e.kind == "IssueAssigned"]
    assert {(e.subject_id, e.actor) for e in assigned} == {("3", "bob"), ("3", "carol")}
    assert len(assigned) == 2


def test_prs_excluded_from_issue_events():
    transport = FakeTransport({
        f"{BASE}/commits": paged([]),
        f"{BASE}/issues": paged([_issue(9, "ada", pr=True)]),
        f"{BASE}/pulls": paged([]),
    })
    iset = GitHubClient(transport=transport).fetch_interactions(SLUG, now=NOW)
    assert iset.events == ()


def test_merged_pr_attributed_to_merger():
    pr = {
        "number": 5, "user": {"login": "ada"}, "state": "closed",
        "created_at": "2023-03-01T00:00:00Z",
        "closed_at": "2023-03-08T00:00:00Z",
        "merged_at": "2023-03-08T00:00:00Z",
    }
    transport = FakeTransport({
        f"{BASE}/commits": paged([]),
        f"{BASE}/issues": paged([]),
        f"{BASE}/pulls": paged([pr]),
        f"{BASE}/pulls/5": {"merged_by": {"login": "maintainer"}},
    })
    iset = GitHubClient(transport=transport).fetch_interactions(SLUG, now=NOW)
    closed = next(e for e in iset.events if e.kind == "PRClosed")
    assert closed.actor == "maintainer"
    created = next(e for e in iset.events if e.kind == "PRCreated")
    assert created.actor == "ada"


def test_commit_email_fallback_identity():
    transport = FakeTransport({
        f"{BASE}/commits": paged([
            _commit("ffff", login=None, email="Jane.Doe@Example.ORG")
        ]),
        f"{BASE}/commits/ffff": {"files": []},
        f"{BASE}/issues": paged([]),
        f"{BASE}/pulls": paged([]),
    })
    iset = GitHubClient(transport=transport).fetch_interactions(SLUG, now=NOW)
    assert iset.events[0].actor == "email:jane.doe@example.org"


def test_fetch_is_idempotent_against_fixture_server():
    routes = {
        f"{BASE}/commits": paged([_commit("abc1", login="ada")]),
        f"{BASE}/commits/abc1": {"files": [{"filename": "a.py"}]},
        f"{BASE}/issues": paged([_issue(1, "bob")]),
        f"{BASE}/issues/1/events": paged([]),
        f"{BASE}/pulls": paged([]),
    }
    client = GitHubClient(transport=FakeTransport(routes))
    first = client.fetch_interactions(SLUG, now=NOW)
    second = client.fetch_interactions(SLUG, now=NOW)
    assert sorted(first.events, key=str) == sorted(second.events, key=str)


def test_only_six_kinds_ever_produced(fixture_archive_path):
    from persona_miner.archive import load_archive
    from persona_miner.models import ALL_KINDS

    for iset in load_archive(fixture_archive_path):
        assert all(e.kind in ALL_KINDS for e in iset.events)


def test_all_six_kinds_round_trip_through_the_archive(tmp_path):
    # each kind the client writes is one the archive reads back
    from persona_miner.archive import load_archive, save_archive
    from persona_miner.models import ALL_KINDS

    transport = FakeTransport({
        f"{BASE}/commits": paged([_commit("abc1", login="ada")]),
        f"{BASE}/commits/abc1": {"files": [{"filename": "a.py"}]},
        f"{BASE}/issues": paged([_issue(7, "bob")]),
        f"{BASE}/issues/7/events": paged([
            {"event": "assigned", "assignee": {"login": "carol"},
             "created_at": "2023-01-03T00:00:00Z"},
            {"event": "closed", "actor": {"login": "carol"},
             "created_at": "2023-01-05T00:00:00Z"},
        ]),
        f"{BASE}/pulls": paged([_pr(5, "ada", state="closed",
                                    closed_at="2023-03-08T00:00:00Z")]),
        f"{BASE}/issues/5/events": paged([{"event": "closed", "actor": {"login": "bob"}}]),
    })
    iset = GitHubClient(transport=transport).fetch_interactions(SLUG, now=NOW)
    assert sorted(e.kind for e in iset.events) == sorted(ALL_KINDS)
    save_archive([iset], tmp_path / "archive.jsonl")
    assert load_archive(tmp_path / "archive.jsonl") == [iset]


def _pr(number, login, **fields):
    return {"number": number, "user": {"login": login}, "state": "open",
            "created_at": "2023-03-01T00:00:00Z", **fields}


def test_second_page_is_fetched_when_the_first_is_full():
    transport = FakeTransport({
        f"{BASE}/commits": paged([]),
        f"{BASE}/issues": paged([]),
        f"{BASE}/pulls": paged([_pr(n, "ada") for n in range(1, 151)]),
    })
    iset = GitHubClient(transport=transport).fetch_interactions(SLUG, now=NOW)
    assert [e.kind for e in iset.events] == ["PRCreated"] * 150
    assert [e.subject_id for e in iset.events] == [str(n) for n in range(1, 151)]
    assert [params["page"] for url, params in transport.calls
            if url == f"{BASE}/pulls"] == [1, 2]


def test_pr_closer_falls_back_to_the_issue_events_closer():
    closed = {"state": "closed", "closed_at": "2023-03-08T00:00:00Z"}
    transport = FakeTransport({
        f"{BASE}/commits": paged([]),
        f"{BASE}/issues": paged([]),
        f"{BASE}/pulls": paged([
            _pr(1, "ada", **closed),  # closed unmerged
            _pr(2, "ada", **closed, merged_at="2023-03-08T00:00:00Z"),  # no merged_by
            _pr(3, "ada", **closed),  # no closed event with an actor: the author
        ]),
        f"{BASE}/pulls/2": {"merged_by": None},
        f"{BASE}/issues/1/events": paged([
            {"event": "labeled", "actor": {"login": "bob"}},
            {"event": "closed", "actor": {"login": "carol"}},
            {"event": "closed", "actor": {"login": "dmitri"}},
        ]),
        f"{BASE}/issues/2/events": paged([{"event": "closed", "actor": {"login": "elena"}}]),
        f"{BASE}/issues/3/events": paged([{"event": "closed", "actor": None}]),
    })
    iset = GitHubClient(transport=transport).fetch_interactions(SLUG, now=NOW)
    closers = {e.subject_id: e.actor for e in iset.events
               if e.kind == "PRClosed"}
    assert closers == {"1": "carol", "2": "elena", "3": "ada"}


def test_commit_with_no_login_and_no_email_is_skipped(caplog):
    transport = FakeTransport({
        f"{BASE}/commits": paged([_commit("dead", login=None, email=" "),
                                  _commit("abc1", login="ada")]),
        f"{BASE}/commits/abc1": {"files": []},
        f"{BASE}/issues": paged([]),
        f"{BASE}/pulls": paged([]),
    })
    iset = GitHubClient(transport=transport).fetch_interactions(SLUG, now=NOW)
    assert [(e.actor, e.subject_id) for e in iset.events] == [("ada", "abc1")]
    assert f"{BASE}/commits/dead" not in [url for url, _params in transport.calls]
    assert "commit dead has no resolvable author; skipped" in caplog.text
    assert not iset.incomplete
