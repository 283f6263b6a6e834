from unittest import mock

import pytest
from click.testing import CliRunner

from persona_miner import cli
from persona_miner.archive import load_archive
from persona_miner.errors import RateBudgetError, RetryableFetchError
from persona_miner.transport import RequestsTransport, Response
from persona_miner.zenodo import discover_github_slugs

from conftest import FakeTransport

API = "https://zenodo.org/api/records"


def _hit(record_id, urls):
    return {
        "id": record_id,
        "metadata": {
            "resource_type": {"type": "software"},
            "access_right": "open",
            "related_identifiers": [{"identifier": u} for u in urls],
        },
    }


def _slugs(*hits):
    """The slugs discovered in one page holding ``hits``."""
    transport = FakeTransport({API: {"hits": {"hits": list(hits)}}})
    return discover_github_slugs(transport, page_limit=1)


def test_empty_response_page():
    transport = FakeTransport({API: {"hits": {"hits": []}}})
    assert discover_github_slugs(transport, page_limit=3) == []
    assert len(transport.calls) == 1


def test_three_record_fixture():
    assert _slugs(
        _hit(1, ["https://github.com/a/x"]),
        _hit(2, ["https://github.com/b/y"]),
        _hit(3, ["https://doi.org/10.1/zen", "https://github.com/c/z"]),
    ) == ["a/x", "b/y", "c/z"]


def test_malformed_record_skipped_not_fatal(caplog):
    assert _slugs(
        {"id": 1, "metadata": None},
        {"id": 2, "metadata": {"related_identifiers": [None]}},
        {"id": 3, "metadata": {"related_identifiers": [{"identifier": 42}]}},
        _hit(4, ["https://github.com/a/x"]),
    ) == ["a/x"]
    assert sum("malformed Zenodo record" in r.getMessage()
               for r in caplog.records) == 3


def test_pagination_consumes_all_pages():
    hits = [_hit(i, [f"https://github.com/o/r{i}"]) for i in range(205)]
    for page_limit, pages, n_slugs in ((10, [1, 2, 3], 205), (2, [1, 2], 200)):
        transport = FakeTransport({API: _paged_hits(hits)})
        slugs = discover_github_slugs(transport, page_limit=page_limit)
        assert slugs == [f"o/r{i}" for i in range(n_slugs)]
        assert [p["page"] for _url, p in transport.calls] == pages


def test_query_error_is_retryable():
    transport = FakeTransport({API: lambda params: Response(502, None)})
    with pytest.raises(RetryableFetchError, match="HTTP 502 on page 1"):
        discover_github_slugs(transport, page_limit=1)


def test_slug_canonical_form():
    assert _slugs(_hit(1, ["https://github.com/owner/repo"])) == ["owner/repo"]


def test_slug_strips_deep_paths():
    assert _slugs(_hit(1, ["https://github.com/owner/repo/tree/v1.0"]),
                  _hit(2, ["https://github.com/owner/repo/releases/tag/v2"])) \
        == ["owner/repo", "owner/repo"]


def test_slug_non_matching_host():
    assert _slugs(_hit(1, ["https://gitlab.example.com/x/y"])) == []


def test_slug_git_suffix_removed():
    assert _slugs(_hit(1, ["https://github.com/owner/repo.git"])) == ["owner/repo"]


def test_slug_none_when_no_urls():
    assert _slugs(_hit(1, []), {"id": 2}) == []


QUERY = ('resource_type.type:software AND access_right:open '
         'AND related_identifiers.identifier:"github.com"')


def _paged_hits(hits):
    def handler(params):
        start = (int(params["page"]) - 1) * int(params["size"])
        return {"hits": {"hits": hits[start:start + int(params["size"])]}}

    return handler


def _fetch(monkeypatch, tmp_path, routes, *args, exit_code=0):
    """Run ``persona-miner fetch`` against canned routes; GitHub API calls
    get 404s, so each repo is archived as an empty, incomplete set. The
    slugs are None when no archive was written."""
    transport = FakeTransport(routes)
    monkeypatch.setattr(cli, "_live_transport", lambda: transport)
    out = tmp_path / "archive.jsonl"
    result = CliRunner().invoke(cli.main, ["fetch", "--output", str(out), *args],
                                catch_exceptions=False)
    assert result.exit_code == exit_code, result.output
    slugs = [s.repo for s in load_archive(out)] if out.exists() else None
    return transport, result, slugs


def test_fetch_discovers_github_slugs_across_pages(monkeypatch, tmp_path, caplog):
    hits = [_hit(i, [f"https://github.com/org/repo{i}"]) for i in range(230)]
    hits[5] = _hit(5, ["https://doi.org/10.5281/zenodo.5"])  # no GitHub URL
    hits[17] = {"id": 17, "metadata": {"related_identifiers": 17}}  # malformed
    hits[101] = _hit(101, ["https://github.com/org/repo101.git"])
    hits[150] = _hit(150, ["https://doi.org/10.1/x",
                           "https://github.com/org/repo150/tree/v1",
                           "https://github.com/other/later"])
    hits[229] = ["https://github.com/org/repo229"]  # malformed: not an object
    transport, result, slugs = _fetch(monkeypatch, tmp_path,
                                      {API: _paged_hits(hits)})
    assert slugs == [f"org/repo{i}" for i in range(230) if i not in (5, 17, 229)]
    assert result.output.endswith(f"archived 227 repositories to {tmp_path}/archive.jsonl\n")
    assert [params for url, params in transport.calls if url == API] == [
        {"q": QUERY, "size": 100, "page": page} for page in (1, 2, 3)
    ]
    malformed = [r for r in caplog.records if "malformed Zenodo record" in r.getMessage()]
    assert len(malformed) == 2


def test_fetch_archives_each_repo_once(monkeypatch, tmp_path):
    # owner/name pairs are case-insensitive, and the first spelling is kept
    hits = [_hit(1, ["https://github.com/a/b/releases/tag/v1"]),
            _hit(2, ["https://github.com/c/d"]),
            _hit(3, ["https://github.com/a/b/releases/tag/v2"]),
            _hit(4, ["https://github.com/A/B"])]
    for routes, args in (({API: {"hits": {"hits": hits}}}, []),
                         ({}, ["--repos", "a/b, c/d,a/b,A/B"])):
        transport, _result, slugs = _fetch(monkeypatch, tmp_path, routes, *args)
        assert slugs == ["a/b", "c/d"]
        github_calls = [url for url, _params in transport.calls if url != API]
        assert github_calls == ["https://api.github.com/repos/a/b/commits",
                                "https://api.github.com/repos/c/d/commits"]


def _out_of_budget(params):
    raise RateBudgetError("rate limit exhausted", reset_at="1717200000")


def test_fetch_keeps_finished_repos_when_rate_budget_runs_out(monkeypatch, tmp_path):
    routes = {"https://api.github.com/repos/c/d/commits": _out_of_budget}
    _transport, result, slugs = _fetch(monkeypatch, tmp_path, routes,
                                       "--repos", "a/b,c/d,e/f", exit_code=3)
    assert slugs == ["a/b"]
    assert result.output == (
        f"error: rate limit exhausted; archived 1 of 3 repositories to "
        f"{tmp_path}/archive.jsonl; the rate limit resets at Unix time 1717200000\n")


def test_fetch_keeps_finished_repos_when_a_retry_wait_cannot_be_slept(monkeypatch,
                                                                     tmp_path):
    # a Retry-After too long for the real time.sleep stops the fetch as a spent
    # budget does, and no reset time is known
    def get(url, **_kwargs):
        limited = url.startswith("https://api.github.com/repos/c/d/")
        return mock.Mock(status_code=429 if limited else 200, content=b"",
                         headers={"Retry-After": "99999999999999999999"} if limited else {})

    monkeypatch.setattr(cli, "_live_transport", RequestsTransport)
    out = tmp_path / "archive.jsonl"
    with mock.patch("requests.get", side_effect=get):
        result = CliRunner().invoke(cli.main, ["fetch", "--output", str(out),
                                               "--repos", "a/b,c/d,e/f"])
    assert result.exit_code == 3, result.output
    assert [s.repo for s in load_archive(out)] == ["a/b"]
    assert result.output.startswith("error: cannot wait 1e+20 s to retry "
                                    "https://api.github.com/repos/c/d/commits: ")
    assert result.output.endswith(f"; archived 1 of 3 repositories to {out}\n")


def test_fetch_writes_nothing_when_discovery_runs_out_of_budget(monkeypatch, tmp_path):
    _transport, result, slugs = _fetch(monkeypatch, tmp_path, {API: _out_of_budget},
                                       exit_code=3)
    assert slugs is None
    assert result.output == "error: rate limit exhausted\n"
