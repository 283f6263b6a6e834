import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import strategies as st

from persona_miner.models import (
    ALL_KINDS,
    CommitPayload,
    InteractionEvent,
    InteractionSet,
)
from persona_miner.transport import Response

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixture_archive_path() -> Path:
    return FIXTURES / "archive_3repos.jsonl"


class FakeTransport:
    """Serves canned responses keyed by (url, frozenset(params))."""

    def __init__(self, routes: dict):
        # routes: url -> body, or url -> callable(params) -> Response/body
        self.routes = routes
        self.calls: list[tuple[str, dict]] = []

    def get(self, url, params=None):
        self.calls.append((url, dict(params or {})))
        handler = self.routes.get(url)
        if handler is None:
            return Response(status=404, body={"message": "Not Found"})
        if callable(handler):
            result = handler(params or {})
            if isinstance(result, Response):
                return result
            return Response(status=200, body=result)
        return Response(status=200, body=handler)


def paged(items, page_size=100):
    """Return a handler that pages a list like the GitHub API does."""

    def handler(params):
        page = int(params.get("page", 1))
        size = int(params.get("per_page", page_size))
        start = (page - 1) * size
        return items[start:start + size]

    return handler


# -- hypothesis strategies -------------------------------------------------

_logins = st.sampled_from(["ada", "bob", "carol", "dmitri", "elena", "bot[bot]"])
_slugs = st.sampled_from(["org/alpha", "org/beta"])

# any text a CSV cell may hold: commas, quotes, line breaks, non-ASCII
_slug_parts = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="/"),
                      min_size=1, max_size=8)
csv_slugs = st.tuples(_slug_parts, _slug_parts).map("/".join)
csv_logins = st.text(max_size=12)
# unique as read: repos that differ only in case name one repository
csv_keys = st.lists(st.tuples(csv_slugs, csv_logins), max_size=12,
                    unique_by=lambda key: (key[0].lower(), key[1]))


@st.composite
def interaction_events(draw):
    kind = draw(st.sampled_from(ALL_KINDS))
    ts = datetime(2023, 1, 1, tzinfo=timezone.utc) + timedelta(
        hours=draw(st.integers(min_value=0, max_value=24 * 600))
    )
    payload = None
    if kind == "CommitCreated":
        payload = CommitPayload(
            message=draw(st.text(max_size=40)),
            changed_files=tuple(
                draw(st.lists(
                    st.sampled_from(["a.py", "b.md", "c/d.c", "e.csv"]),
                    unique=True, max_size=3,
                ))
            ),
        )
    return InteractionEvent(
        actor=draw(_logins),
        kind=kind,
        timestamp=ts,
        subject_id=draw(st.text(
            alphabet="abcdef0123456789", min_size=4, max_size=8)),
        payload=payload,
    )


@st.composite
def interaction_sets(draw):
    return InteractionSet(
        repo=draw(_slugs),
        events=tuple(draw(st.lists(interaction_events(), max_size=20))),
        fetched_at=datetime(2024, 1, 1, tzinfo=timezone.utc),
        incomplete=draw(st.booleans()),
    )
