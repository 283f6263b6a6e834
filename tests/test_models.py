from datetime import datetime, timezone

import pytest

from persona_miner.errors import DataValidationError
from persona_miner.models import (
    ALL_KINDS,
    CommitPayload,
    InteractionEvent,
    InteractionKind,
    RepoSlug,
    isoformat_utc,
    parse_utc,
)


def test_repo_slug_parse_and_str():
    slug = RepoSlug.parse("octo/project")
    assert slug == RepoSlug("octo", "project")
    assert str(slug) == "octo/project"


def test_repo_slug_rejects_bad_forms():
    for bad in ("no-slash", "a/b/c", "/x", "x/", ""):
        with pytest.raises(DataValidationError):
            RepoSlug.parse(bad)
    with pytest.raises(DataValidationError):
        RepoSlug("has/slash", "x")


def test_six_interaction_kinds():
    assert [k.value for k in ALL_KINDS] == [
        "CommitCreated", "IssueCreated", "IssueClosed", "IssueAssigned",
        "PRCreated", "PRClosed",
    ]


def test_event_requires_tz_aware_timestamp():
    with pytest.raises(DataValidationError):
        InteractionEvent(
            actor="ada",
            kind=InteractionKind.COMMIT_CREATED,
            timestamp=datetime(2023, 1, 1),  # naive
            subject_id="sha",
        )


def test_event_requires_subject():
    with pytest.raises(DataValidationError):
        InteractionEvent(
            actor="ada",
            kind=InteractionKind.COMMIT_CREATED,
            timestamp=datetime(2023, 1, 1, tzinfo=timezone.utc),
            subject_id="",
        )


def test_commit_payload_rejects_duplicate_files():
    with pytest.raises(DataValidationError):
        CommitPayload(message="m", changed_files=("a.py", "a.py"))


def test_parse_utc_round_trip():
    ts = parse_utc("2023-05-01T10:30:00Z")
    assert ts.tzinfo is not None
    assert ts.astimezone(timezone.utc).hour == 10
    assert isoformat_utc(ts) == "2023-05-01T10:30:00Z"


def test_make_and_replace_run_the_checks():
    ev = InteractionEvent("ada", InteractionKind.COMMIT_CREATED,
                          datetime(2023, 1, 1, tzinfo=timezone.utc), "sha",
                          CommitPayload("m", ("a.py",)))
    assert ev._replace(actor="bob") == ev._make(("bob",) + ev[1:])
    assert type(ev._replace(actor="bob")) is InteractionEvent
    for bad in ({"actor": ""}, {"subject_id": ""}, {"timestamp": datetime(2023, 1, 1)}):
        with pytest.raises(DataValidationError):
            ev._replace(**bad)
    with pytest.raises(DataValidationError):
        InteractionEvent._make(("", *ev[1:]))
    with pytest.raises(DataValidationError):
        CommitPayload._make(("m", ("a.py", "a.py")))
    with pytest.raises(DataValidationError):
        ev.payload._replace(changed_files=("a.py", "a.py"))
