from datetime import datetime, timezone

import pytest

from persona_miner.errors import DataValidationError
from persona_miner.models import (
    ALL_KINDS,
    CommitPayload,
    InteractionEvent,
    check_slug,
    isoformat_utc,
    parse_utc,
)


def test_check_slug_returns_owner_name_unchanged():
    for good in ("a/b", "octo/project", "Octo/Project"):
        assert check_slug(good) is good


def test_check_slug_refuses_bad_forms():
    for bad, message in (("", "must be non-empty"), ("a", "must be non-empty"),
                         ("/b", "must be non-empty"), ("a/", "must be non-empty"),
                         ("a/b/c", "must not contain '/'")):
        with pytest.raises(DataValidationError, match=message):
            check_slug(bad)


def test_six_interaction_kinds():
    assert ALL_KINDS == ("CommitCreated", "IssueCreated", "IssueClosed", "IssueAssigned",
                         "PRCreated", "PRClosed")


def test_event_requires_tz_aware_timestamp():
    with pytest.raises(DataValidationError):
        InteractionEvent(
            actor="ada",
            kind="CommitCreated",
            timestamp=datetime(2023, 1, 1),  # naive
            subject_id="sha",
        )


def test_event_requires_subject():
    with pytest.raises(DataValidationError):
        InteractionEvent(
            actor="ada",
            kind="CommitCreated",
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
    ev = InteractionEvent("ada", "CommitCreated",
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
