import functools
import json
import re
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from persona_miner import archive
from persona_miner.archive import load_archive, save_archive
from persona_miner.cli import main
from persona_miner.errors import ArchiveFormatError, DataValidationError
from persona_miner.models import (
    ALL_KINDS,
    CommitPayload,
    InteractionEvent,
    InteractionSet,
    parse_utc,
)

from conftest import csv_slugs, interaction_sets


def test_empty_round_trip(tmp_path):
    path = tmp_path / "empty.jsonl"
    save_archive([], path)
    assert load_archive(path) == []


def test_fixture_round_trip(fixture_archive_path, tmp_path):
    sets = load_archive(fixture_archive_path)
    assert len(sets) == 3
    out = tmp_path / "copy.jsonl"
    save_archive(sets, out)
    assert load_archive(out) == sets


def test_fixture_save_is_byte_identical(fixture_archive_path, tmp_path):
    out = tmp_path / "copy.jsonl"
    save_archive(load_archive(fixture_archive_path), out)
    assert out.read_bytes() == fixture_archive_path.read_bytes()


@given(sets=st.lists(interaction_sets(), max_size=4, unique_by=lambda s: s.repo))
@settings(max_examples=50, deadline=None)
def test_round_trip_identity_property(tmp_path_factory, sets):
    path = tmp_path_factory.mktemp("arch") / "a.jsonl"
    save_archive(sets, path)
    assert load_archive(path) == sets


def test_unknown_version_rejected(fixture_archive_path, tmp_path):
    lines = fixture_archive_path.read_text().splitlines()
    header = json.loads(lines[0])
    header["version"] = 99
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([json.dumps(header)] + lines[1:]))
    with pytest.raises(ArchiveFormatError):
        load_archive(bad)


def test_wrong_format_rejected(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"format": "something-else", "version": 1}\n')
    with pytest.raises(ArchiveFormatError):
        load_archive(bad)


def test_empty_file_rejected(tmp_path):
    bad = tmp_path / "empty.jsonl"
    bad.write_text("")
    with pytest.raises(ArchiveFormatError):
        load_archive(bad)


def test_unparseable_header_rejected(fixture_archive_path, tmp_path):
    lines = fixture_archive_path.read_text().splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(['{"format": "persona-miner-archive"', *lines[1:]]) + "\n")
    with pytest.raises(ArchiveFormatError, match=re.escape(f"{bad}: unparseable header")):
        load_archive(bad)


def _without(key):
    def edit(obj):
        del obj[key]
        return json.dumps(obj)
    return edit


def _with(key, value):
    return lambda obj: json.dumps({**obj, key: value})


def _with_payload(key, value):
    return lambda obj: json.dumps({**obj, "payload": {**obj["payload"], key: value}})


@pytest.mark.parametrize("index, edit, reason", [
    (2, _without("actor"), "KeyError: 'actor'"),
    (2, _with("actor", None), "actor must be a non-empty string, not None"),
    (2, _with("actor", ""), "actor must be a non-empty string, not ''"),
    (2, _with("actor", 5), "actor must be a non-empty string, not 5"),
    (2, _with("kind", "Starred"), "unknown interaction kind 'Starred'"),
    (2, lambda obj: "[1, 2]", "AttributeError"),
    (2, _with("timestamp", "last tuesday"), "last tuesday"),
    (1, _without("repo"), "KeyError: 'repo'"),
    (2, _with("repo", "astro-lab/other"),
     "event repo 'astro-lab/other' does not match its marker's 'astro-lab/spectra'"),
    (3, _with_payload("message", None), "commit message must be a string, not None"),
    (3, _with_payload("changed_files", "docs"),
     "changed_files must be a list of strings, not 'docs'"),
    (3, _with_payload("changed_files", ["docs/guide.md", 7]),
     "changed_files must be a list of strings, not ['docs/guide.md', 7]"),
    (2, _with("actor", "b\ud800b"), "surrogates not allowed"),
    (1, _with("type", "event"), "event before any repo marker"),
    (2, _with("type", "comment"), "unknown line type 'comment'"),
], ids=["event-without-actor", "null-actor", "empty-actor", "int-actor", "unknown-kind",
        "not-an-object", "bad-timestamp", "marker-without-repo", "event-repo-mismatch",
        "null-message", "string-changed-files", "int-changed-file",
        "lone-surrogate-actor", "event-before-marker", "unknown-line-type"])
def test_bad_line_rejected_with_its_line_number(fixture_archive_path, tmp_path,
                                                index, edit, reason):
    lines = fixture_archive_path.read_text().splitlines()
    lines[index] = edit(json.loads(lines[index]))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ArchiveFormatError) as info:
        load_archive(bad)
    assert str(info.value).startswith(f"{bad}:{index + 1}: ")
    assert reason in str(info.value)


@pytest.mark.parametrize("index, key, value, reason", [
    (1, "incomplete", "false", "incomplete must be true or false, not 'false'"),
    (1, "incomplete", 0, "incomplete must be true or false, not 0"),
    (1, "incomplete", None, "incomplete must be true or false, not None"),
    (1, "n_events", 112.0, "n_events must be an integer, not 112.0"),
    (1, "n_events", True, "n_events must be an integer, not True"),
    (1, "n_events", "112", "n_events must be an integer, not '112'"),
    (2, "subject_id", ["pr6"], "subject_id must be a non-empty string, not ['pr6']"),
    (2, "subject_id", 6, "subject_id must be a non-empty string, not 6"),
    (2, "subject_id", "", "subject_id must be a non-empty string, not ''"),
], ids=["string-incomplete", "int-incomplete", "null-incomplete", "float-n-events",
        "bool-n-events", "string-n-events", "list-subject-id", "int-subject-id",
        "empty-subject-id"])
def test_field_of_the_wrong_type_exit_4(fixture_archive_path, tmp_path,
                                        index, key, value, reason):
    # neither coerced nor carried into an output: the line at fault is named
    lines = fixture_archive_path.read_text().splitlines()
    lines[index] = json.dumps({**json.loads(lines[index]), key: value})
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "classification.csv"
    result = CliRunner().invoke(main, ["classify", "--archive", str(bad),
                                       "--output", str(out)])
    assert result.exit_code == 4
    assert f"error: {bad}:{index + 1}: malformed line (" in result.output
    assert reason in result.output
    assert not out.exists()


@pytest.mark.parametrize("index", [1, 2], ids=["marker", "event"])
@pytest.mark.parametrize("edit", [
    lambda line: line + " x",
    lambda line: line + line,
    lambda line: line + ", " + line,
    lambda line: "\ufeff" + line,
], ids=["trailing-garbage", "two-objects", "two-objects-comma", "bom-prefixed"])
def test_line_that_json_loads_rejects_is_rejected(fixture_archive_path, tmp_path,
                                                  index, edit):
    lines = fixture_archive_path.read_text().splitlines()
    lines[index] = edit(lines[index])
    with pytest.raises(json.JSONDecodeError):
        json.loads(lines[index])
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ArchiveFormatError) as info:
        load_archive(bad)
    assert str(info.value).startswith(f"{bad}:{index + 1}: malformed line ")


def test_whitespace_padded_lines_load(fixture_archive_path, tmp_path):
    lines = fixture_archive_path.read_text().splitlines()
    lines[1] = " \t" + lines[1] + "\t "
    lines[2] = "\t\t" + lines[2] + "   "
    lines.insert(3, " \t ")
    padded = tmp_path / "padded.jsonl"
    padded.write_text("\n".join(lines) + "\n")
    assert load_archive(padded) == load_archive(fixture_archive_path)


def test_repeated_repo_marker_rejected(fixture_archive_path, tmp_path):
    # a repo listed twice would count each individual twice at half the share;
    # owner/name pairs are case-insensitive, so a re-spelled slug is the same repo
    lines = fixture_archive_path.read_text().splitlines()
    n_events = json.loads(lines[1])["n_events"]
    for slug in ("astro-lab/spectra", "Astro-Lab/Spectra"):
        block = [line.replace('"astro-lab/spectra"', f'"{slug}"')
                 for line in lines[1:2 + n_events]]
        bad = tmp_path / "twice.jsonl"
        bad.write_text("\n".join(lines + block) + "\n")
        with pytest.raises(ArchiveFormatError, match=re.escape(
                f"{bad}:{len(lines) + 1}: repo {slug} is listed again; "
                f"its first marker is at line 2")):
            load_archive(bad)


def test_save_archive_rejects_repeated_repo(fixture_archive_path, tmp_path):
    # the writer refuses the archive that load_archive would reject
    sets = load_archive(fixture_archive_path)
    out = tmp_path / "twice.jsonl"
    for slug in ("astro-lab/spectra", "Astro-Lab/Spectra"):
        with pytest.raises(DataValidationError,
                           match=re.escape(f"repo {slug} is listed again")):
            save_archive(sets + [replace(sets[0], repo=slug)], out)
        assert not out.exists()


def test_save_archive_failing_partway_keeps_the_old_archive(fixture_archive_path,
                                                            tmp_path, monkeypatch):
    # an interrupted save, such as a fetch stopped midway, loses no archive
    sets = load_archive(fixture_archive_path)
    out = tmp_path / "archive.jsonl"
    save_archive(sets, out)
    to_obj, calls = archive._event_to_obj, []

    def failing(repo, ev):
        calls.append(ev)
        if len(calls) == 150:
            raise KeyboardInterrupt
        return to_obj(repo, ev)

    monkeypatch.setattr(archive, "_event_to_obj", failing)
    with pytest.raises(KeyboardInterrupt):
        save_archive(sets[1:], out)
    assert out.read_bytes() == fixture_archive_path.read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["archive.jsonl"]


def test_truncated_archive_rejected(fixture_archive_path, tmp_path):
    lines = fixture_archive_path.read_text().splitlines()
    marker_at = max(i for i, line in enumerate(lines) if '"type": "repo"' in line)
    n_events = json.loads(lines[marker_at])["n_events"]
    bad = tmp_path / "cut.jsonl"
    bad.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ArchiveFormatError, match=re.escape(
            f"{bad}:{marker_at + 1}: repo bio-team/seqkit has {n_events - 1} "
            f"events, but its marker says n_events={n_events}")):
        load_archive(bad)


@pytest.mark.parametrize("index", [0, 2, 299], ids=["header", "event", "past-first-chunk"])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("bad", [b"a\xffa", b"a\xc3"], ids=["invalid-byte", "cut-sequence"])
def test_non_utf8_byte_rejected_with_its_line_number(fixture_archive_path, tmp_path,
                                                     index, newline, bad):
    # text mode decodes chunks ahead of the lines read; the line at fault is named
    lines = fixture_archive_path.read_bytes().splitlines()
    lines[index] += bad  # at the end of a line, b"\xc3" starts a sequence cut short
    path = tmp_path / "bad.jsonl"
    path.write_bytes(newline.join(lines) + newline)
    with pytest.raises(ArchiveFormatError) as info:
        load_archive(path)
    assert str(info.value).startswith(f"{path}:{index + 1}: not UTF-8 (")


# -- the event-line pattern and json read every spelling alike ---------------

# printable ASCII but for the quote and the backslash: text the writer spells as
# itself, so that an event line holding only such text is read by archive._EVENT_LINE
_PLAIN = "".join(chr(c) for c in range(0x20, 0x7f) if chr(c) not in '"\\')
_plain_text = functools.partial(st.text, _PLAIN)
_plain_slug_parts = st.text(_PLAIN.replace("/", ""), min_size=1, max_size=8)
_plain_slugs = st.tuples(_plain_slug_parts, _plain_slug_parts).map("/".join)


@st.composite
def _any_text_events(draw, text):
    payload = None
    if draw(st.booleans()):
        payload = CommitPayload(draw(text(max_size=12)), tuple(draw(
            st.lists(text(max_size=8), unique=True, max_size=3))))
    return InteractionEvent(
        actor=draw(text(min_size=1, max_size=8)),
        kind=draw(st.sampled_from(ALL_KINDS)),
        timestamp=datetime(2000, 1, 1, tzinfo=timezone.utc) + timedelta(
            microseconds=draw(st.integers(0, 10**15))),
        subject_id=draw(text(min_size=1, max_size=8)),
        payload=payload,
    )


def _text_sets(text, slugs):
    return st.builds(
        InteractionSet,
        repo=slugs,
        events=st.lists(_any_text_events(text), max_size=5).map(tuple),
        fetched_at=st.just(datetime(2024, 1, 1, tzinfo=timezone.utc)),
        incomplete=st.booleans(),
    )


# in about half the sets every text field may hold quotes, backslashes, control
# characters, non-ASCII; in the rest each is _PLAIN, which the pattern reads
_any_text_sets = st.lists(
    st.one_of(_text_sets(st.text, csv_slugs), _text_sets(_plain_text, _plain_slugs)),
    max_size=3, unique_by=lambda s: s.repo.lower())


def _retimed(obj, spell):
    """``obj`` with each timestamp that parses written as ``spell`` gives it."""
    obj = dict(obj)
    for key in ("timestamp", "fetched_at"):
        try:
            obj[key] = spell(parse_utc(obj[key]))
        except (KeyError, ValueError):  # none there, or a fault to keep as it is
            pass
    return obj


_PLUS_0530 = timezone(timedelta(hours=5, minutes=30))


def _respellings(path):
    """The archive at ``path`` with every line spelled by the writer, with raw
    non-ASCII text, and with compact separators and sorted keys; and spelled by
    the writer but with each timestamp as the same instant at +05:30, or with
    no offset, which means UTC: only json reads these two."""
    objs = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    return {
        "canonical": path.read_text("utf-8"),
        "raw-non-ascii": "".join(json.dumps(o, ensure_ascii=False) + "\n" for o in objs),
        "compact-sorted": "".join(
            json.dumps(o, separators=(",", ":"), ensure_ascii=False, sort_keys=True) + "\n"
            for o in objs),
        "plus-0530": "".join(json.dumps(_retimed(
            o, lambda dt: dt.astimezone(_PLUS_0530).isoformat())) + "\n" for o in objs),
        "no-offset": "".join(json.dumps(_retimed(
            o, lambda dt: dt.replace(tzinfo=None).isoformat())) + "\n" for o in objs),
    }


def test_every_spelling_of_the_fixture_loads_alike(fixture_archive_path, tmp_path):
    path = tmp_path / "a.jsonl"
    expected = repr(load_archive(fixture_archive_path))
    for name, text in _respellings(fixture_archive_path).items():
        path.write_text(text, "utf-8")
        loaded = load_archive(path)
        assert repr(loaded) == expected, name
        # each kind is one of the six ALL_KINDS strings, not a copy per event
        assert all(any(ev.kind is kind for kind in ALL_KINDS)
                   for s in loaded for ev in s.events), name


@given(sets=_any_text_sets)
@settings(max_examples=100, deadline=None)
def test_every_spelling_loads_the_drawn_sets(tmp_path_factory, sets):
    path = tmp_path_factory.mktemp("arch") / "a.jsonl"
    save_archive(sets, path)
    for name, text in _respellings(path).items():
        path.write_text(text, "utf-8")
        loaded = load_archive(path)
        # repr tells a tuple from a list
        assert loaded == sets and repr(loaded) == repr(sets), name


# each fault, in the order the loader checks them, and the reason it gives
_FAULTS = {
    "repo-mismatch": (lambda obj: {**obj, "repo": obj["repo"] + "x"},
                      "does not match its marker's"),
    "duplicate-files": (lambda obj: {**obj, "payload": {
        "message": obj.get("payload", {}).get("message", "m"),
        "changed_files": ["a.py", "b.py", "a.py"]}},
        "changed_files must not contain duplicates"),
    "unknown-kind": (lambda obj: {**obj, "kind": "Starred"},
                     "unknown interaction kind 'Starred'"),
    "bad-timestamp": (lambda obj: {**obj, "timestamp": "last tuesday"}, "'last tuesday'"),
    "bad-calendar": (lambda obj: {**obj, "timestamp": "2023-13-01T00:00:00Z"},
                     "month must be in 1..12"),
    "empty-actor": (lambda obj: {**obj, "actor": ""},
                    "actor must be a non-empty string, not ''"),
    "empty-subject": (lambda obj: {**obj, "subject_id": ""},
                      "subject_id must be a non-empty string, not ''"),
}


@given(sets=_any_text_sets.filter(lambda sets: any(s.events for s in sets)),
       faults=st.lists(st.sampled_from(list(_FAULTS)), min_size=1, max_size=2,
                       unique=True),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_every_spelling_names_the_same_fault(tmp_path_factory, sets, faults, data):
    path = tmp_path_factory.mktemp("arch") / "a.jsonl"
    save_archive(sets, path)
    lines = path.read_text("utf-8").splitlines()
    at = data.draw(st.sampled_from(
        [i for i, line in enumerate(lines) if json.loads(line).get("type") == "event"]))
    obj = json.loads(lines[at])
    # the first fault in check order is made last, so one on the same field wins
    for fault in sorted(faults, key=list(_FAULTS).index, reverse=True):
        obj = _FAULTS[fault][0](obj)
    lines[at] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n", "utf-8")
    messages = {}
    for name, text in _respellings(path).items():
        path.write_text(text, "utf-8")
        with pytest.raises(ArchiveFormatError) as info:
            load_archive(path)
        messages[name] = str(info.value)
    assert len(set(messages.values())) == 1, messages
    first = min(faults, key=list(_FAULTS).index)
    assert messages["canonical"].startswith(f"{path}:{at + 1}: ")
    assert _FAULTS[first][1] in messages["canonical"]


def test_writer_spelled_events_skip_json(fixture_archive_path, monkeypatch):
    # only the three repo markers go through json; every event line takes the pattern
    calls = []

    def counting(text):
        calls.append(text)
        return raw_decode(text)

    raw_decode = archive._raw_decode
    monkeypatch.setattr(archive, "_raw_decode", counting)
    sets = load_archive(fixture_archive_path)
    assert len(sets) == 3 and sum(len(s.events) for s in sets) == 307
    assert len(calls) == 3
