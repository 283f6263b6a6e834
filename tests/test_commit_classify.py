import json
import re
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import persona_miner
from persona_miner import commit_classify
from persona_miner.commit_classify import (
    ACTIVITY_FALLBACK,
    ACTIVITY_RULES,
    KEYWORD_STEMS,
    classify_archive,
    classify_commit,
    classify_files,
    classify_message,
    classify_size,
    write_classification_csv,
)
from persona_miner.errors import DataValidationError
from persona_miner.models import (
    CommitPayload,
    InteractionEvent,
    InteractionSet,
)

# every development type and category the shipped tables can return
DEV_TYPES = {dev_type for dev_type, _ in KEYWORD_STEMS} | {"Unclassified"}
CATEGORIES = {category for category, _ in ACTIVITY_RULES} | {ACTIVITY_FALLBACK}


def test_empty_message_unclassified():
    assert classify_message("") == "Unclassified"
    assert classify_message("   ") == "Unclassified"


def test_fix_is_corrective():
    assert classify_message("fix crash in parser") == "CorrectiveEngineering"
    assert classify_message("Fixed the flaky test") == "CorrectiveEngineering"


def test_add_is_forward():
    assert classify_message("add initial feature skeleton") == "ForwardEngineering"


def test_first_word_only():
    # "fix" appears later but the first word decides
    assert classify_message("docs: fix typo") == "Unclassified"


def test_case_insensitive():
    assert classify_message("ADD widgets") == "ForwardEngineering"


def test_no_match_unclassified():
    assert classify_message("zzzunknownverb everything") == "Unclassified"


def test_message_totality_property():
    for msg in ["", "x", "Merge branch 'main'", "1.0.0", "\n\nfix\n", "日本語"]:
        assert classify_message(msg) in DEV_TYPES


def test_shipped_development_types():
    # the paper's four development types, in the order their stems are matched
    assert [dev_type for dev_type, _ in KEYWORD_STEMS] == [
        "ForwardEngineering", "Reengineering", "CorrectiveEngineering", "Management"]


def test_duplicate_stem_rejected():
    # a stem under two development types would be matched under the first only
    seen: dict[str, str] = {}
    for dev_type, stems in KEYWORD_STEMS:
        for stem in stems:
            assert seen.setdefault(stem, dev_type) == dev_type, stem
    assert seen


def test_shipped_stems_are_single_lowercase_tokens():
    # only the lowercased first token is matched, so any other stem is dead
    for _dev_type, stems in KEYWORD_STEMS:
        for stem in stems:
            assert stem.split() == [stem.lower()], stem
    assert classify_message("code review fixes") == "Unclassified"


def test_size_boundaries():
    assert classify_size(1) == "Tiny"
    assert classify_size(5) == "Tiny"
    assert classify_size(6) == "Small"
    assert classify_size(25) == "Small"
    assert classify_size(26) == "Medium"
    assert classify_size(125) == "Medium"
    assert classify_size(126) == "Large"


def test_size_zero_rejected():
    with pytest.raises(DataValidationError):
        classify_size(0)


def test_files_empty_unknown():
    assert classify_files([]) == "unknown"


def test_readme_documentation():
    assert classify_files(["README.md"]) == "documentation"


def test_code_rule_precedes_documentation():
    assert classify_files(["docs/guide.md", "src/main.c"]) == "code"


def test_rule_order_permutation_changes_output(monkeypatch):
    rules = ACTIVITY_RULES
    doc_idx = next(i for i, (category, _) in enumerate(rules)
                   if category == "documentation")
    reordered = (rules[doc_idx],) + tuple(r for i, r in enumerate(rules) if i != doc_idx)
    paths = ["docs/guide.md", "src/main.c"]
    assert classify_files(paths) == "code"
    monkeypatch.setattr(commit_classify, "ACTIVITY_RULES", reordered)
    assert classify_files(paths) == "documentation"


def test_files_totality_over_samples():
    samples = [
        ["src/app.py"], ["tests/test_app.py"], ["Makefile"], ["setup.cfg"],
        ["data/input.csv"], ["logo.png"], ["locale/de/LC_MESSAGES/app.po"],
        ["LICENSE"], ["mystery.xyz"], [],
    ]
    for paths in samples:
        assert classify_files(paths) in CATEGORIES


def test_custom_keyword_table_load(monkeypatch):
    monkeypatch.setattr(commit_classify, "KEYWORD_STEMS",
                        (("ForwardEngineering", ("implement",)),))
    assert classify_message("Implemented this") == "ForwardEngineering"
    # only the first word is matched, and only against the table's stems
    assert classify_message("please implement this") == "Unclassified"
    assert classify_message("fix this") == "Unclassified"


def test_classify_commit_payload_absent():
    dev_type, size_class, activity_type = classify_commit(None)
    assert dev_type == "Unclassified"
    assert size_class == "payload-absent"
    assert activity_type == "unknown"


def test_classify_commit_full_payload():
    payload = CommitPayload(message="fix bug", changed_files=("src/a.py",))
    dev_type, size_class, activity_type = classify_commit(payload)
    assert dev_type == "CorrectiveEngineering"
    assert size_class == "Tiny"
    assert activity_type == "code"


@given(message=st.text(max_size=80),
       paths=st.lists(st.text(min_size=1, max_size=30), max_size=5))
@settings(max_examples=200, deadline=None)
def test_determinism_and_totality_property(message, paths):
    assert classify_message(message) == classify_message(message)
    assert classify_message(message) in DEV_TYPES
    first = classify_files(paths)
    assert first == classify_files(paths)
    assert first in CATEGORIES


# the shipped rule file, read without the module's rule compiler
RULES_JSON = json.loads((Path(persona_miner.__file__).parent / "data"
                         / "activity_rules.json").read_text("utf-8"))
# known path parts, so that drawn paths reach every rule, mixed with random text
DIRS = ["src", "lib", "tests", "Test", "spec", "docs", "DOC", "locale", "locales",
        "l10n", ".ci", ".github", ".gitlab", "data"]
NAMES = ["README", "readme.rst", "CHANGELOG.md", "LICENSE", "Citation.cff", "Makefile",
         "CMakeLists.txt", "setup.py", "setup.cfg", "pyproject.toml", "package.json",
         "Dockerfile", "pom.xml", ".gitignore", ".gitmodules", ".gitattributes", ".env",
         ".editorconfig", "login.feature", "rules.mk", ".github/CODEOWNERS", ".ci/run",
         ".gitlab-ci"]
EXTS = ["py", "PY", "c", "hpp", "js", "R", "f90", "sh", "md", "rst", "txt", "bib",
        "cmake", "gradle", "ini", "toml", "yml", "YAML", "env", "csv", "json", "npy",
        "fits", "png", "JPEG", "jpg", "svg", "tif", "pdf", "wav", "po", "pot", "mo",
        "xyz", "bak", ""]


def oracle_activity(paths):
    """The first rule in file order any of whose patterns, each compiled alone,
    matches any path; otherwise the fallback."""
    for rule in RULES_JSON["rules"]:
        if any(re.search(pattern, path, re.IGNORECASE)
               for pattern in rule["patterns"] for path in paths):
            return rule["category"]
    return RULES_JSON["fallback"]


def test_known_path_parts_reach_every_rule():
    reached = {oracle_activity([f"{d}/{name}"]) for d in DIRS
               for name in NAMES + [f"x.{ext}" for ext in EXTS]}
    assert reached == {rule["category"] for rule in RULES_JSON["rules"]} | {
        RULES_JSON["fallback"]}


paths_strategy = st.lists(st.builds(
    lambda dirs, name: "/".join([*dirs, name]),
    st.lists(st.one_of(st.sampled_from(DIRS), st.text(max_size=6)), max_size=3),
    st.one_of(st.sampled_from(NAMES),
              st.builds("{}.{}".format, st.text(max_size=6), st.sampled_from(EXTS)),
              st.text(max_size=12))), max_size=4)


@given(paths=paths_strategy)
@settings(max_examples=500, deadline=None)
def test_classify_files_matches_rule_file_oracle(paths):
    assert classify_files(paths) == oracle_activity(paths)


def test_classification_csv(tmp_path):
    rows = [
        ("a1", "o/r", *classify_commit(CommitPayload(message="fix x",
                                                     changed_files=("a.py",)))),
        ("a2", "o/r", *classify_commit(None)),
    ]
    out = tmp_path / "cls.csv"
    write_classification_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "sha,repo,dev_type,size_class,activity_type"
    assert lines[1] == "a1,o/r,CorrectiveEngineering,Tiny,code"
    assert lines[2] == "a2,o/r,Unclassified,payload-absent,unknown"


def test_classify_archive_takes_commits_in_repo_order():
    t = datetime(2023, 1, 1, tzinfo=timezone.utc)

    def repo_set(name, events):
        return InteractionSet(repo=f"org/{name}", fetched_at=t, events=tuple(
            InteractionEvent(actor="ada", kind=kind, timestamp=t,
                             subject_id=sid,
                             payload=CommitPayload(message="fix x", changed_files=("a.py",))
                             if kind == "CommitCreated" else None)
            for sid, kind in events))

    sets = [
        repo_set("zeta", [("z1", "CommitCreated"), ("7", "IssueCreated")]),
        repo_set("alpha", [("a2", "CommitCreated"), ("pr1", "PRCreated"),
                           ("a1", "CommitCreated")]),
    ]
    rows = classify_archive(sets)
    assert [(repo, sha) for sha, repo, *_classes in rows] == [
        ("org/alpha", "a2"), ("org/alpha", "a1"), ("org/zeta", "z1")]
    assert rows[0] == ("a2", "org/alpha", *classify_commit(sets[1].events[0].payload))
