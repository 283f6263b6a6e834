import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persona_miner.sampling import (
    apply_inclusion_criteria,
    subsample,
    write_eligibility_report,
)


def _summary(**over):
    base = dict(
        repo="org/repo",
        visibility="public",
        unique_committers=50,
        license_id="MIT",
        languages=["Python"],
        is_fork=False,
        age_days=1500,
    )
    base.update(over)
    return base


def test_all_criteria_pass():
    # an eligible repo is one with no failed criteria
    assert apply_inclusion_criteria(_summary()) == ("org/repo", ())


def test_below_min_committers():
    _slug, failed = apply_inclusion_criteria(_summary(unique_committers=5))
    assert [cid for cid, _ in failed] == ["min_committers"]


def test_fork_fails_criterion():
    _slug, failed = apply_inclusion_criteria(_summary(is_fork=True))
    assert [cid for cid, _ in failed] == ["fork"]


def test_unknown_license_reason():
    _slug, failed = apply_inclusion_criteria(_summary(license_id="GPL-3.0"))
    assert failed[0][0] == "license"
    assert "unrecognized" in failed[0][1]


def test_language_passes_if_any_matches():
    _slug, failed = apply_inclusion_criteria(_summary(languages=["Haskell", "Python"]))
    assert failed == ()


def test_no_short_circuit_collects_all_failures():
    _slug, failed = apply_inclusion_criteria(_summary(
        visibility="private",
        unique_committers=500,
        license_id=None,
        languages=["Haskell"],
        is_fork=True,
        age_days=10,
    ))
    failed_ids = [cid for cid, _ in failed]
    assert failed_ids == ["public", "max_committers", "license", "language",
                          "fork", "age"]


def test_seven_way_failure_fixture():
    # committers below min AND a private fork with everything else wrong:
    # six distinct criteria fire at once (min/max are mutually exclusive)
    _slug, failed = apply_inclusion_criteria(_summary(
        visibility="missing",
        unique_committers=0,
        license_id=None,
        languages=[],
        is_fork=True,
        age_days=0,
    ))
    failed_ids = {cid for cid, _ in failed}
    assert failed_ids == {"public", "min_committers", "license", "language",
                          "fork", "age"}


def test_purity():
    summary = _summary()
    assert apply_inclusion_criteria(summary) == apply_inclusion_criteria(summary)


# -- subsample -------------------------------------------------------------

def _slugs(n):
    return [f"org/repo{i:04d}" for i in range(n)]


def test_identity_fraction_returns_all_sorted():
    slugs = _slugs(10)[::-1]
    assert subsample(slugs, 1.0, seed=1) == sorted(slugs)


def test_determinism_same_seed():
    slugs = _slugs(100)
    assert subsample(slugs, 0.45, seed=7) == subsample(slugs, 0.45, seed=7)


def test_picks_do_not_depend_on_input_order():
    slugs = _slugs(10)
    shuffled = slugs[:]
    random.Random(0).shuffle(shuffled)
    picks = subsample(slugs, 0.5, seed=3)
    assert subsample(slugs[::-1], 0.5, seed=3) == picks
    assert subsample(shuffled, 0.5, seed=3) == picks


def test_study_scale_floor():
    assert len(subsample(_slugs(2981), 0.45, seed=0)) == 1341


def test_empty_input():
    with pytest.raises(ValueError):
        subsample([], 0.0, seed=0)
    # fraction 1.0 of nothing is nothing
    assert subsample([], 1.0, seed=0) == []


@given(n=st.integers(min_value=0, max_value=300),
       fraction=st.floats(min_value=0.01, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_subsample_size_and_subset_property(n, fraction, seed):
    slugs = _slugs(n)
    picked = subsample(slugs, fraction, seed)
    assert len(picked) == math.floor(fraction * n)
    assert len(set(map(str, picked))) == len(picked)
    assert set(map(str, picked)) <= set(map(str, slugs))


def test_eligibility_report_csv(tmp_path):
    decisions = [
        apply_inclusion_criteria(_summary()),
        apply_inclusion_criteria(_summary(is_fork=True)),
    ]
    out = tmp_path / "elig.csv"
    write_eligibility_report(decisions, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "repo,eligible,failed_criteria"
    assert lines[1].startswith("org/repo,true,")
    assert "fork" in lines[2]
