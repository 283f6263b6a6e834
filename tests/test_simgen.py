import json

import pytest

from persona_miner.errors import ConfigError
from persona_miner.metrics import FEATURE_NAMES
from persona_miner.personas import DEFAULT_PROFILES, assign_persona
from persona_miner.simgen import (
    ArchetypeSpec,
    default_archetypes,
    generate,
    load_archetype_specs,
)


def _feature(v, name):
    return v.features[FEATURE_NAMES.index(name)]


def test_default_archetypes_cover_all_profiles():
    specs = default_archetypes(count=10, noise_sd=1.5)
    assert [s.name for s in specs] == [p.name for p in DEFAULT_PROFILES]
    assert all(s.count == 10 and s.noise_sd == 1.5 for s in specs)


def test_zero_noise_reproduces_centroids_exactly():
    specs = default_archetypes(count=3, noise_sd=0.0)
    vectors, truth = generate(specs, seed=0)
    assert len(vectors) == 3 * len(DEFAULT_PROFILES)
    by_name = {p.name: p.centroid for p in DEFAULT_PROFILES}
    for v, name in zip(vectors, truth):
        assert v.features[:6] == tuple(by_name[name])


def test_determinism_per_seed():
    specs = default_archetypes(count=20, noise_sd=2.0)
    a, ta = generate(specs, seed=99)
    b, tb = generate(specs, seed=99)
    assert a == b and ta == tb
    c, _ = generate(specs, seed=100)
    assert a != c


def test_values_clamped_and_consistent():
    specs = [ArchetypeSpec("edge", (0.0, 100.0, 50.0, 0.0, 100.0, 50.0),
                           noise_sd=30.0, count=500)]
    vectors, _ = generate(specs, seed=1)
    for v in vectors:
        rcs = v.features[:6]
        assert all(0.0 <= x <= 100.0 for x in rcs)
        assert _feature(v, "mrc") == sum(rcs) / 6
        assert _feature(v, "pct_created_minus_closed_issues") == \
            _feature(v, "rc_issues_created") - _feature(v, "rc_issues_closed")
        assert 1 <= v.uit <= 6


def test_direct_labeling_recovers_at_least_99_percent():
    specs = default_archetypes(count=200, noise_sd=2.0)
    vectors, truth = generate(specs, seed=0)
    hits = sum(assign_persona(v).persona == name
               for v, name in zip(vectors, truth))
    assert hits / len(vectors) >= 0.99


def test_recovery_degrades_with_noise():
    def recovery(sd):
        vectors, truth = generate(default_archetypes(count=100, noise_sd=sd),
                                  seed=5)
        return sum(assign_persona(v).persona == t
                   for v, t in zip(vectors, truth)) / len(vectors)

    assert recovery(0.5) >= recovery(10.0) >= recovery(40.0)


def test_unique_logins():
    vectors, _ = generate(default_archetypes(count=50, noise_sd=1.0), seed=2)
    logins = [v.login for v in vectors]
    assert len(set(logins)) == len(logins)


def test_spec_validation():
    with pytest.raises(ConfigError):
        ArchetypeSpec("bad", (0.0,) * 6, noise_sd=-1.0, count=5)
    with pytest.raises(ConfigError):
        ArchetypeSpec("bad", (0.0,) * 5, noise_sd=1.0, count=5)
    with pytest.raises(ConfigError):
        ArchetypeSpec("bad", (0.0,) * 6, noise_sd=1.0, count=-1)
    with pytest.raises(ConfigError):
        generate([], seed=0)


def test_load_specs_from_file(tmp_path):
    path = tmp_path / "specs.json"
    path.write_text(json.dumps({"archetypes": [
        {"name": "A", "centroid": [1, 2, 3, 4, 5, 6], "count": 4},
    ]}))
    specs = load_archetype_specs(path)
    assert specs == [ArchetypeSpec("A", (1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
                                   noise_sd=0.0, count=4)]
