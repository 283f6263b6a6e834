import pytest

from persona_miner.errors import ConfigError
from persona_miner.metrics import FEATURE_NAMES
from persona_miner.personas import PersonaProfile, assign_persona, load_profiles
from persona_miner.simgen import generate

PROFILES = load_profiles()


def _feature(v, name):
    return v.features[FEATURE_NAMES.index(name)]


def test_generate_covers_all_profiles():
    vectors, truth = generate(PROFILES, count=10, noise_sd=1.5, seed=0)
    assert truth == [p.name for p in PROFILES for _ in range(10)]
    assert len(vectors) == len(truth)


def test_zero_noise_reproduces_centroids_exactly():
    vectors, truth = generate(PROFILES, count=3, noise_sd=0.0, seed=0)
    assert len(vectors) == 3 * len(PROFILES)
    by_name = {p.name: p.centroid for p in PROFILES}
    for v, name in zip(vectors, truth):
        assert v.features[:6] == tuple(by_name[name])


def test_determinism_per_seed():
    a, ta = generate(PROFILES, count=20, noise_sd=2.0, seed=99)
    b, tb = generate(PROFILES, count=20, noise_sd=2.0, seed=99)
    assert a == b and ta == tb
    c, _ = generate(PROFILES, count=20, noise_sd=2.0, seed=100)
    assert a != c


def test_values_clamped_and_consistent():
    edge = PersonaProfile("edge", "Low", (0.0, 100.0, 50.0, 0.0, 100.0, 50.0))
    vectors, _ = generate([edge], count=500, noise_sd=30.0, seed=1)
    for v in vectors:
        rcs = v.features[:6]
        assert all(0.0 <= x <= 100.0 for x in rcs)
        assert _feature(v, "mrc") == sum(rcs) / 6
        assert _feature(v, "pct_created_minus_closed_issues") == \
            _feature(v, "rc_issues_created") - _feature(v, "rc_issues_closed")
        assert 1 <= v.uit <= 6


def test_direct_labeling_recovers_at_least_99_percent():
    vectors, truth = generate(PROFILES, count=200, noise_sd=2.0, seed=0)
    hits = sum(assign_persona(v, PROFILES)[0] == name
               for v, name in zip(vectors, truth))
    assert hits / len(vectors) >= 0.99


def test_recovery_degrades_with_noise():
    def recovery(sd):
        vectors, truth = generate(PROFILES, count=100, noise_sd=sd,
                                  seed=5)
        return sum(assign_persona(v, PROFILES)[0] == t
                   for v, t in zip(vectors, truth)) / len(vectors)

    assert recovery(0.5) >= recovery(10.0) >= recovery(40.0)


def test_unique_logins():
    vectors, _ = generate(PROFILES, count=50, noise_sd=1.0, seed=2)
    logins = [v.login for v in vectors]
    assert len(set(logins)) == len(logins)


def test_spec_validation():
    for count, noise_sd in ((5, -1.0), (5, float("nan")), (-1, 1.0)):
        with pytest.raises(ConfigError):
            generate(PROFILES, count=count, noise_sd=noise_sd, seed=0)
