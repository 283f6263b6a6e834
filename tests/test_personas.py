import json
import math

import pytest

from persona_miner.errors import ConfigError, DataValidationError
from persona_miner.metrics import MetricVector
from persona_miner.personas import (
    UNMATCHED,
    PersonaProfile,
    assign_persona,
    label_subcluster,
    load_profiles,
    order_clusters_by_interactivity,
    write_personas_csv,
)

PROFILES = load_profiles()
NAMES = [p.name for p in PROFILES]


def _vector(rcs, login="ada"):
    mrc = sum(rcs) / 6
    return MetricVector.from_rcs(
        tuple(rcs), mrc, mrc,
        uit=max(1, sum(1 for r in rcs if r > 0)),
        repo="org/repo", login=login, is_bot_flagged=False,
    )


def test_seven_default_profiles():
    assert sorted(NAMES) == sorted([
        "Project Organiser", "Moderate Contributor", "Low-Coding Closer",
        "Active Contributor", "Low-Process Closer", "Occasional Contributor",
        "Ephemeral Contributor",
    ])
    # declared in ascending interactivity order
    assert [p.interactivity for p in PROFILES] == \
        ["Low", "Low", "Moderate", "Moderate", "High", "High", "High"]


def test_every_centroid_self_labels_at_distance_zero():
    for profile in PROFILES:
        name, dist = label_subcluster(profile.centroid, PROFILES)
        assert name == profile.name
        assert dist == 0.0


def test_noise_of_one_keeps_low_process_closer():
    base = next(p for p in PROFILES if p.name == "Low-Process Closer")
    for sign in (1.0, -1.0):
        shifted = tuple(min(100.0, max(0.0, v + sign)) for v in base.centroid)
        name, dist = label_subcluster(shifted, PROFILES)
        assert name == "Low-Process Closer"
        assert dist <= math.sqrt(6) + 1e-9


def test_all_hundreds_is_active_contributor():
    # independently recomputed: nearest of the seven reference centroids
    target = (100.0,) * 6
    oracle = min(PROFILES,
                 key=lambda p: math.dist(p.centroid, target)).name
    assert oracle == "Active Contributor"
    assert label_subcluster(target, PROFILES)[0] == "Active Contributor"


def test_all_zeros_is_ephemeral():
    name, _ = label_subcluster((0.0,) * 6, PROFILES)
    assert name == "Ephemeral Contributor"


def test_distance_ignores_non_rc_fields():
    base = next(p for p in PROFILES if p.name == "Occasional Contributor")
    v = _vector(list(base.centroid))
    # mutate-by-copy: same RCs, different derived fields don't matter because
    # assign_persona reads the six RCs only
    name, distance = assign_persona(v, PROFILES)
    assert name == "Occasional Contributor"
    assert distance == 0.0


def test_declaration_order_breaks_ties():
    profiles = (
        PersonaProfile("First", "Low", (10.0,) * 6),
        PersonaProfile("Second", "Low", (10.0,) * 6),
    )
    name, _ = label_subcluster((10.0,) * 6, profiles=profiles)
    assert name == "First"


def test_unmatched_threshold():
    base = PROFILES[0]
    name, dist = label_subcluster(base.centroid, PROFILES, max_distance=25.0)
    assert name == base.name
    far = (100.0, 0.0, 100.0, 0.0, 100.0, 0.0)
    nearest = min(math.dist(p.centroid, far) for p in PROFILES)
    assert nearest > 25.0  # fixture really is beyond the threshold
    name, dist = label_subcluster(far, PROFILES, max_distance=25.0)
    assert name == UNMATCHED
    assert dist == pytest.approx(nearest)


def test_bad_centroid_rejected():
    with pytest.raises(DataValidationError):
        label_subcluster((1.0, 2.0, 3.0), PROFILES)
    with pytest.raises(ConfigError):
        PersonaProfile("Bad", "Low", (0.0,) * 5)
    with pytest.raises(ConfigError):
        PersonaProfile("Bad", "Low", (0.0,) * 5 + (101.0,))
    with pytest.raises(ConfigError):
        PersonaProfile("Bad", "Extreme", (0.0,) * 6)


def test_custom_profile_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"profiles": [
        {"name": "Only", "interactivity": "High", "centroid": [50] * 6},
    ]}))
    profiles = load_profiles(path)
    assert label_subcluster((49.0,) * 6, profiles=profiles)[0] == "Only"


def test_interactivity_ordering_standard():
    levels = order_clusters_by_interactivity({0: 54.89, 1: 3.2, 2: 21.0},
                                             {0: 1, 1: 1, 2: 1})
    assert levels == {1: "Low", 2: "Moderate", 0: "High"}


def test_interactivity_tie_breaks_by_size_desc():
    levels = order_clusters_by_interactivity(
        {0: 10.0, 1: 10.0, 2: 90.0}, cluster_sizes={0: 5, 1: 50, 2: 3}
    )
    assert levels[1] == "Low"  # bigger cluster ranks lower on ties
    assert levels[0] == "Moderate"
    assert levels[2] == "High"


def test_interactivity_nonstandard_k():
    assert order_clusters_by_interactivity({0: 5.0, 1: 50.0}, {0: 1, 1: 1}) is None
    assert order_clusters_by_interactivity({c: float(c) for c in range(4)},
                                           dict.fromkeys(range(4), 1)) is None


def test_personas_csv(tmp_path):
    base = next(p for p in PROFILES
                if p.name == "Ephemeral Contributor")
    v = _vector(list(base.centroid))
    with_path, direct = tmp_path / "personas.csv", tmp_path / "direct.csv"
    write_personas_csv([v], [assign_persona(v, PROFILES)], with_path, ((0,), (1,)))
    write_personas_csv([v], [assign_persona(v, PROFILES)], direct)
    lines = with_path.read_text().splitlines() + direct.read_text().splitlines()[1:]
    assert lines[0] == "repo,login,persona,distance,cluster,subcluster"
    assert lines[1] == "org/repo,ada,Ephemeral Contributor,0.0,0,1"
    assert lines[2] == "org/repo,ada,Ephemeral Contributor,0.0,,"
