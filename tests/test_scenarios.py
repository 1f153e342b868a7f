"""Scenario catalog, placement, and spec round-tripping."""

import json
import math
from pathlib import Path

import pytest

from wlansim import phy
from wlansim.engine import PLACEMENT_STREAM, rng_stream
from wlansim.scenarios import (SCENARIO_NAMES, BssSpec, ScenarioSpec,
                               TrafficSpec, build_deployment, build_scenario,
                               draw_positions, link_mcs_by_width)


def test_catalog_names_all_build():
    for name in SCENARIO_NAMES:
        spec = build_scenario(name, seed=5)
        spec.validate()
        assert spec.bss


def test_unknown_scenario_raises():
    with pytest.raises(ValueError):
        build_scenario("sp9", seed=1)


def test_sp1_layout_leaves_channel_2_clear():
    spec = build_scenario("sp1", seed=1)
    assert len(spec.bss) == 3
    assert spec.learning_ids() == [1]
    legacy = {b.bss_id: b for b in spec.bss if b.role == "legacy"}
    assert legacy[2].channels == (3, 4) and legacy[2].primary == 3
    assert legacy[3].channels == (1,) and legacy[3].primary == 1
    assert legacy[2].traffic.width_ref_mhz == 40
    used = {c for b in legacy.values() for c in b.channels}
    assert 2 not in used
    assert all(b.traffic.kind == "full_buffer" for b in spec.bss)
    assert spec.interval_s is None


def test_sp2_layout_one_legacy_per_channel():
    spec = build_scenario("sp2", seed=1)
    assert len(spec.bss) == 5
    assert spec.interval_s == 15.0
    legacy = [b for b in spec.bss if b.role == "legacy"]
    assert sorted(b.channels for b in legacy) == [(1,), (2,), (3,), (4,)]
    for b in legacy:
        assert b.traffic.kind == "random"
        assert b.traffic.load == (0.8, 0.9)
        assert b.traffic.width_ref_mhz == 20


def test_multiplayer_layouts():
    mp1 = build_scenario("mp1", seed=2)
    assert [b.role for b in mp1.bss] == ["learning"] * 3

    mp2 = build_scenario("mp2", seed=2)
    assert len(mp2.learning_ids()) == 4
    light = [b for b in mp2.bss if b.traffic.kind == "random"]
    assert len(light) == 2
    assert all(b.traffic.load == (0.2, 0.4) for b in light)

    mp3 = build_scenario("mp3", seed=2)
    assert mp3.learning_ids() == [1, 2]
    for b in mp3.bss:
        assert b.traffic.load == (0.6, 0.9)
        if b.role == "legacy":
            assert b.channels == (1, 2, 3, 4) and b.primary == 1
            assert b.traffic.width_ref_mhz == 80


def test_positions_deterministic_per_seed():
    a = build_scenario("mp1", seed=7)
    b = build_scenario("mp1", seed=7)
    c = build_scenario("mp1", seed=8)
    assert [x.ap_pos for x in a.bss] == [x.ap_pos for x in b.bss]
    assert [x.sta_pos for x in a.bss] == [x.sta_pos for x in b.bss]
    assert [x.ap_pos for x in a.bss] != [x.ap_pos for x in c.bss]


def test_links_support_top_mcs_at_80():
    max_link = phy.mcs_range_m(11, 80)
    for seed in range(5):
        spec = build_scenario("mp2", seed=seed)
        for b in spec.bss:
            d = math.dist(b.ap_pos, b.sta_pos)
            assert 0.0 < d <= max_link
            assert link_mcs_by_width(b) == {20: 11, 40: 11, 80: 11}


def test_draw_positions_sense_range_guard():
    rng = rng_stream(1, 0, 0, PLACEMENT_STREAM)
    with pytest.raises(AssertionError):
        draw_positions(rng, 2, area=(500.0, 500.0, 2.0))


def test_round_trip_through_json():
    for name in ("sp1", "sp2", "mp3", "tuning-deployment"):
        spec = build_scenario(name, seed=3)
        blob = json.dumps(spec.to_dict())
        back = ScenarioSpec.from_dict(json.loads(blob))
        assert back == spec


def test_deployment_structure():
    spec = build_deployment(seed=10, n_legacy=8, duration_s=8.0)
    assert spec.duration_s == 8.0
    assert spec.learning_ids() == [1]
    assert len(spec.legacy_ids()) == 8
    for b in spec.bss:
        if b.role != "legacy":
            continue
        assert tuple(b.channels) in phy.CHANNEL_GROUPS
        assert b.primary == b.channels[0]
        assert b.traffic.width_ref_mhz == 20 * len(b.channels)
        if b.traffic.kind != "full_buffer":
            assert 0.1 <= b.traffic.load <= 0.9
    # different seeds give different deployments
    other = build_deployment(seed=11, n_legacy=8, duration_s=8.0)
    assert [b.channels for b in spec.bss[1:]] != \
        [b.channels for b in other.bss[1:]]


def test_spec_validation_rejects_bad_layouts():
    with pytest.raises(ValueError):
        TrafficSpec("cbr", 0.5).validate()
    with pytest.raises(ValueError):
        TrafficSpec("poisson", None).validate()
    with pytest.raises(ValueError):
        BssSpec(1, "legacy", TrafficSpec("full_buffer"),
                channels=(2, 3), primary=2).validate()
    with pytest.raises(ValueError):
        spec = build_scenario("sp1", seed=1)
        spec.bonding = "wide"
        spec.validate()


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_shipped_config_matches_catalog(name):
    # configs/<name>.json is the catalog's spec at the file's own seed
    shipped = json.loads((CONFIGS / f"{name}.json").read_text())
    built = build_scenario(name, shipped["seed"]).to_dict()
    assert shipped == json.loads(json.dumps(built))
