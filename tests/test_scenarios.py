"""Scenario catalog, placement, and spec round-tripping."""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlansim import cli, phy
from wlansim.runner import RunParams, run_trial
from wlansim.scenarios import (SCENARIO_NAMES, BssSpec, ScenarioSpec,
                               TrafficSpec, build_deployment, build_scenario,
                               link_mcs_by_width)


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


def _misplace(spec, fault):
    """One placement fault: BSS 1's STA 200 m from its AP ("far") or on it
    ("coincident"), or BSS 2 moved 40 m off, out of everyone's sensing
    range ("deaf")."""
    b1, b2 = spec.bss[0], spec.bss[1]
    if fault == "far":
        b1.sta_pos = (b1.ap_pos[0] + 200.0, *b1.ap_pos[1:])
    elif fault == "coincident":
        b1.sta_pos = b1.ap_pos
    else:
        b2.ap_pos = (b2.ap_pos[0] + 40.0, *b2.ap_pos[1:])
        b2.sta_pos = (b2.sta_pos[0] + 40.0, *b2.sta_pos[1:])
    return spec


@pytest.mark.parametrize("fault,message", [
    ("far", "BSS 1 link from ap_pos to sta_pos does not decode"),
    ("coincident", "BSS 1 link from ap_pos to sta_pos does not decode"),
    ("deaf", "BSS 1 ap_pos and BSS 2 ap_pos are .* beyond the 24.5 m "
             "sensing range"),
])
def test_validate_rejects_bad_placement(tmp_path, capsys, fault, message):
    spec = _misplace(build_scenario("sp1", seed=1), fault)
    with pytest.raises(ValueError, match=message):
        spec.validate()
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(spec.to_dict()))
    out = tmp_path / "runs"
    rc = cli.main(["run", "--config", str(cfg), "--algo", "none",
                   "--channel", "2", "--trials", "1", "--out", str(out)])
    assert rc == 1
    assert "BSS 1" in capsys.readouterr().err
    assert not out.exists()


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
        TrafficSpec("poisson", 5e-324).validate()   # gaps past int64 ns
    for load in (1.0 + 1e-9, 1e4, (0.5, 1.5)):
        with pytest.raises(ValueError, match="load"):
            TrafficSpec("poisson", load).validate()
    TrafficSpec("poisson", 1.0).validate()
    with pytest.raises(ValueError):
        BssSpec(1, "legacy", TrafficSpec("full_buffer"),
                channels=(2, 3), primary=2).validate()
    with pytest.raises(ValueError):
        BssSpec(1, "legacy", TrafficSpec("full_buffer"),
                channels=(1, 2), primary=3).validate()
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


SHIPPED = {name: json.loads((CONFIGS / f"{name}.json").read_text())
           for name in SCENARIO_NAMES}
TIMES = ("burn_in_s", "interval_s", "duration_s")
RUN_FIELDS = ("bonding", "seed", "trials", "bss", *TIMES)
FIELDS = ("ap_pos", "sta_pos", "channels", "primary", "kind", "load",
          "width_ref_mhz", "bss_id", *RUN_FIELDS)

coordinate = st.floats(-20.0, 40.0)
fraction = st.floats(-0.5, 1.5)
FIELD_VALUES = {
    "ap_pos": st.one_of(st.lists(coordinate, min_size=3, max_size=3),
                        st.none(), st.just([1.0, 2.0]), st.just("here")),
    "channels": st.one_of(st.none(), st.lists(st.integers(0, 5),
                                              max_size=4), st.just(3)),
    "primary": st.one_of(st.none(), st.integers(0, 5), st.just("3")),
    "bonding": st.sampled_from(["scb", "dcb", "half", None]),
    "kind": st.sampled_from(["full_buffer", "random", "poisson", "bursty",
                             "vr", "cbr", None]),
    "load": st.one_of(st.none(), fraction, st.lists(fraction, max_size=3),
                      st.sampled_from(["half", True])),
    "width_ref_mhz": st.sampled_from([20, 40, 80, 160, 0, None]),
    "bss_id": st.one_of(st.integers(-1, 5),
                        st.sampled_from(["b", True, 2 ** 22 - 1, 2 ** 22])),
    "seed": st.one_of(st.integers(-1, 5), st.sampled_from(["x", 1.5, None])),
    "trials": st.one_of(st.integers(-1, 3), st.sampled_from(["3", 2.5, True])),
    "bss": st.sampled_from([5, None, [], [5]]),
    **{t: st.one_of(st.none(), st.floats(-0.01, 0.03),
                    st.sampled_from([math.inf, math.nan, True]))
        for t in TIMES},
}
FIELD_VALUES["sta_pos"] = FIELD_VALUES["ap_pos"]


def _shipped(name, burn_in_s):
    """A shipped config, cut so that a run lasts 10 ms past its burn-in."""
    d = copy.deepcopy(SHIPPED[name])
    d["burn_in_s"] = burn_in_s
    d["duration_s"] = burn_in_s + 0.01
    return d


def _change(d, field, value, bss=0):
    """(d, field) with field set to value, in the run or in BSS index bss."""
    b = d["bss"][bss]
    if field in RUN_FIELDS:
        d[field] = value
    elif field in ("kind", "load", "width_ref_mhz"):
        b["traffic"][field] = value
    else:
        b[field] = value
    return d, field


@st.composite
def scenario_dicts(draw):
    """A shipped config with one field changed."""
    d = _shipped(draw(st.sampled_from(SCENARIO_NAMES)),
                 draw(st.sampled_from([0.0, 0.005, 0.01])))
    field = draw(st.sampled_from(FIELDS))
    return _change(d, field, draw(FIELD_VALUES[field]),
                   draw(st.integers(0, len(d["bss"]) - 1)))


PARAMS = [RunParams(algo="none", static_channel=7),
          RunParams(algo="ucb", arch="sa"),
          RunParams(algo="linucb", arch="ma")]


@settings(max_examples=25, deadline=None)
@given(case=scenario_dicts(), params=st.sampled_from(PARAMS))
# a run that ends with its burn-in, and one that outruns its load schedule
@example(case=_change(_shipped("sp1", 0.005), "duration_s", 0.005),
         params=PARAMS[0])
@example(case=_change(_shipped("sp2", 0.0), "interval_s", 0.002),
         params=PARAMS[0])
# fields that cannot apply: a full-buffer load, a learning AP's allocation
@example(case=_change(_shipped("mp1", 0.0), "load", 0.5), params=PARAMS[1])
@example(case=_change(_shipped("sp1", 0.0), "channels", [1]),
         params=PARAMS[0])
@example(case=_change(_shipped("sp1", 0.0), "primary", 1), params=PARAMS[2])
# a load past the link's whole goodput, which would only overflow the queue
@example(case=_change(_shipped("sp2", 0.0), "load", 1e4, bss=1),
         params=PARAMS[0])
# malformed run fields, and a time that does not end
@example(case=_change(_shipped("sp1", 0.0), "seed", "x"), params=PARAMS[0])
@example(case=_change(_shipped("sp1", 0.0), "seed", 1.5), params=PARAMS[0])
@example(case=_change(_shipped("sp1", 0.0), "seed", -1), params=PARAMS[0])
@example(case=_change(_shipped("sp1", 0.0), "trials", 0), params=PARAMS[0])
@example(case=_change(_shipped("sp1", 0.0), "trials", "3"), params=PARAMS[0])
@example(case=_change(_shipped("sp1", 0.0), "trials", 2.5), params=PARAMS[0])
@example(case=_change(_shipped("sp1", 0.0), "bss", 5), params=PARAMS[0])
@example(case=_change(_shipped("sp1", 0.0), "burn_in_s", math.inf),
         params=PARAMS[0])
# a channel set that is not a list, a primary that is not an int
@example(case=_change(_shipped("sp1", 0.0), "channels", 3, bss=1),
         params=PARAMS[0])
@example(case=_change(_shipped("sp1", 0.0), "primary", "3", bss=1),
         params=PARAMS[0])
# a bool where a number belongs, each otherwise valid: JSON true is not 1
@example(case=_change(_shipped("sp2", 0.0), "load", True, bss=1),
         params=PARAMS[0])
@example(case=_change(_shipped("sp1", 1.0), "burn_in_s", True),
         params=PARAMS[0])
@example(case=_change(_shipped("sp1", 0.0), "ap_pos",
                      [True, *SHIPPED["sp1"]["bss"][0]["ap_pos"][1:]]),
         params=PARAMS[0])
def test_accepted_dicts_run_and_rejected_ones_name_the_field(case, params):
    d, field = case
    try:
        spec = ScenarioSpec.from_dict(d)
    except ValueError as exc:
        # a time is named by its first word: "duration", "burn", "interval"
        assert (field.split("_")[0] if field in TIMES else field) in str(exc)
        return
    assert type(spec.trials) is int and spec.trials >= 1
    numbers = [spec.duration_s, spec.burn_in_s, spec.interval_s]
    for b in spec.bss:
        assert b.traffic.kind != "full_buffer" or b.traffic.load is None
        assert b.role == "legacy" or b.channels is b.primary is None
        load = b.traffic.load
        numbers += [*b.ap_pos, *b.sta_pos,
                    *(load if isinstance(load, tuple) else (load,))]
    assert not any(isinstance(x, bool) for x in numbers)
    run_trial(spec, params, trial=0)
