"""Trial orchestration, serialization, and the command-line surface."""

import json

import numpy as np
import pytest

from wlansim import cli, scenarios, tuning
from wlansim.engine import SEC
from wlansim.runner import (RunParams, _dump_records, _duration_ns,
                            _trial_assignments, load_records, run_many,
                            run_trial, summarize)


def _params(**kw):
    base = dict(algo="none", static_channel=2, trials=2, duration_s=0.3)
    base.update(kw)
    return RunParams(**base)


def _short(name="sp1", seed=3):
    """A scenario with its burn-in trimmed below these tests' short runs."""
    spec = scenarios.build_scenario(name, seed)
    spec.burn_in_s = 0.05
    return spec


def _short_config(tmp_path, name="sp1"):
    cfg = tmp_path / f"{name}-short.json"
    cfg.write_text(json.dumps(_short(name).to_dict()))
    return cfg


def test_params_validation_and_method():
    _params().validate()
    with pytest.raises(ValueError):
        RunParams(algo="egreedy").validate()
    with pytest.raises(ValueError):
        RunParams(algo="ucb", arch="hier").validate()
    with pytest.raises(ValueError):
        RunParams(algo="none").validate()   # needs a channel label
    assert _params().method() == "static-ch2"
    assert RunParams(algo="linucb", arch="sa").method() == "linucb-sa"


def test_tuned_alpha_defaults():
    assert RunParams(algo="ucb", arch="sa").resolved_alpha() == 1.09
    assert RunParams(algo="ucb", arch="ma").resolved_alpha() == 1.14
    assert RunParams(algo="linucb", arch="sa").resolved_alpha() == 0.52
    assert RunParams(algo="linucb", arch="ma").resolved_alpha() == 0.50
    assert RunParams(algo="ucb", alpha=2.5).resolved_alpha() == 2.5


def test_interval_schedule_properties():
    spec = scenarios.build_scenario("sp2", seed=4)
    legacy = set(spec.legacy_ids())
    seen_under = set()
    for trial in range(300):
        assign, schedule = _trial_assignments(spec, trial)
        under = schedule["underloaded"]
        assert len(under) == 4
        assert len(set(under[:3])) == 3          # three distinct picks
        assert under[3] in under[:3]             # then one repeats
        assert set(under) <= legacy
        seen_under.update(under)
        for k, iv in enumerate(schedule["intervals"]):
            for bid, f in iv["loads"].items():
                lo, hi = (0.10, 0.20) if bid == under[k] else (0.80, 0.90)
                assert lo <= f <= hi
        # interval 0 rates are what the sources start with
        for bid in legacy:
            assert assign[bid]["rate_bps"] == \
                schedule["intervals"][0]["rates"][bid]
            assert assign[bid]["kind"] in scenarios.RANDOM_KINDS
        assert assign[1]["kind"] == "full_buffer"
        labels = schedule["underloaded_channel"]
        assert all(1 <= c <= 4 for c in labels)
    assert seen_under == legacy                  # rotation covers everyone


def test_trial_is_deterministic():
    spec = _short()
    a = _dump_records(run_trial(spec, _params(), trial=0))
    b = _dump_records(run_trial(spec, _params(), trial=0))
    assert a == b
    c = _dump_records(run_trial(spec, _params(), trial=1))
    assert a != c


def test_trial_record_layout():
    spec = _short()
    recs = run_trial(spec, RunParams(algo="linucb", arch="ma", trials=1,
                                     duration_s=0.3, decision_log=True),
                     trial=0)
    kinds = [r["record"] for r in recs]
    assert kinds.count("trial") == 1
    assert kinds.count("bss") == 3
    assert kinds.count("fairness") == 1
    assert kinds.count("decisions") == 1
    meta = recs[0]
    assert meta["method"] == "linucb-ma"
    assert set(meta["traffic"]) == {"1", "2", "3"}
    learner = next(r for r in recs if r["record"] == "bss" and r["bss"] == 1)
    assert learner["role"] == "learning"
    assert 0.0 <= sum(learner["selections"].values()) <= 1.0 + 1e-9
    dec = next(r for r in recs if r["record"] == "decisions")
    assert all(len(row) == 3 and 0.0 <= row[2] <= 1.0 for row in dec["rows"])


def test_interval_machinery_small_scale():
    # shrink the four 15 s intervals to 50 ms each
    spec = scenarios.build_scenario("sp2", seed=5)
    spec.duration_s = 0.2
    spec.interval_s = 0.05
    spec.burn_in_s = 0.0
    lines = []

    class Sink:
        def write(self, s):
            lines.append(s)

    recs = run_trial(spec, RunParams(algo="none", static_channel=2),
                     trial=0, trace_file=Sink())
    text = "".join(lines)
    for k in (1, 2, 3):
        assert f"{k * 50_000_000} interval schedule\n" in text
    ivs = [r for r in recs if r["record"] == "interval"]
    assert {r["interval"] for r in ivs} == {0, 1, 2, 3}
    meta = recs[0]
    for r in ivs:
        assert r["underloaded_bss"] == \
            meta["schedule"]["underloaded"][r["interval"]]


def test_run_many_files_and_reproducibility(tmp_path):
    spec = _short()
    a = run_many(spec, _params(), tmp_path / "a")
    for name in ("run.json", "trial_000.jsonl", "trial_001.jsonl",
                 "summary.jsonl"):
        assert (a / name).exists()
    run_many(spec, _params(), tmp_path / "b")
    assert (a / "trial_000.jsonl").read_bytes() == \
        (tmp_path / "b" / "trial_000.jsonl").read_bytes()
    run_many(spec, _params(), tmp_path / "c", workers=2)
    for name in ("trial_000.jsonl", "trial_001.jsonl", "summary.jsonl"):
        assert (a / name).read_bytes() == (tmp_path / "c" / name).read_bytes()


def test_summary_recomputes_from_trials(tmp_path):
    spec = _short()
    out = run_many(spec, _params(), tmp_path / "r")
    recs = load_records(out)
    per_bss = {}
    for r in recs:
        if r["record"] == "bss":
            per_bss.setdefault(r["bss"], []).append(r["goodput_mbps"])
    summary = [json.loads(line)
               for line in (out / "summary.jsonl").read_text().splitlines()]
    assert summary[0]["record"] == "summary"
    assert summary[0]["trials"] == 2
    for row in summary[1:]:
        if row["record"] != "summary_bss":
            continue
        assert row["goodput_mean_mbps"] == pytest.approx(
            np.mean(per_bss[row["bss"]]))


def test_cli_list_scenarios(capsys):
    assert cli.main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in scenarios.SCENARIO_NAMES:
        assert name in out


def test_cli_run_and_export(tmp_path, capsys):
    # short run: trim the burn-in below the duration via a config file
    cfg = _short_config(tmp_path)
    out = tmp_path / "runs"
    rc = cli.main(["run", "--config", str(cfg), "--algo", "none",
                   "--channel", "2", "--trials", "1",
                   "--duration", "0.3", "--out", str(out)])
    assert rc == 0
    run_dir = out / "static-ch2"
    assert (run_dir / "trial_000.jsonl").exists()

    csv_dir = tmp_path / "csv"
    assert cli.main(["export", "--runs", str(out), "--out", str(csv_dir)]) == 0
    rows = (csv_dir / "goodput.csv").read_text().splitlines()
    assert rows[0].startswith("scenario,method,trial,bss")
    assert len(rows) == 4                       # header + 3 BSS
    goodputs = [float(r.split(",")[5]) for r in rows[1:]]
    jain_row = (csv_dir / "fairness.csv").read_text().splitlines()[1]
    jain = float(jain_row.split(",")[3])
    expect = sum(goodputs) ** 2 / (3 * sum(g * g for g in goodputs))
    assert jain == pytest.approx(expect, rel=1e-9)


def test_cli_config_round_trip(tmp_path):
    cfg = tmp_path / "spec.json"
    a = tmp_path / "a"
    rc = cli.main(["run", "--config", str(_short_config(tmp_path)),
                   "--algo", "none", "--channel", "2", "--trials", "1",
                   "--duration", "0.2", "--out", str(a),
                   "--export-config", str(cfg)])
    assert rc == 0
    spec = scenarios.ScenarioSpec.from_dict(json.loads(cfg.read_text()))
    assert spec.name == "sp1"
    b = tmp_path / "b"
    rc = cli.main(["run", "--config", str(cfg), "--algo", "none",
                   "--channel", "2", "--trials", "1", "--duration", "0.2",
                   "--out", str(b)])
    assert rc == 0
    assert (a / "static-ch2" / "trial_000.jsonl").read_bytes() == \
        (b / "static-ch2" / "trial_000.jsonl").read_bytes()


def test_cli_trace_writes_event_log(tmp_path):
    out = tmp_path / "runs"
    rc = cli.main(["run", "--config", str(_short_config(tmp_path)),
                   "--algo", "none", "--channel", "2", "--trials", "1",
                   "--duration", "0.1", "--trace", "--workers", "4",
                   "--out", str(out)])
    assert rc == 0
    trace = (out / "static-ch2" / "trace_000.log").read_text()
    assert " backoff ap1" in trace


def test_cli_baseline_sweep_covers_all_allocations(tmp_path):
    out = tmp_path / "sweep"
    cfg = _short_config(tmp_path, "baseline-sweep")
    rc = cli.main(["run", "--config", str(cfg), "--trials", "1",
                   "--duration", "0.1", "--out", str(out)])
    assert rc == 0
    for label in range(1, 8):
        assert (out / f"static-ch{label}" / "run.json").exists()


def test_cli_error_codes(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json"),
                     "--algo", "none", "--channel", "2"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", "--config", str(bad), "--algo", "none",
                     "--channel", "2"]) == 1
    assert cli.main(["run", "--scenario", "sp1", "--algo", "none",
                     "--trials", "1"]) == 1    # no channel label


def test_cli_partial_config_names_the_missing_key(tmp_path, capsys):
    cfg = tmp_path / "partial.json"
    cfg.write_text(json.dumps({"name": "x", "seed": 1, "bss": []}))
    rc = cli.main(["run", "--config", str(cfg), "--algo", "none",
                   "--channel", "2", "--out", str(tmp_path / "runs")])
    assert rc == 1
    assert "'bonding'" in capsys.readouterr().err


def test_cli_interval_schedule_needs_three_legacy_bss(tmp_path, capsys):
    # the load schedule underloads three distinct legacy APs; mp1 has none
    spec = scenarios.build_scenario("mp1", seed=3)
    spec.interval_s = 0.25
    spec.burn_in_s = 0.1
    cfg = tmp_path / "mp1-intervals.json"
    cfg.write_text(json.dumps(spec.to_dict()))
    out = tmp_path / "runs"
    rc = cli.main(["run", "--config", str(cfg), "--algo", "ucb",
                   "--arch", "sa", "--trials", "1", "--duration", "0.5",
                   "--out", str(out)])
    assert rc == 1
    assert "3 legacy" in capsys.readouterr().err
    assert not out.exists()


def test_cli_duration_within_the_burn_in_fails_fast(tmp_path, capsys):
    # 0.1 s of sp2 under a 0.2 s burn-in used to report goodput 0.0 and an
    # interval window [0.2, 0.1] that ends before it starts
    spec = scenarios.build_scenario("sp2", seed=3)
    spec.interval_s = 0.25
    spec.burn_in_s = 0.2
    cfg = tmp_path / "sp2-short.json"
    cfg.write_text(json.dumps(spec.to_dict()))
    out = tmp_path / "runs"
    rc = cli.main(["run", "--config", str(cfg), "--algo", "none",
                   "--channel", "2", "--trials", "1", "--duration", "0.1",
                   "--out", str(out)])
    assert rc == 1
    assert "burn-in of 0.2 s" in capsys.readouterr().err
    assert not out.exists()


def test_cli_duration_within_the_burn_in_fails_fast_without_a_schedule(
        tmp_path, capsys):
    # 0.1 s of sp1 under its 2 s burn-in used to report goodput 0.0 over an
    # empty window
    out = tmp_path / "runs"
    rc = cli.main(["run", "--scenario", "sp1", "--algo", "none",
                   "--channel", "2", "--trials", "1", "--duration", "0.1",
                   "--out", str(out)])
    assert rc == 1
    assert "burn-in of 2 s" in capsys.readouterr().err
    assert not out.exists()


def test_tuning_deployments_outlast_their_burn_in():
    for spec in tuning.deployment_grid(3):
        assert spec.burn_in_s < spec.duration_s
        _duration_ns(spec, RunParams(algo="ucb", arch="sa"))


@pytest.mark.parametrize("burn_in_s", [0.25, 0.5])
def test_cli_burn_in_past_the_interval_fails_fast(tmp_path, capsys,
                                                  burn_in_s):
    # a 0.5 s burn-in under 0.25 s intervals used to give the first interval
    # the window [0.5, 0.25] and the second an empty one
    spec = scenarios.build_scenario("sp2", seed=3)
    spec.interval_s = 0.25
    spec.burn_in_s = burn_in_s
    cfg = tmp_path / "sp2-burn-in.json"
    cfg.write_text(json.dumps(spec.to_dict()))
    out = tmp_path / "runs"
    rc = cli.main(["run", "--config", str(cfg), "--algo", "none",
                   "--channel", "2", "--trials", "1", "--duration", "1",
                   "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "burn_in_s" in err and "interval_s" in err
    assert not out.exists()


@pytest.mark.parametrize("field,value,message", [
    ("ap_pos", None, "ap_pos"),
    ("traffic", {"kind": "full_buffer", "rate": 3}, "'rate'"),
])
def test_cli_malformed_bss_fields_are_named(tmp_path, capsys, field, value,
                                             message):
    d = scenarios.build_scenario("sp1", seed=3).to_dict()
    d["bss"][0][field] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(d))
    rc = cli.main(["run", "--config", str(cfg), "--algo", "none",
                   "--channel", "2", "--trials", "1", "--duration", "0.1",
                   "--out", str(tmp_path / "runs")])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err and "BSS 1" in err


def test_cli_out_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("WLANSIM_OUT", str(tmp_path / "envruns"))
    rc = cli.main(["run", "--config", str(_short_config(tmp_path)),
                   "--algo", "none", "--channel", "2", "--trials", "1",
                   "--duration", "0.1"])
    assert rc == 0
    assert (tmp_path / "envruns" / "static-ch2" / "run.json").exists()


def test_tuning_leaderboard(tmp_path):
    rows = tuning.tune("ucb", "ma", candidates=2, seed=3,
                       bss_counts=(2,), durations_s=(0.5,))
    assert len(rows) == 2
    assert rows[0]["mean_reward"] >= rows[1]["mean_reward"]
    for row in rows:
        assert 1.0 <= row["alpha"] <= 10.0
        assert len(row["per_deployment"]) == 1
    path = tuning.write_leaderboard(rows, tmp_path / "lb.jsonl")
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["rank"] for r in lines] == [1, 2]


def test_duration_past_the_load_schedule_fails_fast(tmp_path, capsys):
    # four 0.5 s intervals cover 2 s; 2.6 s used to crash after simulating
    spec = scenarios.build_scenario("sp2", seed=5)
    spec.interval_s = 0.5
    spec.burn_in_s = 0.0
    params = RunParams(algo="none", static_channel=2, trials=1,
                       duration_s=2.6)
    with pytest.raises(ValueError, match="load intervals"):
        run_many(spec, params, tmp_path / "r")
    assert not (tmp_path / "r").exists()
    with pytest.raises(ValueError):
        run_trial(spec, params, trial=0)

    cfg = tmp_path / "sp2-short.json"
    cfg.write_text(json.dumps(spec.to_dict()))
    rc = cli.main(["run", "--config", str(cfg), "--algo", "none",
                   "--channel", "2", "--trials", "1", "--duration", "2.6",
                   "--out", str(tmp_path / "runs")])
    assert rc == 1
    assert "load intervals" in capsys.readouterr().err
    params.duration_s = 2.0
    assert _duration_ns(spec, params) == 2 * SEC
