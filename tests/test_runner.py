"""Trial orchestration, serialization, and the command-line surface."""

import gc
import json
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from wlansim import cli, mac, scenarios, tuning
from wlansim.engine import SEC
from wlansim.mac import PACKET_BYTES
from wlansim.phy import BA_AIRTIME, SIFS
from wlansim.runner import (RunParams, _dump_records,
                            _trial_assignments, load_records, run_batch,
                            run_many, run_trial, summarize)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _params(**kw):
    base = dict(algo="none", static_channel=2, trials=2, duration_s=0.3)
    base.update(kw)
    return RunParams(**base)


def _short(name="sp1", seed=3):
    """A scenario with its burn-in trimmed below these tests' short runs."""
    spec = scenarios.build_scenario(name, seed)
    spec.burn_in_s = 0.05
    return spec


def _config(tmp_path, spec):
    """Write spec (a ScenarioSpec, or any JSON data) as a config; returns
    its path."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(spec.to_dict()
                              if isinstance(spec, scenarios.ScenarioSpec)
                              else spec))
    return str(cfg)


def _rejected(tmp_path, capsys, *args):
    """`wlansim run` args: exit 1, nothing under --out; returns stderr."""
    out = tmp_path / "runs"
    assert cli.main(["run", *args, "--out", str(out)]) == 1
    assert not out.exists()
    return capsys.readouterr().err


def test_params_validation_and_method():
    _params().validate()
    with pytest.raises(ValueError):
        RunParams(algo="egreedy").validate()
    with pytest.raises(ValueError):
        RunParams(algo="ucb", arch="hier").validate()
    with pytest.raises(ValueError):
        RunParams(algo="none").validate()   # needs a channel label
    RunParams(algo="linucb", arch="ma", alpha=0.0).validate()  # greedy LinUCB
    with pytest.raises(ValueError, match="alpha"):
        RunParams(algo="ucb", arch="sa", alpha=float("inf")).validate()
    assert _params().method() == "static-ch2"
    assert RunParams(algo="linucb", arch="sa").method() == "linucb-sa"


def test_unknown_bonding_fails_before_run_json(tmp_path):
    params = _params(bonding="half")
    with pytest.raises(ValueError, match="unknown bonding mode 'half'"):
        run_many(_short(), params, tmp_path / "r")
    assert not (tmp_path / "r" / "run.json").exists()
    # nor does a valid run batched before it get one
    with pytest.raises(ValueError, match="unknown bonding mode 'half'"):
        run_batch([(_short(), _params(), tmp_path / "ok"),
                   (_short(), params, tmp_path / "r")], workers=2)
    assert not list(tmp_path.glob("*/run.json"))
    # direct callers such as tuning keep the guard
    with pytest.raises(ValueError, match="unknown bonding mode 'half'"):
        run_trial(_short(), params, trial=0)


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
    longer = _params(static_channel=5, duration_s=0.4)
    a = run_many(spec, _params(), tmp_path / "a")
    assert sorted(p.name for p in a.iterdir()) == [
        "run.json", "summary.jsonl", "trial_000.jsonl", "trial_001.jsonl"]
    d = run_many(spec, longer, tmp_path / "d")
    # both again, through one pool of two workers: every file keeps the
    # bytes of the one-worker run on its own
    e, f = run_batch([(spec, _params(), tmp_path / "e"),
                      (spec, longer, tmp_path / "f")], workers=2)
    for alone, batched in ((a, e), (d, f)):
        assert {p.name: p.read_bytes() for p in alone.iterdir()} == \
            {p.name: p.read_bytes() for p in batched.iterdir()}


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
    cfg = _config(tmp_path, _short())
    out = tmp_path / "runs"
    rc = cli.main(["run", "--config", cfg, "--algo", "none",
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
    rc = cli.main(["run", "--config", _config(tmp_path, _short()),
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
    traces = {}
    for workers in ("4", "1"):
        out = tmp_path / workers
        rc = cli.main(["run", "--config", _config(tmp_path, _short()),
                       "--algo", "none", "--channel", "2", "--trials", "2",
                       "--duration", "0.1", "--trace", "--workers", workers,
                       "--out", str(out)])
        assert rc == 0
        traces[workers] = [p.read_text() for p in
                           sorted((out / "static-ch2").glob("trace_*.log"))]
    assert " backoff ap1" in traces["4"][0]
    assert len(traces["4"]) == 2 and traces["4"] == traces["1"]


def test_cli_baseline_sweep_covers_all_allocations(tmp_path):
    out = tmp_path / "sweep"
    cfg = _config(tmp_path, _short("baseline-sweep"))
    rc = cli.main(["run", "--config", cfg, "--trials", "1",
                   "--duration", "0.1", "--out", str(out)])
    assert rc == 0
    for label in range(1, 8):
        assert (out / f"static-ch{label}" / "run.json").exists()


def test_cli_error_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for config in (tmp_path / "nope.json", bad):
        _rejected(tmp_path, capsys, "--config", str(config), "--algo", "none",
                  "--channel", "2")
    _rejected(tmp_path, capsys, "--scenario", "sp1", "--algo", "none",
              "--trials", "1")    # no channel label


@pytest.mark.parametrize("flags,message", [
    (["--trials", "0"], "trials must be at least 1"),
    (["--trials", "-1"], "trials must be at least 1"),
    (["--duration", "0"], "duration must be positive"),
    (["--alpha", "-1"], "alpha must be non-negative"),
    (["--alpha", "nan"], "alpha must be non-negative"),
    (["--workers", "0"], "workers must be at least 1"),
    (["--channel", "3"], "static channel needs algo=none"),
    (["--algo", "none", "--channel", "3", "--alpha", "5"],
     "alpha needs a learning algorithm"),
    (["--seed", "7"], "--seed applies to --scenario"),
], ids=["trials-0", "trials-neg", "duration-0", "alpha-neg", "alpha-nan",
        "workers-0", "channel-with-ucb", "alpha-with-none",
        "seed-with-config"])
def test_cli_rejects_bad_run_flags_before_run_json(tmp_path, capsys, flags,
                                                   message):
    assert message in _rejected(
        tmp_path, capsys, "--config", _config(tmp_path, _short()), "--algo", "ucb",
        "--arch", "sa", "--duration", "0.1", *flags)


def test_cli_partial_config_names_the_missing_key(tmp_path, capsys):
    cfg = _config(tmp_path, {"name": "x", "seed": 1, "bss": []})
    assert "'bonding'" in _rejected(tmp_path, capsys, "--config", cfg,
                                    "--algo", "none", "--channel", "2")


def _with_bss(d, index, **fields):
    d["bss"][index].update(fields)
    return d


@pytest.mark.parametrize("edit,message", [
    (lambda d: [d], "scenario config must be an object, got list"),
    (lambda d: _with_bss(d, 0, traffic={}), "BSS 1 traffic lacks key 'kind'"),
    (lambda d: _with_bss(d, 1, channels=3),
     "BSS 2 channels must be a list, got 3"),
    (lambda d: _with_bss(d, 1, primary="3"),
     "BSS 2 primary must be one of channels (3, 4), got '3'"),
], ids=["top-level-list", "traffic-without-kind", "channels-int",
        "primary-str"])
def test_cli_malformed_config_shapes_exit_1_naming_the_field(
        tmp_path, capsys, edit, message):
    d = edit(json.loads((CONFIGS / "sp1.json").read_text()))
    assert message in _rejected(tmp_path, capsys, "--config",
                                _config(tmp_path, d), "--algo", "none",
                                "--channel", "2")


def test_cli_interval_schedule_needs_three_legacy_bss(tmp_path, capsys):
    # the load schedule underloads three distinct legacy APs; mp1 has none
    spec = scenarios.build_scenario("mp1", seed=3)
    spec.interval_s = 0.25
    spec.burn_in_s = 0.1
    assert "3 legacy" in _rejected(
        tmp_path, capsys, "--config", _config(tmp_path, spec), "--algo", "ucb",
        "--arch", "sa", "--trials", "1", "--duration", "0.5")


def test_cli_duration_within_the_burn_in_fails_fast(tmp_path, capsys):
    # 0.1 s of sp2 under a 0.2 s burn-in used to report goodput 0.0 and an
    # interval window [0.2, 0.1] that ends before it starts
    spec = scenarios.build_scenario("sp2", seed=3)
    spec.interval_s = 0.25
    spec.burn_in_s = 0.2
    spec.duration_s = 1.0     # the config's own run fits the schedule
    assert "burn-in of 0.2 s" in _rejected(
        tmp_path, capsys, "--config", _config(tmp_path, spec), "--algo",
        "none", "--channel", "2", "--trials", "1", "--duration", "0.1")


def test_cli_duration_within_the_burn_in_fails_fast_without_a_schedule(
        tmp_path, capsys):
    # 0.1 s of sp1 under its 2 s burn-in used to report goodput 0.0 over an
    # empty window
    assert "burn-in of 2 s" in _rejected(
        tmp_path, capsys, "--scenario", "sp1", "--algo", "none", "--channel",
        "2", "--trials", "1", "--duration", "0.1")


def test_tuning_deployments_outlast_their_burn_in():
    for spec in tuning.deployment_grid(3):
        assert spec.burn_in_s < spec.duration_s
        spec.duration_ns(RunParams(algo="ucb", arch="sa").duration_s)


@pytest.mark.parametrize("burn_in_s", [0.25, 0.5])
def test_cli_burn_in_past_the_interval_fails_fast(tmp_path, capsys,
                                                  burn_in_s):
    # a 0.5 s burn-in under 0.25 s intervals used to give the first interval
    # the window [0.5, 0.25] and the second an empty one
    spec = scenarios.build_scenario("sp2", seed=3)
    spec.interval_s = 0.25
    spec.burn_in_s = burn_in_s
    err = _rejected(tmp_path, capsys, "--config", _config(tmp_path, spec),
                    "--algo", "none", "--channel", "2", "--trials", "1",
                    "--duration", "1")
    assert "burn_in_s" in err and "interval_s" in err


@pytest.mark.parametrize("field,value,message", [
    ("ap_pos", None, "BSS 1 ap_pos"),
    ("traffic", {"kind": "full_buffer", "rate": 3},
     "BSS 1 has unknown traffic key 'rate'"),
    ("traffic", 5, "BSS 1 traffic must be an object"),
    # BSS 1 takes BSS 2's id, or one outside 1 to MAX_BSS_ID
    ("bss_id", 2, "bss_id 2 names two BSSs"),
    ("bss_id", 0, "bss_id must be an int from 1"),
    ("bss_id", 2 ** 23, "bss_id must be an int from 1"),
    ("bss_id", "b", "bss_id must be an int from 1"),
    ("bss_id", True, "bss_id must be an int from 1"),
], ids=["ap_pos-None-ap_pos", "traffic-value1-'rate'", "traffic-5",
        "bss_id-taken", "bss_id-0", "bss_id-2**23", "bss_id-str",
        "bss_id-bool"])
def test_cli_malformed_bss_fields_are_named(tmp_path, capsys, field, value,
                                             message):
    d = scenarios.build_scenario("sp1", seed=3).to_dict()
    d["bss"][0][field] = value
    err = _rejected(tmp_path, capsys, "--config", _config(tmp_path, d),
                    "--algo", "none", "--channel", "2", "--trials", "1",
                    "--duration", "0.1")
    assert message in err


def test_cli_bad_traffic_names_its_bss(tmp_path, capsys):
    # sp2 has four 'random' legacy BSSs; the message must say which is wrong
    d = json.loads((CONFIGS / "sp2.json").read_text())
    (b,) = [b for b in d["bss"] if b["bss_id"] == 2]
    b["traffic"]["load"] = 1e4
    assert "BSS 2: traffic kind 'random' needs a load" in _rejected(
        tmp_path, capsys, "--config", _config(tmp_path, d), "--algo", "none",
        "--channel", "2", "--trials", "1", "--duration", "0.1")


def test_cli_out_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("WLANSIM_OUT", str(tmp_path / "envruns"))
    rc = cli.main(["run", "--config", _config(tmp_path, _short()),
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


def test_cli_tune_needs_a_candidate(tmp_path, capsys, monkeypatch):
    # rejected before the deployment grid is built or anything is written
    monkeypatch.setattr(tuning, "deployment_grid", None)
    out = tmp_path / "runs"
    assert cli.main(["tune", "--algo", "ucb", "--candidates", "0",
                     "--out", str(out)]) == 1
    assert not out.exists()
    assert "candidates must be at least 1" in capsys.readouterr().err


def test_duration_past_the_load_schedule_fails_fast(tmp_path, capsys):
    # four 0.5 s intervals cover 2 s; 2.6 s used to crash after simulating
    spec = scenarios.build_scenario("sp2", seed=5)
    spec.interval_s = 0.5
    spec.burn_in_s = 0.0
    spec.duration_s = 2.0     # the config's own run fits the schedule
    params = RunParams(algo="none", static_channel=2, trials=1,
                       duration_s=2.6)
    with pytest.raises(ValueError, match="load intervals"):
        run_many(spec, params, tmp_path / "r")
    assert not (tmp_path / "r").exists()
    with pytest.raises(ValueError):
        run_trial(spec, params, trial=0)

    assert "load intervals" in _rejected(
        tmp_path, capsys, "--config", _config(tmp_path, spec), "--algo",
        "none", "--channel", "2", "--trials", "1", "--duration", "2.6")
    params.duration_s = 2.0
    assert spec.duration_ns(params.duration_s) == 2 * SEC


# -- the end of a run --

def _run_kept(spec, params):
    """One trial; returns its BSSs, whose metrics and queues outlive it."""
    built = []

    class KeptBss(mac.Bss):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with mock.patch.object(mac, "Bss", KeptBss):
        run_trial(spec, params, 0)
    return built


def test_a_reception_counts_from_its_ampdu_end_up_to_the_run_end():
    # BSS 1 of sp1 has channel 2 to itself under static #2; the receptions
    # of its first 20 ms are the same in every shorter run
    spec = replace(_short(), burn_in_s=0.0)
    ref = _run_kept(spec, _params(duration_s=0.02))[0].metrics
    k = 5
    t = ref.sample_t[k]                  # A-MPDU end of the sixth exchange
    per_packet = PACKET_BYTES * 8
    before = sum(ref.sample_bits[:k]) // per_packet
    n = ref.sample_bits[k] // per_packet
    assert n > 0
    ba_end = t + SIFS + BA_AIRTIME
    # (run end, reception counts, packets acked out of the queue)
    for end, received, acked in [
            (t - 1, False, before),          # after the RTS end
            (t, True, before),               # at the A-MPDU end
            (ba_end - 1, True, before),      # before the BA end
            (ba_end, True, before + n)]:     # at the BA end
        assert spec.duration_ns(end / SEC) == end
        bss = _run_kept(spec, _params(duration_s=end / SEC))[0]
        m = bss.metrics
        delivered = before + n * received
        assert list(m.sample_t) == list(ref.sample_t[:k + received]), end
        assert list(m.delay_ns) == list(ref.delay_ns[:delivered]), end
        assert m.acked_bytes == delivered * PACKET_BYTES, end
        assert bss.queue.acked == acked, end


def test_a_trial_that_loses_a_packet_raises(monkeypatch):
    # every packet of the full-buffer sp1 APs is issued by a top-up
    fill = mac.TxQueue.fill

    def leaky(self, gen):
        return fill(self, gen) + 1    # one more packet issued than queued

    monkeypatch.setattr(mac.TxQueue, "fill", leaky)
    with pytest.raises(AssertionError,
                       match=r"^BSS 1 was issued \d+ packets and accounts "
                             r"for \d+$"):
        run_trial(_short(), _params(), 0)


def test_a_trial_validates_its_spec():
    # called directly, as tuning does, not only through run_many
    spec = replace(scenarios.build_scenario("sp2", 1), duration_s=0.2,
                   burn_in_s=0.05, interval_s=0.05)
    with pytest.raises(ValueError, match=r"^burn_in_s 0\.05 must be shorter "
                                         r"than interval_s 0\.05$"):
        run_trial(spec, _params(duration_s=0.2), 0)


@pytest.mark.parametrize("method", [
    dict(algo="none", static_channel=7, bonding="dcb"),
    dict(algo="ucb", arch="sa"),
    dict(algo="linucb", arch="ma")], ids=["static-dcb", "ucb-sa", "linucb-ma"])
def test_a_trial_leaves_no_reference_cycles(method):
    # sp2 covers rated sources and the load schedule's events
    spec = replace(scenarios.build_scenario("sp2", 1), duration_s=0.2,
                   burn_in_s=0.02, interval_s=0.05)
    spec.validate()
    params = RunParams(**method)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)     # what the collector finds, it keeps
    try:
        run_trial(spec, params, 0)
        gc.collect()
        left = {type(o).__name__ for o in gc.garbage
                if type(o).__module__.startswith("wlansim.")}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    # no Bss, Scheduler or SpectrumState, and nothing else of wlansim
    assert not left
