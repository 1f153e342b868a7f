"""Trial assembly, execution, and result serialization.

A trial wires one scheduler, one spectrum, and the scenario's BSSs together,
resolves the per-trial randomness (traffic kinds, loads, the SP2 interval
schedule), runs the clock out, and reduces the metrics to line-oriented JSON
records.  Trials are independent, so farming them over worker processes
yields byte-identical files in any execution order.
"""

import json
import math
import multiprocessing
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import agents, engine, mac, metrics, scenarios, traffic
from .engine import (BACKOFF_STREAM, INTERVAL, PER_STREAM, SEC,
                     TRAFFIC_STREAM, BlockRng, rng_stream)
from .phy import CHANNEL_GROUPS, GROUP_LABEL, SpectrumState

SCHEMA = 1


@dataclass
class RunParams:
    algo: str = "linucb"           # ucb | linucb | none
    arch: str = "ma"               # sa | ma
    alpha: float = None            # None -> tuned default for (algo, arch)
    bonding: str = None            # None -> scenario default
    static_channel: int = None     # group label, required when algo=none
    duration_s: float = None       # None -> scenario default
    trials: int = None
    decision_log: bool = False

    def validate(self):
        if self.algo not in ("ucb", "linucb", "none"):
            raise ValueError(f"unknown algorithm {self.algo!r}")
        if self.algo != "none" and self.arch not in (agents.SA, agents.MA):
            raise ValueError(f"unknown architecture {self.arch!r}")
        if self.algo == "none" and self.static_channel not in range(1, 8):
            raise ValueError("algo=none needs a static channel label 1..7")
        if self.algo != "none" and self.static_channel is not None:
            raise ValueError("a static channel needs algo=none")
        if self.algo == "none" and self.alpha is not None:
            raise ValueError("alpha needs a learning algorithm, not algo=none")
        if self.bonding not in (None, mac.SCB, mac.DCB):
            raise ValueError(f"unknown bonding mode {self.bonding!r}")
        if self.trials is not None and self.trials < 1:
            raise ValueError(f"trials must be at least 1, not {self.trials}")
        if self.duration_s is not None and not (
                math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError(
                f"duration must be positive and finite, not {self.duration_s}")
        if self.alpha is not None and not (
                math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(
                f"alpha must be non-negative and finite, not {self.alpha}")

    def method(self):
        if self.algo == "none":
            return f"static-ch{self.static_channel}"
        return f"{self.algo}-{self.arch}"

    def resolved_alpha(self):
        if self.alpha is not None:
            return self.alpha
        return agents.DEFAULT_ALPHA[(self.algo, self.arch)]


def _trial_assignments(spec, trial):
    """Resolve per-trial traffic randomness in a fixed draw order."""
    rng = rng_stream(spec.seed, trial, 0, TRAFFIC_STREAM)
    assign = {}
    for b in spec.bss:
        kind = b.traffic.kind
        if kind == "random":
            kind = scenarios.RANDOM_KINDS[
                int(rng.integers(0, len(scenarios.RANDOM_KINDS)))]
        if kind == "full_buffer":
            assign[b.bss_id] = {"kind": kind, "load": None, "rate_bps": None}
        else:
            load = b.traffic.load
            if isinstance(load, tuple):
                load = float(rng.uniform(*load))
            rate = load * traffic.max_theoretical_goodput(b.traffic.width_ref_mhz)
            assign[b.bss_id] = {"kind": kind, "load": load, "rate_bps": rate}
    schedule = None
    if spec.interval_s:
        legacy = spec.legacy_ids()
        picks = rng.choice(len(legacy), size=3, replace=False)
        first3 = [legacy[int(i)] for i in picks]
        under = [*first3, first3[int(rng.integers(0, 3))]]
        per_interval = []
        for k in range(scenarios.N_INTERVALS):
            loads, rates = {}, {}
            for b in spec.bss:
                if b.role != scenarios.LEGACY:
                    continue
                lo, hi = (0.10, 0.20) if b.bss_id == under[k] else (0.80, 0.90)
                f = float(rng.uniform(lo, hi))
                loads[b.bss_id] = f
                rates[b.bss_id] = f * traffic.max_theoretical_goodput(
                    b.traffic.width_ref_mhz)
            per_interval.append({"loads": loads, "rates": rates})
        channel_of = {b.bss_id: GROUP_LABEL[tuple(b.channels)]
                      for b in spec.bss if b.role == scenarios.LEGACY}
        schedule = {"underloaded": under,
                    "underloaded_channel": [channel_of[i] for i in under],
                    "intervals": per_interval}
        for bid, rate in per_interval[0]["rates"].items():
            assign[bid]["rate_bps"] = rate
            assign[bid]["load"] = per_interval[0]["loads"][bid]
    return assign, schedule


def run_trial(spec, params, trial, trace_file=None):
    """Execute one trial; returns the list of result records.

    trace_file, if given, receives one line per executed event.
    """
    params.validate()
    spec.validate()
    duration = spec.duration_ns(params.duration_s)
    burn_in = int(round(spec.burn_in_s * SEC))
    bonding = params.bonding or spec.bonding
    if trace_file is not None:
        def trace(t, kind, node):
            trace_file.write(f"{t} {kind} {node}\n")
    else:
        trace = None
    sim = engine.Scheduler(trace=trace)
    spectrum = SpectrumState()
    assign, schedule = _trial_assignments(spec, trial)

    bss_objs = {}
    for b in spec.bss:
        channels = primary = agent = None
        if b.role == scenarios.LEGACY:
            channels, primary = tuple(b.channels), b.primary
        elif params.algo == "none":
            channels = CHANNEL_GROUPS[params.static_channel - 1]
            primary = channels[0]
        else:
            agent = agents.make_controller(params.arch, params.algo,
                                           params.resolved_alpha())
        bss = mac.Bss(
            b.bss_id, sim, spectrum, metrics.BssMetrics(b.bss_id),
            rng_backoff=BlockRng(
                rng_stream(spec.seed, trial, b.bss_id, BACKOFF_STREAM)),
            rng_per=BlockRng(
                rng_stream(spec.seed, trial, b.bss_id, PER_STREAM)),
            mcs_by_width=scenarios.link_mcs_by_width(b), bonding=bonding,
            channels=channels, primary=primary, agent=agent)
        bss.traffic = traffic.make_source(
            assign[b.bss_id]["kind"], bss,
            rng_stream(spec.seed, trial, b.bss_id, TRAFFIC_STREAM),
            assign[b.bss_id]["rate_bps"])
        bss_objs[b.bss_id] = bss

    for b in spec.bss:
        bss_objs[b.bss_id].traffic.start(sim)
    if schedule is not None:
        iv = int(round(spec.interval_s * SEC))

        def apply_interval(k):
            for bid, rate in schedule["intervals"][k]["rates"].items():
                bss_objs[bid].traffic.set_rate(rate, sim)

        for k in range(1, scenarios.N_INTERVALS):
            sim.schedule(k * iv, INTERVAL, "schedule", apply_interval, k)

    sim.run_until(duration)
    sim.clear()
    for bss in bss_objs.values():
        bss.traffic.flush()    # arrivals held back up to the last instant
        # an exchange that straddles the end loses its reception
        bss.metrics.drop_receptions_after(duration)
        bss.check_conservation()
        bss.close()
    return _trial_records(spec, params, trial, bonding, duration, burn_in,
                          bss_objs, assign, schedule)


def _trial_records(spec, params, trial, bonding, duration, burn_in, bss_objs,
                   assign, schedule):
    records = []
    meta = {"record": "trial", "schema": SCHEMA, "scenario": spec.name,
            "method": params.method(), "trial": trial, "seed": spec.seed,
            "bonding": bonding, "duration_s": duration / SEC,
            "burn_in_s": burn_in / SEC,
            "traffic": {str(k): v for k, v in sorted(assign.items())}}
    if schedule is not None:
        meta["schedule"] = {
            "underloaded": schedule["underloaded"],
            "underloaded_channel": schedule["underloaded_channel"],
            "loads": [{str(k): v for k, v in sorted(iv["loads"].items())}
                      for iv in schedule["intervals"]]}
    records.append(meta)

    goodputs = {}
    for b in spec.bss:
        m = bss_objs[b.bss_id].metrics
        fields, freqs = _window_fields(m, burn_in, duration)
        goodputs[b.bss_id] = fields["goodput_mbps"]
        rec = {"record": "bss", "trial": trial, "bss": b.bss_id,
               "role": b.role, **fields,
               "acked_bytes": m.acked_bytes, "retry_drops": m.retry_drops,
               "overflow_drops": bss_objs[b.bss_id].queue.overflow_drops,
               "cycles": m.cycles}
        if freqs is not None:
            rec["selections"] = {agents.ACTION_KEYS[a]: f
                                 for a, f in freqs.items()}
            rec["pair_selections"] = metrics.pair_frequencies(freqs)
        records.append(rec)

    learning = set(spec.learning_ids())
    records.append({
        "record": "fairness", "trial": trial,
        "all": metrics.jain_fairness(goodputs.values()),
        "learning": metrics.jain_fairness(
            [goodputs[i] for i in sorted(learning)]) if learning else None})

    if schedule is not None:
        iv_ns = int(round(spec.interval_s * SEC))
        windows = metrics.interval_windows(duration, iv_ns, burn_in)
        for k, (w0, w1) in enumerate(windows):
            for b in spec.bss:
                fields, _ = _window_fields(bss_objs[b.bss_id].metrics, w0, w1)
                records.append({
                    "record": "interval", "trial": trial, "interval": k,
                    "bss": b.bss_id, "window_s": [w0 / SEC, w1 / SEC],
                    **fields,
                    "underloaded_bss": schedule["underloaded"][k],
                    "underloaded_channel": schedule["underloaded_channel"][k]})

    if params.decision_log:
        for b in spec.bss:
            m = bss_objs[b.bss_id].metrics
            if m.decision_arm:
                records.append({
                    "record": "decisions", "trial": trial, "bss": b.bss_id,
                    "rows": [[t, agents.ACTION_KEYS[a], r] for t, a, r in zip(
                        m.decision_t, m.decision_arm, m.decision_reward)]})
    return records


def _window_fields(m, w0, w1):
    """Goodput, delay and, for a learning AP, channel shares over [w0, w1],
    plus the per-arm shares behind them (None without decisions)."""
    fields = {"goodput_mbps": metrics.time_weighted_goodput(
                  m.sample_t, m.sample_bits, w0, w1),
              "delay_ms": metrics.delay_stats_ms(m.delay_ns, m.ack_times(),
                                               w0, w1)}
    freqs = None
    if m.decision_arm:
        freqs = metrics.selection_frequencies(m.decision_t, m.decision_arm,
                                              w0, w1)
        fields["channel_selections"] = metrics.channel_frequencies(freqs)
    return fields, freqs


def _dump_records(records):
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                   for r in records)


def _worker(job):
    """One (run, trial) job; with a trace path, it also logs the events."""
    _, run, spec_dict, params_dict, trial, trace_path = job
    spec = scenarios.ScenarioSpec.from_dict(spec_dict)
    with open(trace_path, "w") if trace_path else nullcontext() as fh:
        return run, trial, _dump_records(
            run_trial(spec, RunParams(**params_dict), trial, fh))


def validate_batch(runs, workers):
    """Raise ValueError unless run_batch can run every run with workers."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers}")
    for spec, params, _ in runs:
        params.validate()
        spec.validate()
        spec.duration_ns(params.duration_s)


def run_batch(runs, workers=1, trace=False):
    """Run every trial of every (spec, params, out_dir) in runs, validated
    first, and write each run.json, trial_NNN.jsonl (trace_NNN.log) and
    summary.jsonl; returns the run directories.  All trials, longest run
    first, share one pool of workers processes (this process at one
    worker); their bytes depend on neither."""
    validate_batch(runs, workers)
    outs, jobs = [Path(out_dir) for _, _, out_dir in runs], []
    for i, (spec, params, _) in enumerate(runs):
        head = {"scenario": spec.to_dict(), "params": asdict(params),
                "trials": params.trials or spec.trials, "schema": SCHEMA}
        outs[i].mkdir(parents=True, exist_ok=True)
        (outs[i] / "run.json").write_text(
            json.dumps(head, sort_keys=True, indent=2) + "\n")
        jobs += [(-spec.duration_ns(params.duration_s), i, head["scenario"],
                  head["params"], t,
                  outs[i] / f"trace_{t:03d}.log" if trace else None)
                 for t in range(head["trials"])]
    jobs.sort(key=lambda job: job[0])       # longest run first
    workers = min(workers, len(jobs))       # no idle processes
    # spawned, not forked: a fork copies locks that other threads hold
    pool = (multiprocessing.get_context("spawn").Pool(workers)
            if workers > 1 else nullcontext())
    with pool:
        for run, trial, text in (pool.imap_unordered(_worker, jobs)
                                 if workers > 1 else map(_worker, jobs)):
            (outs[run] / f"trial_{trial:03d}.jsonl").write_text(text)
    for out in outs:
        (out / "summary.jsonl").write_text(_dump_records(summarize(out)))
    return outs


def run_many(spec, params, out_dir, workers=1, trace=False):
    """run_batch of one run; returns its directory."""
    return run_batch([(spec, params, out_dir)], workers, trace)[0]


def load_records(run_dir):
    """All records of one run directory, trial files in order."""
    out = []
    for path in sorted(Path(run_dir).glob("trial_*.jsonl")):
        with open(path) as fh:
            out.extend(json.loads(line) for line in fh)
    return out


def summarize(run_dir):
    records = load_records(run_dir)
    by_bss = {}
    fairness_all, fairness_learning = [], []
    meta = None
    for r in records:
        if r["record"] == "trial" and meta is None:
            meta = r
        elif r["record"] == "bss":
            by_bss.setdefault(r["bss"], []).append(r)
        elif r["record"] == "fairness":
            if r["all"] is not None:
                fairness_all.append(r["all"])
            if r["learning"] is not None:
                fairness_learning.append(r["learning"])
    out = [{"record": "summary", "schema": SCHEMA,
            "scenario": meta["scenario"] if meta else None,
            "method": meta["method"] if meta else None,
            "trials": len(by_bss[min(by_bss)]) if by_bss else 0}]
    for bss_id in sorted(by_bss):
        rows = by_bss[bss_id]
        g = np.array([r["goodput_mbps"] for r in rows])
        delays = [r["delay_ms"]["mean"] for r in rows
                  if r["delay_ms"]["mean"] is not None]
        rec = {"record": "summary_bss", "bss": bss_id, "role": rows[0]["role"],
               "goodput_mean_mbps": float(g.mean()),
               "goodput_std_mbps": float(g.std()),
               "delay_mean_ms": float(np.mean(delays)) if delays else None,
               "retry_drops_mean": float(np.mean(
                   [r["retry_drops"] for r in rows]))}
        for field in ("channel_selections", "pair_selections"):
            sel = [r.get(field) for r in rows]
            if all(s is not None for s in sel):
                keys = sorted({k for s in sel for k in s})
                rec[f"{field}_mean"] = {
                    k: float(np.mean([s.get(k, 0.0) for s in sel]))
                    for k in keys}
        out.append(rec)
    if fairness_all:
        out.append({"record": "summary_fairness",
                    "all_mean": float(np.mean(fairness_all)),
                    "learning_mean": float(np.mean(fairness_learning))
                    if fairness_learning else None})
    return out
