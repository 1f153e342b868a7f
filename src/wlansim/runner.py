"""Trial assembly, execution, and result serialization.

A trial wires one scheduler, one spectrum, and the scenario's BSSs together,
resolves the per-trial randomness (traffic kinds, loads, the SP2 interval
schedule), runs the clock out, and reduces the metrics to line-oriented JSON
records.  Trials are independent, so farming them over worker processes
yields byte-identical files in any execution order.
"""

import json
import multiprocessing
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import agents, engine, mac, metrics, scenarios, traffic
from .engine import (BACKOFF_STREAM, INTERVAL, PER_STREAM, SEC,
                     TRAFFIC_STREAM, rng_stream)
from .phy import CHANNEL_GROUPS, GROUP_LABEL, SpectrumState

SCHEMA = 1

# the SP2 load schedule: three distinct underloaded APs, then one repeat
N_INTERVALS = 4


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
        for k in range(N_INTERVALS):
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


def _duration_ns(spec, params):
    """Effective trial duration; it must outlast the burn-in and, under a
    load schedule, may not outrun the schedule."""
    duration = int(round((params.duration_s or spec.duration_s) * SEC))
    if spec.interval_s:
        iv = int(round(spec.interval_s * SEC))
        if duration > N_INTERVALS * iv:
            raise ValueError(
                f"duration {duration / SEC:g} s exceeds the {N_INTERVALS} "
                f"load intervals of {spec.interval_s:g} s")
    if duration <= int(round(spec.burn_in_s * SEC)):
        # the goodput window would be empty, the first interval inverted
        raise ValueError(
            f"duration {duration / SEC:g} s does not outlast the "
            f"burn-in of {spec.burn_in_s:g} s")
    return duration


def run_trial(spec, params, trial, trace_file=None):
    """Execute one trial; returns the list of result records.

    trace_file, if given, receives one line per executed event.
    """
    duration = _duration_ns(spec, params)
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
        m = metrics.BssMetrics(b.bss_id)
        agent = None
        if b.role == scenarios.LEARNING and params.algo != "none":
            agent = agents.make_controller(params.arch, params.algo,
                                           params.resolved_alpha())
            config = mac.DcfConfig((1,), 1, mac.CW_MIN, bonding, beb=False)
        elif b.role == scenarios.LEARNING:
            group = CHANNEL_GROUPS[params.static_channel - 1]
            config = mac.DcfConfig(group, group[0], mac.CW_MIN, bonding,
                                   beb=True)
        else:
            config = mac.DcfConfig(tuple(b.channels), b.primary, mac.CW_MIN,
                                   bonding, beb=True)
        bss = mac.Bss(
            b.bss_id, sim, spectrum, config, m,
            rng_backoff=rng_stream(spec.seed, trial, b.bss_id, BACKOFF_STREAM),
            rng_per=rng_stream(spec.seed, trial, b.bss_id, PER_STREAM),
            mcs_by_width=scenarios.link_mcs_by_width(b), agent=agent)
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

        for k in range(1, N_INTERVALS):
            sim.schedule(k * iv, INTERVAL, "schedule", apply_interval, k)

    sim.run_until(duration)
    for bss in bss_objs.values():
        bss.traffic.flush()    # arrivals held back up to the last instant
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
            rec["selections"] = freqs
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
            if m.decisions:
                records.append({
                    "record": "decisions", "trial": trial, "bss": b.bss_id,
                    "rows": [[t, key, r] for t, key, r in m.decisions]})
    return records


def _window_fields(m, w0, w1):
    """Goodput, delay and, for a learning AP, channel shares over [w0, w1],
    plus the per-action shares behind them (None without decisions)."""
    fields = {"goodput_mbps": metrics.time_weighted_goodput(
                  m.sample_t, m.sample_bits, w0, w1),
              "delay_ms": metrics.delay_stats_ms(m.delay_ns, m.ack_times(),
                                               w0, w1)}
    freqs = None
    if m.decisions:
        freqs = metrics.selection_frequencies(m.decisions, w0, w1)
        fields["channel_selections"] = metrics.channel_frequencies(freqs)
    return fields, freqs


def _dump_records(records):
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                   for r in records)


def _worker(args):
    spec_dict, params_dict, trial = args
    spec = scenarios.ScenarioSpec.from_dict(spec_dict)
    params = RunParams(**params_dict)
    return trial, _dump_records(run_trial(spec, params, trial))


def run_many(spec, params, out_dir, workers=1, trace=False):
    """Run all trials, write one JSONL file per trial plus a summary."""
    params.validate()
    spec.validate()
    _duration_ns(spec, params)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_trials = params.trials or spec.trials
    (out / "run.json").write_text(json.dumps(
        {"scenario": spec.to_dict(), "params": asdict(params),
         "trials": n_trials, "schema": SCHEMA}, sort_keys=True, indent=2)
        + "\n")
    jobs = [(spec.to_dict(), asdict(params), t) for t in range(n_trials)]
    if trace:
        results = []
        for t in range(n_trials):
            with open(out / f"trace_{t:03d}.log", "w") as fh:
                recs = run_trial(spec, params, t, trace_file=fh)
            results.append((t, _dump_records(recs)))
    elif workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_worker, jobs)
    else:
        results = [_worker(j) for j in jobs]
    for trial, text in sorted(results):
        (out / f"trial_{trial:03d}.jsonl").write_text(text)
    summary = summarize(out)
    (out / "summary.jsonl").write_text(_dump_records(summary))
    return out


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
