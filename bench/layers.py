"""Per-layer tracing by wrapping wlansim's functions from outside.

``Tracer.install`` replaces every function and method that a wlansim module
defines with a wrapper that opens a span for that module's layer, and puts the
originals back on ``uninstall``.  Spans nest on one stack; a span's self time
is its duration minus the durations of the spans it directly encloses, so the
self times of all spans opened inside ``run_many`` add up to the wall time of
that call, less the wrappers' own cost outside any span (the remainder).

Aggregates live in memory, one ``[calls, inclusive_s, self_s]`` triple per
wrapped name; ``layer_metrics`` turns them into the benchmark's per-layer
metrics.  The wrappers read program state but never change it, so a traced
trial writes the same bytes as an untraced one; the benchmark checks this.
"""

import importlib
import time

LAYERS = ("engine", "mac", "phy", "agents", "traffic", "metrics", "runner",
          "scenarios")

# accessors too small to time: their cost stays with the caller
SKIP = {"engine.Scheduler.now", "engine.Event.__init__"}

QUEUE_METHODS = ("push", "snapshot_head", "ack_head", "drop_head",
                 "utilization")
SPECTRUM_METHODS = ("add", "remove", "pifs_idle", "deferral_busy",
                    "idle_since")
REDUCERS = ("time_weighted_goodput", "delay_stats_ms", "jain_fairness",
            "selection_frequencies", "channel_frequencies", "pair_frequencies",
            "interval_windows")
CONTROLLERS = ("SingleAgentController", "MultiAgentController")


class Tracer:
    def __init__(self):
        self.stats = {}          # wrapped name -> [calls, inclusive_s, self_s]
        self.counts = {"events": 0, "packets": 0, "spans_seen": 0}
        self._stack = [0.0]      # child time of each open span; [0] is the root
        self._saved = []         # (owner, attribute, original) to restore
        self._hooks = self._make_hooks()

    # -- wrapping --

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        before, after = self._hooks.get(name, (None, None))

        def span(*args, **kwargs):
            if before is not None:
                before(args)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - stack.pop()
                stack[-1] += dt
            if after is not None:
                after(args, result)
            return result

        return span

    def _make_hooks(self):
        """Counters read at three boundaries: name -> (before, after)."""
        counts = self.counts

        def events(args, executed):
            counts["events"] += executed

        def packets(args, made):
            # packets made for a BSS fed by an arrival-driven source
            if getattr(args[0].traffic, "kind", "full_buffer") != "full_buffer":
                counts["packets"] += len(made)

        def spans_seen(args):
            state = args[0]
            counts["spans_seen"] += (
                sum(len(h) for h in state.history.values())
                + sum(len(a) for a in state.active.values()))

        return {"engine.Scheduler.run_until": (None, events),
                "mac.Bss.make_packets": (None, packets),
                "phy.SpectrumState.occupancy": (spans_seen, None)}

    def install(self):
        """Wrap every function and method the wlansim modules define."""
        modules = {layer: importlib.import_module(f"wlansim.{layer}")
                   for layer in LAYERS}
        wrapped = {}             # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    for mattr, raw in list(vars(obj).items()):
                        self._wrap_method(f"{layer}.{obj.__name__}.{mattr}",
                                          obj, mattr, raw)
                elif callable(obj) and f"{layer}.{attr}" not in SKIP:
                    w = self._wrap(f"{layer}.{attr}", obj)
                    wrapped[id(obj)] = w
                    self._set(mod, attr, w)
        # names imported with "from .x import f" still point at the original
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and vars(mod)[attr] is obj:
                    self._set(mod, attr, wrapped[id(obj)])

    def _wrap_method(self, name, cls, attr, raw):
        if name in SKIP or (attr.startswith("__") and attr != "__init__"):
            return
        if isinstance(raw, (classmethod, staticmethod)):
            self._set(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
        elif callable(raw) and not isinstance(raw, type):
            self._set(cls, attr, self._wrap(name, raw))

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reading --

    def get(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))

    def self_s(self, layer):
        return sum(s[2] for n, s in self.stats.items()
                   if n.split(".", 1)[0] == layer)

    def reset(self):
        for s in self.stats.values():
            s[:] = [0, 0.0, 0.0]
        for k in self.counts:
            self.counts[k] = 0


def _ratio(num, den):
    return num / den if den else 0.0


UNITS = {
    "engine.events": "count", "engine.scheduled": "count",
    "engine.cancel_ratio": "ratio",
    "traffic.arrivals": "count", "traffic.packets": "count",
    "traffic.packets_per_arrival": "ratio",
    "mac.cycles": "count", "mac.queue_s": "s",
    "phy.occupancy_calls": "count", "phy.occupancy_s": "s",
    "phy.spans_per_call": "count", "phy.spectrum_s": "s",
    "agents.decisions": "count", "agents.begin_s": "s",
    "agents.complete_s": "s", "agents.sensor_views": "count",
    "agents.contexts_built": "count", "agents.context_use_ratio": "ratio",
    "metrics.record_calls": "count", "metrics.reduce_s": "s",
    "runner.assemble_s": "s", "runner.bytes_written": "B",
    "scenarios.build_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.run_many_s": "s", "trace.remainder_s": "s",
    "trace.overhead": "ratio",
}


def layer_metrics(tracer, run_many_s, build_s, cycles, bytes_written):
    """Per-layer metrics of one traced trial, keyed as in UNITS.

    run_many_s is the traced call's wall time; build_s the wrapped
    build_scenario time, taken before run_many; cycles and bytes_written are
    read from the run directory afterwards.  trace.overhead needs an untraced
    trial and is left to the caller.
    """
    g = tracer.get
    counts = tracer.counts
    scheduled = g("engine.Scheduler.schedule")[0]
    arrivals = g("traffic._RatedSource._arrive")[0]
    occ_calls, occ_s, _ = g("phy.SpectrumState.occupancy")
    views = g("mac.SensorView.__init__")[0]
    contexts = g("agents.build_context")[0]
    self_s = {f"{layer}.self_s": tracer.self_s(layer) for layer in LAYERS}
    return {
        "engine.events": counts["events"],
        "engine.scheduled": scheduled,
        "engine.cancel_ratio": _ratio(g("engine.Scheduler.cancel")[0],
                                      scheduled),
        "traffic.arrivals": arrivals,
        "traffic.packets": counts["packets"],
        "traffic.packets_per_arrival": _ratio(counts["packets"], arrivals),
        "mac.cycles": cycles,
        "mac.queue_s": sum(g(f"mac.TxQueue.{q}")[1] for q in QUEUE_METHODS),
        "phy.occupancy_calls": occ_calls,
        "phy.occupancy_s": occ_s,
        "phy.spans_per_call": _ratio(counts["spans_seen"], occ_calls),
        "phy.spectrum_s": sum(g(f"phy.SpectrumState.{q}")[2]
                              for q in SPECTRUM_METHODS),
        "agents.decisions": sum(g(f"agents.{c}.begin_cycle")[0]
                                for c in CONTROLLERS),
        "agents.begin_s": sum(g(f"agents.{c}.begin_cycle")[1]
                              for c in CONTROLLERS),
        "agents.complete_s": sum(g(f"agents.{c}.complete_cycle")[1]
                                 for c in CONTROLLERS),
        "agents.sensor_views": views,
        "agents.contexts_built": contexts,
        "agents.context_use_ratio": _ratio(contexts, views),
        "metrics.record_calls": (
            g("metrics.BssMetrics.record_delivery")[0]
            + g("metrics.BssMetrics.record_data_reception")[0]),
        "metrics.reduce_s": sum(g(f"metrics.{r}")[1] for r in REDUCERS),
        "runner.assemble_s": (g("runner.run_trial")[1]
                              - g("engine.Scheduler.run_until")[1]),
        "runner.bytes_written": bytes_written,
        "scenarios.build_s": build_s,
        **self_s,
        "trace.run_many_s": run_many_s,
        "trace.remainder_s": run_many_s - sum(self_s.values()),
    }
