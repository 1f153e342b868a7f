"""Lazy Poisson and bursty arrivals against the eager reference source.

A busy AP's Poisson and bursty arrivals are not events; they reach its queue
when it next reads it.  These trials must still be byte-identical to ones
where every arrival is an event (tests/eager.py), also under gap scripts
that put arrivals on the same nanosecond as MAC events (the lattice and DCF
scripts) or as each other (the periodic script, under which APs that go
idle wake arrivals in front of events already queued).  A script replaces
traffic.arrival_gaps, the map from raw exponential draws to integer gaps
that both sources go through.  And every packet a lazily fed AP was given
must be accounted for at the end of a trial.
"""

from contextlib import ExitStack
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eager import eager_sources
from wlansim import mac, phy, scenarios, traffic
from wlansim.engine import MS, PLACEMENT_STREAM, rng_stream
from wlansim.runner import RunParams, _dump_records, run_trial

CASES = [
    ("sp2-poisson", 1, dict(algo="none", static_channel=7, bonding="dcb")),
    ("sp2", 2, dict(algo="ucb", arch="sa")),
    ("mp2", 1, dict(algo="linucb", arch="ma")),
    ("mp3", 2, dict(algo="ucb", arch="ma")),
    ("tuning-deployment", 3, dict(algo="ucb", arch="sa")),
    ("tuning-deployment", 5, dict(algo="linucb", arch="sa")),
]

LATTICE_NS = 200   # DCF times sit on this grid (SLOT and PIFS are odd x 200)
DCF_GAPS = (phy.SIFS, phy.SLOT, phy.DIFS, phy.PIFS, phy.RTS_AIRTIME,
            phy.CTS_AIRTIME, phy.BA_AIRTIME, mac.CTS_TIMEOUT, mac.BA_TIMEOUT,
            400, 3 * MS)


def lattice_gaps(draws, mean_ns):
    """Exponential gaps rounded onto the DCF time grid."""
    return LATTICE_NS * np.maximum(
        1, np.rint(mean_ns * draws / LATTICE_NS)).astype(np.int64)


def dcf_gaps(draws, mean_ns):
    """Gaps picked from the MAC's own intervals and airtimes."""
    pick = (draws * 1e6).astype(np.int64) % len(DCF_GAPS)
    return np.array(DCF_GAPS, dtype=np.int64)[pick]


def periodic_gaps(draws, mean_ns):
    """One arrival every millisecond at every source: the sources' arrivals
    coincide, so APs that go idle wake arrivals into a crowded nanosecond."""
    return np.full(len(draws), MS, dtype=np.int64)


GAPS = {"exponential": None, "lattice": lattice_gaps, "dcf": dcf_gaps,
        "periodic": periodic_gaps}


def _spec(name, seed):
    poisson = name == "sp2-poisson"
    spec = scenarios.build_scenario("sp2" if poisson else name, seed)
    if poisson:
        for b in spec.bss:
            if b.role == scenarios.LEGACY:
                b.traffic = replace(b.traffic, kind="poisson")
    return replace(spec, burn_in_s=0.1,
                   interval_s=0.125 if spec.interval_s else None)


def _trial_text(spec, params, gap, eager):
    with ExitStack() as stack:
        if gap is not None:
            stack.enter_context(
                mock.patch.object(traffic, "arrival_gaps", gap))
        if eager:
            stack.enter_context(eager_sources())
        return _dump_records(run_trial(spec, params, 0))


def _count_ties():
    """Patch PoissonSource.flush to count the lazy arrivals that fall on the
    nanosecond of the queue read that pushes them."""
    ties = []
    flush = traffic.PoissonSource.flush

    def counted(self):
        now = self._sim.now()
        make = self.bss.make_packets

        def made(gen_times):
            if gen_times[-1] == now:
                ties.append(now)
            return make(gen_times)

        self.bss.make_packets = made
        try:
            flush(self)
        finally:
            del self.bss.make_packets

    return ties, mock.patch.object(traffic.PoissonSource, "flush", counted)


def test_lazy_trials_match_the_eager_source():
    for mode, gap in GAPS.items():
        ties, patch = _count_ties()
        for name, seed, method in CASES:
            spec = _spec(name, seed)
            params = RunParams(duration_s=0.5, decision_log=True, **method)
            with patch:
                lazy = _trial_text(spec, params, gap, eager=False)
            eager = _trial_text(spec, params, gap, eager=True)
            assert lazy == eager, (mode, name, seed)
        if gap is not None:
            # the scripted gaps really do land on MAC event times
            assert ties, mode


# -- packet conservation --

class CountingQueue(mac.TxQueue):
    """A TxQueue that counts the packets ack_head takes out."""

    def __init__(self, capacity=mac.QUEUE_CAPACITY):
        super().__init__(capacity)
        self.acked_out = 0

    def ack_head(self, lost):
        before = len(self)
        super().ack_head(lost)
        self.acked_out += before - len(self)


class RecordingBss(mac.Bss):
    built = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        RecordingBss.built.append(self)


def _run_recorded(spec, params, eager):
    RecordingBss.built = []
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(mac, "TxQueue", CountingQueue))
        stack.enter_context(mock.patch.object(mac, "Bss", RecordingBss))
        if eager:
            stack.enter_context(eager_sources())
        run_trial(spec, params, 0)
    return RecordingBss.built


legacy_aps = st.lists(
    st.tuples(st.sampled_from(["poisson", "bursty", "vr", "full_buffer"]),
              st.floats(0.1, 0.9),
              st.integers(0, len(phy.CHANNEL_GROUPS) - 1)),
    min_size=1, max_size=3)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 20), legacy=legacy_aps,
       learner_kind=st.sampled_from(["full_buffer", "poisson", "bursty"]),
       channel=st.integers(1, 7),
       duration_s=st.sampled_from([0.1, 0.2, 0.3]))
def test_lazily_fed_aps_conserve_packets(seed, legacy, learner_kind, channel,
                                         duration_s):
    learner = scenarios.TrafficSpec(
        learner_kind, None if learner_kind == "full_buffer" else 0.5)
    layout = [scenarios.BssSpec(1, scenarios.LEARNING, learner)]
    for i, (kind, load, g) in enumerate(legacy):
        group = phy.CHANNEL_GROUPS[g]
        if kind == "full_buffer":
            load = None
        layout.append(scenarios.BssSpec(
            2 + i, scenarios.LEGACY,
            scenarios.TrafficSpec(kind, load, 20 * len(group)),
            channels=group, primary=group[0]))
    spec = scenarios.ScenarioSpec("conservation", seed, layout,
                                  duration_s=duration_s, burn_in_s=0.0)
    positions = scenarios.draw_positions(
        rng_stream(seed, 0, 0, PLACEMENT_STREAM), len(layout))
    for b, (ap, sta) in zip(layout, positions):
        b.ap_pos, b.sta_pos = ap, sta
    spec.validate()
    params = RunParams(algo="none", static_channel=channel)

    lazy = _run_recorded(spec, params, eager=False)
    eager = _run_recorded(spec, params, eager=True)
    for bss, ref in zip(lazy, eager):
        q = bss.queue
        assert len(q) <= q.capacity
        # every packet make_packets issued is queued, dropped or acked
        assert bss.issued == (len(q) + q.overflow_drops
                              + bss.metrics.retry_drops + q.acked_out)
        # lost, doubled or forgotten arrivals change the issued count
        assert bss.issued == ref.issued, bss.bss_id
