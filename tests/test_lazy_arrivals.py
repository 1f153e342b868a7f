"""Lazy Poisson, bursty and VR arrivals against the eager reference sources.

A busy AP's arrivals are not events; they reach its queue when it next reads
it.  These trials must still be byte-identical to ones where every arrival
is an event (tests/eager.py), also under gap scripts that put arrivals on
the same nanosecond as MAC events (the lattice and DCF scripts) or as each
other (the periodic script, under which APs that go idle wake arrivals in
front of events already queued).  A script replaces traffic.arrival_gaps,
the map from raw exponential draws to integer gaps that both Poisson
sources go through.  VR frames keep their own lattice: with every sp2
legacy AP on VR, the four sources' held and woken arrivals tie at every
frame.  Beyond the bytes, both trials must run the same non-arrival events
in the same order: the trial records barely depend on the order of two
events at one nanosecond, the event trace does.  They must also make each
AP the same packets in the same order: the records barely show a batch
size moved between two frames that one read pushes.  And every packet a
lazily fed AP was given must be accounted for at the end of a trial.
"""

import io
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
    ("sp2-vr", 1, dict(algo="none", static_channel=7, bonding="dcb")),
    ("sp2", 2, dict(algo="ucb", arch="sa")),
    ("mp2", 1, dict(algo="linucb", arch="ma")),
    ("mp3", 2, dict(algo="ucb", arch="ma")),
    ("tuning-deployment", 3, dict(algo="ucb", arch="sa")),
    ("tuning-deployment", 5, dict(algo="linucb", arch="sa")),
]

LATTICE_NS = 200   # DCF times sit on this grid (SLOT and PIFS are odd x 200)
DCF_GAPS = (phy.SIFS, phy.SLOT, phy.DIFS, phy.PIFS, phy.RTS_AIRTIME,
            phy.CTS_AIRTIME, phy.BA_AIRTIME, mac.CTS_TIMEOUT,
            phy.SIFS + phy.BA_AIRTIME + phy.SLOT, 400, 3 * MS)


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


def tied_gaps(draws, mean_ns):
    """One arrival every half millisecond at every source: each AP drains
    its queue in between, so tied arrivals start cycles together, and when
    their backoffs tie again the arrival order decides which fires first."""
    return np.full(len(draws), MS // 2, dtype=np.int64)


GAPS = {"exponential": None, "lattice": lattice_gaps, "dcf": dcf_gaps,
        "periodic": periodic_gaps, "tied": tied_gaps}


def _spec(name, seed):
    """A catalog scenario; "sp2-<kind>" pins every sp2 legacy AP to kind."""
    kind = name[len("sp2-"):] if name.startswith("sp2-") else None
    spec = scenarios.build_scenario("sp2" if kind else name, seed)
    if kind:
        for b in spec.bss:
            if b.role == scenarios.LEGACY:
                b.traffic = replace(b.traffic, kind=kind)
    return replace(spec, duration_s=0.5, burn_in_s=0.1,
                   interval_s=0.125 if spec.interval_s else None)


def _trial_output(spec, params, gap, eager):
    """The trial's records; its event trace without the arrivals, which
    only the eager source runs as events; and, for each AP, the generation
    times of the packets made for it, in the order they were made."""
    trace = io.StringIO()
    made = {}
    make = mac.Bss.make_packets

    def recorded(bss, gen_times):
        packets = make(bss, gen_times)
        made.setdefault(bss.bss_id, []).extend(packets.tolist())
        return packets

    with ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(mac.Bss, "make_packets", recorded))
        if gap is not None:
            stack.enter_context(
                mock.patch.object(traffic, "arrival_gaps", gap))
        if eager:
            stack.enter_context(eager_sources())
        text = _dump_records(run_trial(spec, params, 0, trace))
    events = [line for line in trace.getvalue().splitlines()
              if line.split()[1] != "arrival"]
    return text, events, made


def _count_ties():
    """Patch _RatedSource.flush to count the lazy arrivals that fall on the
    nanosecond of the queue read that pushes them."""
    ties = []
    flush = traffic._RatedSource.flush

    def counted(self):
        now = self._sim.now()
        make = self.bss.make_packets

        def made(gen_times):
            if len(gen_times) and gen_times[-1] == now:
                ties.append(now)
            return make(gen_times)

        self.bss.make_packets = made
        try:
            flush(self)
        finally:
            del self.bss.make_packets

    return ties, mock.patch.object(traffic._RatedSource, "flush", counted)


def test_lazy_trials_match_the_eager_source():
    for mode, gap in GAPS.items():
        ties, patch = _count_ties()
        for name, seed, method in CASES:
            spec = _spec(name, seed)
            params = RunParams(duration_s=0.5, decision_log=True, **method)
            with patch:
                lazy = _trial_output(spec, params, gap, eager=False)
            eager = _trial_output(spec, params, gap, eager=True)
            # records, non-arrival events, packets made
            for got, want in zip(lazy, eager):
                assert got == want, (mode, name, seed)
        if gap is not None:
            # the scripted gaps really do land on MAC event times
            assert ties, mode


# -- packet conservation --

class RecordingBss(mac.Bss):
    built = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        RecordingBss.built.append(self)


def _run_recorded(spec, params, eager):
    RecordingBss.built = []
    with ExitStack() as stack:
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
                              + bss.metrics.retry_drops + q.acked)
        # lost, doubled or forgotten arrivals change the issued count
        assert bss.issued == ref.issued, bss.bss_id
