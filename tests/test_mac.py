"""DCF machinery: bonding rules, BEB, queues, and exact cycle timing.

The timing tests script the backoff draws through StubRng, so every event
lands at a hand-computed nanosecond.
"""

from collections import deque
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (AgentStub, ListenerRecorder, StubRng, build_cell,
                      foreign_frame, offer_packets)
from wlansim import mac, scenarios
from wlansim.agents import Action, compute_reward, make_controller
from wlansim.engine import MS, US
from wlansim.mac import (ABORTED, CTS_TIMEOUT, CW_MAX, CW_MIN,
                         DCB, PACKET_BYTES, FAILURE, SCB, SUCCESS,
                         TxQueue, beb_next_cw, dcb_transmit_set,
                         legal_tx_sets, scb_defers)
from wlansim.phy import (BA_AIRTIME, BASIC_CHANNELS, CHANNEL_GROUPS,
                         CTS_AIRTIME, PIFS, SIFS, SLOT)
from wlansim.runner import RunParams, run_trial
from wlansim.traffic import FullBufferSource

# RTS + SIFS + CTS + SIFS + data + SIFS + BA for one 1500 B MPDU
EXCHANGE_20 = 310_400   # data airtime 98.4 us at MCS 11 / 20 MHz
EXCHANGE_40 = 283_200   # data airtime 71.2 us at MCS 11 / 40 MHz


# -- pure rules --

def test_timeouts_cover_response_plus_one_slot():
    assert CTS_TIMEOUT == SIFS + CTS_AIRTIME + SLOT


def test_legal_tx_sets_widest_first():
    assert legal_tx_sets((1, 2, 3, 4), 1) == [(1, 2, 3, 4), (1, 2), (1,)]
    assert legal_tx_sets((1, 2, 3, 4), 3) == [(1, 2, 3, 4), (3, 4), (3,)]
    assert legal_tx_sets((3, 4), 4) == [(3, 4), (4,)]
    assert legal_tx_sets((2,), 2) == [(2,)]


def _dcb_oracle(cop, p, busy):
    # independent enumeration: all legal idle subsets of cop containing p
    best = ()
    for r in (1, 2, 4):
        for sub in combinations(cop, r):
            if p in sub and sub in CHANNEL_GROUPS and not set(sub) & busy:
                if len(sub) > len(best):
                    best = sub
    return best


def test_dcb_known_cases():
    assert dcb_transmit_set((1, 2, 3, 4), 1, {3}) == (1, 2)
    assert dcb_transmit_set((1, 2, 3, 4), 1, {2}) == (1,)
    assert dcb_transmit_set((1, 2, 3, 4), 3, {1}) == (3, 4)


def test_dcb_exhaustive_against_oracle():
    for cop in CHANNEL_GROUPS:
        for p in cop:
            for r in range(5):
                for busy in map(set, combinations(BASIC_CHANNELS, r)):
                    if p in busy:
                        with pytest.raises(AssertionError):
                            dcb_transmit_set(cop, p, busy)
                    else:
                        got = dcb_transmit_set(cop, p, busy)
                        assert got == _dcb_oracle(cop, p, busy)
                        assert got in CHANNEL_GROUPS
                        assert p in got and set(got) <= set(cop)


def test_dcb_monotone_in_idle_channels():
    # clearing a busy flag never shrinks the transmit set
    for cop in CHANNEL_GROUPS:
        for p in cop:
            for r in range(5):
                for busy in map(set, combinations(BASIC_CHANNELS, r)):
                    if p in busy:
                        continue
                    wide = set(dcb_transmit_set(cop, p, busy))
                    for c in busy:
                        wider = set(dcb_transmit_set(cop, p, busy - {c}))
                        assert wide <= wider


def _probe(busy, probed=None):
    """A PIFS probe that finds the channels in busy not idle; it appends
    each (channel, now) it is asked about to probed."""
    def pifs_idle(c, now):
        if probed is not None:
            probed.append((c, now))
        return c not in busy
    return pifs_idle


def test_scb_defer_rule():
    assert not scb_defers((1, 2, 3, 4), 1, _probe(set()), 0)
    assert scb_defers((1, 2, 3, 4), 1, _probe({4}), 0)
    assert scb_defers((3, 4), 3, _probe({4}), 0)
    # a busy primary is not a defer reason here; backoff handles it
    assert not scb_defers((3, 4), 3, _probe({3}), 0)


def test_scb_singleton_never_defers():
    for r in range(5):
        for busy in map(set, combinations(BASIC_CHANNELS, r)):
            assert not scb_defers((2,), 2, _probe(busy), 0)


def test_scb_defer_stops_at_the_first_busy_secondary():
    probed = []
    assert scb_defers((1, 2, 3, 4), 2, _probe({3, 4}, probed), 7)
    # never the primary, never past the first busy secondary
    assert probed == [(1, 7), (3, 7)]


def test_beb_doubling_and_reset():
    assert beb_next_cw(16, success=False) == 32
    walk = [16]
    for _ in range(8):
        walk.append(beb_next_cw(walk[-1], success=False))
    assert walk == [16, 32, 64, 128, 256, 512, 1024, 1024, 1024]
    assert beb_next_cw(512, success=True) == CW_MIN
    assert beb_next_cw(CW_MAX, success=True) == CW_MIN


# -- TxQueue --

# packets below are told apart by their generation times

def test_queue_overflow_drops_at_tail():
    q = TxQueue(capacity=500)
    q.push(np.arange(600))
    assert len(q) == 500
    assert q.overflow_drops == 100
    assert q.snapshot_head()[0] == 0
    q.drop_head(499)
    assert list(q.snapshot_head()) == [499]


def test_snapshot_packs_43_full_packets():
    q = TxQueue()
    q.push(np.arange(100))
    snap = q.snapshot_head()
    assert len(snap) == 43
    assert len(snap) * PACKET_BYTES == 64_500
    assert len(q) == 100  # snapshot does not dequeue


def test_snapshot_single_packet():
    q = TxQueue()
    q.push([0])
    assert list(q.snapshot_head()) == [0]


def test_ack_head_keeps_unacked_in_order():
    q = TxQueue()
    q.push(np.arange(5))
    q.ack_head(np.array([False, True, False]))   # 0 and 2 acked
    assert list(q.snapshot_head()) == [1, 3, 4]
    q.drop_head(1)
    assert list(q.snapshot_head()) == [3, 4]
    assert q.utilization() == pytest.approx(2 / 500)


# random push / ack / drop / snapshot calls; ack flags the lost packets
queue_ops = st.lists(st.one_of(
    st.tuples(st.just("push"), st.integers(0, 60)),
    st.tuples(st.just("ack"), st.lists(st.booleans(), max_size=43)),
    st.tuples(st.just("drop"), st.integers(0, 43)),
    st.tuples(st.just("snapshot"), st.none())), max_size=80)


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 100), ops=queue_ops)
# overflow at capacity, then a push that compacts across the buffer's end
@example(capacity=3, ops=[("push", 5), ("drop", 2), ("push", 2),
                          ("ack", [True, False]), ("push", 2),
                          ("drop", 1), ("push", 3), ("snapshot", None)])
def test_queue_matches_a_deque_model(capacity, ops):
    q = TxQueue(capacity)
    model = deque()
    overflow = 0
    issued = 0
    for op, arg in ops:
        if op == "push":
            gens = np.arange(issued, issued + arg)
            issued += arg
            q.push(gens)
            room = capacity - len(model)
            model.extend(gens[:room].tolist())
            overflow += max(0, arg - room)
        elif op == "ack":
            lost = arg[:min(len(model), mac.AMPDU_PACKETS)]
            q.ack_head(np.array(lost, dtype=bool))
            head = [model.popleft() for _ in lost]
            model.extendleft(reversed([g for g, k in zip(head, lost) if k]))
        elif op == "drop":
            n = min(arg, len(model))
            q.drop_head(n)
            for _ in range(n):
                model.popleft()
        snap = q.snapshot_head()
        assert snap.dtype == np.int64
        assert list(snap) == list(model)[:mac.AMPDU_PACKETS]
        assert len(q) == len(model) <= capacity
        assert q.overflow_drops == overflow
    rest = []
    while len(q):
        rest.extend(q.snapshot_head().tolist())
        q.drop_head(len(q.snapshot_head()))
    assert rest == list(model)


# -- exact single-cycle timing --

def test_uncontended_cycle_timing():
    # backoff draw 5: DIFS + 45 us, then the RTS/CTS/data/BA ladder
    trace = []
    sim, _, bss = build_cell(
        draws=(5,), trace=lambda t, k, n: trace.append((t, k, n)))
    offer_packets(bss, 1)
    sim.run_until(1 * MS)
    # three events: the backoff, the RTS end and the BA end
    assert trace == [(79_000, "backoff", "ap1"), (131_000, "frame_end", "ap1"),
                     (389_400, "frame_end", "sta1")]
    outcome, start, end = bss.cycle_log[-1]
    assert outcome == SUCCESS
    assert start == 0
    assert end == 34_000 + 45_000 + EXCHANGE_20 == 389_400
    assert (end - start) / MS == pytest.approx(0.3894)
    assert list(bss.metrics.sample_t) == [305_400]   # data reception instant
    assert list(bss.metrics.sample_bits) == [12_000]
    assert list(bss.metrics.delay_ns) == [305_400]
    assert bss.metrics.acked_bytes == 1500
    assert bss.metrics.cycles == 1
    assert len(bss.queue) == 0
    assert bss.state == mac.IDLE


def test_learning_action_drives_the_cycle():
    agent = AgentStub(Action((3, 4), 4, 64))
    sim, _, bss = build_cell(agent=agent, draws=(60,))
    offer_packets(bss, 1)
    sim.run_until(2 * MS)
    end = 34_000 + 60 * SLOT + EXCHANGE_40
    assert bss.cycle_log[-1][2] == end == 857_200
    assert bss.width_set == (3, 4)
    assert agent.begun == 1
    assert agent.rewards == [pytest.approx(compute_reward(end / MS))]
    assert bss.metrics.decisions == [
        (0, "ch6:p4:cw64", pytest.approx(0.91428))]
    assert bss.cw == 64


def test_backoff_freezes_and_resumes_with_difs():
    # draw 10; a foreign frame lands mid-slot-2 and holds for 30 us
    sim, spectrum, bss = build_cell(draws=(10,))
    foreign_frame(sim, spectrum, (1,), 50_000, 80_000)
    offer_packets(bss, 1)
    sim.run_until(1 * MS)
    # one whole slot elapsed idle before the interruption, nine remain;
    # resume waits DIFS after the channel clears
    access = 80_000 + 34_000 + 9 * SLOT
    assert bss.cycle_log[-1][2] == access + EXCHANGE_20 == 505_400
    assert list(bss.metrics.sample_t) == [access + EXCHANGE_20 - BA_AIRTIME - SIFS]


def test_slot_edge_arrival_transmits_into_collision():
    # the backoff completes exactly when a foreign frame starts: that slot
    # ended idle, so the frame goes out and both get corrupted
    trace = []
    sim, spectrum, bss = build_cell(
        draws=(2, 3), trace=lambda t, k, n: trace.append((t, k, n)))
    foreign_frame(sim, spectrum, (1,), 34_000 + 2 * SLOT, 300_000)
    offer_packets(bss, 1)
    sim.run_until(1 * MS)
    # first attempt: RTS at 52 us, corrupted, CTS timeout at RTS end + 69 us
    assert (52_000 + 52_000 + CTS_TIMEOUT, "ack_timeout", "ap1") in trace
    # retry completes after the foreign frame clears
    access = 300_000 + 34_000 + 3 * SLOT
    assert bss.cycle_log[-1][2] == access + EXCHANGE_20 == 671_400
    assert bss.cycle_log[-1][0] == SUCCESS


def test_two_aps_same_slot_collide_then_recover():
    trace = []
    sim, spectrum, bss1 = build_cell(
        draws=(0, 2), trace=lambda t, k, n: trace.append((t, k, n)))
    _, _, bss2 = build_cell(sim=sim, spectrum=spectrum, bss_id=2,
                            draws=(0, 7))
    offer_packets(bss1, 1)
    offer_packets(bss2, 1)
    sim.run_until(2 * MS)
    timeouts = [e for e in trace if e[1] == "ack_timeout"]
    assert {e[2] for e in timeouts} == {"ap1", "ap2"}
    # both RTS frames collided at 34 us; timeouts fire together, then the
    # scripted draws separate the retries
    assert bss1.cycle_log[-1][2] == 483_400
    assert bss2.cycle_log[-1][2] == 872_800
    assert bss1.cycle_log[-1][0] == SUCCESS
    assert bss2.cycle_log[-1][0] == SUCCESS
    assert bss1.metrics.acked_bytes == 1500
    assert bss2.metrics.acked_bytes == 1500


def test_scb_defers_until_secondary_clears():
    sim, spectrum, bss = build_cell(channels=(3, 4), primary=3,
                                    draws=(3,), fill=4)
    spectrum.observe(99)    # the foreign sender's history holds BSS 1 alone
    foreign_frame(sim, spectrum, (4,), 0, 200_000)
    offer_packets(bss, 1)
    sim.run_until(1 * MS)
    # accesses at 61/97/133/169/205 us all defer (the last still inside
    # PIFS history); the 241 us access clears and bonds the full 40 MHz
    assert bss.width_set == (3, 4)
    assert bss.cycle_log[-1][2] == 241_000 + EXCHANGE_40 == 524_200
    own = spectrum.history[(4, 99)]
    assert min(s for s, _ in own) >= 200_000 + PIFS


def test_dcb_shrinks_to_primary_instead_of_deferring(monkeypatch):
    # the legal sets come from the table built at import, not per access
    monkeypatch.setattr(mac, "legal_tx_sets", None)
    sim, spectrum, bss = build_cell(channels=(3, 4), primary=3,
                                    bonding=DCB, draws=(3,))
    foreign_frame(sim, spectrum, (4,), 0, 200_000)
    offer_packets(bss, 1)
    sim.run_until(1 * MS)
    assert bss.width_set == (3,)
    assert bss.cycle_log[-1][2] == 61_000 + EXCHANGE_20 == 371_400
    assert bss.cycle_log[-1][0] == SUCCESS


# -- the medium is held through a successful exchange --

def test_contender_hears_one_busy_and_one_idle_edge_per_exchange():
    # AP 1 wins at slot 3; AP 2 (draw 5) has counted down 3 slots by then
    sim, spectrum, bss1 = build_cell(draws=(3,))
    _, _, bss2 = build_cell(sim=sim, spectrum=spectrum, bss_id=2,
                            draws=(5,))
    rec = ListenerRecorder()     # hears what AP 2 hears on the primary
    spectrum.subscribe(1, rec)
    offer_packets(bss1, 1)
    offer_packets(bss2, 1)
    rts = 34_000 + 3 * SLOT
    sim.run_until(rts + EXCHANGE_20)
    # no edge in the three SIFS gaps, and no slot counted in them either
    assert rec.events == [("busy", 1, 61_000), ("idle", 1, rts + EXCHANGE_20)]
    assert bss2.remaining == 2
    sim.run_until(2 * MS)
    assert bss2.cycle_log[-1][2] == (rts + EXCHANGE_20 + 34_000 + 2 * SLOT
                                     + EXCHANGE_20) == 733_800


def test_contention_begun_in_a_sifs_gap_waits_for_the_ba_end():
    # AP 1's RTS ends at 86 us; AP 2 gets a packet 4 us into the gap
    sim, spectrum, bss1 = build_cell(draws=(0,))
    _, _, bss2 = build_cell(sim=sim, spectrum=spectrum, bss_id=2,
                            draws=(4,))
    offer_packets(bss1, 1)
    sim.schedule(90_000, "timer", "test", offer_packets, bss2, 1, 90_000)
    sim.run_until(90_000)
    assert spectrum.deferral_busy(1) and spectrum.idle_since(1) is None
    assert bss2.pending is None
    ba_end = 34_000 + EXCHANGE_20
    sim.run_until(ba_end)
    assert bss2.slot_base == ba_end + 34_000
    sim.run_until(2 * MS)
    assert bss2.cycle_log[-1][2] == (ba_end + 34_000 + 4 * SLOT
                                     + EXCHANGE_20) == 724_800


def test_collided_rts_releases_the_channel_at_its_end():
    # both APs win slot 0, so both RTS frames go out at 34 us and collide
    sim, spectrum, bss1 = build_cell(draws=(0, 2))
    _, _, bss2 = build_cell(sim=sim, spectrum=spectrum, bss_id=2,
                            draws=(0, 7))
    rec = ListenerRecorder()
    spectrum.subscribe(1, rec)
    offer_packets(bss1, 1)
    offer_packets(bss2, 1)
    sim.run_until(90_000)
    assert rec.events == [("busy", 1, 34_000), ("idle", 1, 86_000)]
    assert not spectrum.held and spectrum.idle_since(1) == 86_000


# AP 1 wins slot 0: RTS 34-86 us, CTS 102-146 us, data 162-260.4 us and
# BA 276.4-344.4 us, with a SIFS gap after each of the first three
@pytest.mark.parametrize("start", [90_000, 110_000, 200_000, 300_000],
                         ids=["sifs-gap", "cts", "data", "ba"])
def test_foreign_frame_inside_a_won_exchange_raises(start):
    sim, spectrum, bss = build_cell(draws=(0,))
    foreign_frame(sim, spectrum, (1,), start, start + 8_000)
    offer_packets(bss, 1)
    with pytest.raises(AssertionError,
                       match=r"^BSS 99 .* held by the exchange of BSS 1$"):
        sim.run_until(1 * MS)
    assert {c: ex.bss for c, ex in spectrum.held.items()} == {1: 1}


# AP 1 wins slot 0: its RTS starts at 34 us and ends at 86 us, and its BA
# ends at 344.4 us
@pytest.mark.parametrize("at,flag", [(34_000, 0), (86_000, 1), (344_400, 1)],
                         ids=["rts-start", "rts-end", "ba-end"])
def test_feature_flags_at_a_boundary_do_not_depend_on_event_order(at, flag):
    # a reader at t sees the air as it stood just before t, whether it runs
    # before or after AP 1's event at t
    seen = {}
    for reader_first in (True, False):
        sim, spectrum, bss = build_cell(draws=(0,))
        spectrum.observe(1)
        spectrum.observe(2)

        def read(first=reader_first):
            now = sim.now()
            seen[first] = (spectrum.feature_busy_flags(2, now),
                           spectrum.feature_busy_flags(1, now),
                           (len(spectrum.active[1]), 1 in spectrum.held,
                            spectrum.last_busy_end[1]))

        if reader_first:
            sim.schedule(at, "timer", "reader", read)
        else:
            sim.schedule(at - 1, "timer", "test", sim.schedule, at, "timer",
                         "reader", read)
        offer_packets(bss, 1)
        sim.run_until(1 * MS)
        assert bss.cycle_log[-1][2] == 34_000 + EXCHANGE_20
    first, second = seen[True], seen[False]
    assert first[2] != second[2]      # the two readers saw different states
    assert first[:2] == second[:2] == ((flag, 0, 0, 0), (0, 0, 0, 0))


class _EventCheck:
    """Trace sink that runs check(bss, line) on every BSS before each event,
    and so after the one before it."""

    def __init__(self, built, check):
        self.built = built
        self.check = check
        self.checks = 0

    def write(self, line):
        for bss in self.built:
            self.check(bss, line)
        self.checks += 1


def _listens_on_its_primary_exactly_while_it_contends(bss, line):
    listening = [c for c, ls in bss.spectrum._listeners.items()
                 for listener in ls if listener is bss]
    expect = [bss.primary] if bss.state == mac.CONTEND else []
    assert listening == expect, (line, bss.bss_id, bss.state)


def _has_one_own_frame_or_exchange_at_most(bss, line):
    spectrum = bss.spectrum
    frames = {tx for c in BASIC_CHANNELS for tx in spectrum.active[c]
              if tx.bss == bss.bss_id}
    holds = {ex for ex in spectrum.held.values() if ex.bss == bss.bss_id}
    assert len(frames) + len(holds) <= 1, (line, bss.bss_id, frames, holds)
    if frames or holds:
        assert bss.state == mac.TXOP, (line, bss.bss_id, bss.state)


random_deployments = given(
    seed=st.integers(0, 2 ** 20), n_legacy=st.integers(1, 3),
    method=st.sampled_from([dict(algo="ucb", arch="sa"),
                            dict(algo="linucb", arch="ma"),
                            dict(algo="none", static_channel=7),
                            dict(algo="none", static_channel=7,
                                 bonding=DCB)]))


def _run_checked(seed, n_legacy, method, check):
    """Run a random small tuning deployment with check on every BSS before
    each event, and once more after the last, before the run closes the
    BSSs.  Returns the BSSs."""
    built = []
    sink = _EventCheck(built, check)

    class RecordingBss(mac.Bss):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

        def close(self):
            if self is built[0]:
                sink.write("end of run")
            super().close()

    spec = scenarios.build_deployment(seed, n_legacy, 0.2)
    with mock.patch.object(mac, "Bss", RecordingBss):
        run_trial(spec, RunParams(**method), 0, sink)
    assert sink.checks > 100
    return built


@settings(max_examples=12, deadline=None)
@random_deployments
def test_a_bss_listens_on_its_primary_exactly_while_it_contends(
        seed, n_legacy, method):
    built = _run_checked(seed, n_legacy, method,
                         _listens_on_its_primary_exactly_while_it_contends)
    # closing the run leaves no BSS on any listener list
    assert not any(built[0].spectrum._listeners.values())


@settings(max_examples=12, deadline=None)
@random_deployments
def test_no_bss_has_two_own_frames_on_the_air(seed, n_legacy, method):
    # nor a frame on the air while its exchange holds a channel
    _run_checked(seed, n_legacy, method,
                 _has_one_own_frame_or_exchange_at_most)


def test_retry_exhaustion_drops_the_frame():
    # every MPDU errors: eight attempts, then the head is dropped
    sim, _, bss = build_cell(per=1.0)
    offer_packets(bss, 1)
    sim.run_until(4 * MS)
    outcome, _, end = bss.cycle_log[-1]
    assert outcome == FAILURE
    assert end == 8 * (34_000 + EXCHANGE_20) == 2_755_200
    assert bss.metrics.retry_drops == 1
    assert bss.metrics.acked_bytes == 0
    assert len(bss.queue) == 0
    # BEB walked 16 -> ... -> 1024, then reset for the next fresh frame
    assert bss.cw == CW_MIN


def test_learning_cw_is_agent_owned_not_beb():
    agent = AgentStub(Action((1,), 1, 16))
    sim, _, bss = build_cell(agent=agent, per=1.0)
    offer_packets(bss, 1)
    sim.run_until(4 * MS)
    assert bss.cycle_log[-1][0] == FAILURE
    assert bss.cw == 16    # untouched across all eight failed attempts
    # the failed cycle still pays its duration-based reward
    assert agent.rewards == [pytest.approx(compute_reward(2.7552))]


def test_abort_while_contending():
    agent = AgentStub(Action((2,), 2, 16))
    sim, spectrum, bss = build_cell(agent=agent, channels=(2,),
                                    primary=2)
    foreign_frame(sim, spectrum, (2,), 0, None)   # busy forever
    offer_packets(bss, 1)
    sim.run_until(12 * MS)
    outcome, start, end = bss.cycle_log[-1]
    assert outcome == ABORTED
    assert end == 10 * MS
    assert (end - start) / MS == pytest.approx(10.0)
    assert agent.rewards[0] == 0.0
    assert len(bss.queue) == 1       # the frame stays queued
    assert agent.begun == 2          # the next cycle began immediately


def test_abort_mid_exchange_terminates_after_the_attempt():
    # a huge scripted backoff pushes the exchange across the 10 ms mark;
    # the attempt resolves (all MPDUs error) and the cycle then aborts
    agent = AgentStub(Action((1,), 1, 1024))
    sim, _, bss = build_cell(agent=agent, per=1.0, draws=(1100,))
    offer_packets(bss, 1)
    sim.run_until(12 * MS)
    assert bss.cycle_log[-1][0] == ABORTED
    assert bss.cycle_log[-1][2] == 34_000 + 1100 * SLOT + EXCHANGE_20 == 10_244_400
    assert agent.rewards[0] == 0.0
    assert len(bss.queue) == 1


# -- the STA counts each packet as delivered once --

DELIVERED, LOST = 0.9, 0.1    # per-MPDU draws against per=0.5


class ScriptedPer:
    """Error stream that hands out one scripted draw vector per A-MPDU."""

    def __init__(self, *vectors):
        self.vectors = [np.array(v) for v in vectors]

    def random(self, n):
        v = self.vectors.pop(0)
        assert len(v) == n
        return v


def _deliveries(m):
    """(reception time, generation time) of every recorded delivery."""
    out = []
    k = 0
    for t, bits in zip(m.sample_t, m.sample_bits):
        for d in m.delay_ns[k:k + bits // (PACKET_BYTES * 8)]:
            out.append((t, t - d))
        k += bits // (PACKET_BYTES * 8)
    assert k == len(m.delay_ns)
    return out


def test_partial_acks_then_retries_record_each_packet_once():
    sim, _, bss = build_cell(per=0.5)
    bss.rng_per = ScriptedPer(
        [DELIVERED, LOST, DELIVERED, LOST, LOST],   # acks 0 and 20
        [LOST, LOST, LOST],                         # acks nothing: retry
        [LOST, DELIVERED, LOST],                    # acks 30
        [DELIVERED, DELIVERED])                     # the rest, in order
    bss.on_arrival(bss.make_packets([0, 10, 20, 30, 40]))
    sim.run_until(5 * MS)
    t = list(bss.metrics.sample_t)
    assert len(t) == 4
    # the lost MPDUs stay at the head in their order: 10, 30, 40, then 10, 40
    assert _deliveries(bss.metrics) == [
        (t[0], 0), (t[0], 20), (t[2], 30), (t[3], 10), (t[3], 40)]
    assert list(bss.metrics.sample_bits) == [24_000, 0, 12_000, 24_000]
    assert bss.metrics.acked_bytes == 5 * PACKET_BYTES
    assert [o for o, _, _ in bss.cycle_log] == [SUCCESS] * 3
    assert bss.metrics.cycles == 3
    assert len(bss.queue) == 0


def test_full_buffer_keeps_ampdus_maximal():
    sim, _, bss = build_cell()
    bss.traffic = FullBufferSource(bss)
    bss.traffic.start(sim)
    sim.run_until(5 * MS)
    assert bss.metrics.cycles >= 2
    assert set(bss.metrics.sample_bits) == {43 * 1500 * 8}
    assert len(bss.queue) == 500     # refilled after every release


def test_full_buffer_queue_utilization_at_decisions():
    agent = AgentStub(Action((1,), 1, 16))
    sim, _, bss = build_cell(agent=agent)
    bss.traffic = FullBufferSource(bss)
    bss.traffic.start(sim)
    sim.run_until(5 * MS)
    assert agent.begun >= 3
    assert all(s.queue_util == 1.0 for s in agent.sensor_log)


@pytest.mark.parametrize("algo", ["ucb", "linucb"])
def test_sensor_view_only_for_policies_that_read_it(algo, monkeypatch):
    views = []

    def counting_view(bss, now):
        views.append(now)
        return sensor_view(bss, now)

    sensor_view = mac.SensorView
    monkeypatch.setattr(mac, "SensorView", counting_view)
    sim, _, bss = build_cell(agent=make_controller("sa", algo, 1.0))
    bss.traffic = FullBufferSource(bss)
    bss.traffic.start(sim)
    sim.run_until(5 * MS)
    assert bss.metrics.cycles >= 2
    assert len(views) == (bss.metrics.cycles if algo == "linucb" else 0)
