"""Per-BSS DCF state machines.

One transmission cycle, which is also one learning round, runs:

    DIFS + backoff -> PIFS gate on secondaries (SCB defer / DCB shrink)
    -> RTS .. SIFS .. CTS .. SIFS .. A-MPDU .. SIFS .. BlockACK

Missing or corrupted responses surface as timeouts; retries re-enter
contention carrying the same A-MPDU snapshot, up to the retry limit.
Learning APs additionally force-terminate a cycle that has not finished
within D_max and report the elapsed duration to their agent.
"""

from collections import deque
from dataclasses import dataclass
from itertools import islice

from . import agents, engine
from .engine import MS
from .phy import (BA, BA_AIRTIME, CHANNEL_GROUPS, CTS, CTS_AIRTIME, DATA, DIFS,
                  MAX_AMPDU_BYTES, PIFS, RTS, RTS_AIRTIME, SIFS, SLOT,
                  Transmission, frame_airtime)

CW_MIN = 16
CW_MAX = 1024
RETRY_LIMIT = 7
QUEUE_CAPACITY = 500
D_MAX_NS = 10 * MS

# every MPDU carries one fixed-size packet; an A-MPDU holds up to 43 of them
PACKET_BYTES = 1500
AMPDU_PACKETS = MAX_AMPDU_BYTES // PACKET_BYTES

SCB = "scb"
DCB = "dcb"

IDLE = "idle"
CONTEND = "contend"
TXOP = "txop"

SUCCESS = "success"
FAILURE = "failure"
ABORTED = "aborted"

# a response, if it comes at all, lands one slot before its timeout
CTS_TIMEOUT = SIFS + CTS_AIRTIME + SLOT
BA_TIMEOUT = SIFS + BA_AIRTIME + SLOT


@dataclass
class DcfConfig:
    channels: tuple
    primary: int
    cw: int = CW_MIN
    bonding: str = SCB
    beb: bool = True

    def validate(self):
        if tuple(self.channels) not in CHANNEL_GROUPS:
            raise ValueError(f"illegal channel group {self.channels}")
        if self.primary not in self.channels:
            raise ValueError(f"primary {self.primary} outside {self.channels}")
        if self.cw not in agents.CW_VALUES:
            raise ValueError(f"cw {self.cw} not a power of two in [16, 1024]")
        if self.bonding not in (SCB, DCB):
            raise ValueError(f"unknown bonding mode {self.bonding!r}")


@dataclass
class CycleRecord:
    start: int
    end: int
    outcome: str

    @property
    def duration_ms(self):
        return (self.end - self.start) / MS


def legal_tx_sets(channels, primary):
    """Legal bonded subsets of channels containing primary, widest first."""
    members = set(channels)
    out = [g for g in CHANNEL_GROUPS if primary in g and set(g) <= members]
    out.sort(key=len, reverse=True)
    return out


def dcb_transmit_set(channels, primary, busy):
    """Widest legal group whose members are all idle; never empty, the
    primary singleton always qualifies once backoff is won."""
    busy = set(busy)
    for g in legal_tx_sets(channels, primary):
        if not (set(g) & busy):
            return g
    raise AssertionError("primary busy after winning backoff")


def scb_defers(channels, primary, busy):
    return any(c != primary and c in busy for c in channels)


def beb_next_cw(cw, success):
    return CW_MIN if success else min(2 * cw, CW_MAX)


class TxQueue:
    """Bounded FIFO of (packet id, generation ns) pairs."""

    def __init__(self, capacity=QUEUE_CAPACITY):
        self.capacity = capacity
        self.items = deque()
        self.overflow_drops = 0

    def __len__(self):
        return len(self.items)

    def utilization(self):
        return len(self.items) / self.capacity

    def push(self, packets):
        room = self.capacity - len(self.items)
        if room >= len(packets):
            self.items.extend(packets)
        else:
            if room > 0:
                self.items.extend(packets[:room])
            self.overflow_drops += len(packets) - max(room, 0)

    def snapshot_head(self):
        """FIFO prefix of at most one A-MPDU; packets stay queued."""
        return list(islice(self.items, AMPDU_PACKETS))

    def ack_head(self, n_head, acked_pids):
        """Drop the acked subset of the first n_head packets, keep the rest."""
        head = [self.items.popleft() for _ in range(n_head)]
        kept = [p for p in head if p[0] not in acked_pids]
        self.items.extendleft(reversed(kept))

    def drop_head(self, n):
        for _ in range(n):
            self.items.popleft()


class Bss:
    """One AP-STA pair: queue, DCF machine, optional learning agent.

    The AP drives everything; the STA only answers RTS with CTS and data
    with a BlockACK, so both ends live in this one object.
    """

    def __init__(self, bss_id, sim, spectrum, config, metrics, rng_backoff,
                 rng_per, mcs_by_width, agent=None, per=0.1):
        config.validate()
        self.bss_id = bss_id
        self.sim = sim
        self.spectrum = spectrum
        self.metrics = metrics
        self.rng_backoff = rng_backoff
        self.rng_per = rng_per
        self.mcs_by_width = mcs_by_width
        self.agent = agent
        self.per = per
        self.ap_name = f"ap{bss_id}"
        self.sta_name = f"sta{bss_id}"

        self.bonding = config.bonding
        self.beb = config.beb
        self.channels = tuple(config.channels)
        self.primary = config.primary
        self.cw = config.cw

        self.queue = TxQueue()
        self.traffic = None      # attached by the runner
        self._next_pid = 0

        self.state = IDLE
        self.snapshot = None
        self.width_set = None
        self.cycle_start = 0
        self.retries = 0
        self.remaining = 0
        self.slot_base = 0
        self.frozen = False
        self.pending = None      # armed backoff-completion event
        self.timeout_ev = None
        self.abort_ev = None
        self.abort_pending = False
        self._action_key = ""
        self._sta_seen = set()   # delivered but not yet AP-acked packet ids
        self._airtime_cache = {}

    # -- traffic entry points --

    def make_packets(self, gen_times):
        """One fresh packet per generation time."""
        first = self._next_pid
        self._next_pid += len(gen_times)
        return list(zip(range(first, self._next_pid), gen_times))

    def on_arrival(self, packets):
        self.queue.push(packets)
        if self.state == IDLE:
            self.start_cycle()

    # -- cycle control --

    def start_cycle(self):
        if self.state != IDLE or not self.queue.items:
            return
        now = self.sim.now()
        if self.agent is not None:
            action = self.agent.begin_cycle(
                SensorView(self, now) if self.agent.needs_context else None)
            self.channels = action.channels
            self.primary = action.primary
            self.cw = action.cw
            self._action_key = action.key()
            self.abort_ev = self.sim.schedule(
                now + D_MAX_NS, engine.ABORT, self.ap_name, self._abort)
        self.cycle_start = now
        self.retries = 0
        self.abort_pending = False
        self.snapshot = self.queue.snapshot_head()
        self.metrics.cycles += 1
        self.state = CONTEND
        self._begin_contention(fresh=True)

    def _begin_contention(self, fresh):
        if fresh:
            self.remaining = int(self.rng_backoff.integers(0, self.cw))
        self.spectrum.subscribe(self.primary, self)
        if self.spectrum.deferral_busy(self.primary):
            self.frozen = True
            self.pending = None
        else:
            self.frozen = False
            idle0 = self.spectrum.idle_since(self.primary)
            self._arm_backoff(max(self.sim.now(), idle0 + DIFS))

    def _arm_backoff(self, slot_base):
        self.slot_base = slot_base
        self.pending = self.sim.schedule(
            slot_base + self.remaining * SLOT, engine.BACKOFF, self.ap_name,
            self._access)

    # spectrum listener callbacks, delivered only while subscribed

    def primary_busy(self, channel, t):
        if self.pending is not None:
            if self.pending.fire_at > t:
                if t > self.slot_base:
                    consumed = min((t - self.slot_base) // SLOT, self.remaining)
                    self.remaining -= consumed
                self.sim.cancel(self.pending)
                self.pending = None
            # a completion at exactly t stands: that slot ended idle, the
            # same-instant start is not yet sensible, so we transmit into it
        self.frozen = True

    def primary_idle(self, channel, t):
        if self.frozen:
            self.frozen = False
            self._arm_backoff(t + DIFS)

    def _access(self):
        self.pending = None
        now = self.sim.now()
        self.spectrum.unsubscribe(self.primary, self)
        busy = {c for c in self.channels
                if c != self.primary and not self.spectrum.pifs_idle(c, now)}
        if self.bonding == SCB:
            if scb_defers(self.channels, self.primary, busy):
                # all-or-nothing: give up this access, back off again
                self._begin_contention(fresh=True)
                return
            txset = self.channels
        else:
            txset = dcb_transmit_set(self.channels, self.primary, busy)
        self.width_set = tuple(txset)
        self.state = TXOP
        self._send_rts()

    # -- RTS / CTS / DATA / BA ladder --

    def _send_rts(self):
        now = self.sim.now()
        tx = Transmission(self.bss_id, self.ap_name, RTS, self.width_set,
                          now, now + RTS_AIRTIME)
        self.spectrum.add(tx, now)
        self.sim.schedule(tx.end, engine.FRAME_END, self.ap_name,
                          self._rts_end, tx)

    def _rts_end(self, tx):
        now = self.sim.now()
        self.spectrum.remove(tx, now)
        self.timeout_ev = self.sim.schedule(
            now + CTS_TIMEOUT, engine.ACK_TIMEOUT, self.ap_name,
            self._attempt_failed)
        if not tx.corrupted:
            self.sim.schedule(now + SIFS, engine.FRAME_START, self.sta_name,
                              self._send_cts)

    def _send_cts(self):
        now = self.sim.now()
        tx = Transmission(self.bss_id, self.sta_name, CTS, self.width_set,
                          now, now + CTS_AIRTIME)
        self.spectrum.add(tx, now)
        self.sim.schedule(tx.end, engine.FRAME_END, self.sta_name,
                          self._cts_end, tx)

    def _cts_end(self, tx):
        now = self.sim.now()
        self.spectrum.remove(tx, now)
        if not tx.corrupted:
            self.sim.cancel(self.timeout_ev)
            self.timeout_ev = None
            self.sim.schedule(now + SIFS, engine.FRAME_START, self.ap_name,
                              self._send_data)

    def _data_airtime(self, n_packets):
        width = 20 * len(self.width_set)
        key = (n_packets, width)
        air = self._airtime_cache.get(key)
        if air is None:
            air = frame_airtime(n_packets * PACKET_BYTES,
                                self.mcs_by_width[width], width)
            self._airtime_cache[key] = air
        return air

    def _send_data(self):
        now = self.sim.now()
        tx = Transmission(self.bss_id, self.ap_name, DATA, self.width_set, now,
                          now + self._data_airtime(len(self.snapshot)),
                          self.snapshot)
        self.spectrum.add(tx, now)
        self.sim.schedule(tx.end, engine.FRAME_END, self.ap_name,
                          self._data_end, tx)

    def _data_end(self, tx):
        now = self.sim.now()
        self.spectrum.remove(tx, now)
        self.timeout_ev = self.sim.schedule(
            now + BA_TIMEOUT, engine.ACK_TIMEOUT, self.ap_name,
            self._attempt_failed)
        if tx.corrupted:
            return
        # STA side: per-MPDU error draws, first-delivery metrics, then BA
        draws = self.rng_per.random(len(self.snapshot))
        acked = []
        new = 0
        for (pid, gen), u in zip(self.snapshot, draws):
            if u < self.per:
                continue
            acked.append(pid)
            if pid not in self._sta_seen:
                self._sta_seen.add(pid)
                new += 1
                self.metrics.record_delivery(gen, now)
        self.metrics.record_data_reception(now, new * PACKET_BYTES * 8)
        self.sim.schedule(now + SIFS, engine.FRAME_START, self.sta_name,
                          self._send_ba, acked)

    def _send_ba(self, acked):
        now = self.sim.now()
        tx = Transmission(self.bss_id, self.sta_name, BA, self.width_set,
                          now, now + BA_AIRTIME, acked)
        self.spectrum.add(tx, now)
        self.sim.schedule(tx.end, engine.FRAME_END, self.sta_name,
                          self._ba_end, tx)

    def _ba_end(self, tx):
        self.spectrum.remove(tx, self.sim.now())
        if tx.corrupted:
            return
        self.sim.cancel(self.timeout_ev)
        self.timeout_ev = None
        if tx.payload:
            self._finish_cycle(SUCCESS, set(tx.payload))
        else:
            self._attempt_failed()

    # -- failure / abort / completion --

    def _attempt_failed(self):
        self.timeout_ev = None
        self.retries += 1
        if self.beb:
            self.cw = beb_next_cw(self.cw, success=False)
        if self.retries > RETRY_LIMIT:
            self._finish_cycle(FAILURE, set())
        elif self.abort_pending:
            self._finish_cycle(ABORTED, set())
        else:
            self.state = CONTEND
            self._begin_contention(fresh=True)

    def _abort(self):
        self.abort_ev = None
        if self.state == CONTEND:
            if self.pending is not None:
                self.sim.cancel(self.pending)
                self.pending = None
            self.spectrum.unsubscribe(self.primary, self)
            self._finish_cycle(ABORTED, set())
        else:
            # mid-exchange: let the attempt resolve, then terminate
            self.abort_pending = True

    def _finish_cycle(self, outcome, acked_pids):
        now = self.sim.now()
        if self.traffic is not None:
            self.traffic.flush()   # arrivals due by now join the queue first
        if self.abort_ev is not None:
            self.sim.cancel(self.abort_ev)
            self.abort_ev = None
        released = 0
        if outcome == SUCCESS:
            released = len(acked_pids)
            self.queue.ack_head(len(self.snapshot), acked_pids)
            self._sta_seen.difference_update(acked_pids)
            if self.beb:
                self.cw = beb_next_cw(self.cw, success=True)
        elif outcome == FAILURE:
            self.queue.drop_head(len(self.snapshot))
            self.metrics.retry_drops += len(self.snapshot)
            self._sta_seen.difference_update(p[0] for p in self.snapshot)
            released = len(self.snapshot)
            if self.beb:
                self.cw = beb_next_cw(self.cw, success=True)  # fresh frame
        if self.agent is not None:
            reward = agents.compute_reward((now - self.cycle_start) / MS)
            self.agent.complete_cycle(reward)
            self.metrics.decisions.append(
                (self.cycle_start, self._action_key, reward))
        self.last_record = CycleRecord(self.cycle_start, now, outcome)
        self.snapshot = None
        self.state = IDLE
        if released and self.traffic is not None:
            self.traffic.on_release(released, now)
        self.start_cycle()
        if self.state == IDLE and self.traffic is not None:
            self.traffic.on_idle()


class SensorView:
    """Features observed at one decision instant, own BSS excluded."""

    __slots__ = ("occupancy", "busy_flags", "queue_util")

    def __init__(self, bss, now):
        self.occupancy = bss.spectrum.occupancy(bss.bss_id, now)
        self.busy_flags = bss.spectrum.feature_busy_flags(bss.bss_id)
        self.queue_util = bss.queue.utilization()
