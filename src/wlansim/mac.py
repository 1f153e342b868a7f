"""Per-BSS DCF state machines.

One transmission cycle, which is also one learning round, runs:

    DIFS + backoff -> PIFS gate on secondaries (SCB defer / DCB shrink)
    -> RTS .. SIFS .. CTS .. SIFS .. A-MPDU .. SIFS .. BlockACK

Once the RTS gets through, it stays on the air until the BlockACK ends
(see phy), as the NAV would, so nothing corrupts the CTS, A-MPDU or
BlockACK.  Their times are fixed then, so the clean RTS end plans all
three, hands the plan to phy with the RTS, and does the STA's part too:
it draws the per-MPDU errors and records the reception, stamped at the
planned A-MPDU end.  One event remains, the BlockACK end, which takes the
exchange off the air and acks the MPDUs out of the queue; a successful
cycle is three events (backoff, RTS end, BlockACK end).  The runner drops
a reception stamped after the end of the run.  A collided RTS sets the one
response timeout, the CTS timeout.
A failed attempt re-enters contention carrying the same A-MPDU snapshot,
up to the retry limit; the MPDUs a BlockACK acks leave the queue.
Learning APs additionally force-terminate a cycle that has not finished
within D_max and report the elapsed duration to their agent.  An agent
that reads contexts sees the air as it stood just before the decision
instant (phy's reader rule), whichever event at that nanosecond starts
the cycle.

A packet is its generation time in int64 ns.  Queues, snapshots, error
draws and block acks are numpy arrays, so an A-MPDU's bookkeeping is a few
array operations rather than a loop over its MPDUs.
"""

import numpy as np

from . import agents, engine
from .engine import MS
from .phy import (BA_AIRTIME, CHANNEL_GROUPS, CTS_AIRTIME, DIFS,
                  MAX_AMPDU_BYTES, RTS_AIRTIME, SIFS, SLOT, Transmission,
                  frame_airtime)

CW_MIN = 16
CW_MAX = 1024
RETRY_LIMIT = 7
QUEUE_CAPACITY = 500
D_MAX_NS = round(agents.D_MAX_MS * MS)

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

# a CTS, if it comes at all, lands one slot before its timeout
CTS_TIMEOUT = SIFS + CTS_AIRTIME + SLOT


def legal_tx_sets(channels, primary):
    """Legal bonded subsets of channels containing primary, widest first."""
    members = set(channels)
    out = [g for g in CHANNEL_GROUPS if primary in g and set(g) <= members]
    out.sort(key=len, reverse=True)
    return out


# legal_tx_sets of every (channels, primary) pair that validate() admits
_TX_SETS = {(g, p): legal_tx_sets(g, p) for g in CHANNEL_GROUPS for p in g}


def dcb_transmit_set(channels, primary, busy):
    """Widest legal group whose members are all idle; never empty, the
    primary singleton always qualifies once backoff is won.  busy is a
    set."""
    for g in _TX_SETS[channels, primary]:
        if busy.isdisjoint(g):
            return g
    raise AssertionError("primary busy after winning backoff")


def scb_defers(channels, primary, pifs_idle, now):
    """SCB is all-or-nothing: defer iff some secondary was not idle through
    the PIFS before now.  pifs_idle(c, now) is the probe; the first busy
    secondary decides, so the rest go unprobed."""
    for c in channels:
        if c != primary and not pifs_idle(c, now):
            return True
    return False


def beb_next_cw(cw, success):
    return CW_MIN if success else min(2 * cw, CW_MAX)


class TxQueue:
    """Bounded FIFO of packet generation times.

    The packets sit in buf[head:tail] of one preallocated int64 buffer; a
    push that would run off its end first moves them back to the start.
    """

    def __init__(self, capacity=QUEUE_CAPACITY):
        self.capacity = capacity
        self._buf = np.empty(2 * capacity, dtype=np.int64)
        self._head = 0
        self._tail = 0
        self.overflow_drops = 0
        self.acked = 0           # packets ack_head took out

    def __len__(self):
        return self._tail - self._head

    def utilization(self):
        return len(self) / self.capacity

    def push(self, gens):
        """Append at the tail; what does not fit counts as overflow."""
        n = min(len(gens), self.capacity - len(self))
        self.overflow_drops += len(gens) - n
        self._append(gens[:n], n)

    def fill(self, gen):
        """Top up to capacity with packets made at gen; returns how many."""
        n = self.capacity - len(self)
        self._append(gen, n)
        return n

    def _append(self, gens, n):
        if self._tail + n > len(self._buf):
            size = len(self)
            self._buf[:size] = self._buf[self._head:self._tail]
            self._head, self._tail = 0, size
        self._buf[self._tail:self._tail + n] = gens
        self._tail += n

    def snapshot_head(self):
        """A copy of the FIFO prefix of at most one A-MPDU; packets stay
        queued."""
        return self._buf[self._head:
                         min(self._head + AMPDU_PACKETS, self._tail)].copy()

    def ack_head(self, lost):
        """Take the first len(lost) packets off the head and put back the
        ones flagged lost, in order."""
        kept = self._buf[self._head:self._head + len(lost)][lost]
        taken = len(lost) - len(kept)
        self.acked += taken
        self._head += taken
        self._buf[self._head:self._head + len(kept)] = kept

    def drop_head(self, n):
        self._head += n


class Bss:
    """One AP-STA pair: queue, DCF machine, optional learning agent.

    The AP drives everything; the STA only answers RTS with CTS and data
    with a BlockACK, so both ends live in this one object.  Without an
    agent the AP keeps the given channels and primary and runs binary
    exponential backoff from CW_MIN; an agent picks all three per cycle.
    """

    def __init__(self, bss_id, sim, spectrum, metrics, rng_backoff, rng_per,
                 mcs_by_width, bonding=SCB, channels=None, primary=None,
                 agent=None, per=0.1):
        self.bss_id = bss_id
        self.sim = sim
        self.spectrum = spectrum
        self.metrics = metrics
        self.rng_backoff = rng_backoff
        self.rng_per = rng_per
        self.mcs_by_width = mcs_by_width
        self.agent = agent
        if agent is not None and agent.needs_context:
            spectrum.observe(bss_id)
        self.per = per
        self.ap_name = f"ap{bss_id}"
        self.sta_name = f"sta{bss_id}"

        self.bonding = bonding
        self.channels = channels
        self.primary = primary
        self.cw = CW_MIN

        self.queue = TxQueue()
        self.traffic = None      # attached by the runner
        self.issued = 0          # packets made for this AP so far

        self.state = IDLE
        self.snapshot = None
        self.width_set = None
        self.cycle_start = 0
        self.retries = 0
        self.remaining = 0
        self.slot_base = 0
        self.pending = None      # armed backoff-completion event
        self.abort_ev = None
        self.abort_pending = False
        self._arm = None         # the agent's JOINT_ACTIONS index this cycle
        self._airtime_cache = {}

    # -- traffic entry points --

    def make_packets(self, gen_times):
        """One fresh packet per generation time, as an int64 array."""
        packets = np.asarray(gen_times, dtype=np.int64)
        self.issued += len(packets)
        return packets

    def on_arrival(self, packets):
        self.queue.push(packets)
        if self.state == IDLE:
            self.start_cycle()

    # -- cycle control --

    def start_cycle(self):
        if self.state != IDLE:
            return
        self.traffic.flush()
        if not len(self.queue):
            return
        now = self.sim.now()
        if self.agent is not None:
            self._arm = self.agent.begin_cycle(
                SensorView(self, now) if self.agent.needs_context else None)
            self.channels, self.primary, self.cw = agents.JOINT_ACTIONS[
                self._arm]
            self.abort_ev = self.sim.schedule(
                now + D_MAX_NS, engine.ABORT, self.ap_name, self._abort)
        self.cycle_start = now
        self.retries = 0
        self.abort_pending = False
        self.snapshot = self.queue.snapshot_head()
        self.metrics.cycles += 1
        self.state = CONTEND
        self._begin_contention()

    def _begin_contention(self):
        self.remaining = int(self.rng_backoff.integers(0, self.cw))
        self.spectrum.subscribe(self.primary, self)
        idle0 = self.spectrum.idle_since(self.primary)
        if idle0 is not None:
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

    def primary_idle(self, channel, t):
        # the backoff is frozen iff no completion is armed: one that stood
        # at a busy edge fires at that same instant, before any idle edge
        if self.pending is None:
            self._arm_backoff(t + DIFS)

    def _access(self):
        self.pending = None
        now = self.sim.now()
        self.spectrum.unsubscribe(self.primary, self)
        if self.bonding == SCB:
            if scb_defers(self.channels, self.primary,
                          self.spectrum.pifs_idle, now):
                # give up this access, back off again
                self._begin_contention()
                return
            txset = self.channels
        else:
            busy = {c for c in self.channels if c != self.primary
                    and not self.spectrum.pifs_idle(c, now)}
            txset = dcb_transmit_set(self.channels, self.primary, busy)
        self.width_set = tuple(txset)
        self.state = TXOP
        tx = Transmission(self.bss_id, self.width_set, now, now + RTS_AIRTIME)
        self.spectrum.add(tx, now)
        self.sim.schedule(tx.end, engine.FRAME_END, self.ap_name,
                          self._rts_end, tx)

    # -- RTS / CTS / DATA / BA ladder --

    def _rts_end(self, tx):
        now = self.sim.now()
        if tx.corrupted:
            self.spectrum.remove(tx, now)
            self.sim.schedule(now + CTS_TIMEOUT, engine.ACK_TIMEOUT,
                              self.ap_name, self._attempt_failed)
            return
        # plan the CTS, A-MPDU and BlockACK, SIFS apart; the RTS stays on
        # the air through them
        cts = now + SIFS
        data = cts + CTS_AIRTIME + SIFS
        data_end = data + self._data_airtime(len(self.snapshot))
        ba = data_end + SIFS
        self.spectrum.hold(tx, ((cts, cts + CTS_AIRTIME), (data, data_end),
                                (ba, ba + BA_AIRTIME)))
        # STA side: per-MPDU error draws and the delays of the packets they
        # deliver, received at the A-MPDU end; the BA carries the ack mask
        # (None: no MPDU got through)
        acked = self.rng_per.random(len(self.snapshot)) >= self.per
        delays = data_end - self.snapshot[acked]
        self.metrics.record_data_reception(data_end, delays)
        self.sim.schedule(tx.end, engine.FRAME_END, self.sta_name,
                          self._ba_end, tx, acked if len(delays) else None)

    def _data_airtime(self, n_packets):
        width = 20 * len(self.width_set)
        key = (n_packets, width)
        air = self._airtime_cache.get(key)
        if air is None:
            air = frame_airtime(n_packets * PACKET_BYTES,
                                self.mcs_by_width[width], width)
            self._airtime_cache[key] = air
        return air

    def _ba_end(self, tx, acked):
        self.spectrum.remove(tx, self.sim.now())
        if acked is not None:
            self._finish_cycle(SUCCESS, acked)
        else:
            self._attempt_failed()

    # -- failure / abort / completion --

    def _attempt_failed(self):
        self.retries += 1
        if self.agent is None:
            self.cw = beb_next_cw(self.cw, success=False)
        if self.retries > RETRY_LIMIT:
            self._finish_cycle(FAILURE)
        elif self.abort_pending:
            self._finish_cycle(ABORTED)
        else:
            self.state = CONTEND
            self._begin_contention()

    def _abort(self):
        self.abort_ev = None
        if self.state == CONTEND:
            if self.pending is not None:
                self.sim.cancel(self.pending)
                self.pending = None
            self.spectrum.unsubscribe(self.primary, self)
            self._finish_cycle(ABORTED)
        else:
            # mid-exchange: let the attempt resolve, then terminate
            self.abort_pending = True

    def _finish_cycle(self, outcome, acked=None):
        now = self.sim.now()
        self.traffic.flush()   # arrivals due by now join the queue first
        if self.abort_ev is not None:
            self.sim.cancel(self.abort_ev)
            self.abort_ev = None
        # an aborted snapshot stays queued
        if outcome == SUCCESS:
            self.queue.ack_head(~acked)
            if self.agent is None:
                self.cw = beb_next_cw(self.cw, success=True)
        elif outcome == FAILURE:
            self.queue.drop_head(len(self.snapshot))
            self.metrics.retry_drops += len(self.snapshot)
            if self.agent is None:
                self.cw = beb_next_cw(self.cw, success=True)  # fresh frame
        if self.agent is not None:
            reward = agents.compute_reward((now - self.cycle_start) / MS)
            self.agent.complete_cycle(reward)
            self.metrics.record_decision(self.cycle_start, self._arm, reward)
        self.snapshot = None
        self.state = IDLE
        self.start_cycle()
        if self.state == IDLE:
            self.traffic.on_idle()

    # -- end of run --

    def check_conservation(self):
        """Raise unless every packet made for this AP is queued, dropped at
        the tail or after its last retry, or acked out of the queue."""
        q = self.queue
        held = len(q) + q.overflow_drops + self.metrics.retry_drops + q.acked
        if held != self.issued:
            raise AssertionError(
                f"BSS {self.bss_id} was issued {self.issued} packets and "
                f"accounts for {held}")

    def close(self):
        """Break the cycles through this BSS's traffic source and, while it
        contends, its primary's listener list; call once the run is over."""
        if self.state == CONTEND:
            self.spectrum.unsubscribe(self.primary, self)
        self.traffic = None


class SensorView:
    """Features observed at one decision instant, own BSS excluded."""

    __slots__ = ("occupancy", "busy_flags", "queue_util")

    def __init__(self, bss, now):
        self.occupancy = bss.spectrum.occupancy(bss.bss_id, now)
        self.busy_flags = bss.spectrum.feature_busy_flags(bss.bss_id, now)
        self.queue_util = bss.queue.utilization()
