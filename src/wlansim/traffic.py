"""Downlink traffic generation.

Loads are fractions of the link's maximum theoretical goodput, an analytic
zero-contention saturation bound, resolved to concrete bit rates before a
run starts.  All generators push mac.PACKET_BYTES packets, as int64 arrays
of generation times, into the AP queue.

A Poisson or bursty source plans its arrival times a block of exponential
draws at a time.  Arrivals to a busy AP are not events: the AP can only see
them when it reads its queue, so the source pushes the ones due by each read
(flush) and turns the next one back into an event when the AP goes idle
(on_idle).  As the engine runs the arrivals of a nanosecond before its other
events, "due by a read at now" is simply "at or before now".
"""

import numpy as np

from . import phy
from .engine import ARRIVAL, SEC
from .mac import AMPDU_PACKETS, CW_MIN, IDLE, PACKET_BYTES

BURST_PACKETS = 64
VR_FPS = 90
GAP_BLOCK = 1024   # exponential draws per rng call, planned as one block

FULL_BUFFER = "full_buffer"
POISSON = "poisson"
BURSTY = "bursty"
VR = "vr"


def arrival_gaps(draws, mean_ns):
    """Integer gaps for standard exponential draws at mean_ns: each scaled
    draw truncated to whole ns, at least 1."""
    return np.maximum((mean_ns * draws).astype(np.int64), 1)


def max_theoretical_goodput(width):
    """Payload bits of a maximal A-MPDU over one uncontended cycle, in bps.

    The cycle is DIFS + mean CW-16 backoff + RTS/SIFS/CTS/SIFS + data +
    SIFS + BA at MCS 11, with no errors and no contention.
    """
    payload_bytes = AMPDU_PACKETS * PACKET_BYTES
    data_air = phy.frame_airtime(payload_bytes, 11, width)
    cycle_ns = (phy.DIFS + (CW_MIN - 1) / 2 * phy.SLOT + phy.RTS_AIRTIME
                + phy.SIFS + phy.CTS_AIRTIME + phy.SIFS + data_air
                + phy.SIFS + phy.BA_AIRTIME)
    return payload_bytes * 8 / (cycle_ns * 1e-9)


class _Source:
    """What the AP and the load schedule call on a source.  The AP calls
    flush() before it reads or trims its queue and on_idle() when the queue
    has run dry; only a source that holds arrivals back acts on them."""

    def on_release(self, count, now):
        pass

    def set_rate(self, rate_bps, sim):
        pass

    def flush(self):
        pass

    def on_idle(self):
        pass


class FullBufferSource(_Source):
    """Keeps the queue pinned at capacity; no arrival events needed."""

    kind = FULL_BUFFER

    def __init__(self, bss):
        self.bss = bss

    def start(self, sim):
        room = self.bss.queue.capacity - len(self.bss.queue)
        self.bss.on_arrival(self.bss.make_packets(np.full(room, sim.now())))

    def on_release(self, count, now):
        self.bss.on_arrival(self.bss.make_packets(np.full(count, now)))


class _RatedSource(_Source):
    """Common machinery for event-driven generators with a settable rate."""

    def __init__(self, bss, rng, rate_bps):
        self.bss = bss
        self.rng = rng
        self.rate_bps = rate_bps
        self._ev = None

    def start(self, sim):
        self._sim = sim
        self._schedule_next()

    def set_rate(self, rate_bps, sim):
        # arrivals due by now keep the old rate; the pending one is
        # forgotten and the new rate takes over from now
        self.flush()
        self.rate_bps = rate_bps
        if self._ev is not None:
            sim.cancel(self._ev)
        self._schedule_next()

    def _schedule_next(self):
        self._arrive_at(self._sim.now() + self._next_gap())

    def _arrive_at(self, t):
        self._ev = self._sim.schedule(t, ARRIVAL, self.bss.ap_name,
                                      self._arrive, bss_id=self.bss.bss_id)

    def _arrive(self):
        self._ev = None
        now = self._sim.now()
        n = self._batch_size()
        if n:
            self.bss.on_arrival(self.bss.make_packets(np.full(n, now)))
        self._schedule_next()


class PoissonSource(_RatedSource):
    """Batches of burst packets at exponential gaps; plain Poisson is burst 1,
    the bursty kind BURST_PACKETS.

    The arrival times of a block of draws are one cumsum of their gaps.
    Only an arrival to an idle AP is an event; while the AP is busy, the
    pending one is held in the plan until the AP reads its queue.
    """

    def __init__(self, bss, rng, rate_bps, burst=1):
        super().__init__(bss, rng, rate_bps)
        self.burst = burst
        self.kind = POISSON if burst == 1 else BURSTY
        self._draws = None    # the raw draws behind the plan
        self._times = None    # planned arrival times, one per draw
        self._i = 0           # index of the pending arrival
        self._held = False    # the pending arrival is not an event

    def start(self, sim):
        self._sim = sim
        self._plan(sim.now(), ())
        self._wake()

    def set_rate(self, rate_bps, sim):
        # arrivals due by now keep the old rate; the pending one is
        # forgotten and the new rate plans the draws after it from now
        self.flush()
        self.rate_bps = rate_bps
        if self._ev is not None:
            sim.cancel(self._ev)
            self._ev = None
        self._plan(sim.now(), self._draws[self._i + 1:])
        self._wake()

    def _plan(self, t0, draws):
        """Plan arrivals after t0 from draws, or from a fresh block when
        none are left."""
        if not len(draws):
            draws = self.rng.standard_exponential(GAP_BLOCK)
        mean_ns = self.burst * PACKET_BYTES * 8 / self.rate_bps * SEC
        self._draws = draws
        self._times = t0 + np.cumsum(arrival_gaps(draws, mean_ns))
        self._i = 0

    def _advance(self, k):
        """Make planned arrival k the pending one; past the end of the plan,
        plan a fresh block from its last arrival."""
        if k < len(self._times):
            self._i = k
        else:
            self._plan(int(self._times[-1]), ())

    def _wake(self):
        """An idle AP gets the pending arrival as an event; for a busy one
        it stays held."""
        self._held = self.bss.state != IDLE
        if not self._held:
            self._arrive_at(int(self._times[self._i]))

    def _schedule_next(self):
        self._advance(self._i + 1)
        self._wake()

    def flush(self):
        if not self._held:
            return
        now = self._sim.now()
        k = int(self._times.searchsorted(now, "right"))
        if k == self._i:
            return
        due = self._times[self._i:k]
        self._advance(k)
        while self._times[self._i] <= now:    # due ones ran past the plan
            k = int(self._times.searchsorted(now, "right"))
            due = np.concatenate((due, self._times[self._i:k]))
            self._advance(k)
        if self.burst > 1:
            due = np.repeat(due, self.burst)
        self.bss.queue.push(self.bss.make_packets(due))

    def on_idle(self):
        if self._held:
            self._wake()

    def _batch_size(self):
        return self.burst


class VrSource(_RatedSource):
    """Fixed 90 fps cadence; a fractional-byte accumulator keeps the long-run
    offered load exact despite whole-packet batches."""

    kind = VR

    def __init__(self, bss, rng, rate_bps, fps=VR_FPS):
        super().__init__(bss, rng, rate_bps)
        self.fps = fps
        self.frame_gap = round(SEC / fps)
        self._owed_bytes = 0.0

    def _next_gap(self):
        return self.frame_gap

    def _batch_size(self):
        self._owed_bytes += self.rate_bps / 8.0 / self.fps
        n = int(self._owed_bytes // PACKET_BYTES)
        self._owed_bytes -= n * PACKET_BYTES
        return n


def make_source(kind, bss, rng, rate_bps=None):
    if kind == FULL_BUFFER:
        return FullBufferSource(bss)
    if rate_bps is None or rate_bps <= 0:
        raise ValueError(f"{kind} traffic needs a positive rate")
    if kind == VR:
        return VrSource(bss, rng, rate_bps)
    return PoissonSource(bss, rng, rate_bps,
                         {POISSON: 1, BURSTY: BURST_PACKETS}[kind])
