"""Downlink traffic generation.

Loads are fractions of the link's maximum theoretical goodput, an analytic
zero-contention saturation bound, resolved to concrete bit rates before a
run starts.  All generators push mac.PACKET_BYTES packets, as int64 arrays
of generation times, into the AP queue.

A rated source (Poisson, bursty or VR) plans its arrival times a block at
a time: a cumsum of exponential gaps, or a lattice of VR frames.  Arrivals
to a busy AP are not events: the AP can only see them when it reads its
queue, so the source pushes the ones due by each read (flush) and turns the
next one back into an event when the AP goes idle (on_idle).  As the engine
runs the arrivals of a nanosecond before its other events, "due by a read at
now" is simply "at or before now".  A full-buffer source acts on the same
read: it tops the queue back up to capacity with packets generated then.
"""

import numpy as np

from . import phy
from .engine import ARRIVAL, SEC
from .mac import AMPDU_PACKETS, CW_MIN, IDLE, PACKET_BYTES

BURST_PACKETS = 64
VR_FPS = 90
GAP_BLOCK = 1024   # arrivals per planned block (one rng call of draws)

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

    def set_rate(self, rate_bps, sim):
        pass

    def flush(self):
        pass

    def on_idle(self):
        pass


class FullBufferSource(_Source):
    """Tops the queue up to capacity at each read; no arrival events."""

    kind = FULL_BUFFER

    def __init__(self, bss):
        self.bss = bss

    def start(self, sim):
        self._sim = sim
        self.bss.start_cycle()    # whose flush fills the queue

    def flush(self):
        self.bss.issued += self.bss.queue.fill(self._sim.now())


class _RatedSource(_Source):
    """Arrivals at a settable rate, planned a block at a time.

    A subclass plans the arrival times after t0 (_plan) and turns the due
    ones into packets, a batch per arrival in arrival order (_batches).
    Only an arrival to an idle AP is an event; while the AP is busy, the
    pending one is held in the plan until the AP reads its queue.
    """

    def __init__(self, bss, rng, rate_bps):
        self.bss = bss
        self.rng = rng
        self.rate_bps = rate_bps
        self._ev = None
        self._draws = ()      # the raw draws behind the plan, if any
        self._times = None    # planned arrival times
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
            self._ev = self._sim.schedule(
                int(self._times[self._i]), ARRIVAL, self.bss.ap_name,
                self._arrive, bss_id=self.bss.bss_id)

    def _arrive(self):
        self._ev = None
        packets = self._batches(self._times[self._i:self._i + 1])
        if len(packets):
            self.bss.on_arrival(self.bss.make_packets(packets))
        self._advance(self._i + 1)
        self._wake()

    def flush(self):
        now = self._sim.now()
        if not self._held or self._times[self._i] > now:
            return    # nothing due
        k = int(self._times.searchsorted(now, "right"))
        due = self._times[self._i:k]
        self._advance(k)
        while self._times[self._i] <= now:    # due ones ran past the plan
            k = int(self._times.searchsorted(now, "right"))
            due = np.concatenate((due, self._times[self._i:k]))
            self._advance(k)
        self.bss.queue.push(self.bss.make_packets(self._batches(due)))

    def on_idle(self):
        if self._held:
            self._wake()


class PoissonSource(_RatedSource):
    """Batches of burst packets at exponential gaps; plain Poisson is burst 1,
    the bursty kind BURST_PACKETS.  The arrival times of a block of draws
    are one cumsum of their gaps."""

    def __init__(self, bss, rng, rate_bps, burst=1):
        super().__init__(bss, rng, rate_bps)
        self.burst = burst
        self.kind = POISSON if burst == 1 else BURSTY

    def _plan(self, t0, draws):
        """Plan arrivals after t0 from draws, or from a fresh block when
        none are left."""
        if not len(draws):
            draws = self.rng.standard_exponential(GAP_BLOCK)
        mean_ns = self.burst * PACKET_BYTES * 8 / self.rate_bps * SEC
        self._draws = draws
        self._times = t0 + np.cumsum(arrival_gaps(draws, mean_ns))
        self._i = 0

    def _batches(self, due):
        return due if self.burst == 1 else np.repeat(due, self.burst)


class VrSource(_RatedSource):
    """Fixed 90 fps cadence; a fractional-byte accumulator keeps the long-run
    offered load exact despite whole-packet batches."""

    kind = VR

    def __init__(self, bss, rng, rate_bps, fps=VR_FPS):
        super().__init__(bss, rng, rate_bps)
        self.fps = fps
        self.frame_gap = round(SEC / fps)
        self._owed_bytes = 0.0

    def _plan(self, t0, draws):
        """Plan GAP_BLOCK frames after t0; a VR source draws nothing."""
        self._times = t0 + self.frame_gap * np.arange(1, GAP_BLOCK + 1)
        self._i = 0

    def _batches(self, due):
        # the accumulator runs one frame at a time, in arrival order
        sizes = []
        for _ in range(len(due)):
            self._owed_bytes += self.rate_bps / 8.0 / self.fps
            n = int(self._owed_bytes // PACKET_BYTES)
            self._owed_bytes -= n * PACKET_BYTES
            sizes.append(n)
        return np.repeat(due, sizes)


def make_source(kind, bss, rng, rate_bps=None):
    if kind == FULL_BUFFER:
        return FullBufferSource(bss)
    if rate_bps is None or rate_bps <= 0:
        raise ValueError(f"{kind} traffic needs a positive rate")
    if kind == VR:
        return VrSource(bss, rng, rate_bps)
    return PoissonSource(bss, rng, rate_bps,
                         {POISSON: 1, BURSTY: BURST_PACKETS}[kind])
