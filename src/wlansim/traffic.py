"""Downlink traffic generation.

Loads are fractions of the link's maximum theoretical goodput, an analytic
zero-contention saturation bound, resolved to concrete bit rates before a
run starts.  All generators push mac.PACKET_BYTES packets into the AP queue.

Poisson and bursty arrivals to a busy AP are not events: the AP can only
see them when it reads its queue, so the source pushes the ones due by each
read (flush) and turns the next one back into an event when the AP goes idle
(on_idle).  As the engine runs the arrivals of a nanosecond before its other
events, "due by a read at now" is simply "at or before now".
"""

from . import phy
from .engine import ARRIVAL, SEC
from .mac import AMPDU_PACKETS, CW_MIN, IDLE, PACKET_BYTES

BURST_PACKETS = 64
VR_FPS = 90
GAP_BLOCK = 1024   # exponential gaps drawn per rng call

FULL_BUFFER = "full_buffer"
POISSON = "poisson"
BURSTY = "bursty"
VR = "vr"


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
        self.bss.on_arrival(self.bss.make_packets([sim.now()] * room))

    def on_release(self, count, now):
        self.bss.on_arrival(self.bss.make_packets([now] * count))


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
            self.bss.on_arrival(self.bss.make_packets([now] * n))
        self._schedule_next()


class PoissonSource(_RatedSource):
    """Batches of burst packets at exponential gaps; plain Poisson is burst 1,
    the bursty kind BURST_PACKETS.

    Only an arrival to an idle AP is an event; while the AP is busy, the
    next one waits as a time until the AP reads its queue.
    """

    def __init__(self, bss, rng, rate_bps, burst=1):
        super().__init__(bss, rng, rate_bps)
        self.burst = burst
        self.kind = POISSON if burst == 1 else BURSTY
        self._gaps = iter(())
        self._due = None   # the next arrival while it is not an event

    def _schedule_next(self):
        t = self._sim.now() + self._next_gap()
        if self.bss.state == IDLE:
            self._arrive_at(t)
        else:
            self._due = t

    def flush(self):
        t = self._due
        if t is None:
            return
        now = self._sim.now()
        times = []
        while t <= now:
            times += [t] * self.burst
            t += self._next_gap()
        self._due = t
        if times:
            self.bss.queue.push(self.bss.make_packets(times))

    def on_idle(self):
        if self._due is not None:
            self._arrive_at(self._due)
            self._due = None

    def _next_gap(self):
        # block draws give the same doubles as one exponential(mean) per call
        e = next(self._gaps, None)
        if e is None:
            block = self.rng.standard_exponential(GAP_BLOCK)
            self._gaps = iter(block.tolist())
            e = next(self._gaps)
        gap = int(self.burst * PACKET_BYTES * 8 / self.rate_bps * SEC * e)
        return gap if gap > 0 else 1

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
