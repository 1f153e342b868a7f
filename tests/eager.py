"""The eager rated sources: every arrival is an ARRIVAL event.

This is the reference that the lazy traffic.PoissonSource and
traffic.VrSource must match byte for byte.  An eager source schedules each
arrival on the heap, whatever the AP is doing, and computes its gap and
batch size as that arrival fires.  The Poisson one draws one exponential
per arrival, which it turns into a gap through the same
traffic.arrival_gaps map as the lazy source; the VR one steps a frame gap
and runs the fractional-byte accumulator one frame at a time.
eager_sources() swaps both in for the lazy sources in every trial built
inside the block.
"""

from contextlib import contextmanager

import numpy as np

from wlansim import traffic
from wlansim.engine import ARRIVAL, SEC
from wlansim.mac import PACKET_BYTES


class _EagerSource(traffic._Source):
    def __init__(self, bss, rng, rate_bps):
        self.bss = bss
        self.rng = rng
        self.rate_bps = rate_bps
        self._ev = None

    def start(self, sim):
        self._sim = sim
        self._schedule_next()

    def set_rate(self, rate_bps, sim):
        self.rate_bps = rate_bps
        if self._ev is not None:
            sim.cancel(self._ev)
        self._schedule_next()

    def _schedule_next(self):
        self._ev = self._sim.schedule(
            self._sim.now() + self._next_gap(), ARRIVAL, self.bss.ap_name,
            self._arrive, bss_id=self.bss.bss_id)

    def _arrive(self):
        self._ev = None
        n = self._batch_size()
        if n:
            now = self._sim.now()
            self.bss.on_arrival(self.bss.make_packets(np.full(n, now)))
        self._schedule_next()


class EagerPoissonSource(_EagerSource):
    def __init__(self, bss, rng, rate_bps, burst=1):
        super().__init__(bss, rng, rate_bps)
        self.burst = burst
        self.kind = traffic.POISSON if burst == 1 else traffic.BURSTY

    def _next_gap(self):
        mean_ns = self.burst * PACKET_BYTES * 8 / self.rate_bps * SEC
        return int(traffic.arrival_gaps(self.rng.standard_exponential(1),
                                        mean_ns)[0])

    def _batch_size(self):
        return self.burst


class EagerVrSource(_EagerSource):
    kind = traffic.VR

    def __init__(self, bss, rng, rate_bps, fps=traffic.VR_FPS):
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


@contextmanager
def eager_sources():
    lazy = traffic.PoissonSource, traffic.VrSource
    traffic.PoissonSource, traffic.VrSource = EagerPoissonSource, EagerVrSource
    try:
        yield
    finally:
        traffic.PoissonSource, traffic.VrSource = lazy
