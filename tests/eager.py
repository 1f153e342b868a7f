"""The eager Poisson source: every arrival is an ARRIVAL event.

This is the reference that the lazy traffic.PoissonSource must match byte
for byte.  It schedules each arrival on the heap, whatever the AP is doing,
and draws one exponential per arrival, which it turns into a gap through the
same traffic.arrival_gaps map as the lazy source.  eager_sources() swaps it
in for the lazy source in every trial built inside the block.
"""

from contextlib import contextmanager

import numpy as np

from wlansim import traffic
from wlansim.engine import ARRIVAL, SEC
from wlansim.mac import PACKET_BYTES


class EagerPoissonSource(traffic._Source):
    def __init__(self, bss, rng, rate_bps, burst=1):
        self.bss = bss
        self.rng = rng
        self.rate_bps = rate_bps
        self.burst = burst
        self.kind = traffic.POISSON if burst == 1 else traffic.BURSTY
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
        now = self._sim.now()
        self.bss.on_arrival(self.bss.make_packets(np.full(self.burst, now)))
        self._schedule_next()

    def _next_gap(self):
        mean_ns = self.burst * PACKET_BYTES * 8 / self.rate_bps * SEC
        return int(traffic.arrival_gaps(self.rng.standard_exponential(1),
                                        mean_ns)[0])


@contextmanager
def eager_sources():
    lazy = traffic.PoissonSource
    traffic.PoissonSource = EagerPoissonSource
    try:
        yield
    finally:
        traffic.PoissonSource = lazy
