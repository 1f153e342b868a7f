"""Traffic generators and the analytic saturation bound."""

import numpy as np
import pytest

from conftest import MCS_TOP
from wlansim import mac, metrics, phy
from wlansim.engine import (BACKOFF_STREAM, MS, PER_STREAM, SEC, Scheduler,
                            TRAFFIC_STREAM, rng_stream)
from wlansim.mac import PACKET_BYTES, TxQueue
from wlansim.traffic import (BURST_PACKETS, FullBufferSource, PoissonSource,
                             VrSource, make_source, max_theoretical_goodput)


class SinkBss:
    """Just enough of the AP surface for a source to feed.  Its cycle
    start only flushes the source, so it stays idle and every arrival stays
    an event."""

    bss_id = 0
    ap_name = "ap0"
    state = mac.IDLE
    issued = 0               # counted by a full-buffer top-up only

    def __init__(self):
        self.queue = TxQueue()
        self.batches = []

    def make_packets(self, gen_times):
        return np.asarray(gen_times, dtype=np.int64)

    def on_arrival(self, packets):
        self.batches.append(packets)
        self.queue.push(packets)

    def start_cycle(self):
        self.traffic.flush()

    def offered_bytes(self):
        return sum(len(batch) for batch in self.batches) * PACKET_BYTES


def test_saturation_bound_frozen_values():
    assert max_theoretical_goodput(20) / 1e6 == pytest.approx(
        238.1941559340811, rel=1e-9)
    assert max_theoretical_goodput(40) / 1e6 == pytest.approx(
        406.71553558760934, rel=1e-9)
    assert max_theoretical_goodput(80) / 1e6 == pytest.approx(
        650.939825911442, rel=1e-9)


def test_saturation_bound_sane():
    for width in (20, 40, 80):
        assert max_theoretical_goodput(width) < phy.phy_rate(11, width)
    assert (max_theoretical_goodput(20) < max_theoretical_goodput(40)
            < max_theoretical_goodput(80))


def test_saturated_cell_approaches_the_bound():
    # a real uncontended error-free cell should sit within a couple of
    # percent of the analytic cycle average
    sim = Scheduler()
    spectrum = phy.SpectrumState()
    bss = mac.Bss(1, sim, spectrum, metrics.BssMetrics(1),
                  rng_backoff=rng_stream(11, 0, 1, BACKOFF_STREAM),
                  rng_per=rng_stream(11, 0, 1, PER_STREAM),
                  mcs_by_width=dict(MCS_TOP), channels=(1,), primary=1,
                  per=0.0)
    bss.traffic = FullBufferSource(bss)
    bss.traffic.start(sim)
    sim.run_until(5 * SEC)
    got = metrics.time_weighted_goodput(
        bss.metrics.sample_t, bss.metrics.sample_bits, 0, 5 * SEC)
    assert got == pytest.approx(238.1941559340811, rel=0.02)


def test_vr_cadence_is_exact():
    sink = SinkBss()
    sim = Scheduler()
    src = VrSource(sink, rng=None, rate_bps=50_000_000)
    src.start(sim)
    sim.run_until(10 * SEC)
    assert len(sink.batches) == 900
    gaps = {int(sink.batches[k][0] - sink.batches[k - 1][0])
            for k in range(1, 900)}
    assert gaps == {11_111_111}


def test_vr_long_run_bytes_exact():
    sink = SinkBss()
    sim = Scheduler()
    src = VrSource(sink, rng=None, rate_bps=50_000_000)
    src.start(sim)
    sim.run_until(10 * SEC)
    total = sink.offered_bytes()
    offered = 50_000_000 / 8 * (900 / 90)
    # the fractional-byte accumulator keeps the remainder under one packet
    assert abs(total - offered) < 1500


def test_poisson_gap_distribution():
    src = PoissonSource(SinkBss(), rng_stream(7, 0, 1, TRAFFIC_STREAM),
                        rate_bps=12_000_000)
    src._plan(0, src.rng.standard_exponential(100_000))
    gaps = np.diff(src._times, prepend=0)
    assert gaps.sum() / len(gaps) == pytest.approx(1 * MS, rel=0.02)
    assert gaps.min() >= 1


def test_poisson_offered_load():
    sink = SinkBss()
    sim = Scheduler()
    src = PoissonSource(sink, rng_stream(7, 0, 1, TRAFFIC_STREAM),
                        rate_bps=12_000_000)
    src.start(sim)
    sim.run_until(30 * SEC)
    total_bits = sink.offered_bytes() * 8
    assert all(len(batch) == 1 for batch in sink.batches)
    assert total_bits / 30 == pytest.approx(12_000_000, rel=0.02)


def test_bursty_batches_and_offered_load():
    sink = SinkBss()
    sim = Scheduler()
    src = PoissonSource(sink, rng_stream(9, 0, 2, TRAFFIC_STREAM),
                        rate_bps=64_000_000, burst=BURST_PACKETS)
    src.start(sim)
    sim.run_until(30 * SEC)
    assert all(len(batch) == BURST_PACKETS for batch in sink.batches)
    total_bits = sink.offered_bytes() * 8
    assert total_bits / 30 == pytest.approx(64_000_000, rel=0.06)


def test_full_buffer_fills_and_tracks_releases():
    sink = SinkBss()
    sim = Scheduler()
    src = sink.traffic = FullBufferSource(sink)
    src.start(sim)
    assert (len(sink.queue), sink.issued) == (500, 500)
    # a flush tops the queue back up with packets generated at the flush
    sink.queue.drop_head(500)
    sim.run_until(7)
    src.flush()
    assert (len(sink.queue), sink.issued) == (500, 1000)
    assert list(sink.queue.snapshot_head()) == [7] * mac.AMPDU_PACKETS
    src.flush()
    assert sink.issued == 1000


def test_set_rate_replaces_pending_arrival():
    sink = SinkBss()
    sim = Scheduler()
    src = PoissonSource(sink, rng_stream(7, 0, 3, TRAFFIC_STREAM),
                        rate_bps=1_000)   # glacial: first gap is huge
    src.start(sim)
    src.set_rate(96_000_000, sim)
    sim.run_until(1 * SEC)
    total_bits = sink.offered_bytes() * 8
    # the stale slow-rate arrival must not survive the rate change
    assert total_bits == pytest.approx(96_000_000, rel=0.1)


def test_make_source_dispatch():
    sink = SinkBss()
    assert isinstance(make_source("full_buffer", sink, None), FullBufferSource)
    poisson = make_source("poisson", sink, None, 1e6)
    assert isinstance(poisson, PoissonSource)
    assert (poisson.kind, poisson.burst) == ("poisson", 1)
    bursty = make_source("bursty", sink, None, 1e6)
    assert isinstance(bursty, PoissonSource)
    assert (bursty.kind, bursty.burst) == ("bursty", BURST_PACKETS)
    vr = make_source("vr", sink, None, 1e6)
    assert isinstance(vr, VrSource) and vr.kind == "vr"
    with pytest.raises(ValueError):
        make_source("poisson", sink, None)
    with pytest.raises(ValueError):
        make_source("vr", sink, None, rate_bps=0)
