"""Propagation, MCS, airtimes, and shared-spectrum bookkeeping."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ListenerRecorder
from wlansim import phy
from wlansim.engine import MS, US
from wlansim.phy import BASIC_CHANNELS, SpectrumState, Transmission


# -- propagation --

def test_path_loss_at_reference_distance():
    # 20*log10(4*pi*5e9/3e8), evaluated independently
    assert phy.path_loss_db(1.0) == pytest.approx(46.421172272769056, abs=1e-9)


def test_path_loss_at_ten_meters():
    assert phy.path_loss_db(10.0) == pytest.approx(86.42117227276906, abs=1e-9)


def test_path_loss_doubling_adds_12dB():
    gain = phy.path_loss_db(7.0) - phy.path_loss_db(3.5)
    assert gain == pytest.approx(12.041199826559248, abs=1e-9)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_path_loss_rejects_nonpositive_distance(bad):
    with pytest.raises(ValueError):
        phy.path_loss_db(bad)


def test_rssi_is_tx_power_minus_loss():
    assert phy.rssi_dbm(1.0) == pytest.approx(20.0 - 46.421172272769056)


# -- MCS selection --

def test_strongest_signal_picks_top_mcs():
    assert phy.select_mcs(phy.rssi_dbm(1.0), 20) == 11
    assert phy.select_mcs(phy.rssi_dbm(1.0), 80) == 11


def test_rssi_below_floor_is_an_error():
    with pytest.raises(ValueError):
        phy.select_mcs(-95.0, 20)


def test_mcs_monotone_in_rssi():
    prev = 0
    rssi = -82.0
    while rssi <= 0.0:
        m = phy.select_mcs(rssi, 20)
        assert m >= prev
        prev = m
        rssi += 0.5
    assert prev == 11


def test_sensitivity_shifts_3dB_per_doubling():
    assert phy.sensitivity_dbm(0, 20) == -82.0
    assert phy.sensitivity_dbm(0, 40) == -79.0
    assert phy.sensitivity_dbm(0, 80) == -76.0
    assert phy.sensitivity_dbm(11, 80) == -46.0


def test_selection_depends_on_width():
    # -50 dBm: decodes MCS 11 at 20 MHz but only 10 / 9 at 40 / 80
    assert phy.select_mcs(-50.0, 20) == 11
    assert phy.select_mcs(-50.0, 40) == 10
    assert phy.select_mcs(-50.0, 80) == 9


def test_mcs_range_round_trips_through_sensitivity():
    d = phy.mcs_range_m(11, 80)
    assert d == pytest.approx(3.086531355059958, abs=1e-9)
    assert phy.rssi_dbm(d) == pytest.approx(phy.sensitivity_dbm(11, 80), abs=1e-9)
    assert phy.select_mcs(phy.rssi_dbm(d * 1.001), 80) < 11


# -- rates --

def test_phy_rates():
    assert phy.phy_rate(11, 80, 2) / 1e6 == pytest.approx(1200.9803921568628)
    assert phy.phy_rate(11, 20, 2) / 1e6 == pytest.approx(286.7647058823529)
    assert phy.phy_rate(0, 20, 2) / 1e6 == pytest.approx(17.205882352941178)


def test_phy_rate_scales_with_streams():
    for mcs in (0, 5, 11):
        assert phy.phy_rate(mcs, 40, 2) == pytest.approx(2 * phy.phy_rate(mcs, 40, 1))


# -- airtimes --

def test_zero_payload_is_preamble_only():
    assert phy.frame_airtime(0, 11, 80) == phy.DATA_PREAMBLE


def test_single_packet_airtime():
    # 1500 B at MCS 11 / 20 MHz / 2 SS: 12000 bits over 3900 bits-per-symbol
    assert phy.frame_airtime(1500, 11, 20) == 98_400


def test_max_ampdu_airtime():
    # 65535 B at ~1201 Mbps: data portion lands within one symbol of the
    # un-quantized 437 us
    air = phy.frame_airtime(65_535, 11, 80)
    assert air == 492_800
    data = air - phy.DATA_PREAMBLE
    assert 437_000 - phy.SYMBOL <= data <= 437_000 + phy.SYMBOL


def test_payload_doubling_within_one_symbol():
    for nbytes in (100, 1500, 7000):
        one = phy.frame_airtime(nbytes, 11, 40) - phy.DATA_PREAMBLE
        two = phy.frame_airtime(2 * nbytes, 11, 40) - phy.DATA_PREAMBLE
        assert 2 * one - phy.SYMBOL <= two <= 2 * one + phy.SYMBOL


def test_oversize_payload_rejected():
    with pytest.raises(ValueError):
        phy.frame_airtime(65_536, 11, 80)


def test_airtime_never_below_rate_bound():
    # quantization only rounds up: airtime >= payload bits / rate
    for nbytes in (1, 1500, 43 * 1500, 65_535):
        for width in (20, 40, 80):
            air = phy.frame_airtime(nbytes, 11, width) - phy.DATA_PREAMBLE
            assert air * 1e-9 * phy.phy_rate(11, width, 2) >= nbytes * 8


def test_control_frame_airtimes():
    assert phy.RTS_AIRTIME == 52 * US
    assert phy.CTS_AIRTIME == 44 * US
    assert phy.BA_AIRTIME == 68 * US
    assert phy.control_airtime(20) == phy.RTS_AIRTIME


# -- shared spectrum: collisions --

def _tx(channels, start, end, bss=1):
    return Transmission(bss, tuple(channels), start, end)


def test_overlapping_transmissions_corrupt_each_other():
    s = SpectrumState()
    a = _tx((2,), 0, 100, bss=1)
    b = _tx((2,), 10, 90, bss=2)
    s.add(a, 0)
    s.add(b, 10)
    assert a.corrupted and b.corrupted


def test_disjoint_channel_sets_never_interact():
    s = SpectrumState()
    a = _tx((1,), 0, 100, bss=1)
    b = _tx((2,), 10, 90, bss=2)
    s.add(a, 0)
    s.add(b, 10)
    assert not a.corrupted and not b.corrupted


def test_partial_width_overlap_corrupts_both():
    s = SpectrumState()
    a = _tx((1, 2), 0, 100, bss=1)
    b = _tx((3, 4), 5, 90, bss=2)
    c = _tx((1, 2, 3, 4), 10, 80, bss=3)
    s.add(a, 0)
    s.add(b, 5)
    assert not a.corrupted and not b.corrupted
    s.add(c, 10)
    assert a.corrupted and b.corrupted and c.corrupted


# -- busy views --

def test_deferral_counts_own_bss_but_features_do_not():
    s = SpectrumState()
    s.observe(1)
    s.observe(7)
    s.add(_tx((3, 4), 0, 100, bss=7), 0)
    assert s.idle_since(3) is None and s.idle_since(4) is None
    assert s.idle_since(1) is not None
    assert s.feature_busy_flags(own_bss=1, now=50) == (0, 0, 1, 1)
    assert s.feature_busy_flags(own_bss=7, now=50) == (0, 0, 0, 0)


def test_idle_since_none_while_busy():
    s = SpectrumState()
    tx = _tx((1,), 0, 50, bss=1)
    s.add(tx, 0)
    assert s.idle_since(1) is None
    s.remove(tx, 50)
    assert s.idle_since(1) == 50


def test_pifs_idle_lookback():
    s = SpectrumState()
    tx = _tx((2,), 0, 100 * US, bss=1)
    s.add(tx, 0)
    assert not s.pifs_idle(2, 100 * US)        # still on the air
    s.remove(tx, 100 * US)
    assert not s.pifs_idle(2, 100 * US + phy.PIFS - 1)
    assert s.pifs_idle(2, 100 * US + phy.PIFS)


def test_pifs_ignores_same_instant_start():
    # a frame starting exactly now is invisible to the PIFS look-back
    s = SpectrumState()
    tx = _tx((2,), 50 * US, 90 * US, bss=1)
    s.add(tx, 50 * US)
    assert s.pifs_idle(2, 50 * US)
    assert not s.pifs_idle(2, 50 * US + 1)


# -- occupancy --

def _observed(*observers):
    s = SpectrumState()
    for bss in observers:
        s.observe(bss)
    return s


def test_occupancy_silent_channel_is_zero():
    s = _observed(1)
    assert s.occupancy(own_bss=1, now=50 * MS) == (0.0, 0.0, 0.0, 0.0)


def test_occupancy_at_time_zero():
    s = _observed(1)
    assert s.occupancy(own_bss=1, now=0) == (0.0, 0.0, 0.0, 0.0)


def test_occupancy_continuous_busy_is_one():
    s = _observed(1)
    s.add(_tx((1,), 0, 1 << 60, bss=2), 0)
    occ = s.occupancy(own_bss=1, now=200 * MS)
    assert occ[0] == pytest.approx(1.0)
    assert occ[1:] == (0.0, 0.0, 0.0)


def test_occupancy_30ms_in_100ms_window():
    s = _observed(1)
    tx = _tx((3,), 10 * MS, 40 * MS, bss=2)
    s.add(tx, 10 * MS)
    s.remove(tx, 40 * MS)
    occ = s.occupancy(own_bss=1, now=100 * MS)
    assert occ[2] == pytest.approx(0.3)


def test_occupancy_invariant_under_span_splitting():
    one = _observed(1)
    tx = _tx((1,), 10 * MS, 40 * MS, bss=2)
    one.add(tx, 10 * MS)
    one.remove(tx, 40 * MS)
    two = _observed(1)
    for s0, s1 in ((10 * MS, 25 * MS), (25 * MS, 40 * MS)):
        tx = _tx((1,), s0, s1, bss=2)
        two.add(tx, s0)
        two.remove(tx, s1)
    assert one.occupancy(1, 100 * MS) == two.occupancy(1, 100 * MS)


def test_occupancy_clips_spans_to_window():
    s = _observed(1)
    tx = _tx((1,), 0, 50 * MS, bss=2)
    s.add(tx, 0)
    s.remove(tx, 50 * MS)
    # window [20, 120] ms covers only 30 ms of the span
    occ = s.occupancy(own_bss=1, now=120 * MS)
    assert occ[0] == pytest.approx(0.3)


def test_occupancy_elapsed_denominator_early_on():
    s = _observed(1)
    tx = _tx((1,), 0, 10 * MS, bss=2)
    s.add(tx, 0)
    s.remove(tx, 10 * MS)
    occ = s.occupancy(own_bss=1, now=50 * MS)
    assert occ[0] == pytest.approx(0.2)


def test_occupancy_excludes_own_bss():
    s = _observed(1, 2)
    tx = _tx((1,), 0, 30 * MS, bss=1)
    s.add(tx, 0)
    s.remove(tx, 30 * MS)
    assert s.occupancy(own_bss=1, now=100 * MS)[0] == 0.0
    assert s.occupancy(own_bss=2, now=100 * MS)[0] == pytest.approx(0.3)


def test_occupancy_unions_overlapping_foreign_spans():
    s = _observed(1)
    for bss, (s0, s1) in ((2, (10 * MS, 40 * MS)), (3, (30 * MS, 60 * MS))):
        tx = _tx((1,), s0, s1, bss=bss)
        s.add(tx, s0)
        s.remove(tx, s1)
    assert s.occupancy(own_bss=1, now=100 * MS)[0] == pytest.approx(0.5)


def test_occupancy_counts_active_transmission_up_to_now():
    s = _observed(1)
    s.add(_tx((1,), 80 * MS, 1 << 60, bss=2), 80 * MS)
    assert s.occupancy(own_bss=1, now=100 * MS)[0] == pytest.approx(0.2)


def test_occupancy_in_unit_range_always():
    s = _observed(1)
    import numpy as np
    rng = np.random.default_rng(3)
    t = 0
    for _ in range(200):
        t += int(rng.integers(1, 2 * MS))
        span = int(rng.integers(1, 5 * MS))
        ch = tuple({int(c) for c in rng.integers(1, 5, size=2)})
        tx = _tx(ch, t, t + span, bss=int(rng.integers(2, 5)))
        s.add(tx, t)
        s.remove(tx, t + span)
        occ = s.occupancy(own_bss=1, now=t + span)
        assert all(0.0 <= o <= 1.0 for o in occ)


def test_history_stays_bounded_without_occupancy_reads():
    # one 0.5 ms foreign frame per ms for a second, occupancy never read
    s = _observed(1)
    for k in range(1000):
        tx = _tx((1,), k * MS, k * MS + MS // 2, bss=2)
        s.add(tx, k * MS)
        s.remove(tx, k * MS + MS // 2)
    assert len(s.history[(1, 1)]) == 100     # the spans of the last window
    assert s.occupancy(own_bss=1, now=1000 * MS)[0] == pytest.approx(0.5)


def _union_length(spans):
    """Total length covered by a list of (start, end) spans."""
    if not spans:
        return 0
    spans.sort()
    total = 0
    cur_s, cur_e = spans[0]
    for s, e in spans[1:]:
        if s > cur_e:
            total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    return total + (cur_e - cur_s)


WINDOW = 100    # ns, so a run of 3 windows draws touching and nested spans


def _overlaps(a, b):
    """Two (channels, start, end) frames share a channel and an instant;
    end None is a frame still on the air."""
    return (bool(set(a[0]) & set(b[0])) and a[1] < (b[2] or 1 << 60)
            and b[1] < (a[2] or 1 << 60))


def _held(exchange):
    """(channels, RTS start, BA end) of an exchange."""
    _, channels, rts, planned = exchange
    return channels, rts[0], planned[-1][1]


@st.composite
def foreign_spans(draw):
    """Frames (bss, channels, start, end or None while on the air) and won
    exchanges from 2-5 BSSs over 1-4 channels, and sorted read instants
    across three windows that include every frame boundary.

    An exchange is (bss, channels, RTS, planned CTS, data and BA), each a
    (start, end) span, with gaps between them.  Like a held medium, no other
    frame or exchange shares a channel with it from its RTS start to its
    BA end."""
    n_bss = draw(st.integers(2, 5))
    chans = BASIC_CHANNELS[:draw(st.integers(1, 4))]
    some_chans = st.lists(st.sampled_from(chans), min_size=1, unique=True)
    exchanges = []
    for b, c, t, lengths in draw(st.lists(st.tuples(
            st.integers(1, n_bss), some_chans, st.integers(0, 3 * WINDOW),
            st.lists(st.integers(1, 20), min_size=7, max_size=7)),
            max_size=4)):
        # RTS, CTS, data and BA airtimes, with a gap after all but the BA
        spans = []
        for air, gap in zip(lengths[::2], lengths[1::2] + [0]):
            spans.append((t, t + air))
            t += air + gap
        ex = (b, tuple(c), spans[0], tuple(spans[1:]))
        if not any(_overlaps(_held(ex), _held(o)) for o in exchanges):
            exchanges.append(ex)
    frames = []
    for b, c, t0, d in draw(st.lists(st.tuples(
            st.integers(1, n_bss), some_chans, st.integers(0, 3 * WINDOW),
            st.one_of(st.none(), st.integers(1, WINDOW))), max_size=30)):
        f = (b, tuple(c), t0, None if d is None else t0 + d)
        if not any(_overlaps(f[1:], _held(o)) for o in exchanges):
            frames.append(f)
    boundaries = [t for f in frames for t in f[2:] if t is not None]
    boundaries += [t for ex in exchanges for span in (ex[2], *ex[3])
                   for t in span]
    reads = sorted(set(boundaries) | set(draw(st.lists(
        st.integers(0, 4 * WINDOW), min_size=1, max_size=8))))
    return n_bss, frames, exchanges, reads


@settings(max_examples=300, deadline=None)
@given(case=foreign_spans())
# a short frame inside a longer one on its channel, read inside both and
# after the short one ends
@example(case=(3, [(2, (1,), 10, 50), (3, (1,), 20, 30)], [], [25, 40]))
def test_occupancy_matches_a_union_of_the_foreign_spans(case):
    n_bss, frames, exchanges, reads = case
    s = _observed(*range(1, n_bss + 1))
    s.window = WINDOW
    txs = [_tx(c, t0, t1 if t1 is not None else 1 << 60, bss=b)
           for b, c, t0, t1 in frames]
    # ends before starts at one instant; every frame lasts at least 1 ns
    edges = ([(t0, 1, s.add, (tx, t0)) for tx, (_, _, t0, _)
              in zip(txs, frames)]
             + [(t1, 0, s.remove, (tx, t1)) for tx, (_, _, _, t1)
                in zip(txs, frames) if t1 is not None])
    for b, c, (t0, t1), planned in exchanges:
        rts = _tx(c, t0, t1, bss=b)
        edges += [(t0, 1, s.add, (rts, t0)), (t1, 0, s.hold, (rts, planned)),
                  (planned[-1][1], 0, s.remove, (rts, planned[-1][1]))]
    edges.sort(key=lambda e: e[:2])
    # every frame as (bss, channels, start, end), planned or on the air
    spans = [(b, c, t0, 1 << 60 if t1 is None else t1)
             for b, c, t0, t1 in frames]
    spans += [(b, c, t0, t1) for b, c, rts, planned in exchanges
              for t0, t1 in (rts, *planned)]
    i = 0
    for now in reads:
        while i < len(edges) and edges[i][0] <= now:
            _, _, apply, args = edges[i]
            apply(*args)
            i += 1
        horizon = max(0, now - WINDOW)
        for own in range(1, n_bss + 1):
            expect = []
            for c in BASIC_CHANNELS:
                clipped = [(max(t0, horizon), min(now, t1))
                           for b, cs, t0, t1 in spans
                           if c in cs and b != own and t0 <= now
                           and t1 > horizon]
                expect.append(_union_length(clipped) / (now - horizon)
                              if now > horizon else 0.0)
            assert s.occupancy(own, now) == tuple(expect)
            # a frame counts iff start < now <= end
            assert s.feature_busy_flags(own, now) == tuple(
                int(any(c in cs and b != own and t0 < now <= t1
                        for b, cs, t0, t1 in spans))
                for c in BASIC_CHANNELS)


# -- listener edges --

def test_listener_sees_edges_not_levels():
    s = SpectrumState()
    rec = ListenerRecorder()
    s.subscribe(2, rec)
    a = _tx((2,), 10, 100, bss=1)
    b = _tx((2,), 20, 80, bss=2)
    s.add(a, 10)
    s.add(b, 20)          # channel already busy: no second edge
    s.remove(b, 80)       # still busy with a: no idle edge
    s.remove(a, 100)
    assert rec.events == [("busy", 2, 10), ("idle", 2, 100)]
    s.unsubscribe(2, rec)
    s.add(_tx((2,), 110, 120, bss=1), 110)
    assert len(rec.events) == 2
