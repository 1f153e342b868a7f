"""Aggregation math: goodput windows, fairness, delays, histograms."""

import numpy as np
import pytest

from wlansim.agents import ACTION_KEYS
from wlansim.engine import MS, SEC
from wlansim.metrics import (BssMetrics, channel_frequencies, delay_stats_ms,
                             interval_windows, jain_fairness, pair_frequencies,
                             selection_frequencies, time_weighted_goodput)


def test_constant_stream_measures_its_rate():
    # 1e6 bits every 10 ms is 100 Mbps on the nose
    t = [k * 10 * MS for k in range(1, 101)]
    bits = [1_000_000] * 100
    assert time_weighted_goodput(t, bits, 0, SEC) == pytest.approx(100.0)


def test_single_sample_spreads_over_its_gap():
    t, bits = [SEC], [100_000_000]
    assert time_weighted_goodput(t, bits, 0, 4 * SEC) == pytest.approx(25.0)
    # window fully inside the gap sees the instantaneous rate
    assert time_weighted_goodput(t, bits, SEC // 4, 3 * SEC // 4) == \
        pytest.approx(100.0)
    # window straddling the sample counts the uncovered half as zero
    assert time_weighted_goodput(t, bits, SEC // 2, 3 * SEC // 2) == \
        pytest.approx(50.0)
    # window after the sample saw no traffic at all
    assert time_weighted_goodput(t, bits, 2 * SEC, 4 * SEC) == 0.0


def test_degenerate_windows():
    assert time_weighted_goodput([], [], 0, SEC) == 0.0
    assert time_weighted_goodput([1000], [100], SEC, SEC) == 0.0
    assert time_weighted_goodput([1000], [100], 2 * SEC, SEC) == 0.0


def test_goodput_is_additive_over_a_partition():
    rng = np.random.default_rng(3)
    t = np.sort(rng.integers(1, 60 * SEC, 400)).tolist()
    bits = rng.integers(1, 600_000, 400).tolist()
    edges = [2 * SEC, 15 * SEC, 30 * SEC, 45 * SEC, 60 * SEC]
    whole = time_weighted_goodput(t, bits, edges[0], edges[-1])
    parts = sum(
        time_weighted_goodput(t, bits, lo, hi) * (hi - lo)
        for lo, hi in zip(edges, edges[1:]))
    assert parts / (edges[-1] - edges[0]) == pytest.approx(whole, rel=1e-9)


def test_jain_fairness():
    assert jain_fairness([100.0, 100.0, 100.0]) == pytest.approx(1.0)
    assert jain_fairness([210.0, 195.0, 240.0, 150.0]) == pytest.approx(
        0.973994452149792, rel=1e-12)
    assert jain_fairness([300.0, 0.0]) == pytest.approx(0.5)
    assert jain_fairness([0.0, 0.0]) is None


def test_delay_quartiles_small_case():
    delay = [k * MS for k in (1, 2, 3, 4, 5)]
    ack = [k * MS for k in range(1, 6)]
    stats = delay_stats_ms(delay, ack, 0, SEC)
    assert stats["count"] == 5
    assert stats["mean"] == pytest.approx(3.0)
    assert (stats["p25"], stats["p50"], stats["p75"]) == (2.0, 3.0, 4.0)


def test_delay_window_filters_on_delivery_time():
    # the ack at 2 s belongs to the window that ends there
    delay = [1 * MS, 9 * MS, 2 * MS]
    ack = [1 * SEC, 2 * SEC, 3 * SEC]
    stats = delay_stats_ms(delay, ack, 2 * SEC, 3 * SEC)
    assert stats["count"] == 1
    assert stats["mean"] == pytest.approx(2.0)


def test_a_delivery_on_a_window_boundary_counts_once():
    delay, ack = [4 * MS], [1 * SEC]
    before = delay_stats_ms(delay, ack, 0, SEC)
    after = delay_stats_ms(delay, ack, SEC, 2 * SEC)
    assert (before["count"], before["mean"]) == (1, pytest.approx(4.0))
    assert after["count"] == 0


def test_delay_empty_window():
    stats = delay_stats_ms([MS], [MS], 2 * SEC, 3 * SEC)
    assert stats == {"mean": None, "p25": None, "p50": None, "p75": None,
                     "count": 0}


def test_delay_quartiles_ordered_fuzz():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = rng.exponential(3 * MS, 200).astype(np.int64) + 1
        ack = np.sort(rng.integers(0, SEC, 200))
        s = delay_stats_ms(d, ack, 0, SEC)
        assert s["p25"] <= s["p50"] <= s["p75"]
        assert d.min() / MS <= s["mean"] <= d.max() / MS


def test_interval_windows_trim_burn_in_only_first():
    assert interval_windows(60 * SEC, 15 * SEC, 2 * SEC) == [
        (2 * SEC, 15 * SEC), (15 * SEC, 30 * SEC),
        (30 * SEC, 45 * SEC), (45 * SEC, 60 * SEC)]
    assert interval_windows(50 * SEC, 15 * SEC, 0) == [
        (0, 15 * SEC), (15 * SEC, 30 * SEC),
        (30 * SEC, 45 * SEC), (45 * SEC, 50 * SEC)]


def _decisions(*rows):
    """A BssMetrics that logged one decision per (cycle start, action key)."""
    m = BssMetrics(1)
    for t, key in rows:
        m.record_decision(t, ACTION_KEYS.index(key), 0.5)
    return m


def _shares(m, w0, w1):
    return selection_frequencies(m.decision_t, m.decision_arm, w0, w1)


def test_selection_frequencies_window_and_normalization():
    m = _decisions((0, "ch2:p2:cw32"), (SEC, "ch2:p2:cw32"),
                   (2 * SEC, "ch7:p1:cw16"), (3 * SEC, "ch1:p1:cw16"))
    freqs = _shares(m, 0, 3 * SEC)
    keys = [ACTION_KEYS[a] for a in freqs]
    assert dict(zip(keys, freqs.values())) == {
        "ch2:p2:cw32": pytest.approx(2 / 3),
        "ch7:p1:cw16": pytest.approx(1 / 3)}
    assert keys == sorted(keys)
    assert _shares(m, 10 * SEC, 20 * SEC) == {}


def test_frequency_collapses():
    freqs = {ACTION_KEYS.index(k): v for k, v in {
        "ch5:p1:cw32": 0.4, "ch5:p2:cw32": 0.3, "ch5:p2:cw64": 0.1,
        "ch7:p1:cw16": 0.2}.items()}
    assert channel_frequencies(freqs) == {
        "ch5": pytest.approx(0.8), "ch7": pytest.approx(0.2)}
    assert pair_frequencies(freqs) == {
        "ch5:cw32": pytest.approx(0.7), "ch5:cw64": pytest.approx(0.1),
        "ch7:cw16": pytest.approx(0.2)}
    # a share is the sum of its arms' fractions, not count / total: three
    # arms picked once each in five decisions read 0.2 + 0.2 + 0.2
    m = _decisions((0, "ch1:p1:cw16"), (1, "ch2:p2:cw16"),
                   (2, "ch2:p2:cw32"), (3, "ch2:p2:cw64"), (4, "ch3:p3:cw16"))
    assert channel_frequencies(_shares(m, 0, 5))["ch2"] == (
        0.2 + 0.2 + 0.2) == 0.6000000000000001
    m = _decisions((0, "ch1:p1:cw16"), (1, "ch2:p2:cw16"),
                   (2, "ch7:p1:cw16"), (3, "ch7:p2:cw16"), (4, "ch7:p3:cw16"))
    assert pair_frequencies(_shares(m, 0, 5))["ch7:cw16"] == (
        0.2 + 0.2 + 0.2) == 0.6000000000000001


def test_bss_metrics_counters():
    m = BssMetrics(4)
    m.record_data_reception(1000, [1000])
    m.record_data_reception(2000, [])
    assert m.acked_bytes == 1500
    assert list(m.sample_bits) == [12_000, 0]
    assert list(m.delay_ns) == [1000]
    assert list(m.ack_times()) == [1000]
