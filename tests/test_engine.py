"""Event kernel: ordering, cancellation, clock advance, seeded streams."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlansim.engine import (ARRIVAL, BLOCK, FN, SEC, BlockRng, Scheduler,
                            TIMER, rng_stream)


def _collect(sim, log, tag):
    return lambda: log.append((sim.now(), tag))


def test_equal_times_fire_in_insertion_order():
    sim = Scheduler()
    log = []
    sim.schedule(100, TIMER, "n", _collect(sim, log, "a"))
    sim.schedule(100, TIMER, "n", _collect(sim, log, "b"))
    sim.schedule(100, TIMER, "n", _collect(sim, log, "c"))
    sim.run_until(100)
    assert log == [(100, "a"), (100, "b"), (100, "c")]


def test_time_order_beats_insertion_order():
    sim = Scheduler()
    log = []
    sim.schedule(300, TIMER, "n", _collect(sim, log, "late"))
    sim.schedule(200, TIMER, "n", _collect(sim, log, "early"))
    sim.run_until(400)
    assert [tag for _, tag in log] == ["early", "late"]


def test_same_tick_chains_run_before_next_tick():
    # an event at t scheduling work at t runs it after already-queued
    # t events but before anything at t+1
    sim = Scheduler()
    log = []

    def first():
        log.append("first")
        sim.schedule(10, TIMER, "n", lambda: log.append("chained"))

    sim.schedule(10, TIMER, "n", first)
    sim.schedule(10, TIMER, "n", lambda: log.append("second"))
    sim.schedule(11, TIMER, "n", lambda: log.append("next_tick"))
    sim.run_until(11)
    assert log == ["first", "second", "chained", "next_tick"]


def test_cancelled_event_never_fires():
    sim = Scheduler()
    log = []
    keep = sim.schedule(50, TIMER, "n", _collect(sim, log, "keep"))
    drop = sim.schedule(50, TIMER, "n", _collect(sim, log, "drop"))
    sim.cancel(drop)
    executed = sim.run_until(60)
    assert log == [(50, "keep")]
    assert executed == 1
    assert keep[FN] is not None and drop[FN] is None


def test_run_until_counts_and_resumes():
    sim = Scheduler()
    fired = []
    for t in (1 * SEC, 2 * SEC, 3 * SEC):
        sim.schedule(t, TIMER, "n", lambda t=t: fired.append(t))
    assert sim.run_until(2 * SEC) == 2
    assert sim.now() == 2 * SEC
    assert sim.run_until(3 * SEC) == 1
    assert fired == [1 * SEC, 2 * SEC, 3 * SEC]


def test_empty_queue_still_advances_clock():
    sim = Scheduler()
    assert sim.run_until(60 * SEC) == 0
    assert sim.now() == 60 * SEC


def test_scheduling_into_the_past_raises():
    sim = Scheduler()
    sim.schedule(100, TIMER, "n", lambda: None)
    sim.run_until(100)
    with pytest.raises(RuntimeError):
        sim.schedule(99, TIMER, "n", lambda: None)
    # scheduling exactly at the current clock is legal
    sim.schedule(100, TIMER, "n", lambda: None)


def _live(sim):
    """Heap entries whose event is still pending."""
    return sum(1 for entry in sim._heap if entry[FN] is not None)


def test_pending_excludes_cancelled():
    sim = Scheduler()
    sim.schedule(10, TIMER, "n", lambda: None)
    ev = sim.schedule(20, TIMER, "n", lambda: None)
    sim.cancel(ev)
    assert len(sim._heap) == 2 and _live(sim) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_heap_property_under_random_load(seed):
    rng = np.random.default_rng(seed)
    sim = Scheduler()
    fired_times = []
    fired_ids = []
    handles = []

    def fire(t, ident):
        fired_times.append(t)
        fired_ids.append(ident)
        # occasionally extend the cascade from inside an event
        if rng.random() < 0.2:
            dt = int(rng.integers(0, 1000))
            sim.schedule(sim.now() + dt, TIMER, "n",
                         fire, sim.now() + dt, "cascade")

    for i in range(400):
        t = int(rng.integers(0, 100_000))
        handles.append(sim.schedule(t, TIMER, "n", fire, t, i))
    dropped = {int(i) for i in rng.choice(len(handles), size=80, replace=False)}
    for i in dropped:
        sim.cancel(handles[i])
    executed = sim.run_until(200_000)

    assert fired_times == sorted(fired_times)
    assert executed == len(fired_times)
    top_level = {i for i in fired_ids if i != "cascade"}
    assert top_level == set(range(400)) - dropped


def test_trace_is_deterministic():
    def scripted(trace_log):
        sim = Scheduler(trace=lambda t, kind, node: trace_log.append((t, kind, node)))
        rng = np.random.default_rng(7)
        for _ in range(200):
            t = int(rng.integers(0, 50_000))
            sim.schedule(t, TIMER, f"node{int(rng.integers(0, 4))}", lambda: None)
        sim.run_until(50_000)
        return trace_log

    assert scripted([]) == scripted([])


def test_rng_stream_keyed_reproducibly():
    a = rng_stream(42, 3, 2, 1).random(8)
    b = rng_stream(42, 3, 2, 1).random(8)
    assert np.array_equal(a, b)
    for other_key in [(43, 3, 2, 1), (42, 4, 2, 1), (42, 3, 1, 1), (42, 3, 2, 0)]:
        c = rng_stream(*other_key).random(8)
        assert not np.array_equal(a, c)


# -- block draws --

# powers of two never reject; 2**31 + 1 rejects about half of its 32-bit
# draws, 2**32 - 1 one in 2**32; one value takes no draw at all
bounds = st.sampled_from([1, 2, 16, 1024, 3, 5, 1000, 2 ** 31 + 1,
                          2 ** 32 - 1, 2 ** 32]) | st.integers(1, 2 ** 32)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), lows=st.lists(st.integers(0, 9),
       min_size=1, max_size=5), ns=st.lists(bounds, min_size=1, max_size=12))
def test_block_integers_equal_the_generators_own_calls(seed, lows, ns):
    own = rng_stream(seed, 0, 1, 0)
    block = BlockRng(rng_stream(seed, 0, 1, 0))
    for k in range(3 * BLOCK):    # crosses several block ends
        low, n = lows[k % len(lows)], ns[k % len(ns)]
        assert block.integers(low, low + n) == int(own.integers(low, low + n))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), sizes=st.lists(
    st.integers(0, 300) | st.integers(BLOCK - 5, 2 * BLOCK + 5),
    min_size=1, max_size=12))
def test_block_random_chunks_equal_one_generator_call(seed, sizes):
    block = BlockRng(rng_stream(seed, 0, 1, 2))
    sizes = [*sizes, 97]          # every pass moves on
    chunks = []
    while sum(len(c) for c in chunks) < 3.5 * BLOCK:
        chunks.extend(block.random(n) for n in sizes)
    got = np.concatenate(chunks)
    assert np.array_equal(got, rng_stream(seed, 0, 1, 2).random(len(got)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), sizes=st.lists(
    st.integers(0, 300) | st.integers(BLOCK - 5, 2 * BLOCK + 5),
    min_size=1, max_size=12))
def test_block_random_rewind_gives_the_same_draw_again(seed, sizes):
    block = BlockRng(rng_stream(seed, 0, 1, 2))
    sizes = [*sizes, 97]          # every pass moves on
    chunks = []
    while sum(len(c) for c in chunks) < 3.5 * BLOCK:
        for n in sizes:
            first = block.random(n).copy()
            block.rewind(n)
            again = block.random(n)
            assert np.array_equal(first, again)
            chunks.append(again)
    # a rewound draw is handed out once: the stream is the generator's own
    got = np.concatenate(chunks)
    assert np.array_equal(got, rng_stream(seed, 0, 1, 2).random(len(got)))


def test_block_integers_reject_an_empty_or_wide_range():
    block = BlockRng(rng_stream(1, 0, 1, 0))
    for low, high in ((3, 3), (0, 2 ** 32 + 1)):
        with pytest.raises(ValueError):
            block.integers(low, high)


# -- arrivals first at a tie --

def _arrival(sim, t, bss_id, log):
    return sim.schedule(t, ARRIVAL, f"ap{bss_id}", log.append, bss_id,
                        bss_id=bss_id)


@pytest.mark.parametrize("arrival_scheduled_first", [True, False])
def test_arrival_runs_first_at_a_tie(arrival_scheduled_first):
    sim = Scheduler()
    log = []
    if arrival_scheduled_first:
        _arrival(sim, 20, 1, log)
    sim.schedule(20, TIMER, "n", log.append, "timer")
    if not arrival_scheduled_first:
        _arrival(sim, 20, 1, log)
    sim.run_until(30)
    assert log == [1, "timer"]


@pytest.mark.parametrize("order", list(itertools.permutations((1, 2, 3))))
def test_same_nanosecond_arrivals_run_in_bss_order(order):
    # two arrivals are scheduled up front, in the given order; the third is
    # woken at 10 by an event
    sim = Scheduler()
    log = []
    first, second, woken = order
    _arrival(sim, 20, first, log)
    _arrival(sim, 20, second, log)
    sim.schedule(10, TIMER, "w", _arrival, sim, 20, woken, log)
    sim.run_until(30)
    assert log == [1, 2, 3]


def test_woken_arrival_runs_ahead_of_queued_events():
    sim = Scheduler()
    log = []
    sim.schedule(20, TIMER, "x", log.append, "x")
    sim.schedule(15, TIMER, "w", _arrival, sim, 20, 2, log)
    sim.schedule(17, TIMER, "y", sim.schedule, 20, TIMER, "y", log.append,
                 "y")
    sim.run_until(30)
    assert log == [2, "x", "y"]


def test_cancelled_arrival_and_its_replacement_share_a_nanosecond():
    sim = Scheduler()
    log = []
    old = sim.schedule(20, ARRIVAL, "ap1", log.append, "old", bss_id=1)
    sim.cancel(old)
    sim.schedule(20, TIMER, "n", log.append, "timer")
    sim.schedule(20, ARRIVAL, "ap1", log.append, "new", bss_id=1)
    # both arrival entries sit on the heap; their keys still differ
    assert len(sim._heap) == 3 and _live(sim) == 2
    sim.run_until(30)
    assert log == ["new", "timer"]
