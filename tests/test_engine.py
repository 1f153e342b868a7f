"""Event kernel: ordering, cancellation, clock advance, seeded streams."""

import itertools

import numpy as np
import pytest

from wlansim.engine import ARRIVAL, SEC, Scheduler, TIMER, rng_stream


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
    assert not keep.cancelled


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
    return sum(1 for _, _, ev in sim._heap if not ev.cancelled)


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
