"""Event kernel: ordering, cancellation, clock advance, seeded streams."""

import numpy as np
import pytest

from wlansim.engine import (RING_SLOTS, SEC, LazyStream, Scheduler, TIMER,
                            rng_stream)


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


def test_pending_excludes_cancelled():
    sim = Scheduler()
    sim.schedule(10, TIMER, "n", lambda: None)
    ev = sim.schedule(20, TIMER, "n", lambda: None)
    sim.cancel(ev)
    assert sim.pending() == 1


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


# -- lazy streams: same-nanosecond order as if every occurrence were an event --

def _flush(stream):
    """Run the due occurrences, each scheduling the next one 5 ns later."""
    return stream.run_due(lambda: 5)


def _read_at(sim, stream, t, log):
    sim.schedule(t, TIMER, "r", lambda: log.append(_flush(stream)))


@pytest.mark.parametrize("defer_at,read_scheduled_at,first", [
    (10, 15, True),     # the occurrence was scheduled first: it runs first
    (15, 10, False),    # the read was scheduled first: the occurrence waits
])
def test_lazy_tie_depth_one(defer_at, read_scheduled_at, first):
    sim = Scheduler()
    stream = LazyStream(sim)
    log = []
    sim.schedule(defer_at, TIMER, "a", stream.defer, 20)
    sim.schedule(read_scheduled_at, TIMER, "b", _read_at, sim, stream, 20, log)
    sim.run_until(30)
    assert log == [[20] if first else []]


@pytest.mark.parametrize("defer_first", [True, False])
def test_lazy_tie_under_one_scheduler_follows_its_order(defer_first):
    sim = Scheduler()
    stream = LazyStream(sim)
    log = []

    def both():
        if defer_first:
            stream.defer(20)
            _read_at(sim, stream, 20, log)
        else:
            _read_at(sim, stream, 20, log)
            stream.defer(20)

    sim.schedule(10, TIMER, "a", both)
    sim.run_until(30)
    assert log == [[20] if defer_first else []]


@pytest.mark.parametrize("defer_at,other_at,first", [(5, 8, True),
                                                     (8, 5, False)])
def test_lazy_tie_depth_two(defer_at, other_at, first):
    # occurrence 15 schedules occurrence 20; event B at 15 schedules the read
    # at 20.  Both schedulers ran at 15, so their own schedulers decide.
    sim = Scheduler()
    stream = LazyStream(sim)
    log = []
    sim.schedule(defer_at, TIMER, "a", stream.defer, 15)
    sim.schedule(other_at, TIMER, "c", lambda: sim.schedule(
        15, TIMER, "b", _read_at, sim, stream, 20, log))
    sim.run_until(30)
    assert log == [[15, 20] if first else [15]]


def test_woken_occurrence_renumbers_later_events():
    # occurrence 15 runs lazily and schedules occurrence 20.  X (scheduled
    # before 15) runs before it and Y (scheduled at 17) after, as on a heap.
    sim = Scheduler()
    stream = LazyStream(sim)
    order = []
    sim.schedule(5, TIMER, "a", stream.defer, 15)
    sim.schedule(20, TIMER, "x", order.append, "x")
    handles = {}

    def read_then_schedule_y():
        assert _flush(stream) == [15]
        handles["y"] = sim.schedule(20, TIMER, "y", order.append, "y")

    def wake():
        handles["w"] = stream.wake(TIMER, "w", order.append, "w")

    sim.schedule(17, TIMER, "r", read_then_schedule_y)
    sim.schedule(18, TIMER, "i", wake)
    sim.run_until(30)
    assert order == ["x", "w", "y"]
    y = handles["y"]
    _, _, y_order = y.origin
    assert isinstance(y.seq, int) and y.seq > handles["w"].seq > y_order
    # Y keeps its history entry under its new seq
    assert sim._origin(y.seq) == y.origin


def test_lazy_tie_past_the_history_raises():
    sim = Scheduler()
    stream = LazyStream(sim)
    log = []
    sim.schedule(15, TIMER, "b", _read_at, sim, stream, 20, log)
    sim.schedule(5, TIMER, "a", stream.defer, 15)
    for _ in range(RING_SLOTS):
        sim.schedule(1, TIMER, "n", lambda: None)
    with pytest.raises(RuntimeError, match="history"):
        sim.run_until(30)
