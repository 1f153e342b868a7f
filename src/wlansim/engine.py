"""Deterministic discrete-event kernel.

Simulation time is an integer nanosecond count, so identical runs produce
identical clocks with no float drift.  Events fire in (time, sequence) order;
the sequence number makes same-time ordering follow insertion order, which is
what keeps traces reproducible.

A process that keeps rescheduling itself, such as a traffic source, may run
its occurrences off the heap while nothing observes them (LazyStream).  The
order stays the heap's: an occurrence at the same nanosecond as an event runs
first iff it was scheduled first, which is decided by what scheduled each of
them.  So every event records the key of the event that scheduled it, and
the scheduler keeps those keys for its last RING_SLOTS events and its last
RING_SLOTS lazy occurrences, in two fixed-size rings.
"""

import heapq

import numpy as np

# time units, in nanoseconds
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000

# event kinds; the set is closed, trace lines use these names
ARRIVAL = "arrival"
CHANNEL = "channel"
BACKOFF = "backoff"
TIMER = "timer"
FRAME_START = "frame_start"
FRAME_END = "frame_end"
ACK_TIMEOUT = "ack_timeout"
ABORT = "abort"
INTERVAL = "interval"
SIM_END = "sim_end"


# scheduling history: the origin (parent time, parent seq, order) of the
# last RING_SLOTS events, and of as many lazy occurrences
RING_SLOTS = 4096
_RING_MASK = RING_SLOTS - 1
# seq of a pending lazy occurrence; those that ran are labelled below it
LAZY = -2


class Event:
    """One scheduled callback.  The object doubles as its own cancel handle.

    origin is (parent time, parent seq, order): the key of the event that
    scheduled it and the scheduler's count at that moment.  seq equals order
    unless the event is a woken lazy occurrence or was renumbered behind one.
    """

    __slots__ = ("fire_at", "seq", "kind", "node", "fn", "args", "cancelled",
                 "origin")

    def __init__(self, fire_at, seq, kind, node, fn, args, origin):
        self.fire_at = fire_at
        self.seq = seq
        self.kind = kind
        self.node = node
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.origin = origin


class Scheduler:
    """Min-heap event queue over integer-nanosecond time."""

    def __init__(self, trace=None):
        self._now = 0
        self._seq = 0
        self._heap = []
        self._trace = trace  # callable(time_ns, kind, node) or None
        self._running = False
        # the executing event; before the first one, a root keyed (0, -1)
        self._ev = Event(0, -1, None, None, None, (), (-1, -1, -1))
        self._ring = [None] * RING_SLOTS
        self._lazy_n = 0       # lazy occurrences that ran, for their labels
        self._lazy_ring = [None] * RING_SLOTS

    def now(self):
        return self._now

    def schedule(self, fire_at, kind, node, fn, *args):
        """Queue fn(*args) to run at fire_at.  Returns the Event as a handle."""
        now = self._now
        if fire_at < now:
            raise RuntimeError(
                f"scheduling into the past: {fire_at} < now {now}")
        seq = self._seq
        self._seq = seq + 1
        origin = (now, self._ev.seq, seq)
        ev = Event(int(fire_at), seq, kind, node, fn, args, origin)
        self._ring[seq & _RING_MASK] = origin
        heapq.heappush(self._heap, (ev.fire_at, seq, ev))
        return ev

    def cancel(self, ev):
        # lazy removal: the heap entry stays and is skipped on pop
        ev.cancelled = True

    def run_until(self, end):
        """Execute events with fire_at <= end; returns the executed count."""
        heap = self._heap
        trace = self._trace
        executed = 0
        self._running = True
        while heap and heap[0][0] <= end:
            fire_at, _, ev = heapq.heappop(heap)
            if ev.cancelled:
                continue
            self._now = fire_at
            self._ev = ev
            if trace is not None:
                trace(fire_at, ev.kind, ev.node)
            ev.fn(*ev.args)
            executed += 1
        self._running = False
        if self._now < end:
            self._now = end
        return executed

    def pending(self):
        return sum(1 for _, _, ev in self._heap if not ev.cancelled)

    # -- ordering history, for LazyStream --

    def _origin(self, seq):
        """(parent time, parent seq, order) of the event or lazy occurrence
        keyed seq."""
        if seq >= 0:
            n, count, ring = seq, self._seq, self._ring
        elif seq < LAZY:
            n, count, ring = LAZY - 1 - seq, self._lazy_n, self._lazy_ring
        else:
            raise RuntimeError("the run's start has no scheduler")
        if count - n > RING_SLOTS:
            raise RuntimeError(
                f"same-nanosecond tie reaches {seq}, past the scheduling "
                f"history")
        return ring[n & _RING_MASK]

    def _runs_first(self, a_seq, a_origin, b_seq, b_origin):
        """Whether a runs before b, both due at the same nanosecond.

        Each side is a seq (LAZY or below for a lazy occurrence) and its
        origin.  Two events run in seq order.  Otherwise the one scheduled
        first runs first: by its scheduler's time, then, under one scheduler,
        by order, and if the schedulers share a nanosecond, by the same rule
        one level up.
        """
        while True:
            if a_seq > LAZY and b_seq > LAZY:
                return a_seq < b_seq
            a_t, a_parent, a_order = a_origin
            b_t, b_parent, b_order = b_origin
            if a_t != b_t:
                return a_t < b_t
            if a_parent == b_parent:
                return a_order < b_order
            a_seq, a_origin = a_parent, self._origin(a_parent)
            b_seq, b_origin = b_parent, self._origin(b_parent)

    def _push(self, ev):
        """Give ev the next seq, record its origin, and queue it."""
        ev.seq = seq = self._seq
        self._seq = seq + 1
        self._ring[seq & _RING_MASK] = ev.origin
        heapq.heappush(self._heap, (ev.fire_at, seq, ev))


class LazyStream:
    """Occurrences of a self-rescheduling process, kept off the heap.

    Each occurrence is scheduled by the one before it.  The owner defers an
    occurrence instead of scheduling it, runs the due ones itself, and wakes
    the pending one into a real event once it can no longer be deferred.
    Due means due in the heap's order: an occurrence at the current
    nanosecond runs before the executing event iff it was scheduled first.
    """

    def __init__(self, sim):
        self._sim = sim
        self.time = None       # of the pending occurrence, None without one
        self._origin = None    # (parent time, parent seq, order) of it

    def defer(self, t):
        """The executing event schedules an occurrence at t, off the heap."""
        sim = self._sim
        order = sim._seq       # a seq of its own keeps its place unique
        sim._seq = order + 1
        self._origin = (sim._now, sim._ev.seq, order)
        self.time = t

    def drop(self):
        self.time = None
        self._origin = None

    def run_due(self, gap):
        """Run the occurrences due before the present point (the executing
        event, or after the last one between runs); each schedules the next
        one gap() ns after itself.  Returns their times."""
        sim = self._sim
        now = sim._now
        t = self.time
        ran = []
        if t is None or t > now:
            return ran
        ring = sim._lazy_ring
        n = sim._lazy_n
        origin = self._origin
        ev = sim._ev
        while t < now or (t == now and (
                not sim._running
                or sim._runs_first(LAZY, origin, ev.seq, ev.origin))):
            ran.append(t)
            # it ran: label it so that later ties can walk through it
            ring[n & _RING_MASK] = origin
            origin = (t, LAZY - 1 - n, 0)
            n += 1
            t += gap()
        sim._lazy_n = n
        self.time = t
        self._origin = origin
        return ran

    def wake(self, kind, node, fn, *args):
        """Schedule the pending occurrence as a real event where the heap
        would have had it.  Same-time entries scheduled after it get new seqs
        behind it, in their old order.  Returns the Event."""
        sim = self._sim
        t, origin = self.time, self._origin
        later = sorted((ev for at, _, ev in sim._heap
                        if at == t and not ev.cancelled
                        and sim._runs_first(LAZY, origin, ev.seq,
                                            ev.origin)),
                       key=lambda ev: ev.seq)
        woken = Event(t, -1, kind, node, fn, args, origin)
        sim._push(woken)
        if later:
            moved = {id(ev) for ev in later}
            heap = sim._heap
            heap[:] = [e for e in heap if id(e[2]) not in moved]
            heapq.heapify(heap)
            for ev in later:
                sim._push(ev)
        self.drop()
        return woken


# purpose indices for the per-node RNG streams
BACKOFF_STREAM = 0
TRAFFIC_STREAM = 1
PER_STREAM = 2
PLACEMENT_STREAM = 3
AGENT_STREAM = 4
TUNING_STREAM = 5


def rng_stream(seed, trial, node, purpose):
    """Independent PCG64 generator keyed by (seed, trial, node, purpose).

    Same key gives bit-identical draws; any differing component gives a
    statistically independent stream.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial, node, purpose))
    return np.random.Generator(np.random.PCG64(ss))
