"""Deterministic discrete-event kernel.

Simulation time is an integer nanosecond count, so identical runs produce
identical clocks with no float drift.  An event is its heap entry, a list
[fire_at, key, fn, args, kind, node] that is also its cancel handle.
Events fire in time order.  At one
nanosecond, ARRIVAL events run before every other event, in bss_id order;
the rest follow in insertion order.  This stated rule keeps traces
reproducible, and it lets a traffic source keep a busy AP's arrivals off
the heap: whatever the heap holds, every arrival at or before now has run
by the time an event at now reads a queue.  Readers of the air follow a
matching rule (see phy): a read at t sees the air as it stood just before
t, as a read made by an arrival does, so it does not depend on the order
of the other events at t.
"""

import heapq

import numpy as np

# time units, in nanoseconds
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000

# event kinds; the set is closed, trace lines use these names
ARRIVAL = "arrival"
BACKOFF = "backoff"
TIMER = "timer"
FRAME_END = "frame_end"
ACK_TIMEOUT = "ack_timeout"
ABORT = "abort"
INTERVAL = "interval"

# heap keys of ARRIVAL events: below every other event's seq, by bss_id, then
# by seq (below 2**40), which keeps a cancelled arrival's key apart
_ARRIVAL_KEY = -2 ** 62
_BSS_SHIFT = 40
# the largest bss_id whose arrival keys stay below every other event's
MAX_BSS_ID = (-_ARRIVAL_KEY >> _BSS_SHIFT) - 1


# slots of a heap entry
FIRE_AT, FN, ARGS = 0, 2, 3


class Scheduler:
    """Min-heap event queue over integer-nanosecond time.

    key is the insertion count, offset for an ARRIVAL, so (fire_at, key) is
    unique and heap comparisons never reach fn.  cancel() sets fn to None,
    and run_until skips such an entry."""

    def __init__(self, trace=None):
        self._now = 0
        self._seq = 0
        self._heap = []
        self._trace = trace  # callable(time_ns, kind, node) or None

    def now(self):
        return self._now

    def schedule(self, fire_at, kind, node, fn, *args, bss_id=0):
        """Queue fn(*args) to run at fire_at.  Returns the entry as a handle.

        bss_id ranks an ARRIVAL among the arrivals at its nanosecond."""
        if fire_at < self._now:
            raise RuntimeError(
                f"scheduling into the past: {fire_at} < now {self._now}")
        key = self._seq
        self._seq = key + 1
        if kind == ARRIVAL:
            key += _ARRIVAL_KEY + (bss_id << _BSS_SHIFT)
        entry = [int(fire_at), key, fn, args, kind, node]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, entry):
        # lazy removal: the entry stays on the heap and is skipped on pop
        entry[FN] = None

    def clear(self):
        """Drop every queued event and its callback.  A callback is mostly
        a bound method, so this breaks the cycles its object closes through
        the entries it holds and through this scheduler."""
        for entry in self._heap:
            entry[FN] = entry[ARGS] = None
        self._heap.clear()

    def run_until(self, end):
        """Execute events with fire_at <= end; returns the executed count."""
        heap = self._heap
        pop = heapq.heappop
        trace = self._trace
        executed = 0
        while heap and heap[0][0] <= end:
            fire_at, _, fn, args, kind, node = pop(heap)
            if fn is None:
                continue
            self._now = fire_at
            if trace is not None:
                trace(fire_at, kind, node)
            fn(*args)
            executed += 1
        if self._now < end:
            self._now = end
        return executed


# purpose indices for the per-node RNG streams
BACKOFF_STREAM = 0
TRAFFIC_STREAM = 1
PER_STREAM = 2
PLACEMENT_STREAM = 3
TUNING_STREAM = 5


def rng_stream(seed, trial, node, purpose):
    """Independent PCG64 generator keyed by (seed, trial, node, purpose).

    Same key gives bit-identical draws; any differing component gives a
    statistically independent stream.  Every seed enters here, so this is
    where a negative one is refused.
    """
    if seed < 0:
        raise ValueError(f"seed must be an int >= 0, got {seed!r}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial, node, purpose))
    return np.random.Generator(np.random.PCG64(ss))


# draws a BlockRng takes from its generator at a time
BLOCK = 1024
_WORD = 1 << 32


class BlockRng:
    """A generator read a block at a time, for one kind of draw.

    integers(low, high) and random(n) return exactly what the generator's
    own calls would.  integers runs numpy's bounded Lemire method (Lemire
    2019) on a block of the generator's 32-bit draws: a draw x gives
    m = x * n, it is drawn again while the low word of m is below
    2**32 % n, and the result is low + (m >> 32).  random slices a block of
    the generator's doubles.  The two kinds read the generator differently,
    so one stream serves one kind only.
    """

    __slots__ = ("_rng", "_words", "_w", "_doubles", "_d")

    def __init__(self, rng):
        self._rng = rng
        self._words = None
        self._w = BLOCK             # the first draw fills a block
        self._doubles = np.empty(0)
        self._d = 0

    def integers(self, low, high):
        n = high - low
        if not 1 < n <= _WORD:
            if n == 1:
                return low          # numpy takes no draw for one value
            raise ValueError(f"integers({low}, {high}): 2..2**32 values only")
        threshold = _WORD % n
        while True:
            if self._w == BLOCK:
                self._words = self._rng.integers(
                    0, _WORD, BLOCK, dtype=np.uint32).tolist()
                self._w = 0
            m = self._words[self._w] * n
            self._w += 1
            if m & 0xFFFFFFFF >= threshold:
                return low + (m >> 32)

    def random(self, n):
        if self._d + n > len(self._doubles):
            self._doubles = np.concatenate(
                (self._doubles[self._d:], self._rng.random(max(n, BLOCK))))
            self._d = 0
        out = self._doubles[self._d:self._d + n]
        self._d += n
        return out

    def rewind(self, n):
        """Give back the last random(n): the next random(n) returns the
        same doubles again."""
        self._d -= n
