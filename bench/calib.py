"""A fixed reference workload that measures the host's current speed.

The reference machine is a shared virtual machine whose speed on the same
code swings by a factor of two over seconds to minutes, with all of it in
user time: the vCPU itself runs slower or faster.  A wlansim trial timed
alone therefore measures the host as much as the program.  The measuring
process runs this kernel before and after every trial; dividing a trial's
wall time by the kernel's mean time around it cancels most of the host's
swing, because both run the same kind of code on the same vCPU moments
apart.

The kernel is a small discrete-event loop in the style of wlansim's hot path:
a heap of timed events, a seeded RNG, dict updates and attribute updates on
slotted objects spread over a few MiB, which is more than one core's L2
cache.  It imports nothing from wlansim, so a change to the simulator never
changes it.  Its work is fixed; only its wall time varies.
"""

import heapq
import random
import time

# Median wall time of one kernel pass on the reference machine (2-vCPU
# Intel Xeon, Python 3.11).  It only scales the reported figure so that it
# reads as sim-s per wall-s at that machine's typical speed.  It is fixed,
# so figures taken at different times stay comparable.
REF_S = 0.10

_NODES = 65_536
_EVENTS = 40_000
_PENDING = 1024


class _Node:
    __slots__ = ("key", "count", "acc")

    def __init__(self, key):
        self.key = key
        self.count = 0
        self.acc = 0.0


class Kernel:
    """The kernel with its nodes, built once so that a pass times only the
    event loop, not allocation."""

    def __init__(self):
        self.nodes = [_Node(i) for i in range(_NODES)]

    def run(self):
        """One pass of fixed work; returns a checksum so nothing is elided."""
        nodes = self.nodes
        rng = random.Random(12345)
        table = {}
        heap = []
        now = 0.0
        for seq in range(_EVENTS):
            heapq.heappush(heap, (now + rng.random(), seq,
                                  nodes[rng.randrange(_NODES)]))
            if len(heap) > _PENDING:
                now, key, node = heapq.heappop(heap)
                node.count += 1
                node.acc += now
                table[key & 4095] = node.count
        return len(table)

    def timed(self):
        """Wall seconds of one pass."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0
