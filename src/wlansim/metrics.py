"""Per-BSS measurement and post-run aggregation.

Instantaneous goodput is sampled at each data-frame reception as the bits
newly delivered over the gap since the previous reception; aggregates are
time-weighted so dense sample bursts do not dominate.  Raw per-packet data
lives in compact arrays, a 60 s saturated run delivers on the order of a
million packets per BSS.  A reception appends all its packets' delays in one
call; a packet's delivery time is its reception's, so the per-packet times
are rebuilt from the receptions when a window needs them.  Decisions are
arms, indices into agents.JOINT_ACTIONS, named only in the records.
"""

from array import array

import numpy as np

from .agents import ACTION_KEYS, JOINT_ACTIONS
from .engine import MS
from .mac import PACKET_BYTES

PACKET_BITS = PACKET_BYTES * 8

# arms in action-key order, the order shares are summed in (it fixes their
# bits), and each arm's channel and (channel, cw) name
KEY_ORDER = sorted(range(len(ACTION_KEYS)), key=ACTION_KEYS.__getitem__)
ARM_CHANNEL = tuple(f"ch{a.label}" for a in JOINT_ACTIONS)
ARM_PAIR = tuple(f"ch{a.label}:cw{a.cw}" for a in JOINT_ACTIONS)


class BssMetrics:
    """Raw per-BSS counters filled in during a run."""

    def __init__(self, bss_id):
        self.bss_id = bss_id
        self.sample_t = array("q")     # ns of each data-frame reception
        self.sample_bits = array("q")  # newly delivered payload bits
        self.delay_ns = array("q")     # per delivered packet, by reception
        self.acked_bytes = 0
        self.retry_drops = 0
        self.cycles = 0
        self.decision_t = array("q")        # cycle start ns of each decision
        self.decision_arm = array("B")      # its arm
        self.decision_reward = array("d")   # the reward the cycle paid

    def record_decision(self, t, arm, reward):
        self.decision_t.append(t)
        self.decision_arm.append(arm)
        self.decision_reward.append(reward)

    def record_data_reception(self, now, delays):
        """One data-frame reception and the delays, in ns, of the packets it
        delivered.  A delivered packet is acked and leaves the queue, so no
        packet is recorded twice."""
        delays = np.asarray(delays, dtype=np.int64)
        self.sample_t.append(now)
        self.sample_bits.append(len(delays) * PACKET_BITS)
        self.acked_bytes += len(delays) * PACKET_BYTES
        self.delay_ns.frombytes(delays.tobytes())

    def drop_last_reception(self):
        """Forget the latest reception, with its packets."""
        self.sample_t.pop()
        n = self.sample_bits.pop() // PACKET_BITS
        self.acked_bytes -= n * PACKET_BYTES
        if n:
            del self.delay_ns[-n:]

    def drop_receptions_after(self, t):
        """Forget the receptions stamped after t, with their packets."""
        while self.sample_t and self.sample_t[-1] > t:
            self.drop_last_reception()

    def ack_times(self):
        """Delivery time of each packet in delay_ns."""
        return np.repeat(np.asarray(self.sample_t, dtype=np.int64),
                         np.asarray(self.sample_bits) // PACKET_BITS)


def time_weighted_goodput(sample_t, sample_bits, w0, w1):
    """Time-weighted mean goodput over (w0, w1], in Mbps.

    Each sample's instantaneous rate holds over its inter-sample gap
    (prev, t], clipped to the window; uncovered time counts as zero.
    """
    if w1 <= w0 or len(sample_t) == 0:
        return 0.0
    t = np.asarray(sample_t, dtype=np.float64)
    bits = np.asarray(sample_bits, dtype=np.float64)
    prev = np.concatenate(([0.0], t[:-1]))
    lo = np.maximum(prev, w0)
    hi = np.minimum(t, w1)
    mask = (hi > lo) & (t > prev)
    if not mask.any():
        return 0.0
    rates = bits[mask] / (t[mask] - prev[mask])
    acc = float(np.sum(rates * (hi[mask] - lo[mask])))
    return acc / (w1 - w0) * 1e3   # bits/ns -> Mbps


def jain_fairness(values):
    """(sum)^2 / (n * sum of squares); None when everything is zero."""
    values = list(values)
    total = sum(values)
    sq = sum(v * v for v in values)
    if sq == 0:
        return None
    return total * total / (len(values) * sq)


def delay_stats_ms(delay_ns, ack_t, w0, w1):
    """Mean and 25/50/75th percentile delay for the packets delivered in
    (w0, w1], the rule goodput follows, so adjacent windows share none."""
    d = np.asarray(delay_ns, dtype=np.float64)
    t = np.asarray(ack_t, dtype=np.float64)
    sel = d[(t > w0) & (t <= w1)] / MS
    if sel.size == 0:
        return {"mean": None, "p25": None, "p50": None, "p75": None, "count": 0}
    p25, p50, p75 = np.percentile(sel, [25, 50, 75])
    return {"mean": float(sel.mean()), "p25": float(p25), "p50": float(p50),
            "p75": float(p75), "count": int(sel.size)}


def interval_windows(duration_ns, interval_ns, burn_in_ns):
    """Analysis windows per interval; burn-in trims only the first."""
    out = []
    start = 0
    while start < duration_ns:
        end = min(start + interval_ns, duration_ns)
        out.append((max(start, burn_in_ns), end))
        start = end
    return out


def selection_frequencies(decision_t, decision_arm, w0, w1):
    """Share of each arm among the decisions whose cycle started in [w0, w1),
    as {arm: fraction} in action-key order."""
    t = np.asarray(decision_t, dtype=np.int64)
    sel = np.asarray(decision_arm)[(t >= w0) & (t < w1)]
    counts = np.bincount(sel, minlength=len(ACTION_KEYS)).tolist()
    return {a: counts[a] / len(sel) for a in KEY_ORDER if counts[a]}


def _collapse(freqs, names):
    """Sum per-arm fractions by name, in freqs' (action-key) order."""
    out = {}
    for arm, frac in freqs.items():
        out[names[arm]] = out.get(names[arm], 0.0) + frac
    return out


def channel_frequencies(freqs):
    """Collapse per-arm fractions onto the channel label (chL)."""
    return _collapse(freqs, ARM_CHANNEL)


def pair_frequencies(freqs):
    """Collapse onto (channel label, cw) pairs; exposes selection coupling."""
    return _collapse(freqs, ARM_PAIR)
