"""Spectrum model over four 20 MHz basic channels.

Covers propagation, MCS selection, PHY rates and airtimes, plus the shared
SpectrumState that every DCF state machine senses and transmits through.
Two busy views exist on purpose: deferral sensing counts everything on the
air, while the learning features F1/F2 exclude the observer's own BSS.

A won RTS stays on the air until its BlockACK ends.  Like the NAV
(network allocation vector) that real stations set from the RTS duration
field, it keeps its channels busy across each SIFS gap, so deferral
sensing needs no second kind of occupant.  The CTS, A-MPDU and BlockACK
never go on the air as frames of their own: the won RTS carries their
planned times, from its start if it was clean then (see mac).  Every node
hears every frame from the nanosecond after it starts, so another RTS may
start only at that same nanosecond; then both collide, and add() has the
exchange's planner undo the plan.  A frame from another BSS that starts
later inside the exchange is a fault, and add() raises.

Both learning features, F1 and F2, are kept only for a BSS registered
with observe(), from one history of foreign air.  Each frame enters it
once, when its span is fixed: an RTS at its start, and the CTS, A-MPDU
and BlockACK of an exchange at the start of its clean RTS, ahead of their
own starts.  No frame may start inside an exchange, so spans arrive in
start order; an undone plan takes its spans, the last ones entered, out
again.

Readers follow one tie rule: a reader at time t sees the air as it stood
just before t, so a frame counts iff start < t <= end.  That is what a
read made by an arrival sees, since arrivals run first at a nanosecond
(see engine), and it makes every read independent of the order of the
other events at t.
"""

import math
import weakref
from collections import deque

from .engine import US, MS

# basic channels and the seven legal bonded groups, labelled #1..#7
BASIC_CHANNELS = (1, 2, 3, 4)
CHANNEL_GROUPS = ((1,), (2,), (3,), (4,), (1, 2), (3, 4), (1, 2, 3, 4))
GROUP_LABEL = {g: i + 1 for i, g in enumerate(CHANNEL_GROUPS)}

# 802.11ax SU timing
SLOT = 9 * US
SIFS = 16 * US
DIFS = SIFS + 2 * SLOT   # 34 us
PIFS = SIFS + SLOT       # 25 us
DATA_PREAMBLE = 44 * US
SYMBOL = 13_600          # ns, 12.8 us + 0.8 us GI

TX_POWER_DBM = 20.0
CCA_THRESHOLD_DBM = -82.0
FREQ_HZ = 5.0e9
PATH_LOSS_EXPONENT = 4.0

_FSPL_1M_DB = 20.0 * math.log10(4.0 * math.pi * FREQ_HZ / 3.0e8)

# MCS 0-11: (modulation bits, coding numerator, denominator, 20 MHz sensitivity dBm)
_MCS_TABLE = (
    (1, 1, 2, -82.0),
    (2, 1, 2, -79.0),
    (2, 3, 4, -77.0),
    (4, 1, 2, -74.0),
    (4, 3, 4, -70.0),
    (6, 2, 3, -66.0),
    (6, 3, 4, -65.0),
    (6, 5, 6, -64.0),
    (8, 3, 4, -59.0),
    (8, 5, 6, -57.0),
    (10, 3, 4, -54.0),
    (10, 5, 6, -52.0),
)

_SUBCARRIERS = {20: 234, 40: 468, 80: 980}

MAX_AMPDU_BYTES = 65_535

# control frames go at the lowest mandatory rate on a 20 MHz channel:
# 20 us preamble, 4 us symbols, 24 data bits per symbol, 16+6 service/tail bits
_CTRL_PREAMBLE = 20 * US
_CTRL_SYMBOL = 4 * US
_CTRL_BITS_PER_SYMBOL = 24


def path_loss_db(distance_m):
    """Log-distance path loss, free-space intercept at 1 m, exponent 4."""
    if distance_m <= 0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    return _FSPL_1M_DB + 10.0 * PATH_LOSS_EXPONENT * math.log10(distance_m)


def rssi_dbm(distance_m):
    return TX_POWER_DBM - path_loss_db(distance_m)


def sensitivity_dbm(mcs, width):
    # +3 dB per bandwidth doubling relative to the 20 MHz column
    return _MCS_TABLE[mcs][3] + 3.0 * round(math.log2(width / 20))


def select_mcs(rssi, width=20):
    """Highest MCS index decodable at this RSSI, or ValueError if none is."""
    best = None
    for i in range(len(_MCS_TABLE)):
        if rssi >= sensitivity_dbm(i, width):
            best = i
    if best is None:
        raise ValueError(f"rssi {rssi:.1f} dBm below MCS 0 sensitivity at {width} MHz")
    return best


def mcs_range_m(mcs, width):
    """Maximum link distance at which mcs is still decodable."""
    margin = TX_POWER_DBM - sensitivity_dbm(mcs, width) - _FSPL_1M_DB
    return 10.0 ** (margin / (10.0 * PATH_LOSS_EXPONENT))


def phy_rate(mcs, width, nss=2):
    """Data rate in bits per second."""
    bits, num, den, _ = _MCS_TABLE[mcs]
    return _SUBCARRIERS[width] * bits * nss * num / den / (SYMBOL * 1e-9)


def frame_airtime(payload_bytes, mcs, width, nss=2):
    """Data-frame airtime in ns: preamble plus a whole number of OFDM symbols."""
    if payload_bytes > MAX_AMPDU_BYTES:
        raise ValueError(f"payload {payload_bytes} B exceeds {MAX_AMPDU_BYTES} B")
    bits, num, den, _ = _MCS_TABLE[mcs]
    # bits per symbol = subcarriers*bits*nss*num/den; keep the ceil exact in ints
    numer = payload_bytes * 8 * den
    denom = _SUBCARRIERS[width] * bits * nss * num
    n_symbols = -(-numer // denom)
    return DATA_PREAMBLE + n_symbols * SYMBOL


def control_airtime(frame_bytes):
    bits = 16 + 8 * frame_bytes + 6
    n_symbols = -(-bits // _CTRL_BITS_PER_SYMBOL)
    return _CTRL_PREAMBLE + n_symbols * _CTRL_SYMBOL


RTS_AIRTIME = control_airtime(20)   # 52 us
CTS_AIRTIME = control_airtime(14)   # 44 us
BA_AIRTIME = control_airtime(32)    # 68 us


class Transmission:
    """One frame on the air, spanning a set of basic channels.

    frames is None until the frame, an RTS, is won; then it holds the
    (start, end) of the planned CTS, A-MPDU and BlockACK, end is the
    BlockACK end, and planner is a weak reference to what planned them."""

    __slots__ = ("bss", "channels", "start", "end", "corrupted", "frames",
                 "planner")

    def __init__(self, bss, channels, start, end):
        self.bss = bss
        self.channels = channels
        self.start = start
        self.end = end
        self.corrupted = False
        self.frames = None
        self.planner = None


class _MergedSpans(deque):
    """Disjoint busy spans (start, end) in time order, and their summed
    length in ns."""

    __slots__ = ("total",)

    def __init__(self):
        super().__init__()
        self.total = 0

    def add(self, start, end):
        """Merge in a span that starts at or after every span held."""
        if self and self[-1][1] >= start:
            s, e = self.pop()
            self.total -= e - s
            start, end = s, max(e, end)
        self.append((start, end))
        self.total += end - start

    def drop_last(self, n):
        """Take back the last n spans added, none of which merged."""
        for _ in range(n):
            s, e = self.pop()
            self.total -= e - s

    def expire(self, horizon):
        """Drop the spans that ended at or before horizon."""
        while self and self[0][1] <= horizon:
            s, e = self.popleft()
            self.total -= e - s


class SpectrumState:
    """Shared view of the four basic channels.

    Tracks the frames on the air, won exchanges included, and subscriber
    lists so contending nodes hear busy/idle edges on their primary
    channel.  For each (channel, observer) pair, history holds the merged
    spans of the frames from other BSSs, each entered at its start (the
    planned frames of an exchange at the start of its clean RTS), so spans
    arrive in start order.  Spans expire at each frame end once they leave
    the window; a read clips the spans at both edges of the window.
    """

    def __init__(self, window=100 * MS):
        self.window = window
        self.active = {c: set() for c in BASIC_CHANNELS}
        self.last_busy_end = {c: 0 for c in BASIC_CHANNELS}
        self.observers = []
        self.history = {}
        self._listeners = {c: [] for c in BASIC_CHANNELS}

    def observe(self, bss):
        """Keep foreign occupancy for bss from now on; call before the run."""
        self.observers.append(bss)
        for c in BASIC_CHANNELS:
            self.history[(c, bss)] = _MergedSpans()

    def subscribe(self, channel, listener):
        self._listeners[channel].append(listener)

    def unsubscribe(self, channel, listener):
        self._listeners[channel].remove(listener)

    def add(self, tx, now):
        """Put a frame on the air; overlapping frames corrupt each other.

        An exchange planned at this same nanosecond has its plan undone
        first.  A frame that starts later inside a won exchange is a fault,
        since every node hears the RTS, and add() raises."""
        for c in tx.channels:
            chan_active = self.active[c]
            if chan_active:
                for other in chan_active:
                    if other.frames is not None:
                        if other.start != now:
                            raise AssertionError(
                                f"BSS {tx.bss} started a frame at {now} ns "
                                f"on channel {c}, held by the exchange of "
                                f"BSS {other.bss}")
                        other.planner().unplan(other)
                    other.corrupted = True
                tx.corrupted = True
            else:
                for listener in tuple(self._listeners[c]):
                    listener.primary_busy(c, now)
            chan_active.add(tx)
        if self.observers:
            self._enter(tx.bss, tx.channels, ((tx.start, tx.end),))

    def remove(self, tx, now):
        """Take a frame, or a won exchange, off the air."""
        for c in tx.channels:
            self.active[c].discard(tx)
            self._ended(c, now)

    def hold(self, tx, frames, planner):
        """Keep the clean RTS tx on the air through its planned frames, the
        (start, end) of its CTS, A-MPDU and BlockACK; call at its start.
        add() calls planner.unplan(tx) if an RTS starts with it; the
        reference is weak, since the planner holds this spectrum."""
        tx.frames = frames
        tx.end = frames[-1][1]
        tx.planner = weakref.ref(planner)
        if self.observers:
            self._enter(tx.bss, tx.channels, frames)

    def unhold(self, tx):
        """Undo hold(): tx is a bare RTS again.  Its planned spans are the
        last in each history: no frame has started on its channels since."""
        for observer in self.observers:
            if observer != tx.bss:
                for c in tx.channels:
                    self.history[(c, observer)].drop_last(len(tx.frames))
        tx.frames = tx.planner = None
        tx.end = tx.start + RTS_AIRTIME

    def _enter(self, bss, channels, frames):
        """Merge the spans of bss's frames on channels into the other
        observers' histories."""
        for observer in self.observers:
            if observer != bss:
                for c in channels:
                    spans = self.history[(c, observer)]
                    for start, end in frames:
                        spans.add(start, end)

    def _ended(self, channel, now):
        """A frame on channel has ended by now: note the end, expire the
        spans that left the window, and tell the listeners if the channel
        is clear."""
        self.last_busy_end[channel] = now
        expired = now - self.window
        for observer in self.observers:
            self.history[(channel, observer)].expire(expired)
        if not self.active[channel]:
            for listener in tuple(self._listeners[channel]):
                listener.primary_idle(channel, now)

    # -- deferral view (own BSS counts) --

    def idle_since(self, channel):
        """Start of the current idle stretch, or None while busy."""
        if self.active[channel]:
            return None
        return self.last_busy_end[channel]

    def pifs_idle(self, channel, now):
        """Idle through the PIFS ending at now.

        A frame starting exactly at now is invisible to this look-back, which
        is what lets two same-slot winners collide instead of one politely
        shrinking width.
        """
        for tx in self.active[channel]:
            if tx.start < now:
                return False
        return self.last_busy_end[channel] <= now - PIFS

    # -- feature view (own BSS excluded), for an observer --

    def feature_busy_flags(self, own_bss, now):
        """Per channel, 1 if a frame from another BSS was on the air just
        before now: the last span that starts before now runs to now."""
        flags = []
        for c in BASIC_CHANNELS:
            busy = 0
            for s, e in reversed(self.history[(c, own_bss)]):
                if s < now:
                    busy = int(now <= e)
                    break
            flags.append(busy)
        return tuple(flags)

    def occupancy(self, own_bss, now):
        """Fraction of the trailing window each channel was busy with foreign
        traffic.  Early in the run the denominator is the elapsed time."""
        horizon = max(0, now - self.window)
        denom = now - horizon
        if denom <= 0:
            return (0.0, 0.0, 0.0, 0.0)
        out = []
        for c in BASIC_CHANNELS:
            spans = self.history[(c, own_bss)]
            spans.expire(horizon)
            busy = spans.total
            if spans and spans[0][0] < horizon:
                busy -= horizon - spans[0][0]
            # the spans entered ahead of their end, clipped at now
            for s, e in reversed(spans):
                if e <= now:
                    break
                busy -= e - max(s, now)
            out.append(busy / denom)
        return tuple(out)
