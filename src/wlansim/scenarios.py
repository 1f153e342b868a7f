"""Scenario catalog and node placement.

Each scenario is a declarative ScenarioSpec: a list of BSS definitions plus
run-level settings.  Positions are drawn once per scenario seed (not per
trial) with rejection sampling until every AP-STA link supports MCS 11 at
80 MHz.  The spectrum model has every node hear every frame, so validate()
rejects a placement with a node pair outside carrier-sensing range; the
placement area's diagonal lies well inside it.
"""

import math
from dataclasses import asdict, dataclass, fields

from . import phy
from .engine import MAX_BSS_ID, PLACEMENT_STREAM, SEC, rng_stream

LEARNING = "learning"
LEGACY = "legacy"

AREA = (10.0, 10.0, 2.0)

# traffic kinds drawn at trial build when a spec says "random"
RANDOM_KINDS = ("poisson", "bursty", "vr")

# the SP2 load schedule: three distinct underloaded APs, then one repeat
N_INTERVALS = 4

# below this a source offers under one packet per 18 s at any reference
# width; far below it, its arrival gaps in ns overrun int64
MIN_LOAD = 1e-6
# a load is a fraction of the link's whole uncontended goodput; above it
# arrivals only overflow the queue, which full_buffer already models
MAX_LOAD = 1.0


@dataclass
class TrafficSpec:
    kind: str                  # full_buffer | poisson | bursty | vr | random
    load: object = None        # fraction, [lo, hi] range, or None (full buffer)
    width_ref_mhz: int = 20    # width whose max goodput anchors the fraction

    def validate(self):
        if self.kind not in ("full_buffer", "random", *RANDOM_KINDS):
            raise ValueError(f"unknown traffic kind {self.kind!r}")
        if self.kind == "full_buffer" and self.load is not None:
            raise ValueError(f"traffic kind 'full_buffer' offers no load, "
                             f"got load {self.load!r}")
        if self.kind != "full_buffer" and not _is_load(self.load):
            raise ValueError(f"traffic kind {self.kind!r} needs a load from "
                             f"{MIN_LOAD:g} to {MAX_LOAD:g} or a [lo, hi] range "
                             f"of them, got {self.load!r}")
        if self.width_ref_mhz not in (20, 40, 80):
            raise ValueError(f"width_ref_mhz {self.width_ref_mhz!r} is not "
                             f"20, 40 or 80")


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_load(load):
    """A fraction from MIN_LOAD to MAX_LOAD, or a (lo, hi) range of them."""
    bounds = load if isinstance(load, tuple) and len(load) == 2 else (load,)
    return (all(isinstance(x, (int, float)) and MIN_LOAD <= x <= MAX_LOAD
                for x in bounds)
            and bounds[0] <= bounds[-1])


TRAFFIC_KEYS = {f.name for f in fields(TrafficSpec)}


def _position(b, key):
    pos = b[key]
    if (not isinstance(pos, (list, tuple)) or len(pos) != len(AREA)
            or not all(isinstance(c, (int, float)) for c in pos)):
        raise ValueError(f"BSS {b['bss_id']} {key} must be a list of "
                         f"{len(AREA)} coordinates, got {pos!r}")
    return tuple(pos)


@dataclass
class BssSpec:
    bss_id: int
    role: str
    traffic: TrafficSpec
    channels: tuple = None     # legacy only; learning APs pick their own
    primary: int = None
    ap_pos: tuple = None
    sta_pos: tuple = None

    def validate(self):
        if self.role not in (LEARNING, LEGACY):
            raise ValueError(f"unknown role {self.role!r}")
        if self.role == LEARNING:
            for name in ("channels", "primary"):
                if getattr(self, name) is not None:
                    raise ValueError(f"BSS {self.bss_id} is learning and picks "
                                     f"its own {name}, got "
                                     f"{getattr(self, name)!r}")
        elif tuple(self.channels or ()) not in phy.CHANNEL_GROUPS:
            raise ValueError(f"BSS {self.bss_id} channels {self.channels} "
                             f"are not a legal group")
        elif not (_is_int(self.primary) and self.primary in self.channels):
            raise ValueError(f"BSS {self.bss_id} primary must be one of "
                             f"channels {self.channels}, got "
                             f"{self.primary!r}")
        try:
            self.traffic.validate()
        except ValueError as exc:
            raise ValueError(f"BSS {self.bss_id}: {exc}") from None


@dataclass
class ScenarioSpec:
    name: str
    seed: int
    bss: list
    bonding: str = "scb"
    duration_s: float = 60.0
    burn_in_s: float = 2.0
    trials: int = 20
    interval_s: float = None   # 15.0 enables the 4-interval load schedule

    def validate(self):
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an int >= 0, got {self.seed!r}")
        if not (_is_int(self.trials) and self.trials >= 1):
            raise ValueError(f"trials must be an int >= 1, got "
                             f"{self.trials!r}")
        if not self.bss:
            raise ValueError("bss must list at least one BSS")
        ids = set()
        for b in self.bss:
            if not (_is_int(b.bss_id) and 1 <= b.bss_id <= MAX_BSS_ID):
                raise ValueError(f"bss_id must be an int from 1 to "
                                 f"{MAX_BSS_ID}, got {b.bss_id!r}")
            if b.bss_id in ids:
                raise ValueError(f"bss_id {b.bss_id} names two BSSs")
            ids.add(b.bss_id)
            b.validate()
        if self.bonding not in ("scb", "dcb"):
            raise ValueError(f"unknown bonding mode {self.bonding!r}")
        times = {"duration_s": self.duration_s, "burn_in_s": self.burn_in_s}
        if self.interval_s is not None:
            times["interval_s"] = self.interval_s
        for name, value in times.items():
            if not (isinstance(value, (int, float)) and 0 <= value < math.inf):
                raise ValueError(f"{name} must be a finite number of seconds "
                                 f">= 0, got {value!r}")
        if self.interval_s and len(self.legacy_ids()) < 3:
            # the load schedule underloads three distinct legacy APs
            raise ValueError(f"interval_s needs at least 3 legacy BSSs, "
                             f"got {len(self.legacy_ids())}")
        if self.interval_s and self.burn_in_s >= self.interval_s:
            # the burn-in may trim the first interval's window, not empty it
            raise ValueError(f"burn_in_s {self.burn_in_s:g} must be shorter "
                             f"than interval_s {self.interval_s:g}")
        self.duration_ns()
        self._check_placement()

    def duration_ns(self, duration_s=None):
        """The run's duration, duration_s overriding the spec's own.  It
        must outlast the burn-in and, under a load schedule, may not outrun
        the schedule."""
        duration = int(round((duration_s or self.duration_s) * SEC))
        if self.interval_s:
            iv = int(round(self.interval_s * SEC))
            if duration > N_INTERVALS * iv:
                raise ValueError(
                    f"duration {duration / SEC:g} s exceeds the {N_INTERVALS} "
                    f"load intervals of {self.interval_s:g} s")
        if duration <= int(round(self.burn_in_s * SEC)):
            # the goodput window would be empty, the first interval inverted
            raise ValueError(
                f"duration {duration / SEC:g} s does not outlast the "
                f"burn-in of {self.burn_in_s:g} s")
        return duration

    def _check_placement(self):
        """Every link decodes at every width; every node hears every other."""
        nodes = []
        for b in self.bss:
            try:
                link_mcs_by_width(b)
            except ValueError as exc:
                raise ValueError(f"BSS {b.bss_id} link from ap_pos to sta_pos "
                                 f"does not decode: {exc}") from None
            nodes += [(f"BSS {b.bss_id} ap_pos", b.ap_pos),
                      (f"BSS {b.bss_id} sta_pos", b.sta_pos)]
        for i, (name_a, a) in enumerate(nodes):
            for name_b, b in nodes[i + 1:]:
                d = math.dist(a, b)
                if d > _SENSE_RANGE_M:
                    raise ValueError(
                        f"{name_a} and {name_b} are {d:.1f} m apart, beyond "
                        f"the {_SENSE_RANGE_M:.1f} m sensing range")

    def learning_ids(self):
        return [b.bss_id for b in self.bss if b.role == LEARNING]

    def legacy_ids(self):
        return [b.bss_id for b in self.bss if b.role == LEGACY]

    def to_dict(self):
        d = asdict(self)
        for b in d["bss"]:
            for k in ("channels", "ap_pos", "sta_pos"):
                if b[k] is not None:
                    b[k] = list(b[k])
        return d

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError(f"scenario config must be an object, got "
                             f"{type(d).__name__}")
        try:
            bss = []
            if not (isinstance(d["bss"], list)
                    and all(isinstance(b, dict) for b in d["bss"])):
                raise ValueError(f"bss must be a list of BSS objects, got "
                                 f"{d['bss']!r}")
            for b in d["bss"]:
                if not isinstance(b["traffic"], dict):
                    raise ValueError(f"BSS {b['bss_id']} traffic must be an "
                                     f"object, got {b['traffic']!r}")
                unknown = set(b["traffic"]) - TRAFFIC_KEYS
                if unknown:
                    raise ValueError(f"BSS {b['bss_id']} has unknown traffic "
                                     f"key {sorted(unknown)[0]!r}")
                if "kind" not in b["traffic"]:
                    raise ValueError(f"BSS {b['bss_id']} traffic lacks key "
                                     f"'kind'")
                t = TrafficSpec(**b["traffic"])
                load = t.load
                if isinstance(load, list):
                    t.load = tuple(load)
                if not isinstance(b["channels"], (list, type(None))):
                    raise ValueError(f"BSS {b['bss_id']} channels must be a "
                                     f"list, got {b['channels']!r}")
                bss.append(BssSpec(
                    bss_id=b["bss_id"], role=b["role"], traffic=t,
                    channels=(None if b["channels"] is None
                              else tuple(b["channels"])),
                    primary=b["primary"], ap_pos=_position(b, "ap_pos"),
                    sta_pos=_position(b, "sta_pos")))
            spec = cls(name=d["name"], seed=d["seed"], bss=bss,
                       bonding=d["bonding"], duration_s=d["duration_s"],
                       burn_in_s=d["burn_in_s"], trials=d["trials"],
                       interval_s=d["interval_s"])
        except KeyError as exc:
            raise ValueError(f"scenario config lacks key {exc}") from None
        spec.validate()
        return spec


SCENARIO_NAMES = ("sp1", "sp2", "mp1", "mp2", "mp3", "baseline-sweep",
                  "tuning-deployment")

_SENSE_RANGE_M = 10.0 ** (
    (phy.TX_POWER_DBM - phy.CCA_THRESHOLD_DBM - phy.path_loss_db(1.0))
    / (10.0 * phy.PATH_LOSS_EXPONENT))


def draw_positions(rng, n_bss):
    """AP/STA placements in AREA with every link inside MCS-11-at-80-MHz
    range."""
    max_link = phy.mcs_range_m(11, 80)
    out = []
    for _ in range(n_bss):
        ap = tuple(float(rng.uniform(0, dim)) for dim in AREA)
        while True:
            sta = tuple(float(rng.uniform(0, dim)) for dim in AREA)
            d = math.dist(ap, sta)
            if 0.0 < d <= max_link:
                break
        out.append((ap, sta))
    return out


def _full(width_ref=20):
    return TrafficSpec("full_buffer", None, width_ref)


def build_scenario(name, seed):
    """Instantiate a named scenario with positions drawn from the seed."""
    rng = rng_stream(seed, 0, 0, PLACEMENT_STREAM)
    if name in ("sp1", "baseline-sweep"):
        layout = [
            BssSpec(1, LEARNING, _full()),
            BssSpec(2, LEGACY, _full(40), channels=(3, 4), primary=3),
            BssSpec(3, LEGACY, _full(), channels=(1,), primary=1),
        ]
        spec = ScenarioSpec(name, seed, layout)
    elif name == "sp2":
        layout = [BssSpec(1, LEARNING, _full())]
        for c in (1, 2, 3, 4):
            layout.append(BssSpec(
                1 + c, LEGACY, TrafficSpec("random", (0.8, 0.9), 20),
                channels=(c,), primary=c))
        spec = ScenarioSpec(name, seed, layout, interval_s=15.0)
    elif name == "mp1":
        layout = [BssSpec(i, LEARNING, _full()) for i in (1, 2, 3)]
        spec = ScenarioSpec(name, seed, layout)
    elif name == "mp2":
        layout = [
            BssSpec(1, LEARNING, _full()),
            BssSpec(2, LEARNING, _full()),
            BssSpec(3, LEARNING, TrafficSpec("random", (0.2, 0.4), 20)),
            BssSpec(4, LEARNING, TrafficSpec("random", (0.2, 0.4), 20)),
        ]
        spec = ScenarioSpec(name, seed, layout)
    elif name == "mp3":
        layout = [
            BssSpec(1, LEARNING, TrafficSpec("random", (0.6, 0.9), 20)),
            BssSpec(2, LEARNING, TrafficSpec("random", (0.6, 0.9), 20)),
            BssSpec(3, LEGACY, TrafficSpec("random", (0.6, 0.9), 80),
                    channels=(1, 2, 3, 4), primary=1),
            BssSpec(4, LEGACY, TrafficSpec("random", (0.6, 0.9), 80),
                    channels=(1, 2, 3, 4), primary=1),
        ]
        spec = ScenarioSpec(name, seed, layout)
    elif name == "tuning-deployment":
        return build_deployment(seed, n_legacy=2, duration_s=8.0)
    else:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"known: {', '.join(SCENARIO_NAMES)}")
    _place(spec, rng)
    spec.validate()
    return spec


def build_deployment(seed, n_legacy, duration_s):
    """One random tuning deployment: a learning AP among random legacy APs.

    Its burn-in is a quarter of its run (2 s of the 8 s tuning-deployment),
    so the short runs of the tuning grid still leave a window to measure."""
    rng = rng_stream(seed, 0, 0, PLACEMENT_STREAM)
    layout = [BssSpec(1, LEARNING, _full())]
    for i in range(n_legacy):
        group = phy.CHANNEL_GROUPS[int(rng.integers(0, len(phy.CHANNEL_GROUPS)))]
        kind = ("full_buffer", *RANDOM_KINDS)[int(rng.integers(0, 4))]
        width = 20 * len(group)
        if kind == "full_buffer":
            ts = _full(width)
        else:
            ts = TrafficSpec(kind, float(rng.uniform(0.1, 0.9)), width)
        layout.append(BssSpec(2 + i, LEGACY, ts,
                              channels=group, primary=group[0]))
    spec = ScenarioSpec("tuning-deployment", seed, layout,
                        duration_s=duration_s, burn_in_s=duration_s / 4)
    _place(spec, rng)
    spec.validate()
    return spec


def _place(spec, rng):
    for b, (ap, sta) in zip(spec.bss, draw_positions(rng, len(spec.bss))):
        b.ap_pos = ap
        b.sta_pos = sta


def link_mcs_by_width(bss_spec):
    """Per-width MCS for one AP-STA link, from its placement distance."""
    rssi = phy.rssi_dbm(math.dist(bss_spec.ap_pos, bss_spec.sta_pos))
    return {w: phy.select_mcs(rssi, w) for w in (20, 40, 80)}
