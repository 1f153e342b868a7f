"""Scenario catalog and node placement.

Each scenario is a declarative ScenarioSpec: a list of BSS definitions plus
run-level settings.  Positions are drawn once per scenario seed (not per
trial) with rejection sampling until every AP-STA link supports MCS 11 at
80 MHz, and every node pair sits within carrier-sensing range.
"""

import math
from dataclasses import asdict, dataclass, fields

from . import phy
from .engine import PLACEMENT_STREAM, rng_stream

LEARNING = "learning"
LEGACY = "legacy"

AREA = (10.0, 10.0, 2.0)

# traffic kinds drawn at trial build when a spec says "random"
RANDOM_KINDS = ("poisson", "bursty", "vr")


@dataclass
class TrafficSpec:
    kind: str                  # full_buffer | poisson | bursty | vr | random
    load: object = None        # fraction, [lo, hi] range, or None (full buffer)
    width_ref_mhz: int = 20    # width whose max goodput anchors the fraction

    def validate(self):
        if self.kind not in ("full_buffer", "random", *RANDOM_KINDS):
            raise ValueError(f"unknown traffic kind {self.kind!r}")
        if self.kind != "full_buffer" and self.load is None:
            raise ValueError(f"{self.kind} traffic needs a load")
        if self.width_ref_mhz not in (20, 40, 80):
            raise ValueError(f"bad reference width {self.width_ref_mhz}")


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
        if self.role == LEGACY:
            if tuple(self.channels) not in phy.CHANNEL_GROUPS:
                raise ValueError(f"illegal group {self.channels}")
            if self.primary not in self.channels:
                raise ValueError(f"primary {self.primary} outside {self.channels}")
        self.traffic.validate()


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
    area: tuple = AREA

    def validate(self):
        if not self.bss:
            raise ValueError("scenario needs at least one BSS")
        for b in self.bss:
            b.validate()
        if self.bonding not in ("scb", "dcb"):
            raise ValueError(f"unknown bonding mode {self.bonding!r}")
        if self.interval_s and len(self.legacy_ids()) < 3:
            # the load schedule underloads three distinct legacy APs
            raise ValueError(f"interval_s needs at least 3 legacy BSSs, "
                             f"got {len(self.legacy_ids())}")
        if self.interval_s and self.burn_in_s >= self.interval_s:
            # the burn-in may trim the first interval's window, not empty it
            raise ValueError(f"burn_in_s {self.burn_in_s:g} must be shorter "
                             f"than interval_s {self.interval_s:g}")

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
        d["area"] = list(d["area"])
        return d

    @classmethod
    def from_dict(cls, d):
        try:
            bss = []
            for b in d["bss"]:
                unknown = set(b["traffic"]) - TRAFFIC_KEYS
                if unknown:
                    raise ValueError(f"BSS {b['bss_id']} has unknown traffic "
                                     f"key {sorted(unknown)[0]!r}")
                t = TrafficSpec(**b["traffic"])
                load = t.load
                if isinstance(load, list):
                    t.load = tuple(load)
                bss.append(BssSpec(
                    bss_id=b["bss_id"], role=b["role"], traffic=t,
                    channels=tuple(b["channels"]) if b["channels"] else None,
                    primary=b["primary"], ap_pos=_position(b, "ap_pos"),
                    sta_pos=_position(b, "sta_pos")))
            spec = cls(name=d["name"], seed=d["seed"], bss=bss,
                       bonding=d["bonding"], duration_s=d["duration_s"],
                       burn_in_s=d["burn_in_s"], trials=d["trials"],
                       interval_s=d["interval_s"], area=tuple(d["area"]))
        except KeyError as exc:
            raise ValueError(f"scenario config lacks key {exc}") from None
        spec.validate()
        return spec


SCENARIO_NAMES = ("sp1", "sp2", "mp1", "mp2", "mp3", "baseline-sweep",
                  "tuning-deployment")

_SENSE_RANGE_M = 10.0 ** (
    (phy.TX_POWER_DBM - phy.CCA_THRESHOLD_DBM - phy.path_loss_db(1.0))
    / (10.0 * phy.PATH_LOSS_EXPONENT))


def _distance(a, b):
    return math.dist(a, b)


def draw_positions(rng, n_bss, area=AREA):
    """AP/STA placements with every link inside MCS-11-at-80-MHz range."""
    max_link = phy.mcs_range_m(11, 80)
    out = []
    for _ in range(n_bss):
        ap = tuple(float(rng.uniform(0, dim)) for dim in area)
        while True:
            sta = tuple(float(rng.uniform(0, dim)) for dim in area)
            d = _distance(ap, sta)
            if 0.0 < d <= max_link:
                break
        out.append((ap, sta))
    nodes = [p for pair in out for p in pair]
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            # default area keeps everyone in mutual sensing range
            if _distance(a, b) > _SENSE_RANGE_M:
                raise AssertionError("node pair outside sensing range")
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
    for b, (ap, sta) in zip(spec.bss, draw_positions(rng, len(spec.bss),
                                                     spec.area)):
        b.ap_pos = ap
        b.sta_pos = sta


def link_mcs_by_width(bss_spec):
    """Per-width MCS for one AP-STA link, from its placement distance."""
    rssi = phy.rssi_dbm(_distance(bss_spec.ap_pos, bss_spec.sta_pos))
    return {w: phy.select_mcs(rssi, w) for w in (20, 40, 80)}
