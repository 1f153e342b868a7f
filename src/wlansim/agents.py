"""Online learning layer: actions, reward, contexts, UCB and LinUCB.

An AP's action is the triple (operational channel, primary, CW).  The
single-agent architecture learns over the 84 joint arms; the multi-agent one
runs a channel agent, a primary agent masked to the chosen channel's members,
and a CW agent in sequence, all paid the same scalar reward.

Architecture and policy are independent choices.  Both policies share one
interface, select(x, mask) / update(arm, x, reward), plus a needs_context
flag; UCB ignores x.  The controllers therefore never look at the algorithm:
they build a context vector only for a policy that reads one, and the MAC
builds no SensorView at all for UCB.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .phy import BASIC_CHANNELS, CHANNEL_GROUPS, GROUP_LABEL

CW_VALUES = (16, 32, 64, 128, 256, 512, 1024)

D_MIN_MS = 0.0
D_MAX_MS = 10.0

SA = "sa"
MA = "ma"


def compute_reward(duration_ms):
    """Min-max normalized cycle duration, clipped to [0,1]."""
    r = (D_MAX_MS - duration_ms) / (D_MAX_MS - D_MIN_MS)
    return min(1.0, max(0.0, r))


@dataclass(frozen=True)
class Action:
    channels: tuple
    primary: int
    cw: int
    _key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_key", f"ch{self.label}:p{self.primary}:cw{self.cw}")

    @property
    def label(self):
        return GROUP_LABEL[self.channels]

    def key(self):
        """The decision log's name for this action, built once."""
        return self._key


def enumerate_joint_actions():
    """All valid (channel, primary, cw) triples in canonical order.

    Canonical order is channel label ascending, primary ascending, cw
    ascending; it fixes UCB initialization order and tie-breaking.
    """
    out = []
    for group in CHANNEL_GROUPS:
        for p in group:
            for cw in CW_VALUES:
                out.append(Action(group, p, cw))
    return out

JOINT_ACTIONS = tuple(enumerate_joint_actions())

def channel_primary_pairs():
    return [(g, p) for g in CHANNEL_GROUPS for p in g]


# feature layout: F1 occupancy (4) | F2 busy flags (4) | F3 queue util (1)
# | F4 operational-channel members (4) | F5 primary one-hot (4)
# Per-role restriction keeps dims at 9 / 9 / 12 / 17.
ROLE_SA = "sa"
ROLE_CHANNEL = "ma-channel"
ROLE_PRIMARY = "ma-primary"
ROLE_CW = "ma-cw"

CONTEXT_DIMS = {ROLE_SA: 9, ROLE_CHANNEL: 9, ROLE_PRIMARY: 12, ROLE_CW: 17}


def build_context(sensors, role, channels=None, primary=None):
    """Assemble the context vector for one agent role.

    sensors carries .occupancy (4-tuple), .busy_flags (4-tuple) and
    .queue_util (scalar); later MA roles additionally encode the upstream
    channel/primary decisions.
    """
    f1 = sensors.occupancy
    f2 = sensors.busy_flags
    if role in (ROLE_SA, ROLE_CHANNEL):
        return np.array([*f1, *f2, sensors.queue_util])
    if channels is None:
        raise ValueError(f"role {role} needs the chosen operational channel")
    f4 = [1.0 if c in channels else 0.0 for c in BASIC_CHANNELS]
    if role == ROLE_PRIMARY:
        return np.array([*f1, *f2, *f4])
    if role == ROLE_CW:
        if primary is None:
            raise ValueError("ma-cw needs the chosen primary")
        f5 = [1.0 if c == primary else 0.0 for c in BASIC_CHANNELS]
        return np.array([*f1, *f2, sensors.queue_util, *f4, *f5])
    raise ValueError(f"unknown role {role!r}")


def _argmax(scores, mask=None):
    """Best-scoring arm among mask (all arms if None); the first in mask
    order wins ties."""
    if mask is None:
        return int(scores.argmax())
    return int(mask[scores[mask].argmax()])


class UcbPolicy:
    """UCB over k arms: mean plus sqrt(alpha ln t / 2N) bonus (Auer et al.
    2002), scored for the round's arms in one vector pass.

    An unpulled arm scores +inf, so while the round's mask holds one, the
    first such arm in mask order is pulled and nothing is scored: arms are
    first pulled once each in index order.  Once all are pulled, the bonus
    is computed as sqrt((alpha ln t / 2) / N).  Halving is exact, so the
    quotient rounds as alpha ln t / 2N does and every score keeps its bits.
    Ties break to the lowest index, or the first in mask order.  The context
    x is ignored.
    """

    needs_context = False

    def __init__(self, n_arms, alpha):
        self.n_arms = n_arms
        self.alpha = alpha
        self.counts = np.zeros(n_arms, dtype=np.int64)
        self.means = np.zeros(n_arms)
        self.t = 0

    def select(self, x=None, mask=None):
        counts, means = self.counts, self.means
        if mask is not None:
            counts, means = counts[mask], means[mask]
        best = counts.argmin()
        if counts[best]:    # else best is the first arm that scores +inf
            log_t = math.log(self.t) if self.t > 1 else 0.0
            scores = np.divide(0.5 * self.alpha * log_t, counts)
            np.sqrt(scores, out=scores)
            scores += means
            best = scores.argmax()
        return int(best if mask is None else mask[best])

    def update(self, arm, x, reward):
        self.counts[arm] += 1
        self.means[arm] += (reward - self.means[arm]) / self.counts[arm]
        self.t += 1


class LinUcbPolicy:
    """Disjoint LinUCB with identity prior per arm.

    Every arm keeps A = I + sum xx^T and b = sum r x; the inverse is carried
    by Sherman-Morrison rank-1 updates and re-factorized every 1000 updates
    per arm to bound drift.
    """

    REFACTOR_EVERY = 1000
    needs_context = True

    def __init__(self, n_arms, dim, alpha):
        self.n_arms = n_arms
        self.dim = dim
        self.alpha = alpha
        eye = np.eye(dim)
        self.A = np.repeat(eye[None, :, :], n_arms, axis=0)
        self.A_inv = np.repeat(eye[None, :, :], n_arms, axis=0)
        self.b = np.zeros((n_arms, dim))
        self._updates = np.zeros(n_arms, dtype=np.int64)

    def theta(self, arm):
        return self.A_inv[arm] @ self.b[arm]

    def scores(self, x):
        est = np.einsum("kij,kj->ki", self.A_inv, self.b) @ x
        var = np.einsum("i,kij,j->k", x, self.A_inv, x)
        return est + self.alpha * np.sqrt(np.maximum(var, 0.0))

    def select(self, x, mask=None):
        if x.shape != (self.dim,):
            raise ValueError(f"context shape {x.shape}, expected ({self.dim},)")
        return _argmax(self.scores(x), mask)

    def update(self, arm, x, reward):
        self.A[arm] += x[:, None] * x
        self.b[arm] += reward * x
        self._updates[arm] += 1
        if self._updates[arm] % self.REFACTOR_EVERY == 0:
            self.A_inv[arm] = np.linalg.inv(self.A[arm])
        else:
            # Sherman-Morrison for (A + xx^T)^-1
            Ainv = self.A_inv[arm]
            u = Ainv @ x
            self.A_inv[arm] = Ainv - u[:, None] * u / (1.0 + x @ u)


def _policy(algo, n_arms, role, alpha):
    if algo == "ucb":
        return UcbPolicy(n_arms, alpha)
    if algo == "linucb":
        return LinUcbPolicy(n_arms, CONTEXT_DIMS[role], alpha)
    raise ValueError(f"unknown algorithm {algo!r}")


class SingleAgentController:
    """One policy over the 84 joint arms; each cycle pays every choice."""

    def __init__(self, algo, alpha):
        self.policy = _policy(algo, len(JOINT_ACTIONS), ROLE_SA, alpha)
        self.needs_context = self.policy.needs_context
        self._pending = None

    def begin_cycle(self, sensors):
        if self._pending is not None:
            raise RuntimeError("begin_cycle while a cycle is outstanding")
        self._pending = []
        return self._decide(sensors)

    def complete_cycle(self, reward):
        if self._pending is None:
            raise RuntimeError("complete_cycle without a pending action")
        for policy, arm, x in self._pending:
            policy.update(arm, x, reward)
        self._pending = None

    def _choose(self, policy, sensors, role, mask=None, **upstream):
        x = (build_context(sensors, role, **upstream)
             if policy.needs_context else None)
        arm = policy.select(x, mask)
        self._pending.append((policy, arm, x))
        return arm

    def _decide(self, sensors):
        return JOINT_ACTIONS[self._choose(self.policy, sensors, ROLE_SA)]


class MultiAgentController(SingleAgentController):
    """Channel, primary and CW agents run in sequence with a shared reward.

    The primary agent keeps one arm per basic channel and is masked to the
    chosen group's members, so its state stays put as the channel choice
    moves around.
    """

    def __init__(self, algo, alpha):
        self.ch = _policy(algo, len(CHANNEL_GROUPS), ROLE_CHANNEL, alpha)
        self.pri = _policy(algo, len(BASIC_CHANNELS), ROLE_PRIMARY, alpha)
        self.cw = _policy(algo, len(CW_VALUES), ROLE_CW, alpha)
        self.needs_context = self.ch.needs_context
        self._pending = None

    def _decide(self, sensors):
        group = CHANNEL_GROUPS[self._choose(self.ch, sensors, ROLE_CHANNEL)]
        primary = BASIC_CHANNELS[self._choose(
            self.pri, sensors, ROLE_PRIMARY, mask=[c - 1 for c in group],
            channels=group)]
        cw = CW_VALUES[self._choose(self.cw, sensors, ROLE_CW,
                                    channels=group, primary=primary)]
        return Action(group, primary, cw)


def make_controller(arch, algo, alpha):
    if arch == SA:
        return SingleAgentController(algo, alpha)
    if arch == MA:
        return MultiAgentController(algo, alpha)
    raise ValueError(f"unknown architecture {arch!r}")


# tuned exploration defaults per (algo, arch)
DEFAULT_ALPHA = {
    ("ucb", SA): 1.09,
    ("ucb", MA): 1.14,
    ("linucb", SA): 0.52,
    ("linucb", MA): 0.50,
}
