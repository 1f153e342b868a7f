"""Actions, reward, context vectors, UCB and LinUCB policies."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlansim import agents
from wlansim.agents import (Action, CW_VALUES, JOINT_ACTIONS, LinUcbPolicy,
                            MultiAgentController, ROLE_CHANNEL, ROLE_CW,
                            ROLE_PRIMARY, ROLE_SA, SingleAgentController,
                            UcbPolicy, build_context, channel_primary_pairs,
                            compute_reward, enumerate_joint_actions,
                            make_controller)
from wlansim.phy import CHANNEL_GROUPS


class Sensors:
    def __init__(self, occupancy=(0.0,) * 4, busy=(0,) * 4, queue=0.0):
        self.occupancy = tuple(occupancy)
        self.busy_flags = tuple(busy)
        self.queue_util = queue


# -- reward --

@pytest.mark.parametrize("d_ms,r", [(0.0, 1.0), (2.5, 0.75), (10.0, 0.0),
                                    (14.0, 0.0)])
def test_reward_values(d_ms, r):
    assert compute_reward(d_ms) == pytest.approx(r)


def test_reward_monotone_and_bounded():
    grid = [i * 0.25 for i in range(0, 80)]
    vals = [compute_reward(d) for d in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# -- action space --

def test_joint_action_count():
    assert len(JOINT_ACTIONS) == 84
    assert len(set(JOINT_ACTIONS)) == 84


def test_factored_sizes():
    assert len(CHANNEL_GROUPS) == 7
    assert sorted({len(g) for g in CHANNEL_GROUPS}) == [1, 2, 4]
    assert len(CW_VALUES) == 7
    assert len(channel_primary_pairs()) == 12


def test_every_action_is_structurally_valid():
    for a in JOINT_ACTIONS:
        assert a.channels in CHANNEL_GROUPS
        assert a.primary in a.channels
        assert a.cw in CW_VALUES


def test_invalid_primary_absent():
    assert not any(a.channels == (1, 2) and a.primary == 3
                   for a in JOINT_ACTIONS)


def test_widest_group_contributes_28_actions():
    assert sum(1 for a in JOINT_ACTIONS if a.channels == (1, 2, 3, 4)) == 28


def test_canonical_ordering():
    labels = [a.label for a in JOINT_ACTIONS]
    assert labels == sorted(labels)
    # within one (channel, primary) block the CWs ascend
    for i in range(0, 84, 7):
        block = JOINT_ACTIONS[i:i + 7]
        assert len({(a.channels, a.primary) for a in block}) == 1
        assert [a.cw for a in block] == list(CW_VALUES)
    assert JOINT_ACTIONS[0] == Action((1,), 1, 16)
    assert JOINT_ACTIONS[7] == Action((2,), 2, 16)
    assert enumerate_joint_actions() == list(JOINT_ACTIONS)


def test_action_key_format():
    assert Action((1, 2), 1, 32).key() == "ch5:p1:cw32"
    assert Action((1, 2, 3, 4), 3, 1024).key() == "ch7:p3:cw1024"


# -- context vectors --

def test_context_dims_per_role():
    s = Sensors((0.1, 0.2, 0.3, 0.4), (1, 0, 1, 0), 0.5)
    assert build_context(s, ROLE_SA).shape == (9,)
    assert build_context(s, ROLE_CHANNEL).shape == (9,)
    assert build_context(s, ROLE_PRIMARY, channels=(1, 2)).shape == (12,)
    assert build_context(s, ROLE_CW, channels=(1, 2), primary=1).shape == (17,)


def test_silent_network_context_is_zero():
    x = build_context(Sensors(), ROLE_SA)
    assert np.array_equal(x, np.zeros(9))


def test_cw_context_encodes_upstream_choices():
    s = Sensors((0.1, 0.2, 0.3, 0.4), (1, 0, 1, 0), 0.5)
    x = build_context(s, ROLE_CW, channels=(1, 2), primary=1)
    assert np.array_equal(x[:4], [0.1, 0.2, 0.3, 0.4])
    assert np.array_equal(x[4:8], [1, 0, 1, 0])
    assert x[8] == 0.5
    assert np.array_equal(x[9:13], [1, 1, 0, 0])   # operational members
    assert np.array_equal(x[13:17], [1, 0, 0, 0])  # primary one-hot


def test_primary_context_layout():
    s = Sensors(queue=0.9)
    x = build_context(s, ROLE_PRIMARY, channels=(3, 4))
    assert np.array_equal(x[8:12], [0, 0, 1, 1])


def test_missing_upstream_choice_raises():
    s = Sensors()
    with pytest.raises(ValueError):
        build_context(s, ROLE_PRIMARY)
    with pytest.raises(ValueError):
        build_context(s, ROLE_CW, channels=(1, 2))
    with pytest.raises(ValueError):
        build_context(s, "nonsense")


def test_context_dims_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        s = Sensors(rng.random(4), rng.integers(0, 2, 4), float(rng.random()))
        g = CHANNEL_GROUPS[int(rng.integers(0, 7))]
        p = g[int(rng.integers(0, len(g)))]
        for role, kw in ((ROLE_SA, {}), (ROLE_CHANNEL, {}),
                         (ROLE_PRIMARY, {"channels": g}),
                         (ROLE_CW, {"channels": g, "primary": p})):
            x = build_context(s, role, **kw)
            assert x.shape == (agents.CONTEXT_DIMS[role],)
            assert np.isfinite(x).all()


# -- UCB --

def test_ucb_initialization_walks_arms_in_order():
    p = UcbPolicy(7, 1.0)
    pulled = []
    for _ in range(7):
        a = p.select()
        pulled.append(a)
        p.update(a, None, 0.5)
    assert pulled == list(range(7))


def test_ucb_initialization_respects_mask():
    p = UcbPolicy(7, 1.0)
    assert p.select(mask=[3, 5]) == 3
    p.update(3, None, 0.2)
    assert p.select(mask=[3, 5]) == 5


def test_ucb_hand_example():
    # two arms, means (0.5, 0.4), counts (10, 5), t=15, alpha=1.09:
    # scores 0.88417 and 0.94330, so the less-pulled arm wins
    p = UcbPolicy(2, 1.09)
    p.counts[:] = [10, 5]
    p.means[:] = [0.5, 0.4]
    p.t = 15
    assert p.select() == 1
    s0 = 0.5 + math.sqrt(1.09 * math.log(15) / 20)
    s1 = 0.4 + math.sqrt(1.09 * math.log(15) / 10)
    assert s0 == pytest.approx(0.88417279440386, abs=1e-9)
    assert s1 == pytest.approx(0.9433023761407094, abs=1e-9)


def test_ucb_alpha_flips_the_hand_example():
    # exploitation wins below the crossover alpha ~0.43045
    for alpha, want in ((0.42, 0), (0.44, 1)):
        p = UcbPolicy(2, alpha)
        p.counts[:] = [10, 5]
        p.means[:] = [0.5, 0.4]
        p.t = 15
        assert p.select() == want


def test_ucb_tie_breaks_to_lowest_index():
    p = UcbPolicy(4, 1.0)
    p.counts[:] = 3
    p.means[:] = 0.5
    p.t = 12
    assert p.select() == 0
    assert p.select(mask=[2, 3]) == 2


def test_ucb_argmax_invariant_to_mean_shift():
    a = UcbPolicy(3, 1.0)
    b = UcbPolicy(3, 1.0)
    for p, base in ((a, 0.0), (b, 0.4)):
        p.counts[:] = [4, 9, 2]
        p.means[:] = np.array([0.1, 0.2, 0.3]) + base
        p.t = 15
    assert a.select() == b.select()


def _masked_select(p, mask):
    """UCB's earlier formula: +inf for an unpulled arm, the index on the
    pulled ones only."""
    log_t = math.log(p.t) if p.t > 1 else 0.0
    pulled = p.counts > 0
    scores = np.full(p.n_arms, np.inf)
    scores[pulled] = p.means[pulled] + np.sqrt(
        p.alpha * log_t / (2.0 * p.counts[pulled]))
    if mask is None:
        return int(np.argmax(scores))
    return int(mask[np.argmax(scores[mask])])


@st.composite
def ucb_states(draw):
    n = draw(st.integers(1, len(JOINT_ACTIONS)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p = UcbPolicy(n, draw(st.sampled_from([0.0, 1.09, 1.14])
                          | st.floats(0, 10)))
    # few distinct values, so equal scores and ties are common
    p.counts[:] = rng.choice([0, 0, 1, 2, 3, 7, 10 ** 6], n)
    p.means[:] = np.where(rng.random(n) < 0.5,
                          rng.choice([0.0, 0.1, 0.5, 1 / 3, 1.0], n),
                          rng.random(n))
    p.t = draw(st.sampled_from([0, 1, 2, 10 ** 9]) | st.integers(0, 10 ** 6))
    mask = None
    if draw(st.booleans()):
        mask = rng.permutation(n)[:rng.integers(1, n + 1)].tolist()
    return p, mask


def _ucb(alpha, counts, means, t):
    p = UcbPolicy(len(counts), alpha)
    p.counts[:] = counts
    p.means[:] = means
    p.t = t
    return p


@settings(max_examples=300, deadline=None)
@given(state=ucb_states())
# the mask's arms are all pulled, arms outside it are not; arm 2's lead in
# mean beats arm 1's bonus only at the halved alpha ln t / 2N
@example(state=(_ucb(1.0, [0, 3, 12, 0], [0.9, 0.5, 0.92, 0.2], 20), [2, 1]))
# alpha 0 with every arm pulled: the mean alone, ties to the lowest index
@example(state=(_ucb(0.0, [2, 1, 4], [0.3, 0.7, 0.7], 7), None))
# t = 0 and t = 1 give no bonus; at t = 0 the mask holds three unpulled
# arms, and the first of them in mask order is pulled
@example(state=(_ucb(1.09, [0, 2, 0, 0], [0.0, 0.4, 0.0, 0.0], 0),
                [1, 3, 0, 2]))
@example(state=(_ucb(1.09, [1, 1, 2], [0.2, 0.6, 0.6], 1), None))
# one-arm masks, pulled and not
@example(state=(_ucb(1.14, [5, 0, 3], [0.9, 0.1, 0.2], 8), [2]))
@example(state=(_ucb(1.14, [5, 0, 3], [0.9, 0.1, 0.2], 8), [1]))
def test_ucb_select_matches_the_masked_formula(state):
    p, mask = state
    assert p.select(mask=mask) == _masked_select(p, mask)


def test_ucb_update_bookkeeping():
    p = UcbPolicy(2, 1.0)
    p.update(0, None, 0.7)
    assert p.means[0] == pytest.approx(0.7)
    assert p.counts[0] == 1 and p.t == 1
    p.update(0, None, 0.0)
    p.update(0, None, 1.0)
    # mean of (0.7, 0, 1)
    assert p.means[0] == pytest.approx(1.7 / 3)


def test_ucb_incremental_mean_matches_batch():
    rng = np.random.default_rng(5)
    p = UcbPolicy(1, 1.0)
    rewards = rng.random(10_000)
    for r in rewards:
        p.update(0, None, float(r))
    assert p.means[0] == pytest.approx(float(np.mean(rewards)), abs=1e-12)


# -- LinUCB --

def test_linucb_fresh_state_breaks_ties_to_arm_zero():
    p = LinUcbPolicy(5, 3, 0.5)
    x = np.array([0.2, 0.7, 0.1])
    assert p.select(x) == 0
    assert p.select(x, mask=[2, 4]) == 2
    # identity prior: all scores equal alpha * ||x||
    assert np.allclose(p.scores(x), 0.5 * np.linalg.norm(x))


def test_linucb_dimension_mismatch_raises():
    p = LinUcbPolicy(3, 4, 0.5)
    with pytest.raises(ValueError):
        p.select(np.zeros(5))


def test_linucb_one_update_matches_dense_solve():
    rng = np.random.default_rng(2)
    x = rng.random(6)
    p = LinUcbPolicy(4, 6, 0.52)
    p.update(2, x, 1.0)
    A = np.eye(6) + np.outer(x, x)
    theta = np.linalg.solve(A, x)
    want = theta @ x + 0.52 * math.sqrt(x @ np.linalg.inv(A) @ x)
    assert p.scores(x)[2] == pytest.approx(want, abs=1e-9)
    assert p.theta(2) == pytest.approx(theta, abs=1e-9)


def test_linucb_alpha_zero_is_greedy():
    p = LinUcbPolicy(2, 3, 0.0)
    x = np.array([1.0, 0.0, 0.0])
    p.update(0, x, 1.0)
    p.update(1, x, 0.2)
    assert p.select(x) == 0
    assert p.scores(x)[0] == pytest.approx(0.5)  # ridge-shrunk mean 1*1/(1+1)


def test_linucb_matrices_stay_symmetric_spd():
    rng = np.random.default_rng(9)
    p = LinUcbPolicy(3, 5, 0.5)
    for _ in range(200):
        arm = int(rng.integers(0, 3))
        p.update(arm, rng.standard_normal(5), float(rng.random()))
    for arm in range(3):
        A = p.A[arm]
        assert np.allclose(A, A.T)
        assert np.linalg.eigvalsh(A).min() >= 1.0 - 1e-9


def test_linucb_replay_matches_batch_ridge():
    rng = np.random.default_rng(4)
    p = LinUcbPolicy(2, 9, 0.5)
    X, r = [], []
    for _ in range(300):
        x = rng.standard_normal(9)
        rew = float(rng.random())
        X.append(x)
        r.append(rew)
        p.update(0, x, rew)
    X = np.array(X)
    r = np.array(r)
    want = np.linalg.solve(np.eye(9) + X.T @ X, X.T @ r)
    assert np.abs(p.theta(0) - want).max() < 1e-8


def test_linucb_refactor_path_keeps_accuracy(monkeypatch):
    monkeypatch.setattr(LinUcbPolicy, "REFACTOR_EVERY", 50)
    rng = np.random.default_rng(6)
    p = LinUcbPolicy(1, 4, 0.5)
    X, r = [], []
    for _ in range(175):   # crosses the re-factorization boundary 3 times
        x = rng.standard_normal(4)
        rew = float(rng.random())
        X.append(x)
        r.append(rew)
        p.update(0, x, rew)
    X = np.array(X)
    r = np.array(r)
    want = np.linalg.solve(np.eye(4) + X.T @ X, X.T @ r)
    assert np.abs(p.theta(0) - want).max() < 1e-8


def test_linucb_constant_feature_gives_shrunk_mean():
    # d=1, x=[1]: A = 1+N, b = N*mean, so theta = N*mean/(N+1)
    p = LinUcbPolicy(1, 1, 0.5)
    rewards = [0.2, 0.8, 0.5, 0.9]
    for rew in rewards:
        p.update(0, np.ones(1), rew)
    n = len(rewards)
    mean = sum(rewards) / n
    assert p.theta(0)[0] == pytest.approx(n * mean / (n + 1), abs=1e-12)


# -- controllers --

def test_sa_ucb_walks_joint_arms_canonically():
    c = SingleAgentController("ucb", 1.09)
    seen = []
    for _ in range(84):
        seen.append(c.begin_cycle(Sensors()))
        c.complete_cycle(0.5)
    assert seen == list(JOINT_ACTIONS)


def test_controller_protocol_violations():
    c = SingleAgentController("ucb", 1.0)
    with pytest.raises(RuntimeError):
        c.complete_cycle(0.5)
    c.begin_cycle(Sensors())
    with pytest.raises(RuntimeError):
        c.begin_cycle(Sensors())
    c.complete_cycle(0.5)
    m = MultiAgentController("linucb", 0.5)
    with pytest.raises(RuntimeError):
        m.complete_cycle(0.5)


def test_ma_ucb_round_one_couples_first_arms():
    # all three sub-agents start at their lowest canonical arm
    c = MultiAgentController("ucb", 1.14)
    first = c.begin_cycle(Sensors())
    assert first == Action((1,), 1, 16)
    c.complete_cycle(0.5)
    # the lockstep continues while every agent is still initializing
    second = c.begin_cycle(Sensors())
    assert second == Action((2,), 2, 32)
    c.complete_cycle(0.5)
    third = c.begin_cycle(Sensors())
    assert third == Action((3,), 3, 64)
    c.complete_cycle(0.5)
    fourth = c.begin_cycle(Sensors())
    assert fourth == Action((4,), 4, 128)
    c.complete_cycle(0.5)


def test_identical_reward_streams_keep_ucb_twins_in_lockstep():
    # two policies with the same arm count fed the same rewards pick the
    # same arm forever; this is the selection coupling between the channel
    # and CW agents
    rng = np.random.default_rng(8)
    a = UcbPolicy(7, 1.14)
    b = UcbPolicy(7, 1.14)
    for _ in range(500):
        i, j = a.select(), b.select()
        assert i == j
        r = float(rng.random())
        a.update(i, None, r)
        b.update(j, None, r)


def test_ma_primary_masked_to_channel_members():
    c = MultiAgentController("ucb", 1.0)
    for _ in range(40):
        action = c.begin_cycle(Sensors())
        assert action.primary in action.channels
        c.complete_cycle(0.1)


def test_ma_linucb_emits_valid_actions_under_fuzz():
    rng = np.random.default_rng(10)
    c = MultiAgentController("linucb", 0.5)
    for _ in range(300):
        s = Sensors(rng.random(4), rng.integers(0, 2, 4), float(rng.random()))
        action = c.begin_cycle(s)
        assert action.channels in CHANNEL_GROUPS
        assert action.primary in action.channels
        assert action.cw in CW_VALUES
        c.complete_cycle(float(rng.random()))


def test_make_controller_dispatch():
    assert isinstance(make_controller("sa", "ucb", 1.0), SingleAgentController)
    assert isinstance(make_controller("ma", "linucb", 0.5), MultiAgentController)
    with pytest.raises(ValueError):
        make_controller("central", "ucb", 1.0)


def test_tuned_alpha_defaults():
    assert agents.DEFAULT_ALPHA == {("ucb", "sa"): 1.09, ("ucb", "ma"): 1.14,
                                    ("linucb", "sa"): 0.52,
                                    ("linucb", "ma"): 0.50}
