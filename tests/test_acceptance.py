"""End-to-end acceptance gate.

Twelve numbered criteria spanning the action space, the learning rules, and
desk-scale reruns of the single- and multi-AP experiments.  Each test prints
one "criterion NN <slug>: PASS/FAIL" line on the real stdout so the gate can
be audited from plain pytest output.

The simulation runs behind criteria 8-12 are minutes of wall time; their
result directories are cached under /tmp keyed by a hash of the package
source, so a repeated invocation on unchanged code reuses them.
"""

import hashlib
import os
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from wlansim import agents, mac, metrics, scenarios
from wlansim.agents import (CONTEXT_DIMS, CW_VALUES, JOINT_ACTIONS,
                            LinUcbPolicy, ROLE_CHANNEL, ROLE_CW, ROLE_PRIMARY,
                            ROLE_SA, UcbPolicy, build_context,
                            channel_primary_pairs, compute_reward,
                            make_controller)
from wlansim.engine import SEC
from wlansim.phy import BASIC_CHANNELS, CHANNEL_GROUPS
from wlansim.runner import RunParams, load_records, run_many, run_trial
from wlansim.runner import _dump_records

SEED = 1
TRIALS = 5
BURN_NS = 2 * SEC

_SRC = Path(__file__).resolve().parents[1] / "src" / "wlansim"


def _source_hash():
    h = hashlib.sha256()
    for p in sorted(_SRC.glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:12]


CACHE = Path(os.environ.get("WLANSIM_ACCEPTANCE_CACHE",
                            f"/tmp/wlansim-acceptance-{_source_hash()}"))


RESULTS = []


@contextmanager
def criterion(num, slug):
    """Tag the enclosed assertions as one acceptance criterion.

    Each use contributes one 'criterion NN slug: PASS/FAIL' line, printed
    in the terminal summary by the conftest hook (capture hides inline
    prints for passing tests).
    """
    try:
        yield
    except BaseException:
        line = f"criterion {num:02d} {slug}: FAIL"
        RESULTS.append(line)
        print(line)
        raise
    line = f"criterion {num:02d} {slug}: PASS"
    RESULTS.append(line)
    print(line)


# -- cached scenario runs --

def _run_cached(name, spec, params):
    out = CACHE / name
    if not (out / "summary.jsonl").exists():
        # criterion 12 pins the bytes as independent of the worker count
        run_many(spec, params, out, workers=os.cpu_count())
    return out


@lru_cache(maxsize=None)
def sp1_static(label):
    spec = scenarios.build_scenario("sp1", SEED)
    params = RunParams(algo="none", static_channel=label, trials=TRIALS,
                       duration_s=10.0)
    return _run_cached(f"sp1-static-ch{label}", spec, params)


@lru_cache(maxsize=None)
def sp1_learning(algo, arch):
    spec = scenarios.build_scenario("sp1", SEED)
    params = RunParams(algo=algo, arch=arch, trials=TRIALS, duration_s=10.0,
                       decision_log=True)
    return _run_cached(f"sp1-{algo}-{arch}", spec, params)


@lru_cache(maxsize=None)
def sp2_static(label, bonding="scb"):
    spec = scenarios.build_scenario("sp2", SEED)
    params = RunParams(algo="none", static_channel=label, trials=TRIALS,
                       bonding=bonding)
    return _run_cached(f"sp2-{bonding}-static-ch{label}", spec, params)


@lru_cache(maxsize=None)
def sp2_learning(algo, arch):
    spec = scenarios.build_scenario("sp2", SEED)
    params = RunParams(algo=algo, arch=arch, trials=TRIALS,
                       decision_log=True)
    return _run_cached(f"sp2-scb-{algo}-{arch}", spec, params)


@lru_cache(maxsize=None)
def mp1_learning(algo, arch):
    spec = scenarios.build_scenario("mp1", SEED)
    params = RunParams(algo=algo, arch=arch, trials=TRIALS,
                       decision_log=True)
    return _run_cached(f"mp1-{algo}-{arch}", spec, params)


@lru_cache(maxsize=None)
def mp1_static7():
    spec = scenarios.build_scenario("mp1", SEED)
    params = RunParams(algo="none", static_channel=7, trials=TRIALS)
    return _run_cached("mp1-static-ch7", spec, params)


# -- record readers --

def _bss_goodputs(run_dir, bss_id=None):
    out = []
    for r in load_records(run_dir):
        if r["record"] == "bss" and (bss_id is None or r["bss"] == bss_id):
            out.append(r["goodput_mbps"])
    return out


def _decision_rows(run_dir):
    """{trial: {bss: [(t, key, reward), ...]}}"""
    out = {}
    for r in load_records(run_dir):
        if r["record"] == "decisions":
            out.setdefault(r["trial"], {})[r["bss"]] = r["rows"]
    return out


def _schedules(run_dir):
    out = {}
    for r in load_records(run_dir):
        if r["record"] == "trial":
            out[r["trial"]] = r["schedule"]
    return out


def _interval_goodputs(run_dir, bss_id=1):
    out = {}
    for r in load_records(run_dir):
        if r["record"] == "interval" and r["bss"] == bss_id:
            out[(r["trial"], r["interval"])] = (
                r["goodput_mbps"], r["underloaded_channel"])
    return out


def _pooled_label_fractions(run_dir, t_min=BURN_NS):
    """Post-burn-in channel-label histogram pooled over trials and APs."""
    counts = Counter()
    total = 0
    for per_bss in _decision_rows(run_dir).values():
        for rows in per_bss.values():
            for t, key, _r in rows:
                if t >= t_min:
                    counts[key.split(":")[0]] += 1
                    total += 1
    assert total > 0
    return {label: n / total for label, n in counts.items()}


# -- criteria 1-7: rules and learning machinery --

def test_criterion_01_action_space():
    with criterion(1, "action-space-cardinality"):
        assert len(JOINT_ACTIONS) == 84
        assert len(set(JOINT_ACTIONS)) == 84
        assert len(CHANNEL_GROUPS) == 7
        assert {len(g) for g in CHANNEL_GROUPS} == {1, 2, 4}
        assert len(CW_VALUES) == 7
        assert len(channel_primary_pairs()) == 12


def test_criterion_02_context_dimensions():
    with criterion(2, "context-dimensions"):
        rng = np.random.default_rng(2)

        class Sensors:
            pass

        for _ in range(100_000):
            s = Sensors()
            s.occupancy = tuple(rng.random(4))
            s.busy_flags = tuple(int(b) for b in rng.integers(0, 2, 4))
            s.queue_util = float(rng.random())
            group = CHANNEL_GROUPS[int(rng.integers(0, 7))]
            primary = group[int(rng.integers(0, len(group)))]
            assert build_context(s, ROLE_SA).shape == (CONTEXT_DIMS[ROLE_SA],)
            assert build_context(s, ROLE_CHANNEL).shape == (9,)
            assert build_context(s, ROLE_PRIMARY, group).shape == (12,)
            x = build_context(s, ROLE_CW, group, primary)
            assert x.shape == (17,)
            assert np.all((x >= 0.0) & (x <= 1.0))


def test_criterion_03_reward_mapping():
    with criterion(3, "reward-mapping"):
        assert compute_reward(0.0) == 1.0
        assert compute_reward(2.5) == 0.75
        assert compute_reward(10.0) == 0.0
        assert compute_reward(14.0) == 0.0
        grid = np.linspace(0, 20, 401)
        vals = [compute_reward(d) for d in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


def test_criterion_04_jain_reproduction():
    with criterion(4, "jain-index-reproduction"):
        j = metrics.jain_fairness([227.7, 213.2, 303.7])
        assert j == pytest.approx(0.975, abs=1e-3)
        assert metrics.jain_fairness([5.0, 5.0, 5.0, 5.0]) == 1.0


def test_criterion_05_dcb_rule_oracle():
    with criterion(5, "dcb-transmit-set-oracle"):
        assert mac.dcb_transmit_set((1, 2, 3, 4), 1, {3}) == (1, 2)
        assert mac.dcb_transmit_set((1, 2, 3, 4), 1, {2}) == (1,)
        checked = 0
        for cop in CHANNEL_GROUPS:
            for p in cop:
                for r in range(5):
                    for busy in map(set, combinations(BASIC_CHANNELS, r)):
                        if p in busy:
                            continue
                        best = ()
                        for k in (1, 2, 4):
                            for sub in combinations(cop, k):
                                if (p in sub and sub in CHANNEL_GROUPS
                                        and not set(sub) & busy
                                        and len(sub) > len(best)):
                                    best = sub
                        assert mac.dcb_transmit_set(cop, p, busy) == best
                        checked += 1
        assert checked == 12 * 8   # per pair: the 8 of 16 masks with p idle


def test_criterion_06_linucb_ridge_equivalence():
    with criterion(6, "linucb-ridge-equivalence"):
        rng = np.random.default_rng(6)
        for trial in range(1000):
            dim = int(rng.choice((9, 12, 17)))
            n_arms = int(rng.integers(2, 5))
            pol = LinUcbPolicy(n_arms, dim, alpha=0.5)
            # a handful of long logs cross the periodic refactor boundary
            n = 1100 if trial < 5 else int(rng.integers(1, 60))
            logs = {a: ([], []) for a in range(n_arms)}
            for _ in range(n):
                a = int(rng.integers(0, n_arms))
                x = rng.random(dim)
                r = float(rng.random())
                pol.update(a, x, r)
                logs[a][0].append(x)
                logs[a][1].append(r)
            for a in range(n_arms):
                xs, rs = logs[a]
                ridge = np.eye(dim)
                b = np.zeros(dim)
                if xs:
                    X = np.array(xs)
                    ridge += X.T @ X
                    b = X.T @ np.array(rs)
                theta = np.linalg.solve(ridge, b)
                assert np.allclose(pol.theta(a), theta, atol=1e-8)
                eig = np.linalg.eigvalsh(pol.A[a])
                assert np.all(eig >= 1.0 - 1e-9)
                assert np.allclose(pol.A[a], pol.A[a].T)


def test_criterion_07_synthetic_bandit_regret():
    with criterion(7, "synthetic-bandit-regret"):
        # stationary 7-arm Bernoulli: best arm dominates the tail
        p = np.array([0.5, 0.5, 0.5, 0.9, 0.5, 0.5, 0.5])
        tail_best = 0
        for seed in range(20):
            rng = np.random.default_rng((7, seed))
            pol = UcbPolicy(7, alpha=1.09)
            for t in range(10_000):
                a = pol.select()
                pol.update(a, None, float(rng.random() < p[a]))
                if t >= 9_000 and a == 3:
                    tail_best += 1
        assert tail_best / (20 * 1000) > 0.90

        # contextual instance: per-arm coefficient profiles with identical
        # marginal means, so context-blind UCB cannot separate the arms
        base = np.array([8, 5, 3, 2, 1.5, 1, 1, 0.5, 0.2])
        base = base / base.sum()
        thetas = np.array([np.roll(base, k) for k in range(7)])
        assert thetas.shape == (7, 9)
        lin_regret, ucb_regret = [], []
        for seed in range(20):
            rng = np.random.default_rng((77, seed))
            lin = LinUcbPolicy(7, 9, alpha=0.52)
            ucb = UcbPolicy(7, alpha=1.09)
            rl = ru = 0.0
            for _ in range(10_000):
                x = rng.random(9)
                exp = thetas @ x
                best = float(exp.max())
                a = lin.select(x)
                lin.update(a, x, float(np.clip(
                    exp[a] + rng.normal(0, 0.05), 0, 1)))
                rl += best - exp[a]
                a = ucb.select()
                ucb.update(a, None, float(np.clip(
                    exp[a] + rng.normal(0, 0.05), 0, 1)))
                ru += best - exp[a]
            lin_regret.append(rl)
            ucb_regret.append(ru)
        assert np.mean(lin_regret) < np.mean(ucb_regret)


# -- criteria 8-11: desk-scale scenario reproductions --

def test_criterion_08_sp1_reproduction():
    with criterion(8, "sp1-static-ranking-and-convergence"):
        static_mean = {label: float(np.mean(_bss_goodputs(sp1_static(label),
                                                          bss_id=1)))
                       for label in range(1, 8)}
        ranked = sorted(static_mean, key=static_mean.get)
        assert ranked[-1] == 2, static_mean
        assert ranked[0] == 7, static_mean
        assert static_mean[2] == pytest.approx(209.4, rel=0.25)
        assert static_mean[7] == pytest.approx(11.5, rel=0.25)

        fracs = _pooled_label_fractions(sp1_learning("linucb", "ma"))
        assert fracs.get("ch2", 0.0) > 0.90, fracs

        pair_counts = Counter()
        total = 0
        for per_bss in _decision_rows(sp1_learning("ucb", "ma")).values():
            for t, key, _r in per_bss[1]:
                if t >= BURN_NS:
                    ch, _p, cw = key.split(":")
                    pair_counts[f"{ch}:{cw}"] += 1
                    total += 1
        dominant, n = pair_counts.most_common(1)[0]
        assert n / total > 0.90, pair_counts.most_common(3)


def test_criterion_09_sp2_reproduction():
    with criterion(9, "sp2-interval-tracking"):
        static_mean = {label: float(np.mean(_bss_goodputs(
            sp2_static(label), bss_id=1))) for label in range(1, 8)}
        learn_mean = {(algo, arch): float(np.mean(_bss_goodputs(
            sp2_learning(algo, arch), bss_id=1)))
            for algo in ("ucb", "linucb") for arch in ("sa", "ma")}
        assert min(learn_mean.values()) > max(static_mean.values()), (
            learn_mean, static_mean)
        assert min(static_mean, key=static_mean.get) == 7, static_mean

        windows = metrics.interval_windows(60 * SEC, 15 * SEC, BURN_NS)
        for arch in ("sa", "ma"):
            run = sp2_learning("linucb", arch)
            sched = _schedules(run)
            hits, totals = Counter(), Counter()
            for trial, per_bss in _decision_rows(run).items():
                under = sched[trial]["underloaded_channel"]
                for k, (w0, w1) in enumerate(windows):
                    for t, key, _r in per_bss[1]:
                        if w0 <= t < w1:
                            totals[k] += 1
                            hits[k] += key.split(":")[0] == f"ch{under[k]}"
            ok = sum(hits[k] / totals[k] > 0.90 for k in range(4))
            assert ok >= 3, {k: hits[k] / totals[k] for k in range(4)}


def test_criterion_10_sp2_dcb_sanity():
    with criterion(10, "sp2-dcb-bonding-sanity"):
        ivs = {label: _interval_goodputs(sp2_static(label, bonding="dcb"))
               for label in (1, 3, 5, 6, 7)}
        # bonded static vs its primary-only 20 MHz counterpart, compared on
        # the intervals whose underloaded channel equals that primary
        for bonded, narrow, chan in ((5, 1, 1), (7, 1, 1), (6, 3, 3)):
            diffs = [ivs[bonded][key][0] - ivs[narrow][key][0]
                     for key, (_g, under) in ivs[narrow].items()
                     if under == chan]
            assert diffs, f"no interval had channel {chan} underloaded"
            assert float(np.mean(diffs)) >= 0.0, (bonded, narrow, diffs)


def test_criterion_11_mp1_coexistence():
    with criterion(11, "mp1-multi-ap-coexistence"):
        for algo in ("ucb", "linucb"):
            for arch in ("sa", "ma"):
                fracs = _pooled_label_fractions(mp1_learning(algo, arch))
                assert fracs.get("ch7", 0.0) < 0.05, (algo, arch, fracs)

        # the three UCB APs settle on three distinct 20 MHz channels
        run = mp1_learning("ucb", "ma")
        orthogonal_trials = 0
        for per_bss in _decision_rows(run).values():
            modal = set()
            for bss_id, rows in per_bss.items():
                labels = Counter(key.split(":")[0] for t, key, _r in rows
                                 if t >= BURN_NS)
                modal.add(labels.most_common(1)[0][0])
            if (len(modal) == 3
                    and modal <= {"ch1", "ch2", "ch3", "ch4"}):
                orthogonal_trials += 1
        assert orthogonal_trials >= 4, orthogonal_trials

        jains = [r["learning"] for r in load_records(run)
                 if r["record"] == "fairness"]
        assert float(np.mean(jains)) >= 0.99, jains

        base = float(np.mean(_bss_goodputs(mp1_static7())))
        by_algo = {algo: float(np.mean(
            _bss_goodputs(mp1_learning(algo, "sa"))
            + _bss_goodputs(mp1_learning(algo, "ma"))))
            for algo in ("ucb", "linucb")}
        assert by_algo["linucb"] >= by_algo["ucb"] >= base, (by_algo, base)


def test_criterion_12_determinism():
    with criterion(12, "byte-identical-reruns"):
        spec = scenarios.build_scenario("sp1", SEED)
        spec.burn_in_s = 0.5    # the run must outlast its burn-in
        params = RunParams(algo="linucb", arch="ma", trials=2,
                           duration_s=2.0, decision_log=True)
        base = CACHE / "determinism"
        a = run_many(spec, params, base / "a")
        b = run_many(spec, params, base / "b")
        c = run_many(spec, params, base / "c", workers=2)
        for name in ("trial_000.jsonl", "trial_001.jsonl", "summary.jsonl"):
            blob = (a / name).read_bytes()
            assert blob == (b / name).read_bytes()
            assert blob == (c / name).read_bytes()
        # trial files really carry distinct trials
        assert (a / "trial_000.jsonl").read_bytes() != \
            (a / "trial_001.jsonl").read_bytes()
        direct = _dump_records(run_trial(spec, params, 0))
        assert direct == (a / "trial_000.jsonl").read_text()
