"""Random search over the exploration constant.

Each candidate alpha is scored by the learning AP's mean per-cycle reward
across a fixed grid of small random deployments (varying BSS count and run
duration), and the leaderboard ranks candidates by that mean.  One scalar
knob makes plain uniform random search the right tool.
"""

import json
from pathlib import Path

from . import scenarios
from .engine import TUNING_STREAM, rng_stream
from .runner import RunParams, run_trial

ALPHA_RANGE = {"ucb": (1.0, 10.0), "linucb": (0.2, 20.0)}
BSS_COUNTS = (2, 3, 4)
DURATIONS_S = (1.0, 2.0, 4.0, 8.0)


def deployment_grid(seed, bss_counts=BSS_COUNTS, durations_s=DURATIONS_S):
    """The shared evaluation grid: one random deployment per grid cell."""
    rng = rng_stream(seed, 0, 0, TUNING_STREAM)
    grid = []
    for n_bss in bss_counts:
        for dur in durations_s:
            dep_seed = int(rng.integers(0, 2 ** 31))
            grid.append(scenarios.build_deployment(dep_seed, n_bss - 1, dur))
    return grid


def mean_cycle_reward(spec, algo, arch, alpha):
    """Mean reward over the learning AP's rounds in one deployment trial."""
    params = RunParams(algo=algo, arch=arch, alpha=alpha, trials=1,
                       decision_log=True)
    rewards = []
    for rec in run_trial(spec, params, trial=0):
        if rec["record"] == "decisions":
            rewards.extend(row[2] for row in rec["rows"])
    if not rewards:
        return 0.0
    return sum(rewards) / len(rewards)


def tune(algo, arch, candidates=100, seed=0, bss_counts=BSS_COUNTS,
         durations_s=DURATIONS_S):
    """Score random alpha candidates on the deployment grid.

    Returns leaderboard rows sorted by mean reward, best first.
    """
    if candidates < 1:
        raise ValueError(f"candidates must be at least 1, got {candidates}")
    lo, hi = ALPHA_RANGE[algo]
    rng = rng_stream(seed, 0, 1, TUNING_STREAM)
    alphas = [float(rng.uniform(lo, hi)) for _ in range(candidates)]
    grid = deployment_grid(seed, bss_counts, durations_s)
    rows = []
    for alpha in alphas:
        per_dep = [mean_cycle_reward(spec, algo, arch, alpha) for spec in grid]
        rows.append({"alpha": alpha,
                     "mean_reward": sum(per_dep) / len(per_dep),
                     "per_deployment": per_dep})
    rows.sort(key=lambda r: -r["mean_reward"])
    return rows


def write_leaderboard(rows, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for rank, row in enumerate(rows, 1):
            fh.write(json.dumps({"rank": rank, **row}, sort_keys=True,
                                separators=(",", ":")) + "\n")
    return path
