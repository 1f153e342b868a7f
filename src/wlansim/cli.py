"""Command-line interface: run, tune, export, list-scenarios.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import scenarios, tuning
from .runner import RunParams, load_records, run_batch, validate_batch

ENV_OUT = "WLANSIM_OUT"

_SCENARIO_HELP = {
    "sp1": "1 learning + 2 legacy APs, one 20 MHz channel left free, full buffer",
    "sp2": "1 learning + 4 legacy APs, 15 s load intervals with one underloaded channel",
    "mp1": "3 learning APs, full buffer",
    "mp2": "4 learning APs, two saturated and two at 20-40% load",
    "mp3": "2 learning + 2 legacy 80 MHz APs, loads 60-90%",
    "baseline-sweep": "sp1 layout with BSS 1 static, swept over the 7 allocations",
    "tuning-deployment": "one random hyperparameter-search deployment",
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="wlansim",
        description="802.11 channel-access simulator with bandit learning")
    sub = p.add_subparsers(dest="cmd", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    src = run_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", choices=scenarios.SCENARIO_NAMES)
    src.add_argument("--config", help="scenario config JSON file")
    run_p.add_argument("--algo", choices=("ucb", "linucb", "none"),
                       default="linucb")
    run_p.add_argument("--arch", choices=("sa", "ma"), default="ma")
    run_p.add_argument("--alpha", type=float)
    run_p.add_argument("--bonding", choices=("scb", "dcb"))
    run_p.add_argument("--channel", type=int, choices=range(1, 8),
                       help="static allocation label for --algo none")
    run_p.add_argument("--seed", type=int,
                       help="placement seed for --scenario (default 1)")
    run_p.add_argument("--trials", type=int)
    run_p.add_argument("--duration", type=float, help="seconds")
    run_p.add_argument("--out", default=os.environ.get(ENV_OUT, "runs"))
    run_p.add_argument("--workers", type=int, default=1)
    run_p.add_argument("--decision-log", action="store_true",
                       help="store every (time, action, reward) row")
    run_p.add_argument("--trace", action="store_true",
                       help="dump per-trial event traces")
    run_p.add_argument("--export-config", metavar="PATH",
                       help="also write the resolved scenario spec as JSON")

    tune_p = sub.add_parser("tune", help="random search over alpha")
    tune_p.add_argument("--algo", choices=("ucb", "linucb"), required=True)
    tune_p.add_argument("--arch", choices=("sa", "ma"), default="ma")
    tune_p.add_argument("--candidates", type=int, default=100)
    tune_p.add_argument("--seed", type=int, default=1)
    tune_p.add_argument("--out", default=os.environ.get(ENV_OUT, "runs"))

    exp_p = sub.add_parser("export", help="flatten run records to CSV tables")
    exp_p.add_argument("--runs", required=True,
                       help="a run directory or a parent of run directories")
    exp_p.add_argument("--out", required=True)

    sub.add_parser("list-scenarios", help="print the scenario catalog")
    return p


def _load_spec(args):
    if args.config:
        if args.seed is not None:
            raise ValueError("--seed applies to --scenario; a --config file "
                             "carries its own seed")
        with open(args.config) as fh:
            return scenarios.ScenarioSpec.from_dict(json.load(fh))
    return scenarios.build_scenario(
        args.scenario, 1 if args.seed is None else args.seed)


def _run(args):
    spec = _load_spec(args)
    base = RunParams(algo=args.algo, arch=args.arch, alpha=args.alpha,
                     bonding=args.bonding, static_channel=args.channel,
                     duration_s=args.duration, trials=args.trials,
                     decision_log=args.decision_log)
    params = [base]
    if spec.name == "baseline-sweep":
        # the pinned static allocation, or else all seven
        labels = [args.channel] if args.channel else range(1, 8)
        params = [RunParams(**{**vars(base), "algo": "none",
                               "static_channel": label}) for label in labels]
    runs = [(spec, p, Path(args.out) / p.method()) for p in params]
    validate_batch(runs, args.workers)     # before anything is written
    if args.export_config:
        Path(args.export_config).parent.mkdir(parents=True, exist_ok=True)
        Path(args.export_config).write_text(
            json.dumps(spec.to_dict(), sort_keys=True, indent=2) + "\n")
    dirs = run_batch(runs, workers=args.workers, trace=args.trace)
    for p, run_dir in zip(params, dirs):
        print(f"{p.method()}: {run_dir}")
    return 0


def _tune(args):
    rows = tuning.tune(args.algo, args.arch, candidates=args.candidates,
                       seed=args.seed)
    out = Path(args.out) / f"tune-{args.algo}-{args.arch}.jsonl"
    tuning.write_leaderboard(rows, out)
    best = rows[0]
    print(f"best alpha {best['alpha']:.4f} "
          f"(mean reward {best['mean_reward']:.4f}) -> {out}")
    return 0


def _find_run_dirs(root):
    root = Path(root)
    if (root / "run.json").exists():
        return [root]
    dirs = sorted(d for d in root.rglob("run.json"))
    return [d.parent for d in dirs]


def _export(args):
    run_dirs = _find_run_dirs(args.runs)
    if not run_dirs:
        raise ValueError(f"no completed runs under {args.runs}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    goodput, fairness, intervals, selections = [], [], [], []
    for run_dir in run_dirs:
        for rec in load_records(run_dir):
            if rec["record"] == "trial":
                scenario, method = rec["scenario"], rec["method"]
            elif rec["record"] == "bss":
                d = rec["delay_ms"]
                goodput.append([scenario, method, rec["trial"], rec["bss"],
                                rec["role"], rec["goodput_mbps"], d["mean"],
                                d["p25"], d["p50"], d["p75"],
                                rec["retry_drops"], rec["overflow_drops"]])
                for action, frac in rec.get("selections", {}).items():
                    selections.append([scenario, method, rec["trial"],
                                       rec["bss"], "run", action, frac])
            elif rec["record"] == "fairness":
                fairness.append([scenario, method, rec["trial"], rec["all"],
                                 rec["learning"]])
            elif rec["record"] == "interval":
                d = rec["delay_ms"]
                intervals.append([scenario, method, rec["trial"],
                                  rec["interval"], rec["bss"],
                                  rec["goodput_mbps"], d["p25"], d["p50"],
                                  d["p75"], rec["underloaded_bss"],
                                  rec["underloaded_channel"]])
                for label, frac in rec.get("channel_selections", {}).items():
                    selections.append([scenario, method, rec["trial"],
                                       rec["bss"], f"interval{rec['interval']}",
                                       label, frac])
    _write_csv(out / "goodput.csv",
               ["scenario", "method", "trial", "bss", "role", "goodput_mbps",
                "delay_mean_ms", "delay_p25_ms", "delay_p50_ms",
                "delay_p75_ms", "retry_drops", "overflow_drops"], goodput)
    _write_csv(out / "fairness.csv",
               ["scenario", "method", "trial", "jain_all", "jain_learning"],
               fairness)
    if intervals:
        _write_csv(out / "intervals.csv",
                   ["scenario", "method", "trial", "interval", "bss",
                    "goodput_mbps", "delay_p25_ms", "delay_p50_ms",
                    "delay_p75_ms", "underloaded_bss", "underloaded_channel"],
                   intervals)
    if selections:
        _write_csv(out / "selections.csv",
                   ["scenario", "method", "trial", "bss", "window", "action",
                    "fraction"], selections)
    print(f"exported {len(run_dirs)} runs -> {out}")
    return 0


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _list_scenarios(args):
    for name in scenarios.SCENARIO_NAMES:
        print(f"{name:20s} {_SCENARIO_HELP[name]}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = {"run": _run, "tune": _tune, "export": _export,
               "list-scenarios": _list_scenarios}[args.cmd]
    try:
        return handler(args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surface anything else as code 2
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
