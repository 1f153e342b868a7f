"""wlansim benchmark: simulated seconds per wall second, set-up time and peak
memory on the workloads of workloads.py, with a traced mode for per-layer
numbers.

Run from the repository root:

    python3 bench/run.py --workload sp2-static-dcb --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all

One run of a workload starts fresh processes only: one warm-up and several
timed set-up probes (import wlansim, build the scenario and run parameters),
then one measuring process that repeats the workload's trial through
runner.run_many back to back until --seconds have passed, cycling through
the seed's scenario seeds.  A calibration kernel (calib.py) runs between
trials; each trial's wall time is scaled by it, so the reported speed is
sim-s per wall-s at the reference machine's typical speed.  Every trial file
is checked: against a recorded digest where there is one, otherwise against
the run's first trial of the same scenario seed, and for record sanity.
With --trace 1 the measuring process alternates untraced and traced trials
of one scenario seed; the traced ones give the per-layer metrics, and their
bytes must equal the untraced ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A full result file with provenance goes to
.bench_runs/results/ (or --results).
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5       # timed set-ups per run, each in a fresh process
CHILD_GRACE_S = 100    # allowance on top of --seconds before a child is killed

E2E_UNITS = {"sim_s_per_norm_s": "sim-s/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=".bench_runs/results",
                   help="directory for the full result files")
    p.add_argument("--child", choices=("setup", "measure"),
                   help=argparse.SUPPRESS)
    p.add_argument("--probe", type=int, default=0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- child processes --

def child_setup(args):
    seeds = workloads.scenario_seeds(args.seed)
    t0 = time.perf_counter()
    workloads.build(args.workload, seeds[args.probe % len(seeds)])
    return {"setup_s": time.perf_counter() - t0}


def _rep(runner, spec, params, out):
    """One trial through run_many; returns (wall seconds, trial file text).

    A trial leaves reference cycles that only a full collection frees; left
    in place they pile up over repetitions, inflating peak RSS and landing
    a large collection inside some later timed call.  Each trial therefore
    starts from a collected heap.
    """
    gc.collect()
    t0 = time.perf_counter()
    runner.run_many(spec, params, out, workers=1)
    wall = time.perf_counter() - t0
    return wall, (out / "trial_000.jsonl").read_text()


def _traced_rep(tracer, name, seed, out):
    tracer.reset()
    tracer.install()
    try:
        runner, spec, params = workloads.build(name, seed)
        build_s = tracer.get("scenarios.build_scenario")[1]
        tracer.reset()
        wall, text = _rep(runner, spec, params, out)
    finally:
        tracer.uninstall()
    written = sum(f.stat().st_size for f in out.iterdir())
    return wall, text, layers.layer_metrics(
        tracer, wall, build_s, workloads.total_cycles(text), written)


def _past_deadline(reps, cal, elapsed, seconds):
    """True once one more trial and its calibration would overrun."""
    walls = [r["wall_s"] for r in reps if "wall_s" in r]
    if not walls:
        return elapsed >= seconds
    return elapsed + statistics.median(walls) + cal[-1] > seconds


def child_measure(args, root):
    """Repeat the workload's trial for --seconds; untraced runs cycle through
    the seed's scenario seeds, traced runs use the first only so that their
    counts and timings describe one fixed input."""
    seeds = workloads.scenario_seeds(args.seed)[:1 if args.trace else None]
    t0 = time.perf_counter()
    builds = [workloads.build(args.workload, seeds[0])]
    setup_s = time.perf_counter() - t0
    builds += [workloads.build(args.workload, s) for s in seeds[1:]]
    # a recorded digest where there is one, else the first trial's bytes
    expected = {s: workloads.reference_digest(args.workload, s)
                for s in seeds}

    work = root / ".bench_runs" / "work" / str(os.getpid())
    tracer = layers.Tracer() if args.trace else None
    reps = []
    kernel = calib.Kernel()
    kernel.timed()   # warm-up
    cal = [kernel.timed()]   # cal[i] and cal[i + 1] bracket trial i
    start = time.perf_counter()
    try:
        while len(reps) < 2 * len(seeds) or not _past_deadline(
                reps, cal, time.perf_counter() - start, args.seconds):
            k = len(reps) % len(seeds)
            runner, spec, params = builds[k]
            out = work / f"rep_{len(reps):03d}"
            traced = tracer is not None and len(reps) % 2 == 1
            rep = {"scenario_seed": seeds[k], "traced": traced,
                   "problems": []}
            try:
                if traced:
                    rep["wall_s"], text, rep["layers"] = _traced_rep(
                        tracer, args.workload, seeds[k], out)
                else:
                    rep["wall_s"], text = _rep(runner, spec, params, out)
            except Exception:
                rep["problems"].append(traceback.format_exc())
                reps.append(rep)
                break   # a raising trial raises again on the same inputs
            rep["sha256"] = workloads.digest(out / "trial_000.jsonl")
            rep["problems"] += workloads.check_records(spec, text)
            want = expected[seeds[k]]
            if want is None:
                expected[seeds[k]] = rep["sha256"]
            elif rep["sha256"] != want:
                rep["problems"].append(
                    f"trial sha256 {rep['sha256']} != expected {want}")
            reps.append(rep)
            shutil.rmtree(out)
            cal.append(kernel.timed())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"setup_s": setup_s, "duration_s": builds[0][2].duration_s,
            "scenario_seeds": seeds, "reps": reps, "calib_s": cal,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}


# -- parent --

def _spawn(mode, args, timeout, probe=0):
    cmd = [sys.executable, str(BENCH / "run.py"), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--probe", str(probe)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values, value=None, stat="median"):
    """Quartiles of a sample; the reported value is the median unless given."""
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q2 = q3 = values[0]
    return {"value": q2 if value is None else value, "stat": stat,
            "q1": q1, "median": q2, "q3": q3, "n": len(values)}


def _rate(duration, walls):
    """Sim-s per wall-s over a run, from {scenario seed: trial walls}: the
    duration over the mean wall, each scenario seed weighted equally, so a
    run's value does not depend on which seeds got one trial more."""
    mean_wall = statistics.mean(statistics.mean(w) for w in walls.values())
    return _summary([duration / w for ws in walls.values() for w in ws],
                    duration / mean_wall, "seed-weighted mean")


def _git(root, *cmd):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "-C", str(root), *cmd], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(root):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    in_git = _git(root, "rev-parse", "--show-toplevel") == str(root.resolve())
    status = _git(root, "status", "--porcelain") if in_git else None
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor() or None,
            "python": platform.python_version(),
            "numpy": numpy_version,
            "git_commit": _git(root, "rev-parse", "HEAD") if in_git else None,
            "git_dirty": bool(status) if status is not None else None,
            "source_sha256": workloads.source_digest(root / "src" / "wlansim"),
            "loadavg_at_start": os.getloadavg()}


def run_workload(name, args, root):
    args = argparse.Namespace(**{**vars(args), "workload": name})
    timeout = args.seconds + CHILD_GRACE_S
    prov = provenance(root)
    _spawn("setup", args, timeout)   # warm-up: compiles bytecode, fills caches
    # the probes build each of the seed's scenarios in turn
    setups = [_spawn("setup", args, timeout, probe)["setup_s"]
              for probe in range(1, SETUP_PROBES + 1)]
    m = _spawn("measure", args, timeout)
    setups.append(m["setup_s"])

    reps = m["reps"]
    failed = sum(1 for r in reps if r["problems"])
    cal = m["calib_s"]
    plain, norm = {}, {}   # scenario seed -> untraced trial walls
    for i, r in enumerate(reps):
        if not r["traced"] and "wall_s" in r:
            around = (cal[i] + cal[i + 1]) / 2
            plain.setdefault(r["scenario_seed"], []).append(r["wall_s"])
            norm.setdefault(r["scenario_seed"], []).append(
                r["wall_s"] * calib.REF_S / around)
    traced = [r for r in reps if r["traced"] and "layers" in r]
    # the first trial is always untraced; traced ones must match its bytes
    neutral = all(r["sha256"] == reps[0].get("sha256") for r in traced)
    correct = failed == 0 and neutral and bool(plain) and (
        not args.trace or bool(traced))

    # sim-s per unscaled wall-s, for reference only: too noisy to gate on
    raw = _rate(m["duration_s"], plain) if plain else None

    summary = {}
    if args.trace == 0 and plain:
        # Each trial's wall time is scaled by the calibration kernel's time
        # around it (calib.py), which cancels most of the host's speed swing.
        summary["sim_s_per_norm_s"] = _rate(m["duration_s"], norm)
        summary["setup_s"] = _summary(setups)
        summary["peak_rss_mb"] = _summary([m["peak_rss_mb"]], stat="max")
        units = E2E_UNITS
    elif traced:
        units = layers.UNITS
        for key in units:
            if key == "trace.overhead":
                vals = [statistics.median(r["wall_s"] for r in traced)
                        / statistics.median(
                            w for ws in plain.values() for w in ws)]
            else:
                vals = [r["layers"][key] for r in traced]
            summary[key] = _summary(vals)
    else:
        units = {}
    metrics = {k: {"value": v["value"], "unit": units[k]}
               for k, v in summary.items()}

    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"trials {len(reps)}  failed {failed}  "
          f"failed_trial_ratio {failed / max(len(reps), 1):.3f}  "
          + (f"trace-neutral {neutral}  " if args.trace else "")
          + f"correct {correct}")
    lines = [(k, v, units[k]) for k, v in summary.items()]
    if raw is not None:
        lines.append(("(unscaled sim_s_per_wall_s)", raw, "sim-s/s"))
    for k, v, unit in lines:
        print(f"  {k:28s} {v['value']:14.6g} {unit:8s} ({v['stat']} of "
              f"{v['n']}; quartiles {v['q1']:.6g} .. {v['q3']:.6g})")
    for r in reps:
        for p in r["problems"]:
            print(f"  problem: {p}", file=sys.stderr)

    result = {"correct": correct, "attempted": len(reps), "failed": failed,
              "metrics": metrics}
    record = {**result, "workload": name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "failed_trial_ratio": failed / max(len(reps), 1),
              "trace_neutral": neutral,
              "summary": summary, "unscaled_sim_s_per_wall_s": raw,
              "calib_ref_s": calib.REF_S,
              "setup_samples_s": setups, "child": m, "provenance": prov}
    out_dir = root / args.results
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (out_dir / f"{name}_seed{args.seed}_trace{args.trace}_{stamp}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "wlansim" / "runner.py").is_file():
        print("bench/run.py: run it from the repository root "
              "(src/wlansim not found)", file=sys.stderr)
        return 2
    if args.child:
        sys.path.insert(0, str(root / "src"))
        out = (child_setup(args) if args.child == "setup"
               else child_measure(args, root))
        print(json.dumps(out))
        return 0
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    for name in names:
        print(json.dumps(run_workload(name, args, root)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
