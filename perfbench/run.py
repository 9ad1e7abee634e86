"""streambench benchmark: engine cost against a fixed calibration loop.

    python3 perfbench/run.py --workload linear --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a source checkout; the program is imported from
`src/`, nothing is installed.  Workloads: linear, nested, refs, adhoc (see
workloads.py); `all` runs each in its own process, one after another.

--trace 0 measures the end-to-end metrics: set-up time, peak RSS, the share
of operations that were correct, and each engine's time divided by the
calibration time it was paired with (median over samples).  --trace 1 runs
the traced pass instead and reports the per-layer metrics (tracing.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the environment.  Full results and span trees go to perfbench/out/.
Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 25
SETUP_MIN_S = 3.0
# setup_s is scaled to a machine on which the calibration loop takes
# SETUP_CAL_NOMINAL_S over SETUP_CAL_N ints (30 ns an int, about this
# benchmark's reference 2-vCPU machine when idle)
SETUP_CAL_N = 1_000_000
SETUP_CAL_NOMINAL_S = 0.030
SETUP_CAL_LOOPS = 3


def load_program():
    """Import streambench from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import streambench
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import streambench from {SRC}: {exc}")
    if Path(streambench.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: streambench was imported from {streambench.__file__}, "
                 f"not from {SRC}")


def git_sha():
    """The checkout's commit, when .git is there to read; else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(workload, seed, seconds, trace):
    import workloads
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "workers": workloads.WORKERS,
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": workload.sizes,
        "git_sha": git_sha(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def _setup_calibration_s(values):
    """The median of SETUP_CAL_LOOPS runs of the calibration loop, in s."""
    import measure
    runs = []
    for _ in range(SETUP_CAL_LOOPS):
        t0 = time.perf_counter()
        measure.calibrate(values)
        runs.append(time.perf_counter() - t0)
    return measure.median(runs)


def timed_setups(name, seed):
    """Set the workload up at least SETUP_MIN_REPS times, and more while less
    than SETUP_MIN_S has been spent, up to SETUP_MAX_REPS: a set-up of a few
    milliseconds needs many repeats for a steady median.

    The calibration loop runs before the first set-up and after every one,
    and each set-up time is scaled by SETUP_CAL_NOMINAL_S over the faster of
    the two calibrations around it, as every `*_rel` is divided by its
    calibration: the speed of a shared machine drifts by half from minute to
    minute, and set-up time with it.  Returns the last workload, the scaled
    set-up times and the wall-clock ones."""
    import workloads
    cal = workloads.calibration_list(random.Random("setup"), SETUP_CAL_N)
    scaled, wall = [], []
    workload = None
    cal_before = _setup_calibration_s(cal)
    while len(wall) < SETUP_MIN_REPS or (sum(wall) < SETUP_MIN_S
                                         and len(wall) < SETUP_MAX_REPS):
        workload = None
        gc.collect()
        t0 = time.perf_counter()
        workload = workloads.setup(name, seed)
        wall.append(time.perf_counter() - t0)
        cal_after = _setup_calibration_s(cal)
        scaled.append(wall[-1] * SETUP_CAL_NOMINAL_S / min(cal_before, cal_after))
        cal_before = cal_after
    return workload, scaled, wall


def run_end_to_end(name, seed, seconds):
    import measure
    workload, setups, setups_wall = timed_setups(name, seed)
    checker = measure.Checker()
    for engine in measure.ENGINES:  # warm-up: checked, counted, not timed
        measure.run_op(engine, workload.items[0], workload.hot, checker, 0)
    samples = measure.sample(workload, seconds, checker)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": metric(measure.median(setups), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "correct_share": metric(1 - checker.failed / checker.attempted, "ratio"),
    }
    detail = {"setup_s": setups, "setup_wall_s": setups_wall, "samples": {}}
    for engine in measure.ENGINES:
        ratios = samples.ratios(engine)
        if ratios:  # none when every operation of the engine failed
            metrics[f"{engine}_rel"] = metric(samples.rel(engine), "ratio")
            q1, med, q3 = measure.quartiles(ratios)
            detail["samples"][engine] = {"n": len(ratios), "q1": q1, "median": med,
                                         "q3": q3, "tail": measure.tail(ratios),
                                         "pairs": samples.pairs[engine]}
            print(f"# {name} {engine:9s} rel median {med:9.3f}  q1 {q1:9.3f}  "
                  f"q3 {q3:9.3f}  n {len(ratios)}", file=sys.stderr)
    cal = samples.cal_ms()
    detail["cal_ms"] = measure.quartiles(cal) if cal else None
    print(f"# {name} setup_s scaled {[round(t, 4) for t in setups]} "
          f"wall {[round(t, 4) for t in setups_wall]} cal_ms quartiles {detail['cal_ms']} "
          f"ops {checker.attempted} failed {checker.failed}", file=sys.stderr)
    return workload, checker, metrics, detail


def run_traced(name, seed, seconds):
    import tracing
    return tracing.run(name, seed, seconds, OUT)


def run_one(name, seed, seconds, trace):
    load_program()
    run = run_traced if trace else run_end_to_end
    workload, checker, metrics, detail = run(name, seed, seconds)
    env = environment(workload, seed, seconds, trace)
    result = {"correct": checker.correct, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    if checker.failures:
        print(f"# failures (first {len(checker.failures)}): {checker.failures}",
              file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({"env": env, "result": result, "detail": detail,
                                "failures": [repr(f) for f in checker.failures]},
                               indent=1, default=str))
    print(json.dumps({"env": env}, default=str))
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("linear", "nested", "refs", "adhoc", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    results = {}
    for name in ("linear", "nested", "refs", "adhoc"):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": m for name, r in results.items()
                    for key, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
