"""Runs one workload in this process and prints its result.

Started by ``run.py`` in a fresh interpreter with BLAS and OpenMP pinned to
one thread; the last line of standard output is the JSON result.  Imports
gramspec from the ``src`` directory of the checkout that holds this file and
refuses any other copy.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gramspec  # noqa: E402
from gramspec import errors  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

if Path(gramspec.__file__).resolve().parent != SRC / "gramspec":
    raise SystemExit(f"gramspec imported from {gramspec.__file__}, not {SRC}")

PROGRAM_ERRORS = (errors.InvalidInput, errors.NoConvergence,
                  errors.DegenerateDenominator, errors.NumericalFailure)
SETUP_BURST_S = 0.1
MIN_REPS = 3


def environment():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def measure(workload, seconds, tracer):
    """Run reps for ``seconds``; returns a dict of per-rep figures.

    Before every rep the workload is set up repeatedly for at least
    SETUP_BURST_S, and the rep uses the state of the last set-up.  Each
    burst yields one set-up time, its mean; ``setup_s`` is the median over
    the bursts.  The host switches between two speeds about 1.7x apart
    many times a second: the median of single set-ups, each in one mode,
    jumped between the modes from run to run, while a burst mean blends
    them and bursts spread over the run follow its drift.
    """
    setup_times, walls, rates, notes = [], [], [], []
    setups = 0
    max_errors, median_errors = [], []
    attempted = failed = 0
    start = time.perf_counter()
    rep = 0
    while rep < MIN_REPS or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.phase = "setup"
        burst = time.perf_counter()
        count = 0
        while count == 0 or time.perf_counter() - burst < SETUP_BURST_S:
            state = workload.setup()
            inputs = workload.inputs(state, rep)
            count += 1
        setup_times.append((time.perf_counter() - burst) / count)
        setups += count
        if tracer is not None:
            tracer.phase = "timed"
        t0 = time.perf_counter()
        try:
            result = workload.run(state, inputs)
        except PROGRAM_ERRORS as exc:
            print(f"rep {rep}: {type(exc).__name__}: {exc}", file=sys.stderr)
            result = None
        wall = time.perf_counter() - t0
        if result is None:
            lost = workload.items(state, inputs)
            attempted += lost
            failed += lost
        else:
            for problem in result.problems:
                print(f"rep {rep}: check failed: {problem}", file=sys.stderr)
            attempted += result.items
            failed += result.failed
            walls.append(wall)
            rates.append(result.items / wall)
            max_errors.append(result.max_error)
            median_errors.append(result.median_error)
            notes.append(result.notes)
        print(f"rep {rep}: wall {wall!r} s", file=sys.stderr)
        rep += 1
    return {"setup_times": setup_times, "setups": setups,
            "walls": walls, "rates": rates,
            "max_errors": max_errors, "median_errors": median_errors,
            "notes": notes, "reps": rep,
            "attempted": attempted, "failed": failed}


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(res):
    return {
        "setup_s": (_median(res["setup_times"]), "s"),
        "wall_s": (_median(res["walls"]), "s"),
        "items_per_s": (_median(res["rates"]), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    tracer = restore = None
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size,
                                                      workdir)
        if args.trace:
            tracer = spans.Tracer()
            restore = spans.install(tracer)
        res = measure(workload, args.seconds, tracer)
    finally:
        if restore is not None:
            restore()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    e2e = end_to_end(res)
    attempted, failed = res["attempted"], res["failed"]
    env = environment()
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace}: {res['reps']} reps "
          f"({workload.item} items), {res['setups']} set-ups")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in e2e.items():
        print(f"  {name:<14} {value:.6g} {unit}")
    errors_ = {"max_error": _median(res["max_errors"]),
               "median_error": _median(res["median_errors"])}
    for name, value in errors_.items():
        print(f"  {name:<14} {value:.6g} dimensionless")
    print(f"  {'failed_ratio':<14} {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted})")

    if args.trace:
        notes = {}
        for key in ("mass_defect", "rel_gap"):
            values = [n[key] for n in res["notes"] if key in n]
            if values:
                notes[key] = statistics.median(values)
        threads = getattr(workload, "threads", 1)
        metrics = spans.layer_metrics(tracer, max(len(res["walls"]), 1),
                                      res["setups"], threads, notes)
        metrics["bench.traced_wall_s"] = {"value": e2e["wall_s"][0], "unit": "s"}
        metrics["bench.reps"] = {"value": float(res["reps"]), "unit": "count"}
        for name, value in errors_.items():
            metrics[f"bench.{name}"] = {"value": value, "unit": "dimensionless"}
        for name, m in metrics.items():
            print(f"  {name:<46} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in e2e.items()}

    finite = all(np.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": failed == 0 and finite,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
