"""gramspec benchmark: one workload per call, in a fresh worker process.

    python3 perfbench/run.py --workload density --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The worker imports gramspec from that
checkout's ``src`` directory, with BLAS and OpenMP pinned to one thread so
that timings do not depend on the BLAS thread pool.  Its report is passed
through; the last line of output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
Exits non-zero, printing no result, when the worker fails or overruns.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 170
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full",
                        help="'small' is for the self-test only")
    args = parser.parse_args(argv)

    if not (HERE.parent / "src" / "gramspec" / "__init__.py").is_file():
        print(f"no gramspec sources under {HERE.parent / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    env.update({name: "1" for name in PINNED})
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker overran {TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}):
        print("\n".join(lines), file=sys.stderr)
        print("worker printed no result line", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
