"""Small-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at the small size, untraced and traced, through
``run.py``; checks that each run passes its output checks and reports
exactly the metrics ``BENCHMARK.json`` declares, with the declared units;
prints every metric name with its unit.  Exits non-zero on any mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace),
                   "--size", "small"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=300)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit code {proc.returncode}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} items failed")
            if got != declared[trace]:
                problems.append(f"{label}: metrics {sorted(got.items())} != "
                                f"declared {sorted(declared[trace].items())}")
            print(f"{label}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
