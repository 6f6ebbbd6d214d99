"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--seconds S] [--workload NAME ...]

For each workload, two traced runs with the same seed must report exactly
equal per-layer counts (every per-layer metric not measured in ms: calls,
states, derived, explanations, bytes, graph.nodes, ...), and an untraced
run with a second seed must finish with no failed op. Prints each
difference and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run as bench

HERE = Path(__file__).resolve().parent


def run(workload, seed, trace, seconds) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def counts(result) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "ms"}


def main(argv=None) -> int:
    bench.import_program()
    import workloads

    names = list(workloads.WORKLOADS)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=1)
    p.add_argument("--workload", action="append", choices=names)
    args = p.parse_args(argv)
    problems = []
    for workload in args.workload or names:
        first, second = (counts(run(workload, 1, 1, args.seconds)) for _ in range(2))
        for key in sorted(first.keys() | second.keys()):
            if first.get(key) != second.get(key):
                problems.append(f"{workload}: {key} {first.get(key)} != {second.get(key)}")
        other = run(workload, 2, 0, args.seconds)
        if other["failed"] or not other["correct"]:
            problems.append(f"{workload}: seed 2 failed {other['failed']} of {other['attempted']}")
        print(f"{workload}: {len(first)} counts compared, seed 2 "
              f"{other['failed']}/{other['attempted']} failed", flush=True)
    for line in problems:
        print("SELFTEST FAIL", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
