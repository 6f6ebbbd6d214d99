"""Run the benchmark in pairs on two checkouts and compare end-to-end metrics.

Usage: python tools/bench_pairs.py PARENT CHANGE WORKLOAD SECONDS PAIRS

PARENT and CHANGE are the roots of two gridmind checkouts. Pair n (1 to
PAIRS, at least 2) runs `perfbench/run.py --workload WORKLOAD --seed n
--seconds SECONDS --trace 0` once in each, one after the other; odd pairs
run the parent first and even pairs the change first, so a drift in
machine speed falls on both sides alike. A run that fails stops the tool
with its stderr. Each run's metrics are printed as it ends. Then,
for each end-to-end metric in CHANGE's BENCHMARK.json, one line gives the
parent's median and quartiles over its runs, the change's median, and in
how many pairs the change read better (ties count for neither side),
followed by the failed ops of each side.

The first line says whether PYTHONDONTWRITEBYTECODE is set: when it is,
no `__pycache__` is written, so every run compiles the sources it imports
and `setup_s` includes that compile time. Standard library only; no options.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: str) -> dict:
    """The JSON record that the last line of one benchmark run prints."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode:
        sys.exit(f"{checkout}: perfbench/run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 5 or not argv[4].isdigit() or int(argv[4]) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    workload, seconds, pairs = argv[2], argv[3], int(argv[4])
    flag = os.environ.get("PYTHONDONTWRITEBYTECODE")
    print(f"PYTHONDONTWRITEBYTECODE {'is set to ' + repr(flag) if flag else 'is not set'}")
    metrics = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    records: dict[str, list[dict]] = {"parent": [], "change": []}
    for seed in range(1, pairs + 1):
        sides = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in sides:
            record = run(parent if side == "parent" else change, workload, seed, seconds)
            records[side].append(record)
            values = " ".join(f"{m['name']} {record['metrics'][m['name']]['value']:.4g}" for m in metrics)
            print(f"pair {seed} {side}: {values} failed {record['failed']}/{record['attempted']}")
    print(f"{workload}, {pairs} pairs of {seconds} s: parent median [quartiles] -> change median, change wins")
    for m in metrics:
        name = m["name"]
        before = [r["metrics"][name]["value"] for r in records["parent"]]
        after = [r["metrics"][name]["value"] for r in records["change"]]
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (a - b) > 0 for a, b in zip(after, before))
        q1, _, q3 = statistics.quantiles(before, n=4)
        print(f"  {name:<12} {statistics.median(before):10.4g} [{q1:.4g}, {q3:.4g}]"
              f" -> {statistics.median(after):10.4g}  {wins}/{pairs} {m['unit']}")
    for side, runs in records.items():
        print(f"  {side} failed ops: {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
