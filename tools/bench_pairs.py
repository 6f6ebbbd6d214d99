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
how many pairs the change read better (ties count for neither side).
One line per op kind that every run printed then gives each side's
median, over its runs, of that kind's `<kind>_p50_ms` line in run.py's
output, and the failed ops of each side end the report.

The first line says whether PYTHONDONTWRITEBYTECODE is set: when it is,
no `__pycache__` is written, so every run compiles the sources it imports
and `setup_s` includes that compile time. Standard library only; no options.
"""

import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

# run.py's line for one op kind: "  <kind>_p50_ms   1.234 ms  n=12   share  21.6%"
KIND_LINE = re.compile(r"^\s+(\S+)_p50_ms\s+(\S+) ms\s+n=\d+\s+share", re.M)


def run(checkout: Path, workload: str, seed: int, seconds: str) -> dict:
    """The JSON record that the last line of one benchmark run prints, with
    each op kind's p50 in ms from its human-readable lines under "kinds"."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode:
        sys.exit(f"{checkout}: perfbench/run.py exited {proc.returncode}\n{proc.stderr}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["kinds"] = {kind: float(ms) for kind, ms in KIND_LINE.findall(proc.stdout)}
    return record


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
    every_run = records["parent"] + records["change"]
    for kind in sorted(set.intersection(*(set(r["kinds"]) for r in every_run))):
        before, after = ([r["kinds"][kind] for r in records[side]] for side in ("parent", "change"))
        print(f"  {kind + '_p50_ms':<26} {statistics.median(before):10.4g} -> {statistics.median(after):10.4g} ms")
    for side, runs in records.items():
        print(f"  {side} failed ops: {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
