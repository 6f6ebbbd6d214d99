"""Count the garbage collector's runs over one steady-state benchmark pass.

Usage: python tools/gc_count.py WORKLOAD

Builds WORKLOAD's ops from `perfbench/workloads.py` for seed 1 and runs
each, followed by its check, as `perfbench/run.py` runs a pass: a full
collection before the build and another after it. The first pass warms
the program up; during the second, a `gc.callbacks` hook counts each
collection that starts while an op runs, the span `run.py` times, and the
time from its start to its stop. One line per generation gives the count
and the summed pause, unscaled. Standard library only; no options.
"""

import gc
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

SEED = 1


class Collections:
    """A `gc.callbacks` hook that counts, per generation, the collections
    that start while `in_op` is set, and sums their pauses in seconds."""

    def __init__(self):
        self.in_op = False
        self.counts, self.pauses = [0, 0, 0], [0.0, 0.0, 0.0]
        self._started = None

    def __call__(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter() if self.in_op else None
        elif self._started is not None:
            self.counts[info["generation"]] += 1
            self.pauses[info["generation"]] += time.perf_counter() - self._started


def run_pass(build, workdir: Path, collections: Collections) -> tuple[int, list[str]]:
    """Build the ops in `workdir` and run each, then its check; returns the
    number of ops and the failure messages."""
    gc.collect()
    ops = build(SEED, workdir)
    gc.collect()
    failures = []
    for i, op in enumerate(ops):
        collections.in_op = True
        out = op.run()
        collections.in_op = False
        error = op.check(out)
        if error is not None:
            failures.append(f"op {i} ({op.kind}): {error}")
    return len(ops), failures


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in workloads.WORKLOADS:
        print(f"usage: python tools/gc_count.py WORKLOAD, where WORKLOAD is one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build, collections = workloads.WORKLOADS[argv[0]], Collections()
    workdir = Path(tempfile.mkdtemp(prefix="gc-count-"))
    try:
        run_pass(build, workdir / "warm-up", Collections())
        gc.callbacks.append(collections)
        try:
            n_ops, failures = run_pass(build, workdir / "counted", collections)
        finally:
            gc.callbacks.remove(collections)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{argv[0]}, seed {SEED}, second pass of {n_ops} ops: "
          "collections started inside ops, and their pause, per generation")
    for generation, (count, pause) in enumerate(zip(collections.counts, collections.pauses)):
        print(f"  generation {generation}: {count:4d} collections {pause * 1000:8.2f} ms")
    for failure in failures:
        print(f"  failed {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
