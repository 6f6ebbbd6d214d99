"""gridmind benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gridmind checkout; the program is imported from
`src/` and the output oracles from `tests/oracles.py`. One process, one
thread, one client: each workload is a closed loop in which an op starts
only when the previous one has returned and been checked.

A pass is the workload's fixed, seeded op sequence on freshly set-up state.
Passes repeat while another one fits in `--seconds` (at least MIN_PASSES),
so every pass does identical work and per-pass counts repeat exactly.

Times are reported at reference speed. The machine is shared, and the
speed at which it runs Python drifts by up to 1.8x for seconds at a time.
So run.py times a fixed loop (`_speed_loop`) before the first op of a
pass and after every op, and scales each op's time by REFERENCE_S over the
mean of the two loop times around it; set-up is scaled the same way. Each
op's latency is the median of its scaled times over the passes, and
percentiles are taken over those per-op latencies. The unscaled figures
are printed too.

With `--trace 0` the last line carries the end-to-end metrics; with
`--trace 1` the public functions of every layer are wrapped (see
tracing.py) and it carries the per-layer metrics. Human-readable lines
above it give the median of each op kind, the tail percentile, failures
and each op kind's share of the time.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_PASSES = 3
IMPORT_REPS = 5
# An op whose memory runs away fails with MemoryError instead of taking
# the machine down with it.
ADDRESS_SPACE_LIMIT = 2 << 30
# `_speed_loop` is timed SPEED_REPS times and the fastest time kept.
# REFERENCE_S is its fastest time on the machine the baseline was
# measured on (2-core x86-64 VM, Python 3.11.7).
SPEED_REPS = 3
REFERENCE_S = 90e-6


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import gridmind from this checkout's `src/` and the oracles from `tests/`.

    Returns the median import time at reference speed over IMPORT_REPS
    imports, in seconds; the modules are dropped from `sys.modules`
    before each but the first. Raises ImportError when the checkout
    lacks either, rather than using an installed copy.
    """
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "gridmind" / "__init__.py").is_file() or not (tests / "oracles.py").is_file():
        raise ImportError(f"no gridmind sources under {ROOT}")
    sys.path[:0] = [str(src), str(tests)]

    def load():
        for name in [m for m in sys.modules if m.split(".")[0] in ("gridmind", "oracles", "workloads")]:
            del sys.modules[name]
        import gridmind
        import oracles  # noqa: F401
        import workloads  # noqa: F401
        return gridmind

    times = []
    for _ in range(IMPORT_REPS):
        gridmind, elapsed = timed(load)
        times.append(elapsed)
    if Path(gridmind.__file__).resolve().parent != src / "gridmind":
        raise ImportError(f"gridmind imported from {gridmind.__file__}, not {src}")
    return statistics.median(times)


def _speed_loop():
    """A fixed flood fill over tuples, sets and dicts, as the program does."""
    seen, frontier, parent = {(0, 0)}, [(0, 0)], {}
    while frontier:
        cell = x, y = frontier.pop()
        for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0)):
            nxt = (x + dx, y + dy)
            if 0 <= nxt[0] < 12 and 0 <= nxt[1] < 12 and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
                parent[nxt] = cell
    return parent


def speed_sample() -> float:
    """Fastest of SPEED_REPS runs of the fixed loop, in seconds."""
    best = math.inf
    for _ in range(SPEED_REPS):
        started = time.perf_counter()
        _speed_loop()
        best = min(best, time.perf_counter() - started)
    return best


def at_reference(elapsed, before, after):
    """`elapsed` scaled by REFERENCE_S over the mean of the loop times
    sampled before and after it."""
    return elapsed * REFERENCE_S / ((before + after) / 2)


def timed(fn):
    """fn's result and its run time at reference speed, in seconds."""
    before = speed_sample()
    started = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - started
    return out, at_reference(elapsed, before, speed_sample())


def run_pass(ops, pass_no, tracer):
    """Run one pass; returns per-op times (s, unscaled and at reference
    speed), failure messages and check time. The loop time measured after
    one op serves as the one before the next.
    """
    raw, latencies, failures = [], [], []
    check_s = 0.0
    before = speed_sample()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(pass_no * len(ops) + i, op.kind, pass_no)
        started = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # a failed op is counted; the run goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        raw.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.end_op()
        after = speed_sample()
        latencies.append(at_reference(raw[-1], before, after))
        before = after
        if error is None:
            checked = time.perf_counter()
            try:
                error = op.check(out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            check_s += time.perf_counter() - checked
        if error is not None:
            failures.append(f"op {i} ({op.kind}): {error}")
    return raw, latencies, failures, check_s


def tail(values):
    """Highest whole percentile with at least 10 samples above it (nearest rank)."""
    n = len(values)
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, sorted(values)[rank - 1]


def measure(build, seed, seconds, workdir, tracer):
    setups, passes, raws, failures, check_s = [], [], [], [], 0.0
    kinds = None
    started = last = time.perf_counter()
    # Start another pass only if one more, as long as the last, ends in time.
    while len(passes) < MIN_PASSES or 2 * time.perf_counter() - last < started + seconds:
        last = time.perf_counter()
        gc.collect()
        ops, setup_s = timed(lambda: build(seed, workdir / f"pass{len(passes)}"))
        setups.append(setup_s)
        kinds = [op.kind for op in ops]
        gc.collect()
        raw, latencies, failed, checked = run_pass(ops, len(passes), tracer)
        raws.append(raw)
        passes.append(latencies)
        failures += failed
        check_s += checked
        del ops
        shutil.rmtree(workdir / f"pass{len(passes) - 1}", ignore_errors=True)
    print(f"{len(passes)} passes in {time.perf_counter() - started:.1f} s, "
          f"of which checks {check_s:.1f} s; unscaled time in ops per pass:",
          " ".join(f"{sum(p):.2f}" for p in raws))
    print("machine speed relative to reference, per pass:",
          " ".join(f"{sum(r) / sum(p):.2f}" for r, p in zip(passes, raws)))
    per_op = [statistics.median(col) for col in zip(*raws)]
    print(f"unscaled: ops_per_s {len(per_op) / sum(per_op):.3f} "
          f"op_p50_ms {statistics.median(per_op) * 1000:.4f} op_tail_ms {tail(per_op)[1] * 1000:.3f}")
    return setups, passes, kinds, failures


def report(args, import_s, setups, passes, kinds, failures):
    per_op = [statistics.median(col) for col in zip(*passes)]
    n = len(per_op)
    pct, tail_s = tail(per_op)
    attempted = len(passes) * n
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "ops_per_s": (n / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {n} ops, closed loop, 1 client")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<18} {value:12.4f} {unit}")
    print(f"  op_tail_ms is p{pct} of n={n} per-op latencies ({n - math.ceil(pct / 100 * n)} above)")
    print(f"  {'fail_ratio':<18} {len(failures) / attempted:12.4f} ({len(failures)}/{attempted})")
    total = sum(per_op)
    groups = {}
    for kind, t in zip(kinds, per_op):
        groups.setdefault(kind, []).append(t)
    for kind, times in sorted(groups.items()):
        print(f"  {kind + '_p50_ms':<26} {statistics.median(times) * 1000:10.3f} ms  "
              f"n={len(times):<4} share {100 * sum(times) / total:5.1f}%")
    cli = [t for kind, t in zip(kinds, per_op) if kind.startswith("cli-")]
    if cli:
        print(f"  {'cli_p50_ms':<26} {statistics.median(cli) * 1000:10.3f} ms  n={len(cli)}")
    for line in failures[:10]:
        print(f"  FAILED {line}", file=sys.stderr)
    return metrics, attempted


def trace_metrics(tracer, passes):
    """Per-layer metrics: counts of the first pass, median self times over passes."""
    stats = tracing.per_pass_stats(tracer.spans, len(passes))
    first = stats[0]
    repeat = all(
        {k: v for k, v in s.items() if not k.endswith("self_ms")}
        == {k: v for k, v in first.items() if not k.endswith("self_ms")}
        for s in stats
    )
    names = {k for s in stats for k in s}
    out = {}
    for name in sorted(names):
        if name.endswith("self_ms"):
            out[name] = statistics.median(s.get(name, 0.0) for s in stats)
        else:
            out[name] = first.get(name, 0.0)
    total = sum(v for k, v in out.items() if k.count(".") == 1 and k.endswith(".self_ms"))
    print("  layer shares of traced op time:", ", ".join(
        f"{k.split('.')[0]} {100 * v / total:.1f}%"
        for k, v in sorted(out.items()) if k.count(".") == 1 and k.endswith(".self_ms")))
    if not repeat:
        print("  per-pass counts differ between passes", file=sys.stderr)
    return out, repeat


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > ADDRESS_SPACE_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, hard))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        setups, passes, kinds, failures = measure(build, args.seed, args.seconds, workdir, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, attempted = report(args, import_s, setups, passes, kinds, failures)
    correct = not failures
    if tracer is not None:
        layer, repeat = trace_metrics(tracer, passes)
        correct = correct and repeat
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv")
        values = {m["name"]: (layer.get(m["name"], 0.0), m["unit"]) for m in benchmark()["per_layer"]}
    else:
        values = metrics
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


def benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
