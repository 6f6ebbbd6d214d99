"""Print, per `src/gridmind` module, the executable lines that no Tier-1
test runs and those that only tests run.

Two runs are traced with the standard library's `trace`, each after a
fresh import of the package: the programs, that is every op of the four
perfbench workloads for seeds 1-3 and the five demos, run as
`tools/output_digest.py` runs them; then the Tier-1 suite, run in process
by `pytest`. A line is executable when `trace` would report its coverage
(docstrings are not). "Untested" lines are executable lines the suite never
runs; "test-only" lines are lines the suite runs and the programs never
do. The body of `cli.py`'s `if __name__ == "__main__":` guard is listed
apart: only the subprocess tests run it, and `trace` does not follow a
subprocess. About 2 min per run; it is not a CI step.
Standard library and pytest only; no options. Usage: python tools/src_reach.py
"""

import ast
import contextlib
import io
import runpy
import sys
import trace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gridmind"
MODULES = sorted(SRC.glob("*.py"))


def _main_guard(path: Path) -> set[int]:
    """The lines of the body of `path`'s `if __name__ == "__main__":`."""
    for node in ast.parse(path.read_bytes()).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            return {n for stmt in node.body for n in range(stmt.lineno, stmt.end_lineno + 1)}
    return set()


def traced(func) -> dict[Path, set[int]]:
    """Run `func` with every module this repo holds imported afresh, and
    return the lines it ran in each `src/gridmind` module."""
    for name, module in list(sys.modules.items()):
        if str(getattr(module, "__file__", None) or "").startswith(str(ROOT)):
            del sys.modules[name]
    tracer = trace.Trace(count=1, trace=0)
    # count lines in src/gridmind frames alone; `ignoredirs` would not do,
    # as `trace` caches its verdict by bare module name, and the first
    # `__init__` it skips would hide gridmind's
    files = {str(path) for path in MODULES}
    count = tracer.localtrace

    def only_src(frame, why, arg):
        return count if frame.f_code.co_filename in files else None

    tracer.globaltrace = only_src
    tracer.runfunc(func)
    ran: dict[Path, set[int]] = {path: set() for path in MODULES}
    for filename, line in tracer.results().counts:
        path = Path(filename).resolve()
        if path in ran:
            ran[path].add(line)
    return ran


def _ranges(lines) -> str:
    """`1-3, 7` for {1, 2, 3, 7}; `-` when empty."""
    out, lines = [], sorted(lines)
    for i, n in enumerate(lines):
        if i and n == lines[i - 1] + 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out) or "-"


def run_programs() -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(str(ROOT / "tools" / "output_digest.py"), run_name="__main__")


def run_tests() -> None:
    status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    print(f"pytest exit status {int(status)}")


programs = traced(run_programs)
tests = traced(run_tests)
totals = [0, 0, 0]
print(f"\n{'module':<18}{'executable':>11}{'untested':>10}{'test-only':>11}")
report = []
for path in MODULES:
    executable = set(trace._find_executable_linenos(str(path))) - {0}  # 0: a module's entry
    guard = _main_guard(path) & executable
    untested = executable - tests[path] - guard
    test_only = tests[path] - programs[path]
    counts = (len(executable), len(untested), len(test_only))
    totals = [t + c for t, c in zip(totals, counts)]
    print(f"{path.name:<18}{counts[0]:>11}{counts[1]:>10}{counts[2]:>11}")
    report.append(f"{path.name}: untested {_ranges(untested)}; test-only {_ranges(test_only)}")
    if guard:
        report.append(f"{path.name}: run only as a subprocess, by `python -m`: {_ranges(guard)}")
print(f"{'total':<18}{totals[0]:>11}{totals[1]:>10}{totals[2]:>11}\n")
print("\n".join(report))
