"""Time what `import gridmind.cli` costs a fresh interpreter.

Usage: python tools/cold_start.py

First it runs `python -c "import gridmind.cli"` 21 times, each in a fresh
subprocess, alternating with as many runs of `python -c pass`, and prints
the median and quartiles of each one's wall time in ms; the difference of
the medians is what the import adds to the interpreter's own start. Then
it runs `python -X importtime -c "import gridmind.cli"` 7 times and prints
the minimum, over those runs, of the cumulative import time of
`gridmind.cli` and of each standard-library module that the import loads
(not the interpreter's start) and that takes more than 1 ms. Cumulative
times nest: a module's time includes the modules it imports first.

The package comes from this checkout's `src/`. The first line says
whether PYTHONDONTWRITEBYTECODE is set: when it is, no `__pycache__` is
written, so every run compiles the gridmind sources it imports. Standard
library only; no options.
"""

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
IMPORT = "import gridmind.cli"
RUNS, IMPORTTIME_RUNS, SHOWN_MS = 21, 7, 1.0


def wall_ms(code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=ENV, check=True)
    return (time.perf_counter() - start) * 1000


def importtime_us(code: str) -> dict[str, int]:
    """Each module's cumulative import time in µs, from one
    `-X importtime` run of `code`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=ENV,
                          check=True, capture_output=True, text=True)
    out = {}
    for line in proc.stderr.splitlines():
        # "import time:  self [us] | cumulative | imported package"
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                out[name.strip()] = int(cumulative)
    return out


def quartiles(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median {statistics.median(values):7.2f} ms  quartiles [{q1:.2f}, {q3:.2f}]"


def main() -> None:
    print("PYTHONDONTWRITEBYTECODE is", "set" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "not set")
    bare, cli = [], []
    for _ in range(RUNS):
        bare.append(wall_ms("pass"))
        cli.append(wall_ms(IMPORT))
    print(f"{'python -c pass':<32}{quartiles(bare)}")
    print(f"{'python -c ' + repr(IMPORT):<32}{quartiles(cli)}")
    added = statistics.median(cli) - statistics.median(bare)
    print(f"{'the import adds':<32}median {added:7.2f} ms")

    startup = importtime_us("pass").keys()
    best: dict[str, int] = {}
    for _ in range(IMPORTTIME_RUNS):
        for name, us in importtime_us(IMPORT).items():
            if name not in startup:
                best[name] = min(us, best.get(name, us))
    print(f"-X importtime, cumulative, least of {IMPORTTIME_RUNS} runs:")
    print(f"  {best['gridmind.cli'] / 1000:7.2f} ms  gridmind.cli")
    stdlib = sorted(
        ((us, name) for name, us in best.items()
         if name.partition(".")[0] in sys.stdlib_module_names and us > SHOWN_MS * 1000),
        reverse=True,
    )
    for us, name in stdlib:
        print(f"  {us / 1000:7.2f} ms  {name}")


if __name__ == "__main__":
    main()
