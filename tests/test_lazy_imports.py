"""What a fresh interpreter loads for `gridmind` and its CLI.

`import gridmind` loads no engine module, each name in `gridmind.__all__`
loads its own module on first use, and each CLI command imports only the
modules it runs. Each check runs in a subprocess of its own, so no module
that the test process has loaded hides an import. A module counts as
loaded by the code under test when it is in `sys.modules` after that code
and was not before, so what the interpreter's start-up loads never counts.
"""

import json
import subprocess
import sys

PROBE = """\
import json, sys
before = set(sys.modules)
{code}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def newly_loaded(code: str) -> set[str]:
    """The modules that running `code` in a fresh interpreter loads; any
    assertion in `code` must hold."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(code=code)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_only_grid_and_graph_and_no_dataclasses():
    loaded = newly_loaded("import gridmind.cli")
    assert {m for m in loaded if m.startswith("gridmind")} == {
        "gridmind", "gridmind.cli", "gridmind.graph", "gridmind.grid"
    }
    assert not loaded & {"dataclasses", "inspect", "fractions"}


def test_solve_loads_neither_learning_nor_interpretation(tmp_path):
    maze = tmp_path / "maze.env"
    maze.write_text("S.#\n..G\n")
    loaded = newly_loaded(
        f"from gridmind.cli import main\nassert main(['solve', {str(maze)!r}]) == 0"
    )
    assert "gridmind.solver" in loaded
    assert not loaded & {"gridmind.learning", "gridmind.interpretation", "fractions", "dataclasses"}


def test_every_name_in_all_resolves_and_an_unknown_name_does_not():
    loaded = newly_loaded(
        """\
import gridmind
assert not [m for m in sys.modules if m.startswith("gridmind.")]
for name in gridmind.__all__:
    getattr(gridmind, name)
try:
    gridmind.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("gridmind.no_such_name resolved")
from gridmind import cli
assert cli.main
"""
    )
    engine = {"graph", "grid", "inhibition", "interpretation", "learning", "solver", "cli"}
    assert {f"gridmind.{m}" for m in engine} <= loaded


def test_a_resolved_name_is_stored_on_the_package():
    # a second lookup is a plain attribute read, so it never calls the
    # package's `__getattr__` again
    newly_loaded(
        """\
import gridmind
calls = []
resolve = gridmind.__getattr__
gridmind.__getattr__ = lambda name: calls.append(name) or resolve(name)
first, second = gridmind.solve, gridmind.solve
assert first is second is vars(gridmind)["solve"]
assert calls == ["solve"], calls
"""
    )
