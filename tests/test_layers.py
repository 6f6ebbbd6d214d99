"""Each `gridmind` module imports only the modules below it.

`grid` and `graph` hold representations and import no sibling; `learning`
stands on them alone. `inhibition`, `interpretation` and `solver` reason
over the representations, and `cli` and the package's `__init__` sit on
top. A relative import outside this table fails the test, wherever in the
module it appears.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gridmind"

ALLOWED = {
    "grid": set(),
    "graph": set(),
    "learning": {"graph", "grid"},
    "inhibition": {"graph"},
    "interpretation": {"graph", "grid", "inhibition", "learning"},
    "solver": {"graph", "grid", "inhibition"},
    "cli": {"graph", "grid", "inhibition", "interpretation", "learning", "solver"},
    "__init__": {"graph", "grid", "inhibition", "interpretation", "learning", "solver"},
}


def sibling_imports(path: Path) -> set[str]:
    """The `gridmind` modules that `path` imports relatively."""
    found = set()
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # `from . import x`
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == set(ALLOWED)


def test_modules_import_only_the_layers_below():
    for path in sorted(SRC.glob("*.py")):
        extra = sibling_imports(path) - ALLOWED[path.stem]
        assert not extra, f"{path.name} imports {sorted(extra)}"
