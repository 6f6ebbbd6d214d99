"""The package surface that the benchmark, the demos and the oracles use.

Each file is read as text, never imported, so a name deleted from
`gridmind` fails here rather than in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

import gridmind

ROOT = Path(__file__).resolve().parent.parent
USERS = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("demos/*.py")])
USERS.append(ROOT / "tests" / "oracles.py")


def _package_names(tree: ast.AST) -> set[str]:
    """Names taken from `gridmind`: each `from gridmind import name` and
    each `alias.name` where `alias` is bound by `import gridmind`."""
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gridmind" and not node.level:
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "gridmind")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                names.add(node.attr)
    return names


def _resolves(name: str) -> bool:
    """Whether `from gridmind import name` succeeds: an attribute of the
    package, or else one of its submodules."""
    if hasattr(gridmind, name):
        return True
    try:
        importlib.import_module(f"gridmind.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_package_names_used_resolve():
    used = {
        (path.relative_to(ROOT).as_posix(), name)
        for path in USERS
        for name in _package_names(ast.parse(path.read_text(encoding="utf-8")))
    }
    # the benchmark's workloads and the oracles do take names from gridmind
    assert {"perfbench/workloads.py", "tests/oracles.py"} <= {path for path, _ in used}
    assert sorted((path, name) for path, name in used if not _resolves(name)) == []


def _trace_targets() -> list[tuple[str, str]]:
    """(module, attribute path) of each `TARGETS` entry in perfbench's tracer."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
            t.id for t in node.targets if isinstance(t, ast.Name)
        ] == ["TARGETS"]:
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_trace_targets_resolve():
    # the lookup the tracer makes when it installs its wrappers
    targets = _trace_targets()
    assert targets
    for module_name, attr in targets:
        owner = importlib.import_module(f"gridmind.{module_name}")
        *owner_path, leaf = attr.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        assert leaf in vars(owner) if owner_path else hasattr(owner, leaf), (module_name, attr)
