"""Every module parses under the oldest Python that pyproject.toml allows.

`ast.parse` with `feature_version` set to the `requires-python` floor
refuses the grammar added after it (an `except*` clause, a `type`
statement, type parameters), so running these tests on a newer Python
still guards the floor.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(
    int(part)
    for part in re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups()
)
FILES = sorted(
    path
    for pattern in ("src/gridmind/*.py", "tools/*.py", "tests/*.py", "demos/*.py", "perfbench/*.py")
    for path in ROOT.glob(pattern)
)


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_parses_at_the_python_floor(path):
    ast.parse(path.read_bytes(), filename=str(path), feature_version=FLOOR)
