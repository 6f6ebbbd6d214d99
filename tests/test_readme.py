"""README's ```python blocks run as written.

Each block runs top to bottom in a namespace of its own. A statement that
is an expression ending in a comment that is a Python literal, such as
`solve(StateSpace(env)).moves  # ['E', 'E', 'S', 'S']`, must evaluate to
that literal; any other comment is prose. So an example that uses a
deleted name, or whose printed value drifts, fails here.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
_PROSE = object()


def _literal(comment: str):
    """The value of `comment` (without its `#`) as a Python literal, or
    `_PROSE` when it is not one."""
    try:
        return ast.literal_eval(comment.strip())
    except (ValueError, SyntaxError):
        return _PROSE


def run_block(code: str) -> int:
    """Run `code`, asserting each literal comment; return how many held."""
    comments = {
        tok.start[0]: tok.string[1:]
        for tok in tokenize.generate_tokens(io.StringIO(code).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(code).body:
        expected = _literal(comments.get(stmt.end_lineno, ""))
        if isinstance(stmt, ast.Expr) and expected is not _PROSE:
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert got == expected, f"line {stmt.lineno}: {ast.unparse(stmt)} gave {got!r}"
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return checked


def test_readme_python_blocks_run_and_hold():
    assert BLOCKS
    assert sum(run_block(code) for code in BLOCKS) >= 1


def test_prose_comments_are_not_checked():
    assert run_block("x = 1\nx  # one\nx + 1  # 2\n") == 1
