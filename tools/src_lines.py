"""Print the code lines of each `src/gridmind` module, then their total.

A line counts when it holds a token that is neither a comment nor part of
a module, class or function docstring. Usage: python tools/src_lines.py
"""

import ast
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gridmind"
SKIP = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

total = 0
for path in sorted(SRC.glob("*.py")):
    docstrings = {  # where each docstring's string token starts
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(ast.parse(path.read_bytes()))
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None
    }
    lines: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP and tok.start not in docstrings:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    total += len(lines)
    print(f"{len(lines):6d}  {path.name}")
print(f"{total:6d}  total")
