"""Print one sha256 per perfbench workload over the outputs of its ops,
then one over the stdout of the demos.

Runs every op of the four workloads in `perfbench/workloads.py` for seeds
1-3, in order and each followed by its check, as `perfbench/run.py` runs a
pass (the cli ops read state their checks record). Each op's output, or the
exception it raised, is made canonical, and its check's verdict is added:

- a `ConceptGraph` becomes its `export_text()`, and a `StateSpace` its graph;
- a `RecognitionMatch` becomes `(concept, anchor, str(score))`, and a
  `Transformation` its `str`;
- tuples, lists and sets become nested lists of the same, and an object
  of any other class with `__slots__` (the program's record classes,
  such as `Solution`) becomes its class name followed by its slots, in
  the order the class declares them;
- the pass's work directory is replaced by a fixed token in every string.

The `demos` line hashes, for each `demos/*.py` in name order, its file
name and what its `main()` prints. The last line hashes the exit code,
stdout and stderr of `gridmind.cli.main` for each command of
`REFUSED_ARGVS`, one for each input the README says the CLI refuses with
exit code 2, with the work directory replaced by the same token.

Two checkouts whose programs give the same outputs print the same digests.
`tools/output_digests.txt` holds what this prints for the committed
program, and CI fails when the two differ; a change that alters outputs on
purpose updates that file and says why in CHANGES.md.
Standard library only; no options. Usage: python tools/output_digest.py
"""

import contextlib
import hashlib
import importlib.util
import io
import itertools
import sys
import tempfile
from enum import Enum
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import gridmind as gm  # noqa: E402
import workloads  # noqa: E402
from gridmind.cli import main  # noqa: E402
from gridmind.learning import RecognitionMatch  # noqa: E402

SEEDS = (1, 2, 3)
WORKDIR_TOKEN = "<workdir>"


def _room(n: int, marks: dict[tuple[int, int], str]) -> str:
    """An open `n` x `n` room with `marks` at their (x, y) cells."""
    rows = [["."] * n for _ in range(n)]
    for (x, y), mark in marks.items():
        rows[y][x] = mark
    return "".join("".join(row) + "\n" for row in rows)


PAIRS_SYMBOLS = "abcdefghijklmn"
# the files the refused commands read; `pairs.cg` is learned, not written here
REFUSAL_FILES = {
    "ring.txt": "xxx\nx.x\nxxx\n",
    "empty.txt": "...\n",
    "bad.txt": "x\x01x\n",
    "wide.txt": "x" * 257 + "\n",
    "binary": b"\xff\xfe\x00abc",
    "maze.env": "S..\n.#.\n..G\n",
    "bad.env": "S?G\n",
    "wide.env": "S" + "." * 256 + "G\n",
    "push.env": _room(20, {(0, 0): "S", (5, 5): "B", (14, 14): "T", (19, 19): "G"}),
    "room.env": _room(6, {(0, 0): "S", (5, 5): "G"}),
    "bad.cg": "CGRAPH 1\nN 0 Composite 1 a\nC 0 0 0 0\n",
    "state.cg": "CGRAPH 1\nN 0 State 1 s\n",
    "far.cg": 'CGRAPH 1\nN 0 Primitive 1 cell:a\nN 1 Primitive 1 cell:b\n'
              'N 2 Composite 2 ""\nC 2 0 0 0\nC 2 1 300000 0\n',
    "a.b": "a.b\n",
    "row.txt": ".".join(PAIRS_SYMBOLS) + "\n",
}
# `{d}` is the work directory
REFUSED_ARGVS = [
    ["show", "0", "--graph", "{d}/absent.cg"],  # unreadable
    ["learn", "{d}/binary"],  # undecodable
    ["learn", "{d}/bad.txt"],  # malformed pattern
    ["solve", "{d}/bad.env"],  # malformed environment
    ["graph", "import", "{d}/bad.cg"],  # malformed graph
    ["solve", "{d}/maze.env", "--trace", "{d}/absent/trace.tsv"],  # cannot be written
    ["learn", "{d}/wide.txt"],  # oversize grid
    ["solve", "{d}/wide.env"],  # oversize environment
    ["show", "0", "--graph", "{d}/state.cg"],  # not a grid concept
    ["solve", "{d}/maze.env", "--forbid", "nope"],
    ["solve", "{d}/maze.env", "--forbid", "1,0", "--enumerate"],
    ["solve", "{d}/maze.env", "--enumerate", "-1"],
    ["graph", "export", "{d}/state.cg"],  # no destination
    ["learn", "{d}/empty.txt"],
    ["solve", "{d}/push.env"],  # MAX_STATES
    ["solve", "{d}/room.env", "--enumerate"],  # MAX_SPUR_STATES
    ["explain", "{d}/row.txt", "--graph", "{d}/pairs.cg"],  # MAX_EXPLAIN_DECISIONS
    ["recognize", "{d}/a.b", "--graph", "{d}/far.cg"],  # MAX_RECOGNITION_CELLS
]


def canonical(value, workdir: str):
    if isinstance(value, str):
        return value.replace(workdir, WORKDIR_TOKEN)
    if isinstance(value, (int, Fraction, Enum)) or value is None:
        return repr(value)
    if isinstance(value, gm.ConceptGraph):
        return value.export_text()
    if isinstance(value, gm.StateSpace):
        return value.graph.export_text()
    if isinstance(value, RecognitionMatch):
        return [value.concept, list(value.anchor), str(value.score)]
    if isinstance(value, gm.Transformation):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [canonical(v, workdir) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(repr(canonical(v, workdir)) for v in value)
    slots = getattr(type(value), "__slots__", None)
    if slots is not None:
        return [type(value).__name__, *(canonical(getattr(value, s), workdir) for s in slots)]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(build) -> tuple[str, int, int]:
    """sha256 over every op's canonical output and check verdict for all
    seeds, with the op and failure counts."""
    sha, ops_run, failed = hashlib.sha256(), 0, 0
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            workdir = str(Path(tmp) / "pass")
            for op in build(seed, Path(workdir)):
                try:
                    out = op.run()
                except Exception as exc:
                    out, verdict = f"{type(exc).__name__}: {exc}", "raised"
                else:
                    verdict = op.check(out)
                failed += verdict is not None
                ops_run += 1
                record = [op.kind, canonical(out, workdir), canonical(verdict, workdir)]
                sha.update(repr(record).encode("utf-8") + b"\n")
    return sha.hexdigest(), ops_run, failed


def demos_digest() -> tuple[str, int]:
    """sha256 over each demo's file name and the stdout of its `main()`,
    with the number of demos."""
    sha, paths = hashlib.sha256(), sorted((ROOT / "demos").glob("*.py"))
    for path in paths:
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            module.main()
        sha.update(f"{path.name}\n{out.getvalue()}".encode("utf-8"))
    return sha.hexdigest(), len(paths)


def refusals_digest() -> tuple[str, int, int]:
    """sha256 over each refused command's argv, exit code, stdout and
    stderr, with the number of commands and of those that did not exit 2."""
    sha, not_refused = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as workdir:
        for name, data in REFUSAL_FILES.items():
            Path(workdir, name).write_bytes(data if isinstance(data, bytes) else data.encode())
        pairs = gm.Learner()
        for a, b in itertools.combinations(PAIRS_SYMBOLS, 2):
            pairs.observe(gm.Grid.from_text(a + b + "\n"))
        pairs.graph.export_file(Path(workdir, "pairs.cg"))
        for argv in REFUSED_ARGVS:
            argv = [a.format(d=workdir) for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            not_refused += code != 2
            record = canonical([argv, code, out.getvalue(), err.getvalue()], workdir)
            sha.update(repr(record).encode("utf-8") + b"\n")
    return sha.hexdigest(), len(REFUSED_ARGVS), not_refused


for name, build in workloads.WORKLOADS.items():
    hexdigest, ops_run, failed = digest(build)
    print(f"{hexdigest}  {name}  ({ops_run} ops, {failed} failed)")
hexdigest, count = demos_digest()
print(f"{hexdigest}  demos  ({count} demos)")
hexdigest, count, not_refused = refusals_digest()
print(f"{hexdigest}  cli-refusals  ({count} commands, {not_refused} not refused)")
