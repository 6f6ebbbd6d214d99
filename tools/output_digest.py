"""Print one sha256 per perfbench workload over the outputs of its ops,
then one over the stdout of the demos.

Runs every op of the four workloads in `perfbench/workloads.py` for seeds
1-3, in order and each followed by its check, as `perfbench/run.py` runs a
pass (the cli ops read state their checks record). Each op's output, or the
exception it raised, is made canonical, and its check's verdict is added:

- a `ConceptGraph` becomes its `export_text()`, and a `StateSpace` its graph;
- a `RecognitionMatch` becomes `(concept, anchor, str(score))`, and a
  `Transformation` its `str`;
- dataclasses, tuples, lists and sets become nested lists of the same;
- the pass's work directory is replaced by a fixed token in every string.

The last line hashes, for each `demos/*.py` in name order, its file name
and what its `main()` prints.

Two checkouts whose programs give the same outputs print the same digests.
`tools/output_digests.txt` holds what this prints for the committed
program, and CI fails when the two differ; a change that alters outputs on
purpose updates that file and says why in CHANGES.md.
Standard library only; no options. Usage: python tools/output_digest.py
"""

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import sys
import tempfile
from enum import Enum
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import gridmind as gm  # noqa: E402
import workloads  # noqa: E402
from gridmind.learning import RecognitionMatch  # noqa: E402

SEEDS = (1, 2, 3)
WORKDIR_TOKEN = "<workdir>"


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
    if dataclasses.is_dataclass(value):
        fields = [getattr(value, f.name) for f in dataclasses.fields(value)]
        return [type(value).__name__, *(canonical(v, workdir) for v in fields)]
    if isinstance(value, (tuple, list)):
        return [canonical(v, workdir) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(repr(canonical(v, workdir)) for v in value)
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


for name, build in workloads.WORKLOADS.items():
    hexdigest, ops_run, failed = digest(build)
    print(f"{hexdigest}  {name}  ({ops_run} ops, {failed} failed)")
hexdigest, count = demos_digest()
print(f"{hexdigest}  demos  ({count} demos)")
