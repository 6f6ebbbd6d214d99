"""Per-layer spans recorded from outside the program.

The tracer rebinds the public functions of each gridmind module, and the
methods of its classes, to wrappers defined here; no gridmind file changes.
Names that one module imported from another by value (`cli.solve`,
`interpretation.extract_features`, the package's re-exports, ...) are
rebound too, so nested calls get spans. A span records its name, start,
end, parent span, op id and pass, plus counts read from the arguments and
the return value. Spans are kept in memory, written out when the run ends,
and the original attributes are restored by `uninstall`.

Spans are recorded only while an op runs (`begin_op` .. `end_op`), so
set-up and output checks leave no trace.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

def _path_len(args, ret):
    path = getattr(ret, "path", None)
    return {"path_len": len(path) - 1} if path is not None else {}


def _state_space(args, ret):
    space = args[0]
    return {
        "states": len(space.states),
        "transitions": sum(map(len, space.transitions.values())),
    }


def _observe(args, ret):
    return {"created": ret.nodes_created, "reused": ret.nodes_reused}


# (module, attribute path, counts read from (args, return value)).
# `StateSpace.__init__` is recorded under the name `solver.StateSpace`.
TARGETS = (
    ("grid", "Grid.from_text", None),
    ("graph", "ConceptGraph.create_composite", None),
    ("graph", "ConceptGraph.mutex_partners", None),
    ("graph", "ConceptGraph.import_text",
     lambda a, r: {"bytes": len(a[1]), "nodes": len(r)}),
    ("graph", "ConceptGraph.export_text",
     lambda a, r: {"bytes": len(r), "nodes": len(a[0])}),
    ("learning", "extract_features", lambda a, r: {"features": len(r)}),
    ("learning", "Learner.observe", _observe),
    ("learning", "Learner.recognize", lambda a, r: {"matches": len(r)}),
    ("learning", "Learner.match_under_transformations", None),
    ("learning", "Learner.reconstruct", None),
    ("inhibition", "SessionStack.propagate", lambda a, r: {"derived": len(r)}),
    ("interpretation", "explain", None),
    ("interpretation", "explain_features", lambda a, r: {"explanations": len(r)}),
    ("solver", "Environment.from_text", None),
    ("solver", "StateSpace.__init__", _state_space),
    ("solver", "prune_deadlocks", lambda a, r: {"pruned": len(r)}),
    ("solver", "solve", _path_len),
    ("solver", "enumerate_solutions", lambda a, r: {"solutions": len(r)}),
    ("solver", "solve_with_constraints", None),
    ("cli", "main", None),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__init__')}"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "pass_no", "counts", "error")

    def __init__(self, name, start, parent, op, pass_no):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.pass_no = pass_no
        self.counts = None
        self.error = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._pass = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "gridmind" or name.startswith("gridmind.")]
        for module_name, attr, counts in TARGETS:
            module = importlib.import_module(f"gridmind.{module_name}")
            *owner_path, leaf = attr.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf] if owner_path else getattr(owner, leaf)
            name = span_name(module_name, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, counts))
            else:
                wrapped = self._wrap(name, raw, counts)
            self._rebind(owner, leaf, raw, wrapped)
            if not owner_path:
                # the same function imported by value into other modules
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is raw and other is not owner:
                            self._rebind(other, key, raw, wrapped)

    def _rebind(self, owner, key, original, wrapped) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def _wrap(self, name, fn, counts):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                ret = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                tracer._close(span)
                raise
            tracer._close(span)
            if counts is not None:
                span.counts = counts(args, ret)
            return ret

        return wrapper

    # -- spans -----------------------------------------------------------

    def _open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, parent, self._op, self._pass)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int, kind: str, pass_no: int) -> None:
        self._pass = pass_no
        self._op = op_id
        self._open(f"op.{kind}")

    def end_op(self) -> None:
        self._close(self.spans[self._stack[-1]])
        self._op = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\tpass\terror\tcounts\n")
            for i, s in enumerate(self.spans):
                parent = "" if s.parent is None else s.parent
                counts = ",".join(f"{k}={v}" for k, v in sorted((s.counts or {}).items()))
                fh.write(f"{i}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{parent}\t"
                         f"{s.op}\t{s.pass_no}\t{s.error or ''}\t{counts}\n")


# -- per-layer metrics -----------------------------------------------------


def per_pass_stats(spans: list[Span], passes: int) -> list[dict[str, float]]:
    """Counts and self times per pass, keyed by per-layer metric name.

    Self time is a span's duration minus the durations of its direct
    children; children run inside their parent, so they never overlap.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    stats = [defaultdict(float) for _ in range(passes)]
    for i, s in enumerate(spans):
        out = stats[s.pass_no]
        self_ms = (s.end - s.start - child_time[i]) * 1000.0
        layer = s.name.split(".", 1)[0]
        out[f"{layer}.self_ms"] += self_ms
        if layer == "op":
            continue
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_ms"] += self_ms
        if s.error == "ConflictError":
            out[f"{s.name}.conflicts"] += 1
        for key, value in (s.counts or {}).items():
            if key == "nodes":
                out["graph.nodes"] = max(out["graph.nodes"], value)
            else:
                out[f"{s.name}.{key}"] += value
        if s.name == "solver.solve" and _has_ancestor(spans, s, "solver.enumerate_solutions"):
            out["solver.enumerate_solutions.solve_calls"] += 1
    for out in stats:
        _ratio(out, "learning.Learner.observe.reuse_ratio",
               out["learning.Learner.observe.reused"],
               out["learning.Learner.observe.reused"] + out["learning.Learner.observe.created"])
        _ratio(out, "inhibition.SessionStack.propagate.conflict_ratio",
               out["inhibition.SessionStack.propagate.conflicts"],
               out["inhibition.SessionStack.propagate.calls"])
        _ratio(out, "solver.enumerate_solutions.solve_calls_per_solution",
               out["solver.enumerate_solutions.solve_calls"],
               out["solver.enumerate_solutions.solutions"])
    return [dict(s) for s in stats]


def _has_ancestor(spans, span, name) -> bool:
    while span.parent is not None:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


def _ratio(out, key, num, den) -> None:
    out[key] = num / den if den else 0.0
