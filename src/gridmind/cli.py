"""Command-line harness.

Subcommands: learn, show, recognize, explain, solve, graph. All output is
line-oriented and deterministic. Exit codes: 0 success, 1 no solution /
no explanation, 2 input or parse error.

Each subcommand imports the engine modules it runs; `graph` and `grid`,
which every subcommand reads its input through, are imported here. One
rule decides exit code 2: `main` maps `GraphError`, `GridError` (which
includes `LearningError` and `InvalidEnvError`) and `OSError` to it, with
the message on stderr. Any other exception is a fault and ends in a
traceback.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .graph import ConceptGraph, GraphError
from .grid import Grid, GridError

EXIT_OK = 0
EXIT_NO_RESULT = 1
EXIT_INPUT_ERROR = 2


class _CliInputError(Exception):
    pass


def _load(path, parse):
    """Read `path` as UTF-8 and parse it; an input error names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliInputError(f"cannot read {path}: {exc}") from None
    try:
        return parse(text)
    except (GraphError, GridError) as exc:
        raise _CliInputError(f"{path}: {exc}") from None


def _cmd_learn(args) -> int:
    from .learning import Learner

    grid = _load(args.pattern, Grid.from_text)
    # the one command that starts a new graph when there is no file yet
    graph = ConceptGraph()
    if args.graph is not None and os.path.exists(args.graph):
        graph = _load(args.graph, ConceptGraph.import_text)
    report = Learner(graph).observe(grid)
    if args.graph is not None:
        graph.export_file(args.graph)
    print(f"ROOT {report.root}")
    print(f"CREATED {report.nodes_created}")
    print(f"REUSED {report.nodes_reused}")
    return EXIT_OK


def _cmd_show(args) -> int:
    from .learning import Learner

    learner = Learner(_load(args.graph, ConceptGraph.import_text))
    grid = learner.reconstruct(args.node)
    sys.stdout.write(grid.to_text())
    return EXIT_OK


def _cmd_recognize(args) -> int:
    from .learning import Learner

    grid = _load(args.pattern, Grid.from_text)
    learner = Learner(_load(args.graph, ConceptGraph.import_text))
    matches = learner.recognize(grid)
    for m in matches:
        print(f"MATCH {m.concept} {m.score} {m.anchor[0]},{m.anchor[1]}")
    if not matches:
        print("NO MATCHES")
    return EXIT_OK


def _fmt_ids(ids) -> str:
    return ",".join(str(i) for i in sorted(ids)) or "-"


def _cmd_explain(args) -> int:
    from .interpretation import explain
    from .learning import Learner

    grid = _load(args.pattern, Grid.from_text)
    learner = Learner(_load(args.graph, ConceptGraph.import_text))
    explanations = explain(learner, grid)
    # the one novel explanation, if any, comes last and chooses nothing
    for e in explanations:
        if e.novel:
            print(f"NOVEL {_fmt_ids(e.residue)}")
        else:
            print(
                f"EXPLANATION chosen={_fmt_ids(e.chosen)}"
                f" covered={_fmt_ids(e.covered)}"
                f" suppressed={_fmt_ids(e.suppressed)}"
            )
    if not grid.is_empty() and not any(e.chosen for e in explanations):
        return EXIT_NO_RESULT
    return EXIT_OK


def _parse_cell(text: str) -> tuple[int, int]:
    try:
        x, y = text.split(",")
        return int(x), int(y)
    except ValueError:
        raise _CliInputError(f"bad cell {text!r}, expected x,y") from None


def _cmd_solve(args) -> int:
    from .inhibition import SessionStack
    from .solver import Environment, NoSolution, StateSpace
    from .solver import enumerate_solutions, solve, solve_with_constraints

    if args.enumerate is not None:
        if args.enumerate < 0:
            raise _CliInputError(f"--enumerate needs N >= 0, got {args.enumerate}")
        if args.forbid:
            raise _CliInputError("--forbid cannot be combined with --enumerate")
    space = StateSpace(_load(args.env, Environment.from_text))
    sessions = SessionStack(space.graph)
    forbidden = {_parse_cell(c) for c in args.forbid or ()}
    if args.enumerate is not None:
        results = enumerate_solutions(space, args.enumerate or None, sessions)
    elif forbidden:
        results = [solve_with_constraints(space, forbidden)]
    else:
        results = [solve(space, sessions)]
    routes = [None if isinstance(r, NoSolution) else r.moves for r in results]
    if args.trace is not None:
        # written before any output, so a trace that cannot be written
        # leaves stdout empty, as every other input error does
        nodes = space.graph.nodes
        events = [("inhibit", nodes[n].label) for n in sorted(sessions.inhibited_nodes())]
        for result, moves in zip(results, routes):
            if moves is None:
                events.append(("no_solution", "unreachable"))
            else:
                events.append(("create_node", nodes[result.concept].label))
                events.append(("solution", ".".join(moves)))
        with open(args.trace, "w", encoding="utf-8") as fh:
            for step, (event, subject) in enumerate(events):
                fh.write(f"{step}\t{event}\t{subject}\t{sessions.depth}\n")
    for moves in routes:
        if moves is None:
            print("NO SOLUTION")
        else:
            print(f"SOLUTION {len(moves)} moves: {' '.join(moves)}")
    if args.enumerate is not None:
        print(f"TOTAL {len(results)}")
    return EXIT_OK if routes and None not in routes else EXIT_NO_RESULT


def _cmd_graph(args) -> int:
    graph = _load(args.source, ConceptGraph.import_text)
    if args.action == "export":
        if args.dest is None:
            raise _CliInputError("graph export needs a destination file")
        graph.export_file(args.dest)
        print(f"EXPORTED {len(graph)} nodes")
    else:
        print(f"IMPORTED {len(graph)} nodes")
        print(f"MUTEX {len(graph.mutex)}")
        print(f"EXCITATORY {len(graph.excitatory)}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `gridmind` parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="gridmind", description="concept-graph reasoning engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="observe a pattern file")
    p.add_argument("pattern")
    p.add_argument("--graph", default=None)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("show", help="reconstruct a node as a pattern grid")
    p.add_argument("node", type=int)
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("recognize", help="match a pattern against known concepts")
    p.add_argument("pattern")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("explain", help="search alternative explanations of a pattern")
    p.add_argument("pattern")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("solve", help="solve a maze or push-puzzle environment")
    p.add_argument("env")
    p.add_argument(
        "--enumerate",
        nargs="?",
        const=0,
        type=int,
        default=None,
        metavar="N",
        help="enumerate solutions (all, or at most N; N = 0 means all)",
    )
    p.add_argument("--forbid", action="append", metavar="x,y")
    p.add_argument("--trace", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("graph", help="validate or re-encode a graph file")
    p.add_argument("action", choices=["export", "import"])
    p.add_argument("source")
    p.add_argument("dest", nargs="?", default=None)
    p.set_defaults(func=_cmd_graph)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_CliInputError, GraphError, GridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
