"""Command-line interface: output formats, exit codes, persistence."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridmind import ConceptGraph, Environment, Grid, Learner, StateSpace, solve
from gridmind.cli import main

RING = "xxx\nx.x\nxxx\n"


@pytest.fixture
def ring_file(tmp_path):
    p = tmp_path / "ring.txt"
    p.write_text(RING)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_learn_reports_counts(capsys, ring_file):
    code, out, _ = run(capsys, "learn", ring_file)
    lines = out.splitlines()
    assert code == 0
    assert lines[0].startswith("ROOT ")
    assert lines[1] == "CREATED 4"
    assert lines[2] == "REUSED 5"


def test_learn_twice_reuses_everything(capsys, ring_file, tmp_path):
    graph = str(tmp_path / "g.cg")
    run(capsys, "learn", ring_file, "--graph", graph)
    code, out, _ = run(capsys, "learn", ring_file, "--graph", graph)
    assert code == 0
    assert "CREATED 0" in out


def test_show_round_trips_pattern(capsys, ring_file, tmp_path):
    graph = str(tmp_path / "g.cg")
    _, out, _ = run(capsys, "learn", ring_file, "--graph", graph)
    root = out.splitlines()[0].split()[1]
    code, out, _ = run(capsys, "show", root, "--graph", graph)
    assert code == 0
    assert out == RING


def test_show_unknown_node_is_input_error(capsys, ring_file, tmp_path):
    graph = str(tmp_path / "g.cg")
    run(capsys, "learn", ring_file, "--graph", graph)
    code, _, err = run(capsys, "show", "999", "--graph", graph)
    assert code == 2
    assert err.startswith("error:")


def test_show_deep_composite_chain(capsys, tmp_path):
    # node i places node i-1 at (0, 0) and the primitive at (1, 0): 1500
    # levels deep, each of scale i + 1, and the primitive is shared by every level
    depth = 1500
    lines = ["CGRAPH 1", "N 0 Primitive 1 cell:x"]
    lines += [f'N {i} Composite {i + 1} ""' for i in range(1, depth + 1)]
    for i in range(1, depth + 1):
        lines += [f"C {i} {i - 1} 0 0", f"C {i} 0 1 0"]
    graph = tmp_path / "chain.cg"
    graph.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "show", str(depth), "--graph", str(graph))
    assert (code, out, err) == (0, "xx\n", "")


def test_show_oversized_composite_is_input_error(capsys, tmp_path):
    graph = tmp_path / "wide.cg"
    graph.write_text(
        'CGRAPH 1\nN 0 Primitive 1 cell:x\nN 1 Composite 2 ""\n'
        "C 1 0 0 0\nC 1 0 300 0\n"
    )
    code, out, err = run(capsys, "show", "1", "--graph", str(graph))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_show_doubling_chain_stops_at_max_dim(capsys, tmp_path):
    # node i places node i-1 at x = 0 and x = 2^(i-1): 2^16 cells wide
    depth = 16
    lines = ["CGRAPH 1", "N 0 Primitive 1 cell:x"]
    lines += [f'N {i} Composite {2 ** i} ""' for i in range(1, depth + 1)]
    for i in range(1, depth + 1):
        lines += [f"C {i} {i - 1} 0 0", f"C {i} {i - 1} {2 ** (i - 1)} 0"]
    graph = tmp_path / "doubling.cg"
    graph.write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "show", str(depth), "--graph", str(graph))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert peak < 2 * 2**20


@pytest.mark.parametrize("record", ["N 0 State 1 s", "N 0 Primitive 1 action:go"])
def test_show_non_grid_node_is_input_error(capsys, tmp_path, record):
    graph = tmp_path / "node.cg"
    graph.write_text(f"CGRAPH 1\n{record}\n")
    code, out, err = run(capsys, "show", "0", "--graph", str(graph))
    assert (code, out, err) == (2, "", "error: node 0 is not a grid concept\n")


def test_show_solution_concept_is_input_error(capsys, tmp_path):
    space = StateSpace(Environment.from_text("S.G\n"))
    concept = solve(space).concept
    graph = tmp_path / "solution.cg"
    space.graph.export_file(graph)
    assert f"N {concept} SolutionConcept " in graph.read_text()
    code, out, err = run(capsys, "show", str(concept), "--graph", str(graph))
    assert (code, out, err) == (2, "", f"error: node {concept} is not a grid concept\n")


def test_recognize_known_and_unknown(capsys, ring_file, tmp_path):
    graph = str(tmp_path / "g.cg")
    run(capsys, "learn", ring_file, "--graph", graph)
    code, out, _ = run(capsys, "recognize", ring_file, "--graph", graph)
    assert code == 0
    assert out.splitlines()[0].endswith(" 1 0,0")
    other = tmp_path / "other.txt"
    other.write_text("qq\n")
    code, out, _ = run(capsys, "recognize", str(other), "--graph", graph)
    assert code == 0
    assert out == "NO MATCHES\n"


def test_explain_known_pattern(capsys, ring_file, tmp_path):
    graph = str(tmp_path / "g.cg")
    run(capsys, "learn", ring_file, "--graph", graph)
    code, out, _ = run(capsys, "explain", ring_file, "--graph", graph)
    assert code == 0
    assert out.splitlines()[0].startswith("EXPLANATION chosen=")


def test_explain_unknown_pattern_exit_one(capsys, ring_file, tmp_path):
    graph = str(tmp_path / "g.cg")
    run(capsys, "learn", ring_file, "--graph", graph)
    novel = tmp_path / "novel.txt"
    novel.write_text("q\n")
    code, out, _ = run(capsys, "explain", str(novel), "--graph", graph)
    assert code == 1
    assert "NOVEL" in out


def test_explain_over_decision_budget_is_input_error(capsys, tmp_path):
    # every two-symbol pattern over 14 symbols: a row of the 14 symbols has
    # 13!! = 135,135 explanations, and the search stops at its budget
    symbols = "abcdefghijklmn"
    learner = Learner()
    for i, a in enumerate(symbols):
        for b in symbols[i + 1:]:
            learner.observe(Grid.from_text(a + b + "\n"))
    graph, row = tmp_path / "pairs.cg", tmp_path / "row.txt"
    learner.graph.export_file(graph)
    row.write_text(".".join(symbols) + "\n")
    code, out, err = run(capsys, "explain", str(row), "--graph", str(graph))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "MAX_EXPLAIN_DECISIONS (65536)" in err
    assert "Traceback" not in err


def test_solve_corridor(capsys, tmp_path):
    env = tmp_path / "c.env"
    env.write_text("S.G\n")
    code, out, _ = run(capsys, "solve", str(env))
    assert code == 0
    assert out == "SOLUTION 2 moves: E E\n"


def test_solve_no_solution_exit_one(capsys, tmp_path):
    env = tmp_path / "c.env"
    env.write_text("S#G\n")
    code, out, _ = run(capsys, "solve", str(env))
    assert code == 1
    assert out == "NO SOLUTION\n"


def _ringed_room(marks: dict[str, tuple[int, int]], ring: tuple[int, int, int, int]) -> str:
    """A 40 x 40 open room with `marks` ({char: (x, y)}) and walls on the
    border of the square from (x0, y0) to (x1, y1) given by `ring`."""
    x0, y0, x1, y1 = ring
    rows = [["."] * 40 for _ in range(40)]
    for y in range(y0, y1 + 1):
        for x in range(x0, x1 + 1):
            if x in (x0, x1) or y in (y0, y1):
                rows[y][x] = "#"
    for ch, (x, y) in marks.items():
        rows[y][x] = ch
    return "\n".join("".join(row) for row in rows) + "\n"


def test_solve_walled_off_push_target_is_no_solution(capsys, tmp_path):
    # each room has far more states than the budget; the ring keeps the box
    # from its target, or the agent from its goal, so every mode answers
    # "no result" at once
    rooms = (
        _ringed_room({"S": (0, 0), "B": (5, 5), "T": (37, 37), "G": (39, 39)}, (36, 36, 38, 38)),
        _ringed_room({"S": (0, 0), "B": (5, 5), "T": (8, 5), "G": (30, 30)}, (28, 28, 32, 32)),
    )
    env, trace = tmp_path / "room.env", tmp_path / "t"
    no_solution = "0\tno_solution\tunreachable\t0\n"
    for room in rooms:
        env.write_text(room)
        # enumeration stops before pruning, so its trace is empty
        for extra, out, lines in (((), "NO SOLUTION\n", no_solution),
                                  (("--enumerate",), "TOTAL 0\n", ""),
                                  (("--forbid", "1,1"), "NO SOLUTION\n", no_solution)):
            assert run(capsys, "solve", str(env), *extra, "--trace", str(trace)) == (1, out, "")
            assert trace.read_text() == lines


def test_solve_enumerate_all(capsys, tmp_path):
    env = tmp_path / "c.env"
    env.write_text("S.\n.G\n")
    code, out, _ = run(capsys, "solve", str(env), "--enumerate")
    assert code == 0
    lines = out.splitlines()
    assert sorted(lines[:-1]) == [
        "SOLUTION 2 moves: E S",
        "SOLUTION 2 moves: S E",
    ]
    assert lines[-1] == "TOTAL 2"


def test_solve_enumerate_limit(capsys, tmp_path):
    env = tmp_path / "c.env"
    env.write_text("S.\n.G\n")
    code, out, _ = run(capsys, "solve", str(env), "--enumerate", "1")
    assert code == 0
    assert out.splitlines()[-1] == "TOTAL 1"


def test_solve_enumerate_zero_lists_every_route(capsys, tmp_path):
    env = tmp_path / "c.env"
    env.write_text("S..\n...\n..G\n")
    every = run(capsys, "solve", str(env), "--enumerate")
    assert every[0] == 0 and every[1].splitlines()[-1] == "TOTAL 12"
    # any N above the number of routes lists them all, past sys.maxsize too
    for n in ("0", "99999999999999999999"):
        assert run(capsys, "solve", str(env), "--enumerate", n) == every


def test_solve_enumerate_over_route_budget_is_input_error(capsys, tmp_path):
    # a 6 x 6 open room has too many routes to list; the search stops at
    # its budget with nothing printed and no trace written
    env, trace = tmp_path / "room.env", tmp_path / "t"
    env.write_text("S.....\n" + "......\n" * 4 + ".....G\n")
    code, out, err = run(capsys, "solve", str(env), "--enumerate", "--trace", str(trace))
    assert (code, out) == (2, "")
    assert "1048576 states" in err and "--enumerate N" in err
    assert "Traceback" not in err
    assert not trace.exists()
    code, out, _ = run(capsys, "solve", str(env), "--enumerate", "3")
    assert (code, out.splitlines()[-1]) == (0, "TOTAL 3")


def test_solve_negative_enumerate_is_input_error(capsys, tmp_path):
    env = tmp_path / "c.env"
    env.write_text("S.\n.G\n")
    code, out, err = run(capsys, "solve", str(env), "--enumerate", "-3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_solve_forbid_with_enumerate_is_input_error(capsys, tmp_path):
    env = tmp_path / "c.env"
    env.write_text("S.\n.G\n")
    code, out, err = run(capsys, "solve", str(env), "--enumerate", "--forbid", "1,0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_solve_forbid_cell(capsys, tmp_path):
    env = tmp_path / "c.env"
    env.write_text("S.G\n")
    code, out, _ = run(capsys, "solve", str(env), "--forbid", "1,0")
    assert code == 1
    assert out == "NO SOLUTION\n"


def test_solve_off_grid_forbid_does_not_alias(capsys, tmp_path):
    # cell indices are y * width + x: (3, 0) would alias (0, 1) and (-1, 1)
    # would alias (2, 0), and the only route passes both
    env = tmp_path / "c.env"
    env.write_text("S#G\n...\n")
    expected = (0, "SOLUTION 4 moves: S E E N\n")
    assert run(capsys, "solve", str(env))[:2] == expected
    for cell in ("3,0", "-1,1"):
        assert run(capsys, "solve", str(env), f"--forbid={cell}")[:2] == expected
    assert run(capsys, "solve", str(env), "--forbid=3,0", "--forbid=-1,1")[:2] == expected


def test_solve_forbid_trace_has_no_inhibitions(capsys, tmp_path):
    env = tmp_path / "c.env"
    env.write_text("S..\n.#.\n..G\n")
    trace = tmp_path / "t"
    code, out, _ = run(capsys, "solve", str(env), "--forbid", "1,0", "--trace", str(trace))
    assert (code, out) == (0, "SOLUTION 4 moves: S S E E\n")
    events = [line.split("\t")[1] for line in trace.read_text().splitlines()]
    assert events == ["create_node", "solution"]


def test_solve_over_state_budget_is_input_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("gridmind.solver.MAX_STATES", 8)
    env = tmp_path / "room.env"
    env.write_text("S...\n....\n....\n...G\n")
    for extra in ((), ("--enumerate",), ("--forbid", "1,1")):
        code, out, err = run(capsys, "solve", str(env), *extra)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "8 states" in err
        assert "Traceback" not in err


def test_solve_bad_forbid_is_input_error(capsys, tmp_path):
    env = tmp_path / "c.env"
    env.write_text("S.G\n")
    code, _, err = run(capsys, "solve", str(env), "--forbid", "nope")
    assert code == 2
    assert "bad cell" in err


def test_solve_invalid_env_is_input_error(capsys, tmp_path):
    env = tmp_path / "c.env"
    env.write_text("...\n")
    code, _, err = run(capsys, "solve", str(env))
    assert code == 2
    assert err.startswith("error:")


def test_solve_oversized_env_is_input_error(capsys, tmp_path):
    env = tmp_path / "wide.env"
    env.write_text("S" + "." * 256 + "G\n")
    code, out, err = run(capsys, "solve", str(env))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "258x1" in err


def test_solve_trace_written_and_deterministic(capsys, tmp_path):
    env = tmp_path / "c.env"
    env.write_text("S..\n.#.\n..G\n")
    traces = []
    for name in ("t1", "t2"):
        t = tmp_path / name
        code, _, _ = run(capsys, "solve", str(env), "--trace", str(t))
        assert code == 0
        traces.append(t.read_text())
    assert traces[0] == traces[1]
    first = traces[0].splitlines()[0].split("\t")
    assert len(first) == 4 and first[0] == "0"


def test_solve_enumerate_trace_bytes(capsys, tmp_path):
    # one line per deadlock state, sorted by node id, then each solution's
    # concept and moves; the last field is the session depth
    env, trace = tmp_path / "c.env", tmp_path / "t"
    env.write_text("S..\n.#.\n..G\n#.#\n")
    code, out, _ = run(capsys, "solve", str(env), "--enumerate", "--trace", str(trace))
    assert (code, out) == (0, "SOLUTION 4 moves: E E S S\nSOLUTION 4 moves: S S E E\nTOTAL 2\n")
    assert trace.read_bytes() == (
        b"0\tinhibit\tstate:1,3\t0\n"
        b"1\tcreate_node\tsolution:9\t0\n"
        b"2\tsolution\tE.E.S.S\t0\n"
        b"3\tcreate_node\tsolution:10\t0\n"
        b"4\tsolution\tS.S.E.E\t0\n"
    )


def test_solve_no_solution_trace(capsys, tmp_path):
    env, trace = tmp_path / "c.env", tmp_path / "t"
    env.write_text("S#G\n")
    assert run(capsys, "solve", str(env), "--trace", str(trace)) == (1, "NO SOLUTION\n", "")
    assert trace.read_bytes() == b"0\tno_solution\tunreachable\t0\n"


def test_solve_unwritable_trace_is_input_error_before_output(capsys, tmp_path, monkeypatch):
    env = tmp_path / "c.env"
    env.write_text("S..\n.#.\n..G\n")
    for extra in ((), ("--enumerate",), ("--forbid", "1,0")):
        code, out, err = run(capsys, "solve", str(env), *extra, "--trace", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err
    # a search over the state budget fails before the trace file is opened
    monkeypatch.setattr("gridmind.solver.MAX_STATES", 2)
    trace = tmp_path / "t"
    for extra in ((), ("--enumerate",), ("--forbid", "1,0")):
        code, out, _ = run(capsys, "solve", str(env), *extra, "--trace", str(trace))
        assert (code, out) == (2, "")
        assert not trace.exists()


def test_missing_pattern_file_is_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "learn", str(tmp_path / "absent.txt"))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [["show", "0"], ["recognize", "{ring}"], ["explain", "{ring}"]],
                         ids=lambda argv: argv[0])
def test_missing_graph_file_is_input_error(capsys, ring_file, tmp_path, argv):
    # only `learn` starts a new graph; a command that reads one needs the file
    graph = tmp_path / "nope.cg"
    code, out, err = run(capsys, *(a.format(ring=ring_file) for a in argv), "--graph", str(graph))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {graph}: ")
    assert not graph.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["learn", "{bin}"],
        ["recognize", "{bin}", "--graph", "{absent}"],
        ["solve", "{bin}"],
        ["graph", "import", "{bin}"],
        ["show", "0", "--graph", "{bin}"],
    ],
    ids=lambda argv: argv[0],
)
def test_undecodable_file_is_input_error(capsys, tmp_path, argv):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00abc")
    paths = {"bin": binary, "absent": tmp_path / "absent.cg"}
    code, _, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert err.startswith("error: cannot read ")


def test_recognize_past_the_canvas_budget_is_input_error(capsys, tmp_path):
    kb = ConceptGraph()
    x = kb.create_primitive("cell:x")
    kb.create_composite([(x, (0, 0)), (x, (10**6, 10**6))])
    graph = tmp_path / "far.cg"
    graph.write_text(kb.export_text())
    probe = tmp_path / "x.txt"
    probe.write_text("x\n")
    code, out, err = run(capsys, "recognize", str(probe), "--graph", str(graph))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "MAX_RECOGNITION_CELLS" in err
    assert "Traceback" not in err


def test_learn_labels_with_quote_and_backslash(capsys, tmp_path):
    graph = str(tmp_path / "g.cg")
    for i, text in enumerate(["a'\n", "b\\\n", "\"'\\\n"]):
        pattern = tmp_path / f"p{i}.txt"
        pattern.write_text(text)
        code, _, err = run(capsys, "learn", str(pattern), "--graph", graph)
        assert (code, err) == (0, "")
        code, out, err = run(capsys, "recognize", str(pattern), "--graph", graph)
        assert (code, err) == (0, "")
        assert out.startswith("MATCH ")
    code, out, _ = run(capsys, "graph", "import", graph)
    assert (code, out.splitlines()[0]) == (0, "IMPORTED 8 nodes")


@pytest.mark.parametrize("command", ["learn", "graph export"])
def test_write_to_missing_directory_is_input_error(capsys, ring_file, tmp_path, command):
    graph = str(tmp_path / "g.cg")
    run(capsys, "learn", ring_file, "--graph", graph)
    dest = tmp_path / "missing-dir" / "kb.cg"
    if command == "learn":
        argv = ["learn", ring_file, "--graph", str(dest)]
    else:
        argv = ["graph", "export", graph, str(dest)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(dest) in err
    assert ".tmp" not in err
    assert "Traceback" not in err
    assert not dest.parent.exists()


def _text_bytes(alphabet):
    return st.text(alphabet=alphabet, max_size=24).map(str.encode)


_GRAPH_RECORDS = [
    b"N 0 Primitive 1 cell:x", b'N 1 Composite 2 ""', b"N 2 Primitive 1 cell:\\",
    b'N 3 State 1 "a\\u000ab"', b"C 1 0 0 0", b"C 1 2 1 0", b"C 1 0 300 0", b"C 2 1 0 0",
    b"C 3 1 0 0", b"C 0 2 0 0", b"N 2 Transformation 1 rotate90:1", b"M 0 1", b"E 0 2 1",
    # records that break a rule of construction, and a whole graph to break
    b'N 1 Composite 1 ""', b'N 1 Composite 99 ""', b"N 0 Primitive 0 cell:x", b"E 0 0 1",
    b"C 2 2 0 0", b'N 0 Primitive 1 cell:x\nN 1 Composite 2 ""\nC 1 0 0 0\nC 1 0 1 0',
    b'N 2 Composite 2 ""\nC 2 0 0 0\nC 2 0 1 0',
]
def _oversize_bytes(alphabet):
    """One row of 257-600 cells, or 257-600 rows of one cell each, past the
    256 x 256 limit either way: the only files here longer than 256 bytes."""
    return st.builds(
        lambda cell, n, tall: ((cell + "\n") * n if tall else cell * n + "\n").encode(),
        st.sampled_from(alphabet), st.integers(257, 600), st.booleans(),
    )


PATTERN_BYTES = st.one_of(
    st.binary(max_size=24), _text_bytes("ab.x \n'\\\"\t"), _oversize_bytes("ab.x")
)
ENV_BYTES = st.one_of(
    st.binary(max_size=24), _text_bytes("SGBT.# \n"), _oversize_bytes("SGBT.#")
)
GRAPH_BYTES = st.one_of(
    st.binary(max_size=24),
    st.builds(
        lambda records, tail: b"\n".join([b"CGRAPH 1", *records, tail]),
        st.lists(st.sampled_from(_GRAPH_RECORDS), max_size=6),
        st.binary(max_size=8),
    ),
)
COMMANDS = [
    ["learn", "{pattern}", "--graph", "{graph}"],
    ["show", "1", "--graph", "{graph}"],
    ["recognize", "{pattern}", "--graph", "{graph}"],
    ["explain", "{pattern}", "--graph", "{graph}"],
    ["solve", "{env}"],
    ["solve", "{env}", "--enumerate", "3"],
    ["graph", "import", "{graph}"],
    ["graph", "export", "{graph}", "{dest}"],
]


@given(pattern=PATTERN_BYTES, env=ENV_BYTES, graph=GRAPH_BYTES)
@settings(max_examples=60, deadline=None)
def test_exit_code_contract_on_arbitrary_files(pattern, env, graph):
    """Whatever bytes the input files hold, every command exits 0, 1 or 2
    and raises nothing (learn runs first, so the others see its KB); a
    command that reads a file over the size limit exits 2."""
    oversize = {"{pattern}"} if len(pattern) > 256 else set()
    if len(env) > 256:
        oversize.add("{env}")
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"dest": Path(tmp, "dest.cg")}
        for name, data in (("pattern", pattern), ("env", env), ("graph", graph)):
            paths[name] = Path(tmp, name)
            paths[name].write_bytes(data)
        for argv in COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([a.format(**paths) for a in argv])
            assert code in ((2,) if oversize.intersection(argv) else (0, 1, 2)), argv
            assert "Traceback" not in err.getvalue()


# Every token is a subcommand, a flag, a number, some text, or the name of
# a file or directory in the run's own directory, which is the working
# directory while `main` runs, so no argument vector can reach another path.
SUBCOMMANDS = ["learn", "show", "recognize", "explain", "solve", "graph"]
ARGV_TOKENS = SUBCOMMANDS + [
    "import", "export", "--graph", "--enumerate", "--forbid", "--trace", "-h", "--bogus",
    "0", "1", "3", "-1", "99999999999999999999", "1,1", "0,2", "x,y", "1,", "",
    "text", "a b", "-", "ring.txt", "maze.env", "kb.cg", "state.cg", "bad.cg",
    "binary", "absent.cg", "sub", "out.cg",
]
RUN_FILES = {
    "ring.txt": RING.encode(),
    "maze.env": b"S..\n.#.\n..G\n",
    "state.cg": b"CGRAPH 1\nN 0 State 1 s\n",
    "bad.cg": b"CGRAPH 1\nN 0 Composite 1 a\nC 0 0 0 0\n",
    "binary": b"\xff\xfe\x00abc",
}
ARGVS = st.one_of(
    st.lists(st.sampled_from(ARGV_TOKENS), max_size=6),
    st.builds(lambda cmd, rest: [cmd, *rest], st.sampled_from(SUBCOMMANDS),
              st.lists(st.sampled_from(ARGV_TOKENS), max_size=5)),
)


@given(argv=ARGVS)
@example(argv=["solve", "maze.env", "--enumerate", "99999999999999999999"])
@settings(max_examples=150, deadline=None)
def test_exit_code_contract_on_arbitrary_argv(argv):
    """Whatever the arguments, `main` exits 0, 1 or 2 (argparse's own exits
    included) and prints no traceback."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, data in RUN_FILES.items():
                Path(name).write_bytes(data)
            Path("sub").mkdir()
            with contextlib.redirect_stdout(io.StringIO()):
                main(["learn", "ring.txt", "--graph", "kb.cg"])
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()


def test_graph_import_rejects_garbage(capsys, tmp_path):
    bad = tmp_path / "bad.cg"
    bad.write_text("CGRAPH 1\nN 5 Primitive 1 x\n")
    code, _, err = run(capsys, "graph", "import", str(bad))
    assert code == 2
    assert "line 2" in err


def test_graph_export_is_byte_identical(capsys, ring_file, tmp_path):
    graph = str(tmp_path / "g.cg")
    run(capsys, "learn", ring_file, "--graph", graph)
    dest = tmp_path / "copy.cg"
    code, out, _ = run(capsys, "graph", "export", graph, str(dest))
    assert code == 0
    assert out.startswith("EXPORTED ")
    assert dest.read_text() == (tmp_path / "g.cg").read_text()


def test_graph_export_without_destination_is_input_error(capsys, ring_file, tmp_path):
    graph = str(tmp_path / "g.cg")
    run(capsys, "learn", ring_file, "--graph", graph)
    code, out, err = run(capsys, "graph", "export", graph)
    assert (code, out) == (2, "")
    assert "destination" in err


def test_graph_import_reports_counts(capsys, ring_file, tmp_path):
    graph = str(tmp_path / "g.cg")
    run(capsys, "learn", ring_file, "--graph", graph)
    code, out, _ = run(capsys, "graph", "import", graph)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("IMPORTED ")
    assert lines[1].startswith("MUTEX ")
    assert lines[2].startswith("EXCITATORY ")


def test_fresh_process_round_trip(tmp_path):
    """learn in one process, show in another: persistence is real."""
    pattern = tmp_path / "ring.txt"
    pattern.write_text(RING)
    graph = tmp_path / "g.cg"

    def invoke(*argv):
        return subprocess.run(
            [sys.executable, "-m", "gridmind.cli", *argv],
            capture_output=True,
            text=True,
        )

    learned = invoke("learn", str(pattern), "--graph", str(graph))
    assert learned.returncode == 0
    root = learned.stdout.splitlines()[0].split()[1]
    shown = invoke("show", root, "--graph", str(graph))
    assert shown.returncode == 0
    assert shown.stdout == RING
