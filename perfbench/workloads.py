"""The four benchmark workloads.

Each `build_*` function turns a seed into one fixed operation sequence:
it generates the inputs, does the preload, and returns a list of `Op`s
that share state in order. Building is the set-up the benchmark times as `setup_s`. An op's
`run` calls gridmind's public API with the generated inputs only; its
`check` compares the output with the independent oracles in
`tests/oracles.py` (or with a property named in its docstring) and returns
a failure message, or None. Checks run outside the timed region.

Pattern and label symbols are letters and digits only: the graph format's
quoting of `'` and `\\` is a known correctness defect with its own test,
not a performance question.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gridmind as gm
import oracles
from gridmind import cli as gm_cli

@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# -- environment generators ------------------------------------------------


def _text(rows) -> str:
    return "\n".join("".join(r) for r in rows) + "\n"


def _orient(rng, rows):
    """The rows, at random transposed and mirrored along either axis."""
    if rng.random() < 0.5:
        rows = [list(r) for r in zip(*rows)]
    if rng.random() < 0.5:
        rows = [r[::-1] for r in rows]
    if rng.random() < 0.5:
        rows = rows[::-1]
    return rows


def maze_text(rng, n, wall_p) -> str:
    """round(wall_p * n * n) walls on random cells; S and G on two of the
    other cells (maybe unreachable from each other)."""
    cells = [(x, y) for y in range(n) for x in range(n)]
    rng.shuffle(cells)
    walls = round(wall_p * n * n)
    rows = [["."] * n for _ in range(n)]
    for x, y in cells[:walls]:
        rows[y][x] = "#"
    (sx, sy), (gx, gy) = cells[walls:walls + 2]
    rows[sy][sx], rows[gy][gx] = "S", "G"
    return _text(rows)


def room_text(rng, n) -> str:
    """Open n x n room with S and G in opposite corners."""
    rows = [["."] * n for _ in range(n)]
    rows[0][0], rows[n - 1][n - 1] = "S", "G"
    return _text(_orient(rng, rows))


def corridor_text(rng, width, height) -> str:
    """Serpentine corridor: free rows joined by one gap at alternating ends."""
    rows = []
    for y in range(height):
        if y % 2 == 0:
            rows.append(["."] * width)
        else:
            row = ["#"] * width
            row[width - 1 if y % 4 == 1 else 0] = "."
            rows.append(row)
    last = height - 1 - (height - 1) % 2
    rows[0][0] = "S"
    rows[last][width - 1 if last % 4 == 0 else 0] = "G"
    return _text(_orient(rng, rows))


def push_text(rng, n, pushes) -> str:
    """Open n x n room with one box `pushes` cells from its target.

    The agent starts behind the box and must end behind the target, so
    the puzzle always has a `pushes`-move solution; the state space (agent
    cell x box cell) is what grows with n. The box starts off the walls,
    so every cell is reachable for it and the state count depends on n
    alone (a box on a wall could only slide along it).
    """
    y = rng.randrange(1, n - 1)
    x0 = rng.randrange(1, n - pushes)
    rows = [["."] * n for _ in range(n)]
    rows[y][x0 - 1], rows[y][x0] = "S", "B"
    rows[y][x0 + pushes - 1], rows[y][x0 + pushes] = "G", "T"
    return _text(_orient(rng, rows))


def free_cells(env) -> list[tuple[int, int]]:
    """Free cells other than the start and the goal, and, in a push puzzle
    from `push_text`, off the straight lane from S to T: forbidding a lane
    cell would turn its short solution into a long detour."""
    lane = set()
    if env.box is not None:
        (sx, sy), (tx, ty) = env.start, env.box_target
        lane = {(x, y) for x in range(min(sx, tx), max(sx, tx) + 1)
                for y in range(min(sy, ty), max(sy, ty) + 1)}
    return [
        (x, y)
        for y in range(env.height)
        for x in range(env.width)
        if env.is_free((x, y)) and (x, y) not in (env.start, env.goal) and (x, y) not in lane
    ]


# -- solver checks -----------------------------------------------------------
# Every pass repeats the same inputs, so oracle answers are cached per input;
# the program's outputs are still checked on every pass.


@functools.cache
def environment(text):
    return gm.Environment.from_text(text)


@functools.cache
def _distance(text, forbidden=frozenset()):
    return oracles.bfs_distance(environment(text), forbidden=set(forbidden))


def _packed(route) -> bytes:
    """A cell route as two bytes per cell (coordinates stay below 256)."""
    return bytes(v for cell in route for v in cell)


@functools.cache
def _simple_paths(text):
    # packed, so that caching thousands of routes adds little to peak_rss_mb
    return frozenset(map(_packed, oracles.all_simple_maze_paths(environment(text))))


@functools.cache
def _rule_c(text, cell):
    """States rule C derives once every state with the agent on `cell` is inhibited."""
    env = environment(text)
    states = oracles.reachable_states(env)
    seeds = {s for s in states if s.agent == cell}
    rest = states - seeds
    return frozenset(oracles.iterated_elimination(
        rest,
        {s: [t for t in oracles.legal_successors(env, s) if t not in seeds] for s in rest},
        {gm.State(env.goal, env.box_target)} & rest,
    ))


def _check_solution(text, result, forbidden=frozenset()) -> str | None:
    env, expected = environment(text), _distance(text, forbidden)
    if expected is None:
        return None if isinstance(result, gm.NoSolution) else "solution where BFS finds none"
    if not isinstance(result, gm.Solution):
        return f"no solution, BFS distance {expected}"
    path = result.path
    if len(path) - 1 != expected:
        return f"length {len(path) - 1}, BFS distance {expected}"
    if path[0] != gm.State(env.start, env.box) or path[-1] != gm.State(env.goal, env.box_target):
        return "path does not run from the start state to the goal state"
    if any(b not in oracles.legal_successors(env, a) for a, b in zip(path, path[1:])):
        return "path makes an illegal move"
    if any(s.agent in forbidden for s in path):
        return "path enters a forbidden cell"
    return None


def _check_routes(text, routes, limit) -> str | None:
    """Enumerated cell routes: simple paths, distinct, nondecreasing, complete up to limit."""
    every = _simple_paths(text)
    if len(routes) != min(limit, len(every)):
        return f"{len(routes)} routes, expected {min(limit, len(every))}"
    if len(set(routes)) != len(routes):
        return "duplicate routes"
    if any(_packed(r) not in every for r in routes):
        return "a route is not a simple start-to-goal path"
    lengths = [len(r) for r in routes]
    if lengths != sorted(lengths):
        return f"route lengths not nondecreasing: {lengths}"
    if routes and lengths[0] - 1 != _distance(text):
        return "first route is not a shortest one"
    return None


# -- solve-mix ---------------------------------------------------------------

MAZES = 64
# Six rooms and push puzzles cost more than an 11 x 11 room, and ten
# 11 x 11 rooms follow, so the tail op (the 11th slowest) is the middle
# of ten runs of one instance size and barely moves with the seed.
ROOM_SIZES = (12,) * 2 + (11,) * 10 + (10,) * 2
CORRIDOR_SIZES = ((30, 15), (40, 21), (50, 31), (60, 41), (40, 21), (50, 31))
PUSH_SIZES = (8, 9, 10, 11, 12)
FORBID_PUSH_SIZE = 6
ENUMERATE_LIMIT = 8


def _solve_op(text) -> Op:
    def run():
        return gm.solve(gm.StateSpace(gm.Environment.from_text(text)))

    return Op("solve", run, lambda result: _check_solution(text, result))


def _enumerate_op(text) -> Op:
    def run():
        space = gm.StateSpace(gm.Environment.from_text(text))
        return gm.enumerate_solutions(space, ENUMERATE_LIMIT)

    def check(solutions):
        routes = [tuple(s.agent for s in sol.path) for sol in solutions]
        return _check_routes(text, routes, ENUMERATE_LIMIT)

    return Op("enumerate", run, check)


def _forbid_op(text, cell) -> Op:
    """Inhibit one cell's states in a session, close them under rule C, re-solve."""

    def run():
        space = gm.StateSpace(gm.Environment.from_text(text))
        sessions = gm.SessionStack(space.graph)
        sessions.begin_session()
        for s in space.states:
            if s.agent == cell:
                sessions.inhibit(space.node_of[s])
        derived = sessions.propagate(space.view())
        return space, derived, gm.solve_with_constraints(space, {cell})

    def check(out):
        space, derived, result = out
        expected = _rule_c(text, cell)
        if {space.state_of[n] for n in derived} != expected:
            return f"rule C derived {len(derived)} states, elimination oracle {len(expected)}"
        return _check_solution(text, result, frozenset([cell]))

    return Op("forbid", run, check)


def build_solve_mix(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = [_solve_op(maze_text(rng, 10 + i % 3, 0.3)) for i in range(MAZES)]
    ops += [_solve_op(room_text(rng, n)) for n in ROOM_SIZES]
    ops += [_solve_op(corridor_text(rng, w, h)) for w, h in CORRIDOR_SIZES]
    ops += [_solve_op(push_text(rng, n, 3)) for n in PUSH_SIZES]
    ops += [_enumerate_op(maze_text(rng, 5 + i % 2, 0.3)) for i in range(16)]
    ops += [_enumerate_op(room_text(rng, 4 + i % 2)) for i in range(16)]
    forbid_texts = [maze_text(rng, 10 + i % 3, 0.3) for i in range(24)]
    forbid_texts += [corridor_text(rng, 20, 11) for _ in range(8)]
    forbid_texts += [push_text(rng, FORBID_PUSH_SIZE, 3) for _ in range(8)]
    for text in forbid_texts:
        ops.append(_forbid_op(text, rng.choice(free_cells(environment(text)))))
    rng.shuffle(ops)
    return ops


# -- learn-recognize ---------------------------------------------------------


def random_grid(rng, size, symbols, density=0.35):
    """A size x size grid with round(density * size * size) random cells
    occupied by random symbols."""
    positions = rng.sample([(x, y) for y in range(size) for x in range(size)],
                           round(density * size * size))
    return gm.Grid(size, size, {pos: rng.choice(symbols) for pos in positions})


def rotated(g):
    return gm.Grid(g.height, g.width, {(g.height - 1 - y, x): s for (x, y), s in g.cells.items()})


def reflected(g):
    return gm.Grid(g.width, g.height, {(g.width - 1 - x, y): s for (x, y), s in g.cells.items()})


def scaled(g, k=2):
    return gm.Grid(g.width * k, g.height * k, {
        (x * k + i, y * k + j): s
        for (x, y), s in g.cells.items()
        for i in range(k)
        for j in range(k)
    })


def translated(rng, g):
    dx, dy = rng.randint(1, 3), rng.randint(1, 3)
    return gm.Grid(g.width + dx, g.height + dy, {(x + dx, y + dy): s for (x, y), s in g.cells.items()})


def _check_matches(learner, matches, root, whole) -> str | None:
    """Scores in (0, 1], one match per composite, in rank order; if `whole`,
    the learned `root` matches with score 1."""
    nodes = learner.graph.nodes
    if len({m.concept for m in matches}) != len(matches):
        return "a concept matched twice"
    if any(not 0 < m.score <= 1 or nodes[m.concept].kind is not gm.NodeKind.COMPOSITE
           for m in matches):
        return "a match with a bad score or a non-composite concept"
    keys = [(-m.score, -nodes[m.concept].scale, m.concept) for m in matches]
    if keys != sorted(keys):
        return "matches out of rank order"
    if whole and not any(m.concept == root and m.score == 1 for m in matches):
        return f"learned concept {root} not recognised with score 1"
    return None


def _check_tf_matches(pairs, root) -> str | None:
    """Scores in (0, 1] and in descending order; the learned `root` matches
    with score 1 under some transformation."""
    scores = [m.score for m, _ in pairs]
    if scores != sorted(scores, reverse=True) or any(not 0 < s <= 1 for s in scores):
        return "transformation matches out of score order"
    if not any(m.concept == root and m.score == 1 for m, _ in pairs):
        return f"learned concept {root} not matched with score 1 under any transformation"
    return None


GRID_SIZE = 5
PRELOAD_GRIDS = 300
STREAM_ROUNDS = 48
SYMBOLS = "abcd"
RECOGNIZE_PROBES = ("learned", "translated", "rotated", "reflected", "scaled", "noise")
MATCH_TF_PROBES = ("rotated", "reflected", "scaled")
# Writes every LEARN_EVERY rounds, a match_tf every MATCH_TF_EVERY rounds and
# a checkpoint every ROUNDTRIP_EVERY rounds. The counts place the median op
# inside the recognize reads and the tail among the checkpoints, whose
# costs vary little with the seed.
LEARN_EVERY, MATCH_TF_EVERY, ROUNDTRIP_EVERY = 2, 8, 6


def _probe(rng, kind, source):
    if kind == "noise":
        return random_grid(rng, GRID_SIZE, SYMBOLS)
    if kind == "translated":
        return translated(rng, source)
    return {"learned": lambda g: g, "rotated": rotated, "reflected": reflected,
            "scaled": scaled}[kind](source)


def build_learn_recognize(seed: int, workdir: Path) -> list[Op]:
    """Preload a KB, then a stream of writes (learn) and reads on it.

    Probes are made now from patterns learned earlier in the sequence;
    their roots are known only once the learn op has run, so checks look
    them up in `roots`.
    """
    rng = random.Random(seed)
    learner = gm.Learner()
    roots = {}
    patterns = [random_grid(rng, GRID_SIZE, SYMBOLS) for _ in range(PRELOAD_GRIDS)]
    for g in patterns:
        roots[g] = learner.observe(g).root

    def learn_op(g):
        def check(report):
            if learner.reconstruct(report.root) != g.cropped():
                return "reconstruct(observe(g)) != g.cropped()"
            roots[g] = report.root
            return None
        return Op("learn", lambda: learner.observe(g), check)

    def recognize_op(kind, source, probe):
        whole = kind in ("learned", "translated")
        return Op("recognize", lambda: learner.recognize(probe),
                  lambda matches: _check_matches(learner, matches, roots.get(source), whole))

    def match_tf_op(source, probe):
        return Op("match_tf", lambda: learner.match_under_transformations(probe),
                  lambda pairs: _check_tf_matches(pairs, roots.get(source)))

    def roundtrip_op():
        def run():
            text = learner.graph.export_text()
            return text, gm.ConceptGraph.import_text(text)

        def check(out):
            text, graph = out
            return None if graph.export_text() == text else "re-export differs"
        return Op("roundtrip", run, check)

    ops = []
    for i in range(STREAM_ROUNDS):
        if i % LEARN_EVERY == 0:
            g = random_grid(rng, GRID_SIZE, SYMBOLS)
            ops.append(learn_op(g))
            patterns.append(g)
        for j in range(2):
            kind = RECOGNIZE_PROBES[(2 * i + j) % len(RECOGNIZE_PROBES)]
            source = rng.choice(patterns)
            ops.append(recognize_op(kind, source, _probe(rng, kind, source)))
        if i % MATCH_TF_EVERY == MATCH_TF_EVERY - 1:
            kind = MATCH_TF_PROBES[(i // MATCH_TF_EVERY) % len(MATCH_TF_PROBES)]
            source = rng.choice(patterns)
            ops.append(match_tf_op(source, _probe(rng, kind, source)))
        if i % ROUNDTRIP_EVERY == ROUNDTRIP_EVERY - 1:
            ops.append(roundtrip_op())
    return ops


# -- part patterns (explain-mutex, cli-session) ------------------------------


def feature_pool(rng, symbols) -> dict[str, dict]:
    """One straight run per symbol, horizontal or vertical at random.

    Run lengths cycle through 2, 3 and 4 cells: with seeded lengths the
    cost of explaining the same part triples varied by 6% between seeds.
    """
    pool = {}
    for k, sym in enumerate(symbols):
        vertical = rng.random() < 0.5
        pool[sym] = {((0, i) if vertical else (i, 0)): sym for i in range(2 + k % 3)}
    return pool


def side_by_side(rng, pieces) -> "gm.Grid":
    """Cell maps laid out left to right, one empty column apart.

    A one-cell gap keeps every run a separate feature, so the features of
    the result are exactly the runs of its pieces.
    """
    cells, x = {}, 0
    for piece in pieces:
        dy = rng.randint(0, 1)
        cells.update({(x + px, py + dy): s for (px, py), s in piece.items()})
        x += max(px for px, _ in piece) + 2
    return gm.Grid.from_cells(cells)


def part_pattern(rng, pool, design) -> "gm.Grid":
    """The runs of the pool's symbols at the indices in `design`, side by side."""
    symbols = sorted(pool)
    return side_by_side(rng, [pool[symbols[i % len(symbols)]] for i in design])


@functools.cache
def _subsets_oracle(composites, features, mutex):
    return oracles.explanation_subsets_oracle(dict(composites), set(features), set(mutex))


def _oracle_explanations(graph, features):
    """The subset oracle over every composite with a child among `features`.

    Mutex pairs that touch none of those nodes cannot change the answer,
    so they are left out, which keeps the brute force fast.
    """
    composites = {
        n: frozenset(c for c, _ in graph.children_of(n))
        for n, node in graph.nodes.items()
        if node.kind is gm.NodeKind.COMPOSITE
        and any(c in features for c, _ in graph.children_of(n))
    }
    relevant = set(composites) | features
    mutex = frozenset(p for p in graph.mutex if p[0] in relevant or p[1] in relevant)
    return _subsets_oracle(frozenset(composites.items()), frozenset(features), mutex)


def _check_explanations(graph, features, result, novel) -> str | None:
    got = {e.chosen for e in result if not e.novel}
    expected = _oracle_explanations(graph, features)
    if got != expected:
        return f"{len(got)} explanations, subset oracle {len(expected)}"
    if novel and not any(e.novel for e in result):
        return "an unknown feature left no novel explanation"
    return None


PART_SYMBOLS = "abcdefgh"
KBS = 4
# Which pool runs each part holds, and which parts exclude each other: a
# fixed design, so that how much the parts overlap, which sets the number
# of explanation branches, does not vary from seed to seed.
PART_DESIGN = [(i, (i + 1) % 8, (i + 3) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]
PART_MUTEX = ((0, 4), (2, 9), (5, 11))
BACKGROUND_GRIDS = 150
BACKGROUND_MUTEX = 400
SCENES_PER_KB = 24
FLAT_GRAPHS = 32
FLAT_FEATURES, FLAT_COMPOSITES, FLAT_MUTEX = 8, 10, 2
# Scene k of a KB shows the parts of triple (k * SCENE_STRIDE) mod 220 of
# the 220 part triples: the same triples for every seed.
SCENE_TRIPLES = list(itertools.combinations(range(len(PART_DESIGN)), 3))
SCENE_STRIDE = 7


def _flat_graph(rng):
    """FLAT_FEATURES primitive features, FLAT_COMPOSITES composites over 1-3
    of them and FLAT_MUTEX mutex pairs among them, all seeded."""
    g = gm.ConceptGraph()
    feats = [g.create_primitive(f"f{i}") for i in range(FLAT_FEATURES)]
    for _ in range(FLAT_MUTEX):
        g.add_mutex(*rng.sample(feats, 2))
    for i in range(FLAT_COMPOSITES):
        chosen = rng.sample(feats, 1 + i % 3)
        if len(chosen) == 1:
            pad = g.create_primitive(f"pad{len(g)}")
            g.create_composite([(chosen[0], (0, 0)), (pad, (1, 0))])
        else:
            g.create_composite([(c, (i, 0)) for i, c in enumerate(chosen)])
    return g, set(feats)


def _part_kb(rng):
    """A KB of part patterns over a background KB.

    Parts draw their runs from one pool, so their composites share
    features; some part composites are mutually exclusive. The background
    (digit symbols, never in a scene) makes the graph and its mutex set
    large, and `propagate` sweeps all of it once per explanation branch.
    """
    learner = gm.Learner()
    graph = learner.graph
    for _ in range(BACKGROUND_GRIDS):
        learner.observe(random_grid(rng, 5, "0123"))
    background = graph.node_ids()
    for _ in range(BACKGROUND_MUTEX):
        graph.add_mutex(*rng.sample(background, 2))
    pool = feature_pool(rng, PART_SYMBOLS)
    parts = []
    for design in PART_DESIGN:
        g = side_by_side(rng, [pool[PART_SYMBOLS[i]] for i in design])
        parts.append((learner.observe(g).root, g))
    for a, b in PART_MUTEX:
        graph.add_mutex(parts[a][0], parts[b][0])
    return learner, parts


def _explain_op(rng, learner, parts, triple, novel) -> Op:
    """Explain a scene of three parts, with an unknown run added if `novel`."""
    scene_roots = [parts[i][0] for i in triple]
    pieces = [parts[i][1].cells for i in triple]
    if novel:
        pieces.append({(i, 0): "z" for i in range(5)})
    scene = side_by_side(rng, pieces)
    graph = learner.graph
    features = {c for r in scene_roots for c, _ in graph.children_of(r)}
    return Op("explain", lambda: gm.explain(learner, scene),
              lambda result: _check_explanations(graph, features, result, novel))


def build_explain_mutex(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for kb in range(KBS):
        learner, parts = _part_kb(rng)
        for i in range(SCENES_PER_KB):
            k = kb * SCENES_PER_KB + i
            triple = SCENE_TRIPLES[k * SCENE_STRIDE % len(SCENE_TRIPLES)]
            ops.append(_explain_op(rng, learner, parts, triple, i % 4 == 0))
    for _ in range(FLAT_GRAPHS):
        flat, features = _flat_graph(rng)
        ops.append(Op("explain_features", lambda g=flat, f=features: gm.explain_features(g, f),
                      lambda result, g=flat, f=features: _check_explanations(g, f, result, False)))
    rng.shuffle(ops)
    return ops


# -- cli-session -------------------------------------------------------------

CLI_SYMBOLS = "abcdefghijkl"
CLI_BACKGROUND = 300
# Which pool runs the preloaded parts and each round's pattern hold: a
# fixed design, so that their overlap, which sets the cost of `explain`,
# is the same for every seed. `explain` runs every second round: the four
# costliest explains then lead, and the tail op (the 11th slowest) falls
# among the twelve `learn` commands, whose cost varies little.
CLI_PART_DESIGN = [(i, i + 1) for i in range(12)] + [(i, i + 3, i + 6) for i in range(8)]
CLI_ROUND_DESIGN = [tuple(i + 2 * j for j in range(2 + i % 3)) for i in range(12)]
MOVES = {"N": (0, -1), "E": (1, 0), "S": (0, 1), "W": (-1, 0)}


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = gm_cli.main(argv)
    return code, out.getvalue()


def _routes_from_output(start, out) -> list[tuple] | None:
    """Cell routes replayed from `SOLUTION n moves: ...` lines; None if malformed."""
    routes = []
    for line in out.splitlines():
        m = re.fullmatch(r"SOLUTION (\d+) moves:((?: [NESW])*)", line)
        if m is None:
            continue
        moves = m.group(2).split()
        if int(m.group(1)) != len(moves):
            return None
        cells = [start]
        for move in moves:
            dx, dy = MOVES[move]
            cells.append((cells[-1][0] + dx, cells[-1][1] + dy))
        routes.append(tuple(cells))
    return routes


def _check_cli_solve(maze, out, forbidden=frozenset()) -> str | None:
    code, text = out
    env, expected = environment(maze), _distance(maze, forbidden)
    if expected is None:
        return None if code == 1 and text == "NO SOLUTION\n" else "expected NO SOLUTION"
    routes = _routes_from_output(env.start, text)
    if code != 0 or not routes or len(routes) != 1:
        return f"exit {code}, output {text[:60]!r}"
    route = routes[0]
    if len(route) - 1 != expected or route[-1] != env.goal:
        return f"route of {len(route) - 1} moves, BFS distance {expected}"
    if any(not env.is_free(c) or c in forbidden for c in route):
        return "route crosses a wall or a forbidden cell"
    return None


def build_cli_session(seed: int, workdir: Path) -> list[Op]:
    """Scripted `gridmind` commands, in process, against one KB file."""
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    kb, copy = workdir / "kb.cg", workdir / "copy.cg"
    pool = feature_pool(rng, CLI_SYMBOLS)
    learner = gm.Learner()
    for _ in range(CLI_BACKGROUND):
        learner.observe(random_grid(rng, GRID_SIZE, "wxyz"))
    for design in CLI_PART_DESIGN:
        learner.observe(part_pattern(rng, pool, design))
    kb.write_text(learner.graph.export_text(), encoding="utf-8")
    state = {}

    def write(name, text) -> str:
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def op(kind, argv, check):
        # argv may depend on an earlier op's output, so it is built when
        # the op runs; building it is a dict lookup.
        return Op(f"cli-{kind}", lambda: _cli([str(a() if callable(a) else a) for a in argv]),
                  check)

    def learn_check(out):
        code, text = out
        m = re.fullmatch(r"ROOT (\d+)\nCREATED (\d+)\nREUSED (\d+)\n", text)
        if code != 0 or m is None:
            return f"exit {code}, output {text[:60]!r}"
        state["root"] = int(m.group(1))
        return None

    def show_check(pattern):
        def check(out):
            return None if out == (0, pattern.cropped().to_text()) else "show != learned pattern"
        return check

    def recognize_check(out):
        code, text = out
        hit = re.search(rf"^MATCH {state.get('root')} 1 \d+,\d+$", text, re.M)
        return None if code == 0 and hit else "learned pattern not matched with score 1"

    def explain_check(out):
        code, text = out
        hit = re.search(rf"^EXPLANATION chosen={state.get('root')} ", text, re.M)
        return None if code == 0 and hit else "learned pattern not explained by its root"

    def enumerate_check(small, limit):
        def check(out):
            code, text = out
            routes = _routes_from_output(environment(small).start, text)
            if routes is None or f"TOTAL {len(routes)}\n" not in text:
                return f"malformed enumeration output {text[:60]!r}"
            return _check_routes(small, routes, limit)
        return check

    def export_check(out):
        code, text = out
        same = copy.read_bytes() == kb.read_bytes()
        return None if code == 0 and text.startswith("EXPORTED ") and same else "export differs"

    def import_check(out):
        code, text = out
        lines = copy.read_text(encoding="utf-8").splitlines()
        counts = [sum(1 for ln in lines if ln.startswith(tag)) for tag in ("N ", "M ", "E ")]
        expected = "IMPORTED {} nodes\nMUTEX {}\nEXCITATORY {}\n".format(*counts)
        return None if out == (0, expected) else "import counts differ from the file"

    ops = []
    for i, design in enumerate(CLI_ROUND_DESIGN):
        pattern = part_pattern(rng, pool, design)
        pat = write(f"pattern{i}.txt", pattern.to_text())
        probe = write(f"probe{i}.txt", translated(rng, pattern).to_text())
        maze = maze_text(rng, 10, 0.3)
        ops.append(op("learn", ["learn", pat, "--graph", kb], learn_check))
        ops.append(op("show", ["show", lambda: state.get("root"), "--graph", kb],
                      show_check(pattern)))
        ops.append(op("recognize", ["recognize", probe, "--graph", kb], recognize_check))
        if i % 2 == 0:
            ops.append(op("explain", ["explain", pat, "--graph", kb], explain_check))
        maze_file = write(f"maze{i}.env", maze)
        ops.append(op("solve", ["solve", maze_file],
                      lambda out, maze=maze: _check_cli_solve(maze, out)))
        if i % 2 == 1:
            small = maze_text(rng, 6, 0.3) if i % 4 == 1 else room_text(rng, 4)
            ops.append(op("enumerate", ["solve", write(f"small{i}.env", small), "--enumerate", "5"],
                          enumerate_check(small, 5)))
            cell = rng.choice(free_cells(environment(maze)))
            ops.append(op("forbid", ["solve", maze_file, "--forbid", f"{cell[0]},{cell[1]}"],
                          lambda out, maze=maze, cell=cell:
                          _check_cli_solve(maze, out, frozenset([cell]))))
        if i % 4 == 3:
            ops.append(op("export", ["graph", "export", kb, copy], export_check))
            ops.append(op("import", ["graph", "import", copy], import_check))
    return ops


WORKLOADS = {
    "solve-mix": build_solve_mix,
    "learn-recognize": build_learn_recognize,
    "explain-mutex": build_explain_mutex,
    "cli-session": build_cli_session,
}
