"""Acceptance suite: one test per headline property, each with a runtime
budget. Prints a PASS line per criterion (run with -s to watch them)."""

import random
import subprocess
import sys
import time

from gridmind import (
    ConceptGraph,
    Environment,
    Grid,
    Learner,
    NoSolution,
    NodeKind,
    SessionStack,
    Solution,
    StateSpace,
    Transformation,
    enumerate_solutions,
    explain_features,
    prune_deadlocks,
    solve,
    solve_with_constraints,
)
from gridmind.inhibition import ConflictError, StateGraphView
from oracles import (
    all_simple_maze_paths,
    bfs_distance,
    count_simple_maze_paths,
    explanation_subsets_oracle,
    goal_reachable,
    iterated_elimination,
    random_grid,
    random_maze_text,
    random_push_text,
)


def _report(number, name, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.2f}s)")


def test_01_mirror_property():
    started = time.perf_counter()
    rng = random.Random(101)
    learner = Learner()
    for _ in range(100):
        g = random_grid(rng, max_dim=16)
        assert learner.reconstruct(learner.observe(g).root) == g.cropped()
    _report(1, "mirror-property", started, 5)


def test_02_continual_learning_non_interference():
    started = time.perf_counter()
    rng = random.Random(102)
    learner = Learner()
    stored = []
    for _ in range(20):
        g = random_grid(rng, max_dim=12)
        stored.append((learner.observe(g).root, g.cropped().to_text()))
    for root, text in stored:
        assert learner.reconstruct(root).to_text() == text
    _report(2, "continual-learning", started, 5)


def test_03_know_when_you_dont_know():
    started = time.perf_counter()
    rng = random.Random(103)
    learner = Learner()
    for _ in range(10):
        learner.observe(random_grid(rng, max_dim=8, symbols="abcd"))
    for _ in range(50):
        novel = random_grid(rng, max_dim=8, symbols="wxyz")
        assert all(m.score < 0.5 for m in learner.recognize(novel))
    _report(3, "recognition-humility", started, 2)


def test_04_competing_explanations_fixture():
    started = time.perf_counter()
    g = ConceptGraph()
    f = {i: g.create_primitive(f"f{i}") for i in range(1, 5)}
    g.add_mutex(f[2], f[3])
    pad1, pad2 = g.create_primitive("pad1"), g.create_primitive("pad2")
    a = g.create_composite([(f[1], (0, 0)), (f[2], (1, 0))])
    b = g.create_composite([(f[3], (0, 0)), (f[4], (1, 0))])
    c = g.create_composite([(f[4], (0, 0)), (pad1, (1, 0))])
    d = g.create_composite([(f[1], (0, 0)), (pad2, (1, 0))])
    features = {f[i] for i in range(1, 5)}
    result = {e.chosen for e in explain_features(g, features) if not e.novel}
    assert result == {frozenset({a, c}), frozenset({b, d})}
    oracle = explanation_subsets_oracle(
        {n: {ch for ch, _ in g.children_of(n)} for n in (a, b, c, d)},
        features,
        g.mutex,
    )
    assert result == oracle
    _report(4, "competing-explanations", started, 1)


def _random_concept_graph(rng):
    g = ConceptGraph()
    for i in range(rng.randint(2, 40)):
        g.create_primitive(f"p{i}")
    target = rng.randint(len(g), 200)
    while len(g) < target:
        children = {
            (rng.choice(g.node_ids()), (rng.randint(0, 3), rng.randint(0, 3)))
            for _ in range(rng.randint(2, 4))
        }
        if len(children) >= 2:
            g.create_composite(sorted(children))
    ids = g.node_ids()
    for _ in range(rng.randint(0, 12)):
        g.add_mutex(*rng.sample(ids, 2))
    return g


def test_05_fixpoint_properties():
    started = time.perf_counter()
    rng = random.Random(105)
    for _ in range(100):
        g = _random_concept_graph(rng)
        seeds = rng.sample(g.node_ids(), min(4, len(g)))
        reference = None
        for _ in range(10):
            # the first run closes once; later ones close after each of
            # two batches of the seeds, split at a random point
            rng.shuffle(seeds)
            cut = len(seeds) if reference is None else rng.randint(0, len(seeds))
            s = SessionStack(g)
            s.begin_session()
            derived = set()
            try:
                for batch in (seeds[:cut], seeds[cut:]):
                    for n in batch:
                        s.inhibit(n)
                    derived |= s.propagate()
            except ConflictError:
                break
            result = s.inhibited_nodes()
            assert set(seeds) <= result  # monotone over the seeds
            assert result == set(seeds) | derived
            assert s.propagate() == set()  # idempotent
            if reference is None:
                reference = result
            assert result == reference  # confluent
    for _ in range(100):
        g = ConceptGraph()
        n = rng.randint(2, 30)
        states = [g.create_atom(NodeKind.STATE, f"s{i}") for i in range(n)]
        transitions = {
            s: [t for t in rng.sample(states, rng.randint(0, min(3, n))) if t != s]
            for s in states
        }
        targets = set(rng.sample(states, rng.randint(0, max(1, n // 5))))
        view = StateGraphView(set(states), transitions, targets)
        s = SessionStack(g)
        s.begin_session()
        assert s.propagate(view) == iterated_elimination(set(states), transitions, targets)
    _report(5, "inhibition-fixpoint", started, 10)


def test_06_maze_soundness_completeness():
    started = time.perf_counter()
    rng = random.Random(106)
    for _ in range(200):
        size = rng.randint(3, 8)
        env = Environment.from_text(
            random_maze_text(rng, size, size, rng.uniform(0.25, 0.5))
        )
        result = solve(StateSpace(env))
        if goal_reachable(env):
            assert isinstance(result, Solution)
            assert result.path[0] == env.start_state
            assert result.path[-1] == env.goal_state
            assert len(set(result.path)) == len(result.path)
        else:
            assert isinstance(result, NoSolution)
    _report(6, "maze-soundness", started, 10)


def test_07_enumeration_completeness():
    started = time.perf_counter()
    rng = random.Random(107)
    checked = 0
    while checked < 50:
        size = rng.randint(3, 6)
        env = Environment.from_text(random_maze_text(rng, size, size, 0.35))
        if count_simple_maze_paths(env, 40) > 40:
            continue
        got = {
            tuple(s.agent for s in sol.path)
            for sol in enumerate_solutions(StateSpace(env))
        }
        assert got == all_simple_maze_paths(env)
        checked += 1
    _report(7, "enumeration-completeness", started, 30)


def test_08_deadlock_pruning():
    started = time.perf_counter()
    corner = Environment.from_text("S...B\n.....\n..T..\n.....\n....G\n")
    assert isinstance(solve(StateSpace(corner)), NoSolution)
    space = StateSpace(corner)
    sessions = SessionStack(space.graph)
    dead = prune_deadlocks(space, sessions)
    assert {s for s in space.states if s.box == (4, 0)} <= dead
    rng = random.Random(108)
    checked = 0
    while checked < 50:
        text = random_push_text(rng)
        if text is None:
            continue
        env = Environment.from_text(text)
        result = solve(StateSpace(env))
        if goal_reachable(env):
            assert isinstance(result, Solution)
        else:
            assert isinstance(result, NoSolution)
        checked += 1
    _report(8, "deadlock-pruning", started, 30)


def test_09_transformation_zero_shot():
    started = time.perf_counter()
    shapes = ["x..\nx..\nxxx\n", "yy.\n.y.\n.yy\n", "zz\nz.\nz.\n"]
    family = [
        Transformation("identity"),
        Transformation("translate", dx=1, dy=0),
        Transformation("translate", dx=0, dy=1),
        Transformation("rotate90", k=1),
        Transformation("rotate90", k=2),
        Transformation("rotate90", k=3),
        Transformation("reflect_h"),
        Transformation("reflect_v"),
        Transformation("scale", k=2),
    ]
    learner = Learner()
    for text in shapes:
        tight = Grid.from_text(text)
        root = learner.observe(tight).root
        padded = Grid(tight.width + 1, tight.height + 1, dict(tight.cells))
        for t in family:
            moved = t.apply(padded)
            hits = {
                (m.concept, (u.kind, u.dx, u.dy, u.k))
                for m, u in learner.match_under_transformations(moved)
                if m.score == 1
            }
            assert (root, (t.kind, t.dx, t.dy, t.k)) in hits
    _report(9, "transformation-zero-shot", started, 5)


def test_10_control_via_inhibition():
    started = time.perf_counter()
    rng = random.Random(110)
    for _ in range(50):
        env = Environment.from_text(random_maze_text(rng, 5, 5, 0.3))
        cells = [
            (x, y)
            for x in range(env.width)
            for y in range(env.height)
            if env.is_free((x, y)) and (x, y) not in (env.start, env.goal)
        ]
        forbidden = set(rng.sample(cells, min(len(cells), rng.randint(0, 3))))
        result = solve_with_constraints(StateSpace(env), forbidden)
        oracle = bfs_distance(env, forbidden=forbidden)
        if oracle is None:
            assert isinstance(result, NoSolution)
        else:
            assert isinstance(result, Solution)
            assert all(s.agent not in forbidden for s in result.path)
    _report(10, "control-via-inhibition", started, 5)


def test_11_cli_end_to_end(tmp_path):
    started = time.perf_counter()

    def invoke(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "gridmind.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    pattern = tmp_path / "ring.txt"
    pattern.write_text("xxx\nx.x\nxxx\n")
    graph = tmp_path / "g.cg"
    root = invoke("learn", str(pattern), "--graph", str(graph)).split()[1]
    assert invoke("show", root, "--graph", str(graph)) == "xxx\nx.x\nxxx\n"
    copy = tmp_path / "copy.cg"
    invoke("graph", "export", str(graph), str(copy))
    assert copy.read_bytes() == graph.read_bytes()

    env = tmp_path / "maze.env"
    env.write_text("S..\n.#.\n..G\n")
    traces = []
    for name in ("t1", "t2"):
        t = tmp_path / name
        invoke("solve", str(env), "--trace", str(t))
        traces.append(t.read_bytes())
    assert traces[0] == traces[1]
    _report(11, "cli-end-to-end", started, 5)
