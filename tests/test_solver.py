"""Solver: state graphs, deadlock pruning, search, enumeration, constraints."""

import gc
import random
import tracemalloc
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmind import (
    Environment,
    NoSolution,
    SessionStack,
    Solution,
    State,
    StateSpace,
    enumerate_solutions,
    prune_deadlocks,
    solve,
    solve_with_constraints,
)
from gridmind.inhibition import ConflictError
from gridmind.solver import InvalidEnvError
from oracles import (
    all_simple_maze_paths,
    bfs_distance,
    breadth_first_states,
    count_simple_maze_paths,
    deadlock_oracle,
    goal_reachable,
    legal_successors,
    parse_environment,
    push_cut_off,
    random_maze_text,
    random_push_text,
)

CORRIDOR = "S.G\n"
ENUM_MAZE = "S..\n.#.\n..G\n#.#\n"
T_MAZE = (
    "#####\n"
    "S...G\n"
    "##.##\n"
    "##.##\n"
    "##.##\n"
    "#####\n"
)


def test_environment_validation():
    with pytest.raises(InvalidEnvError):
        Environment.from_text("S..\n...\n")  # no goal
    with pytest.raises(InvalidEnvError):
        Environment.from_text("S.G\nB..\n")  # box without target
    env = Environment.from_text("S.G\n.B.\n..T\n")
    assert env.box == (1, 1)
    assert Environment.from_text("S" + "." * 254 + "G\n").width == 256
    with pytest.raises(InvalidEnvError):
        Environment.from_text("S" + "." * 255 + "G\n")  # 257 wide
    with pytest.raises(InvalidEnvError):
        Environment.from_text("S\n" + ".\n" * 255 + "G\n")  # 257 tall


def test_environment_drops_trailing_blank_lines():
    env = Environment.from_text("S.G\n\n   \n")
    assert (env.width, env.height) == (3, 1)


@pytest.mark.parametrize("mark", ["start", "goal", "box", "box_target"])
def test_state_space_refuses_a_mark_on_a_wall(mark):
    env = Environment.from_text("S.G\n#B.\n..T\n")
    with pytest.raises(InvalidEnvError, match="on a wall"):
        StateSpace(replace(env, **{mark: (0, 1)}))


@pytest.mark.parametrize(
    "marks",
    [{"box": (1, 1)}, {"box_target": (1, 1)}],
    ids=["box-without-target", "target-without-box"],
)
def test_state_space_refuses_a_box_or_target_alone(marks):
    env = Environment(3, 3, b"\x01" * 9, (0, 0), (2, 2), **marks)
    with pytest.raises(InvalidEnvError, match="both a box and a box target"):
        StateSpace(env)


@pytest.mark.parametrize("size", [(257, 1), (1, 257)])
def test_state_space_refuses_an_environment_over_the_size_limit(size):
    env = Environment(*size, b"\x01" * (size[0] * size[1]), (0, 0), (0, 0))
    with pytest.raises(InvalidEnvError, match="larger than 256x256"):
        StateSpace(env)


@pytest.mark.parametrize("size", [8, 10], ids=["short", "long"])
def test_state_space_refuses_a_free_table_of_the_wrong_length(size):
    env = Environment(3, 3, b"\x01" * size, (0, 0), (2, 2))
    with pytest.raises(InvalidEnvError, match=f"free-cell table of {size} bytes for 3x3 cells"):
        StateSpace(env)


@st.composite
def _environment_texts(draw):
    """Ragged rows of walls and free cells with marks inserted anywhere,
    now and then an unknown cell, and trailing blank lines. The mark sets
    are drawn so that every check of `from_text` fails in some texts and
    every one passes in others."""
    text = "\n".join(draw(st.lists(st.text(alphabet=".# ", max_size=6), max_size=5)))
    marks = draw(st.one_of(
        *map(st.permutations, ["SG", "SGBT", "SGT", "SGBBTT"]),
        st.lists(st.sampled_from("SGBT\tx"), max_size=6),
    ))
    for mark in marks:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + mark + text[at:]
    return text + "".join(draw(st.lists(st.sampled_from(["\n", "\n ", "\n  "]), max_size=2)))


@given(text=_environment_texts())
@settings(max_examples=300, deadline=None)
def test_from_text_matches_the_cell_by_cell_parser(text):
    expected = parse_environment(text)
    if isinstance(expected, str):
        with pytest.raises(InvalidEnvError) as refused:
            Environment.from_text(text)
        assert str(refused.value) == expected
        return
    width, height, walls, start, goal, box, target = expected
    env = Environment.from_text(text)
    assert (env.width, env.height, env.start, env.goal, env.box, env.box_target) == (
        width, height, start, goal, box, target,
    )
    # every cell, and a one-cell ring outside the grid
    for y in range(-1, height + 1):
        for x in range(-1, width + 1):
            on_grid = 0 <= x < width and 0 <= y < height
            assert env.is_free((x, y)) == (on_grid and (x, y) not in walls)


@pytest.mark.parametrize(
    "text, state",
    [
        ("S..\n.#.\n..G\n", State((1, 1))),
        ("S.B\n..T\n.G.\n", State((2, 0), (2, 0))),
        ("S..\n.#.\n..G\n", State((0, 2))),
        ("S..\n.#.\n..G\n", State((0, 1), (1, 0))),
        ("S.B\n..T\n.G.\n", State((0, 1))),
        ("S..\n.#.\n..G\n", State((3, 0))),
        ("S.B\n..T\n.G.\n", State((0, 1), (0, -1))),
    ],
    ids=[
        "wall", "agent-on-box", "reachable-off-the-path", "boxed-on-a-maze",
        "unboxed-on-a-push-puzzle", "off-grid-agent", "off-grid-box",
    ],
)
def test_node_of_never_names_a_state(text, state):
    space = StateSpace(Environment.from_text(text))
    solve(space)
    size = len(space.graph)
    assert state not in space.node_of
    with pytest.raises(KeyError):
        space.node_of[state]
    assert len(space.graph) == size


def test_corridor_state_graph():
    space = StateSpace(Environment.from_text(CORRIDOR))
    assert len(space.states) == 3
    edges = sum(len(v) for v in space.transitions.values())
    assert edges == 4  # 2 bidirectional transitions


def test_single_exit_cell_has_one_transition():
    env = Environment.from_text("S..\n#.#\n#G#\n")
    space = StateSpace(env)
    assert len(space.transitions[State((1, 2))]) == 1


def _random_envs(rng, count):
    """`count` random mazes and `count` random push puzzles."""
    mazes = [
        Environment.from_text(
            random_maze_text(rng, rng.randint(2, 7), rng.randint(1, 7), rng.uniform(0, 0.5))
        )
        for _ in range(count)
    ]
    pushes = []
    while len(pushes) < count:
        text = random_push_text(rng, rng.randint(3, 6), rng.randint(3, 6), rng.uniform(0, 0.3))
        if text is not None:
            pushes.append(Environment.from_text(text))
    return mazes + pushes


def _assert_matches_brute_force(env):
    space = StateSpace(env)
    assert space.states == breadth_first_states(env)
    assert len(space.states) == len(space.transitions)
    for s in space.states:
        assert space.transitions[s] == legal_successors(env, s)
    assert [space.node_of[s] for s in space.states] == list(range(len(space.states)))
    view = space.view()
    assert view.transitions == {
        space.node_of[s]: [space.node_of[t] for t in ts]
        for s, ts in space.transitions.items()
    }
    goal = {space.node_of[env.goal_state]} if goal_reachable(env) else set()
    assert view.targets == goal
    result, dist = solve(StateSpace(env)), bfs_distance(env)
    assert (None if isinstance(result, NoSolution) else len(result.moves)) == dist


def test_push_state_graph_matches_brute_force():
    envs = [Environment.from_text("S....\n.B...\n...T.\n....G\n.....\n")]
    for env in envs + _random_envs(random.Random(83), 60):
        _assert_matches_brute_force(env)


def _column(row: str) -> str:
    return "".join(ch + "\n" for ch in row)


EDGE_SHAPES = [
    # 1 x n and n x 1 strips, up to the largest side
    *(f(row) for n in (2, 3, 17, 256)
      for row in ("S" + "." * (n - 2) + "G", "G" + "." * (n - 2) + "S")
      for f in (str, _column)),
    *(f(row) for row in ("S.#.G", "GSB.T", "G" + "." * 250 + "SB..T", "T.BSG", "SB.T.G")
      for f in (str, _column)),
    # ragged lines, the short ones padded with walls
    "S...\n.\n..\n...G\n",
    "..S\n.\n...G.\n",
    "S.....\n.B.\n.....T\n.G\n",
    "S\n.B..\n...T\n.\nG..\n",
    # walls on every border cell
    "#####\n#S..#\n#.#.#\n#..G#\n#####\n",
    "###\n#S#\n#.#\n#G#\n###\n",
    "######\n#S...#\n#.B..#\n#...T#\n#G...#\n######\n",
    "#######\n#SB..T#\n#....G#\n#######\n",
]


@pytest.mark.parametrize("text", EDGE_SHAPES, ids=range(len(EDGE_SHAPES)))
def test_stepping_matches_brute_force_on_edge_shapes(text):
    _assert_matches_brute_force(Environment.from_text(text))


def test_prune_corridor_nothing():
    space = StateSpace(Environment.from_text(CORRIDOR))
    sessions = SessionStack(space.graph)
    assert prune_deadlocks(space, sessions) == set()


def test_prune_t_maze_arm():
    env = Environment.from_text(T_MAZE)
    space = StateSpace(env)
    sessions = SessionStack(space.graph)
    dead = prune_deadlocks(space, sessions)
    assert {s.agent for s in dead} == {(2, 2), (2, 3), (2, 4)}
    space = StateSpace(env)
    sessions = SessionStack(space.graph)
    enumerate_solutions(space, sessions=sessions)  # prunes once per call
    assert len(sessions.inhibited_nodes()) == len(dead)


def test_prune_conflict_leaves_the_callers_stack_unchanged():
    space = StateSpace(Environment.from_text("S.G\n.#.\n.#.\n"))
    space.states  # the full build names every state
    sessions = SessionStack(space.graph)
    active = space.node_of[State((2, 2))]
    sessions.set_active(active)
    with pytest.raises(ConflictError, match=f"node {active} is Active"):
        enumerate_solutions(space, sessions=sessions)
    assert sessions.inhibited_nodes() == set()
    assert sessions.active_nodes() == {active}


def test_prune_cornered_box():
    # the box sits in the bottom-left corner, which is not the target
    env = Environment.from_text("S....\n....T\n.....\n.....\nB...G\n")
    space = StateSpace(env)
    sessions = SessionStack(space.graph)
    dead = prune_deadlocks(space, sessions)
    cornered = {s for s in space.states if s.box == (0, 4)}
    assert cornered
    assert cornered <= dead


def test_prune_matches_oracle_random():
    rng = random.Random(31)
    envs = [
        Environment.from_text(
            random_maze_text(rng, rng.randint(2, 12), rng.randint(1, 12), rng.uniform(0, 0.5))
        )
        for _ in range(80)
    ]
    while len(envs) < 120:
        size = rng.randint(3, 6)
        text = random_push_text(rng, size, size, rng.uniform(0, 0.3))
        if text is not None:
            envs.append(Environment.from_text(text))
    for env in envs:
        space = StateSpace(env)
        sessions = SessionStack(space.graph)
        dead = prune_deadlocks(space, sessions)
        assert dead == deadlock_oracle(env)
        assert set(sessions.inhibited_nodes()) == {space.node_of[s] for s in dead}
    assert sum(env.height == 1 for env in envs) >= 3  # corridors
    assert sum(not goal_reachable(env) for env in envs if env.box is None) >= 3


def test_prune_never_kills_solution_states():
    rng = random.Random(53)
    for _ in range(25):
        env = Environment.from_text(random_maze_text(rng, 5, 5, 0.3))
        space = StateSpace(env)
        sessions = SessionStack(space.graph)
        dead = prune_deadlocks(space, sessions)
        on_solutions = {
            State(cell) for path in all_simple_maze_paths(env) for cell in path
        }
        assert not (dead & on_solutions)


def test_solve_corridor():
    result = solve(StateSpace(Environment.from_text(CORRIDOR)))
    assert isinstance(result, Solution)
    assert result.moves == ["E", "E"]
    assert len(result.path) == 3


def test_solve_walled_off():
    result = solve(StateSpace(Environment.from_text("S#G\n")))
    assert isinstance(result, NoSolution)


def _open_room(n: int) -> str:
    rows = ["." * n for _ in range(n)]
    rows[0] = "S" + rows[0][1:]
    rows[-1] = rows[-1][:-1] + "G"
    return "\n".join(rows) + "\n"


def test_solve_open_room_is_shortest():
    for n in (4, 16):
        env = Environment.from_text(_open_room(n))
        result = solve(StateSpace(env))
        assert isinstance(result, Solution)
        assert len(result.moves) == bfs_distance(env)


def test_solve_skips_inhibited_solution_concept():
    space = StateSpace(Environment.from_text("S.G\n.#.\n...\n"))
    sessions = SessionStack(space.graph)
    first = solve(space, sessions)
    sessions.begin_session()
    sessions.inhibit(first.concept)
    second = solve(space, sessions)
    assert isinstance(second, Solution)
    assert second.path != first.path
    assert len(second.path) >= len(first.path)
    sessions.inhibit(second.concept)
    assert isinstance(solve(space, sessions), NoSolution)
    sessions.release_session()
    assert solve(space, sessions).path == first.path


def test_solve_deterministic():
    env_text = random_maze_text(random.Random(3), 7, 7, 0.3)
    outcomes = set()
    for _ in range(3):
        result = solve(StateSpace(Environment.from_text(env_text)))
        outcomes.add(
            (tuple(result.path), result.concept) if isinstance(result, Solution) else "none"
        )
    assert len(outcomes) == 1


def _assert_legal(env, sol: Solution):
    assert sol.path[0] == env.start_state
    assert sol.path[-1] == env.goal_state
    assert len(set(sol.path)) == len(sol.path)
    for a, b in zip(sol.path, sol.path[1:]):
        assert b in legal_successors(env, a)


def test_solve_random_mazes_sound_and_complete():
    rng = random.Random(8)
    for _ in range(60):
        size = rng.randint(3, 8)
        env = Environment.from_text(random_maze_text(rng, size, size, rng.uniform(0.25, 0.5)))
        result = solve(StateSpace(env))
        if goal_reachable(env):
            assert isinstance(result, Solution)
            _assert_legal(env, result)
        else:
            assert isinstance(result, NoSolution)


def test_enumerate_single_route():
    space = StateSpace(Environment.from_text(CORRIDOR))
    solutions = enumerate_solutions(space)
    assert len(solutions) == 1
    assert solutions[0].moves == ["E", "E"]


def test_enumerate_two_by_two_room():
    env = Environment.from_text("S.\n.G\n")
    solutions = enumerate_solutions(StateSpace(env))
    got = {tuple(s.agent for s in sol.path) for sol in solutions}
    assert got == all_simple_maze_paths(env)
    assert len(solutions) == 2


def test_enumerate_alternative_differs_after_inhibition():
    env = Environment.from_text("S..\n.#.\n..G\n")
    solutions = enumerate_solutions(StateSpace(env), max_solutions=2)
    assert len(solutions) == 2
    assert solutions[0].path != solutions[1].path


def test_enumerate_matches_all_simple_paths_random():
    rng = random.Random(19)
    envs = []
    while len(envs) < 15:
        env = Environment.from_text(random_maze_text(rng, 5, 5, 0.35))
        if count_simple_maze_paths(env, 30) > 30:
            continue
        envs.append(env)
    envs.append(Environment.from_text(_open_room(4)))  # 184 routes
    for env in envs:
        solutions = enumerate_solutions(StateSpace(env))
        got = {tuple(s.agent for s in sol.path) for sol in solutions}
        assert got == all_simple_maze_paths(env)
        assert len(got) == len(solutions)  # no duplicates
        lengths = [len(sol.path) for sol in solutions]
        assert lengths == sorted(lengths)
        if solutions:
            assert lengths[0] - 1 == bfs_distance(env)


def test_enumerate_respects_max():
    env = Environment.from_text("S..\n...\n..G\n")
    assert len(enumerate_solutions(StateSpace(env), max_solutions=3)) == 3
    assert enumerate_solutions(StateSpace(env), max_solutions=0) == []
    # any N above the number of routes lists them all, past sys.maxsize too
    every = enumerate_solutions(StateSpace(env))
    assert len(every) == 12
    assert enumerate_solutions(StateSpace(env), 10**20) == every


def test_constraints_empty_equals_solve():
    env_text = "S..\n.#.\n..G\n"
    a = solve(StateSpace(Environment.from_text(env_text)))
    b = solve_with_constraints(StateSpace(Environment.from_text(env_text)), set())
    assert a.path == b.path


def test_constraints_block_only_corridor():
    env = Environment.from_text("S.G\n")
    result = solve_with_constraints(StateSpace(env), {(1, 0)})
    assert isinstance(result, NoSolution)


def test_constraints_pick_other_route():
    env = Environment.from_text("S..\n.#.\n..G\n")
    result = solve_with_constraints(StateSpace(env), {(1, 0)})
    assert isinstance(result, Solution)
    assert all(s.agent != (1, 0) for s in result.path)
    assert len(result.moves) == bfs_distance(env, forbidden={(1, 0)})


def test_constraints_off_grid_cells_do_not_alias():
    # cell indices are y * width + x: (3, 0) would alias (0, 1), (-1, 1)
    # would alias (2, 0) and (0, -1) would be a negative index
    maze = Environment.from_text("S#G\n...\n")
    push = Environment.from_text("S..\n.B.\n.T.\nG..\n")
    for env in (maze, push):
        plain = solve(StateSpace(env))
        assert isinstance(plain, Solution)
        assert (0, 1) in [s.agent for s in plain.path]
        for forbidden in ({(3, 0)}, {(-1, 1)}, {(0, -1)}, {(3, 0), (-1, 1), (0, 4)}):
            result = solve_with_constraints(StateSpace(env), forbidden)
            assert result.path == plain.path


def test_constraints_random_instances():
    rng = random.Random(67)
    moved = {False: 0, True: 0}  # instances whose forbidden cells change the distance, by box
    for env in _random_envs(rng, 60):
        cells = [
            (x, y)
            for x in range(env.width)
            for y in range(env.height)
            if env.is_free((x, y)) and (x, y) not in (env.start, env.goal)
        ]
        forbidden = set(rng.sample(cells, min(len(cells), rng.randint(0, 2))))
        plain = solve(StateSpace(env))
        route = [s.agent for s in plain.path if s.agent in cells] if isinstance(plain, Solution) else []
        if route:  # cut the unconstrained route at one cell
            forbidden.add(rng.choice(route))
        result = solve_with_constraints(StateSpace(env), forbidden)
        oracle = bfs_distance(env, forbidden=forbidden)
        if oracle is None:
            assert isinstance(result, NoSolution)
        else:
            assert isinstance(result, Solution)
            _assert_legal(env, result)
            assert len(result.moves) == oracle
            assert all(s.agent not in forbidden for s in result.path)
        moved[env.box is not None] += oracle != bfs_distance(env)
    assert min(moved.values()) >= 10  # 24 mazes and 13 push puzzles


def test_push_puzzle_solvable_and_legal():
    env = Environment.from_text("S....\n.B...\n...T.\n....G\n.....\n")
    result = solve(StateSpace(env))
    assert isinstance(result, Solution)
    _assert_legal(env, result)


def test_push_puzzle_corner_start_unsolvable():
    # the box starts in the top-right corner and the target is elsewhere
    env = Environment.from_text("S...B\n.....\n..T..\n.....\n....G\n")
    result = solve(StateSpace(env))
    assert isinstance(result, NoSolution)


def test_push_box_on_dead_square_is_answered_without_search():
    # a closed ring of walls holds the box target (no cell outside it is
    # live for the box) or the agent goal (the agent cannot reach it)
    rooms = "....###\n....#T#\n....###\n......G\n", "..T....\n....###\n....#G#\n....###\n"
    for room in rooms:
        text = "S......\n.B.....\n.......\n" + room
        for run in (solve, enumerate_solutions,
                    lambda space: solve_with_constraints(space, {(0, 1)})):
            space = StateSpace(Environment.from_text(text))
            assert run(space) in (NoSolution(), [])
            assert space._succ == {}


def test_push_dead_square_is_sound_random():
    # a puzzle declared unsolvable never has a solution; the check must also
    # fire, and always does when walls alone keep the agent from its goal
    rng = random.Random(83)
    dead = cut = 0
    for _ in range(300):
        size = rng.randint(3, 6)
        text = random_push_text(rng, size, size, rng.uniform(0, 0.35))
        if text is None:
            continue
        env = Environment.from_text(text)
        walled = bfs_distance(replace(env, box=None, box_target=None)) is None
        cut += walled
        if StateSpace(env)._cut_off():
            dead += 1
            assert bfs_distance(env) is None, text
        else:
            assert not walled, text
    assert dead >= 30 and cut >= 10


def test_push_cut_off_matches_oracle():
    rng = random.Random(23)
    checked = cut = 0
    for _ in range(2000):
        size = rng.randint(3, 6)
        text = random_push_text(rng, size, size, rng.uniform(0, 0.35))
        if text is None:
            continue
        env = Environment.from_text(text)
        expected = push_cut_off(env)
        assert StateSpace(env)._cut_off() == expected, text
        checked += 1
        cut += expected
    assert checked > 1900 and 200 < cut < checked - 200


def test_push_random_solvable_iff_oracle():
    rng = random.Random(44)
    checked = 0
    while checked < 25:
        text = random_push_text(rng)
        if text is None:
            continue
        env = Environment.from_text(text)
        dist = bfs_distance(env)
        if dist is not None and dist > 12:
            continue
        result = solve(StateSpace(env))
        if dist is None:
            assert isinstance(result, NoSolution)
        else:
            assert isinstance(result, Solution)
            _assert_legal(env, result)
        checked += 1


def _serpentine(width: int, height: int) -> str:
    """Free rows joined by one gap at alternating ends; S and G at the ends."""
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
    return "\n".join("".join(row) for row in rows) + "\n"


def test_lazy_solve_matches_pruned_enumeration_random():
    # solve searches the unpruned space and enumeration the pruned one;
    # pruning removes no state of a shortest path, so both pick one path
    rng = random.Random(71)
    texts = []
    for _ in range(40):
        size = rng.randint(3, 8)
        texts.append(random_maze_text(rng, size, size, rng.uniform(0.2, 0.5)))
        texts.append(random_maze_text(rng, rng.randint(2, 7), rng.randint(2, 7), 0.0))
    texts += [_serpentine(rng.randint(2, 9), rng.randint(1, 9)) for _ in range(20)]
    while len(texts) < 130:
        size = rng.randint(4, 6)
        text = random_push_text(rng, size, size)
        if text is not None:
            texts.append(text)
    solved = 0
    for text in texts:
        env = Environment.from_text(text)
        result = solve(StateSpace(env))
        first = enumerate_solutions(StateSpace(env), 1)
        if isinstance(result, NoSolution):
            assert first == []
        else:
            assert [result.path] == [sol.path for sol in first]
            solved += 1
    assert 0 < solved < len(texts)


def test_solve_names_only_path_states_in_open_room():
    space = StateSpace(Environment.from_text(_open_room(16)))
    result = solve(space)
    assert len(result.path) == 31
    assert len(space.graph) == len(result.path) + 1  # path states + solution


def test_solve_names_only_path_states_in_push_puzzle():
    rows = [["."] * 16 for _ in range(16)]
    rows[5][3], rows[5][4], rows[5][6], rows[5][7] = "S", "B", "G", "T"
    space = StateSpace(Environment.from_text("\n".join(map("".join, rows)) + "\n"))
    result = solve(space)
    assert result.moves == ["E", "E", "E"]
    assert len(space.graph) == len(result.path) + 1


def _state_record(node: int, state: State) -> str:
    label = "state:%d,%d" % state.agent
    if state.box is not None:
        label += ":%d,%d" % state.box
    return f"N {node} State 1 {label}"


def test_named_states_export_in_naming_order():
    # the full build names every state in one batch, in `states` order, and
    # a solve on a fresh space names its path in one batch, in path order
    for env in _random_envs(random.Random(89), 40):
        space = StateSpace(env)
        states = space.states
        solved = isinstance(solve(space), Solution)
        assert len(space.graph) == len(states) + solved  # the solution concept
        lines = space.graph.export_text().splitlines()
        assert lines[1 : len(states) + 1] == [_state_record(i, s) for i, s in enumerate(states)]
        fresh = StateSpace(env)
        result = solve(fresh)
        if isinstance(result, Solution):
            lines = fresh.graph.export_text().splitlines()
            expected = [_state_record(i, s) for i, s in enumerate(result.path)]
            assert lines[1 : len(result.path) + 1] == expected
            assert len(fresh.graph) == len(result.path) + 1


def test_full_push_build_memory_is_bounded():
    # 20,592 states, each a concept node: 20.9 MB when every node also had
    # an empty children list and parents set, 13.0 MB with one record each
    rows = [["."] * 12 for _ in range(12)]
    rows[0][0], rows[5][5], rows[2][9], rows[11][11] = "S", "B", "T", "G"
    space = StateSpace(Environment.from_text("\n".join(map("".join, rows)) + "\n"))
    tracemalloc.start()
    try:
        count = len(space.states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == len(space.graph) == 20_592
    assert peak < 16 * 2**20


def test_full_build_keeps_names_given_during_search():
    space = StateSpace(Environment.from_text("S..\n.#.\n..G\n"))
    result = solve(space)
    named = {s: space.node_of[s] for s in result.path}
    assert len(space.states) == 8
    assert all(space.node_of[s] == n for s, n in named.items())
    assert set(space.state_of) == set(space.node_of.values())
    assert len(space.view().states) == 8


def _assert_genuine_states(states) -> int:
    count = 0
    for state in states:
        assert type(state) is State
        rebuilt = State(state.agent, state.box)
        assert state == rebuilt and hash(state) == hash(rebuilt)
        assert type(state.agent) is tuple and len(state.agent) == 2
        count += 1
    return count


@pytest.mark.parametrize("text", [T_MAZE, "S....\n.B...\n...T.\n....G\n.....\n"], ids=["maze", "push"])
def test_the_solver_hands_out_genuine_states(text):
    # states are built with `tuple.__new__`, bypassing the named tuple's
    # own constructor, so each public way out is checked for a real `State`
    space = StateSpace(Environment.from_text(text))
    path = solve(space).path
    assert _assert_genuine_states(path) > 2
    assert _assert_genuine_states(space.state_of.values()) == len(path)
    assert _assert_genuine_states(space.node_of) == len(path)
    assert _assert_genuine_states(space.states) == len(space.states)
    assert _assert_genuine_states(space.node_of) == len(space.states)
    assert _assert_genuine_states(space.state_of.values()) == len(space.states)
    assert _assert_genuine_states(prune_deadlocks(space, SessionStack(space.graph))) > 0


def test_dropped_space_is_freed_without_the_cycle_collector():
    # `node_of` and `state_of` are views made on each access and the space
    # keeps none of them, so the last reference going frees the space
    gc.disable()
    try:
        refs = []
        for text in ("S..\n.#.\n..G\n", "S.G\n.B.\n..T\n"):
            env = Environment.from_text(text)
            space = StateSpace(env)
            solve(space)
            enumerate_solutions(space, 3)
            solve_with_constraints(space, {(1, 0)})
            space.view()
            node_of, state_of = space.node_of, space.state_of
            start = node_of[env.start_state]
            assert env.start_state in node_of and state_of[start] == env.start_state
            assert len(list(node_of)) == len(node_of) == len(state_of) == len(list(state_of))
            refs.append(weakref.ref(space))
            del space, node_of, state_of
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_enumeration_names_states_in_breadth_first_order():
    # on a fresh space the full build names every state before Yen's search
    # runs, so node ids equal breadth-first ranks; routes of equal length
    # come in the ranks' order whatever a space named first
    space = StateSpace(Environment.from_text(ENUM_MAZE))
    sessions = SessionStack(space.graph)
    solutions = enumerate_solutions(space, sessions=sessions)
    assert [space.node_of[s] for s in space.states] == list(range(9))
    assert [sol.moves for sol in solutions] == [list("EESS"), list("SSEE")]
    assert [sol.concept for sol in solutions] == [9, 10]
    assert sessions.inhibited_nodes() == {space.node_of[State((1, 3))]}


def test_enumeration_skips_solutions_inhibited_in_the_callers_sessions():
    space = StateSpace(Environment.from_text(ENUM_MAZE))
    sessions = SessionStack(space.graph)
    first, second = enumerate_solutions(space, sessions=sessions)
    deadlocks = sessions.inhibited_nodes()
    assert deadlocks == {space.node_of[State((1, 3))]}
    sessions.begin_session()
    sessions.inhibit(first.concept)
    assert enumerate_solutions(space, sessions=sessions) == [second]
    assert sessions.inhibited_nodes() == deadlocks | {first.concept}
    sessions.release_session()
    assert enumerate_solutions(space, sessions=sessions) == [first, second]
    assert sessions.inhibited_nodes() == deadlocks


@pytest.fixture
def small_state_budget(monkeypatch):
    monkeypatch.setattr("gridmind.solver.MAX_STATES", 20)


def test_state_budget_bounds_search(small_state_budget):
    # the search steps from 24 states of a 5 x 5 room before it meets the goal
    assert isinstance(solve(StateSpace(Environment.from_text("S.G\n"))), Solution)
    room = Environment.from_text(_open_room(5))
    with pytest.raises(InvalidEnvError, match="20 states"):
        solve(StateSpace(room))
    with pytest.raises(InvalidEnvError, match="20 states"):
        enumerate_solutions(StateSpace(room), 1)
    with pytest.raises(InvalidEnvError, match="20 states"):
        StateSpace(room).view()


def test_solve_past_an_inhibited_solution_builds_the_space(small_state_budget):
    # the room below the corridor holds 20 of the 23 states, which the
    # first route never reaches; the second needs every breadth-first rank
    space = StateSpace(Environment.from_text("S.G##\n" + ".....\n" * 4))
    sessions = SessionStack(space.graph)
    first = solve(space, sessions)
    assert first.moves == ["E", "E"]
    assert "_order" not in vars(space)
    assert isinstance(solve(space, sessions), Solution)
    assert "_order" not in vars(space)
    sessions.inhibit(first.concept)
    with pytest.raises(InvalidEnvError, match="20 states"):
        solve(space, sessions)


def test_solve_past_an_inhibited_solution_ranks_every_state():
    space = StateSpace(Environment.from_text(ENUM_MAZE))
    sessions = SessionStack(space.graph)
    first = solve(space, sessions)
    assert "_order" not in vars(space)
    sessions.inhibit(first.concept)
    second = solve(space, sessions)
    assert "_order" in vars(space)
    assert [first.moves, second.moves] == [list("EESS"), list("SSEE")]
    assert len(space.graph) == len(space.states) + 2  # the two solutions
    sessions.inhibit(second.concept)
    assert isinstance(solve(space, sessions), NoSolution)


def _history_envs():
    """`_random_envs` plus random mazes of 3-7 cells a side at wall density 0.2."""
    rng = random.Random(97)
    mazes = [
        Environment.from_text(random_maze_text(rng, rng.randint(3, 7), rng.randint(3, 7), 0.2))
        for _ in range(60)
    ]
    return _random_envs(rng, 30) + mazes


def test_enumeration_after_a_solve_matches_a_fresh_space():
    for env in _history_envs():
        fresh = enumerate_solutions(StateSpace(env), 6)
        space = StateSpace(env)
        solve(space)
        assert [s.path for s in enumerate_solutions(space, 6)] == [s.path for s in fresh]


def test_solving_and_inhibiting_lists_the_enumerated_routes():
    # four rounds of solve-then-inhibit on one space, with no deadlock
    # pruning, return the first four routes `enumerate_solutions` lists
    for env in _history_envs():
        expected = [s.path for s in enumerate_solutions(StateSpace(env), 4)]
        space = StateSpace(env)
        sessions = SessionStack(space.graph)
        found = []
        for _ in expected:
            result = solve(space, sessions)
            found.append(result.path)
            sessions.inhibit(result.concept)
        assert found == expected
        assert len(expected) == 4 or isinstance(solve(space, sessions), NoSolution)


def test_state_budget_boundary(small_state_budget):
    corridor = StateSpace(Environment.from_text("S" + "." * 18 + "G\n"))
    assert len(corridor.states) == 20
    assert len(enumerate_solutions(corridor)) == 1
    with pytest.raises(InvalidEnvError):
        StateSpace(Environment.from_text("S" + "." * 19 + "G\n")).states


def test_route_budget_bounds_enumeration(monkeypatch):
    # listing the 12 routes of a 3 x 3 room reaches 153 states in its
    # spur searches, summed
    monkeypatch.setattr("gridmind.solver.MAX_SPUR_STATES", 153)
    room = Environment.from_text(_open_room(3))
    assert len(enumerate_solutions(StateSpace(room))) == 12
    monkeypatch.setattr("gridmind.solver.MAX_SPUR_STATES", 152)
    with pytest.raises(InvalidEnvError, match="152 states"):
        enumerate_solutions(StateSpace(room))
    assert len(enumerate_solutions(StateSpace(room), 2)) == 2
    assert isinstance(solve(StateSpace(room)), Solution)


def test_state_budget_fits_largest_maze():
    assert len(solve(StateSpace(Environment.from_text(_open_room(256)))).moves) == 510
