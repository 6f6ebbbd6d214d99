"""Grounded problem solving on corridor mazes and single-box push puzzles.

The state space is implicit: a search steps from the states it reaches
and nothing else, and a state gets a concept node only when a path or an
inhibition names it. The search is a breadth-first search with parent
pointers that skips blocked states: those inhibited in the caller's
sessions and, under constraints, those on a forbidden cell. Yen's
algorithm (1971) runs it again from each branching point of the paths
found so far, which yields every loopless start-to-goal path in
nondecreasing length. Enumeration first inhibits deadlock states (states
from which no goal state is reachable, plus iterated cul-de-sac cells in
mazes), which needs the whole space; a single solve does not, because no
deadlock state lies on a shortest path. Solutions are registered as
high-level concepts; a path whose solution concept is inhibited is
skipped, so inhibiting a found solution makes the next run return an
alternative.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Container, Iterator, NamedTuple, Optional

from .graph import ConceptGraph, NodeKind
from .grid import MAX_DIM
from .inhibition import SessionStack, StateGraphView

DIRECTIONS = (("N", (0, -1)), ("E", (1, 0)), ("S", (0, 1)), ("W", (-1, 0)))

WALL = "#"
FREE_CHARS = {".", " "}

# Most states a search or a full build may step from. Every maze up to
# MAX_DIM x MAX_DIM fits, and so does every push puzzle up to about a 16 x 16
# open room; beyond that a push space grows as the square of its cells.
MAX_STATES = MAX_DIM * MAX_DIM


class InvalidEnvError(Exception):
    pass


class State(NamedTuple):
    agent: tuple[int, int]
    box: Optional[tuple[int, int]] = None


@dataclass(frozen=True)
class Environment:
    width: int
    height: int
    walls: frozenset[tuple[int, int]]
    start: tuple[int, int]
    goal: tuple[int, int]
    box: Optional[tuple[int, int]] = None
    box_target: Optional[tuple[int, int]] = None

    @property
    def kind(self) -> str:
        return "PushPuzzle" if self.box is not None else "Maze"

    def is_free(self, pos: tuple[int, int]) -> bool:
        x, y = pos
        return 0 <= x < self.width and 0 <= y < self.height and pos not in self.walls

    @property
    def start_state(self) -> State:
        return State(self.start, self.box)

    @property
    def goal_state(self) -> State:
        return State(self.goal, self.box_target)

    @classmethod
    def from_text(cls, text: str) -> "Environment":
        lines = [ln for ln in text.splitlines()]
        while lines and not lines[-1].strip():
            lines.pop()
        if not lines:
            raise InvalidEnvError("empty environment")
        width = max(len(ln) for ln in lines)
        if width > MAX_DIM or len(lines) > MAX_DIM:
            raise InvalidEnvError(f"environment larger than {MAX_DIM}x{MAX_DIM}: {width}x{len(lines)}")
        walls = set()
        marks: dict[str, list[tuple[int, int]]] = {"S": [], "G": [], "B": [], "T": []}
        for y, line in enumerate(lines):
            padded = line.ljust(width, WALL)
            for x, ch in enumerate(padded):
                if ch == WALL:
                    walls.add((x, y))
                elif ch in marks:
                    marks[ch].append((x, y))
                elif ch not in FREE_CHARS:
                    raise InvalidEnvError(f"unknown cell {ch!r} at ({x}, {y})")
        if len(marks["S"]) != 1 or len(marks["G"]) != 1:
            raise InvalidEnvError("environment needs exactly one S and one G")
        if len(marks["B"]) != len(marks["T"]) or len(marks["B"]) > 1:
            raise InvalidEnvError("a push puzzle needs exactly one B and one T")
        box = marks["B"][0] if marks["B"] else None
        target = marks["T"][0] if marks["T"] else None
        if box is not None and box == marks["S"][0]:
            raise InvalidEnvError("box cannot start on the agent")
        return cls(
            width,
            len(lines),
            frozenset(walls),
            marks["S"][0],
            marks["G"][0],
            box,
            target,
        )


def step(env: Environment, state: State, delta: tuple[int, int]) -> Optional[State]:
    ax, ay = state.agent
    nxt = (ax + delta[0], ay + delta[1])
    if not env.is_free(nxt):
        return None
    if state.box is not None and nxt == state.box:
        beyond = (nxt[0] + delta[0], nxt[1] + delta[1])
        if not env.is_free(beyond):
            return None
        return State(nxt, beyond)
    return State(nxt, state.box)


def moves_of(path: list[State]) -> list[str]:
    out = []
    for a, b in zip(path, path[1:]):
        delta = (b.agent[0] - a.agent[0], b.agent[1] - a.agent[1])
        out.append(next(name for name, d in DIRECTIONS if d == delta))
    return out


@dataclass(frozen=True)
class Solution:
    path: tuple[State, ...]
    concept: int

    @property
    def moves(self) -> list[str]:
        return moves_of(list(self.path))


@dataclass(frozen=True)
class NoSolution:
    pass


@dataclass
class TraceRecord:
    step: int
    event: str  # inhibit|create_node|solution|no_solution
    subject: str
    session_depth: int

    def to_line(self) -> str:
        return f"{self.step}\t{self.event}\t{self.subject}\t{self.session_depth}"


class TraceRecorder:
    def __init__(self):
        self.records: list[TraceRecord] = []

    def emit(self, event: str, subject, depth: int) -> None:
        self.records.append(TraceRecord(len(self.records), event, str(subject), depth))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(rec.to_line() + "\n")


def _state_label(state: State) -> str:
    label = f"state:{state.agent[0]},{state.agent[1]}"
    if state.box is not None:
        label += f":{state.box[0]},{state.box[1]}"
    return label


class _NodeIndex(dict):
    """State -> concept node; a state's node is created on its first lookup."""

    def __init__(self, space: "StateSpace"):
        super().__init__()
        self._space = space

    def __missing__(self, state: State) -> int:
        node = self._space.graph.create_atom(NodeKind.STATE, _state_label(state))
        self[state] = node
        self._space.state_of[node] = state
        return node


class StateSpace:
    """The states reachable in an environment, stepped into on demand.

    `successors` steps from one state and remembers the result; `node_of`
    gives a state its concept node the first time it is looked up, and
    `state_of` maps the node back. `states`, `transitions`, `predecessors`,
    `targets` and `view()` build the whole reachable space once, on first
    use, and give every state its node in breadth-first order.
    """

    def __init__(self, env: Environment, graph: ConceptGraph | None = None):
        if not env.is_free(env.start) or not env.is_free(env.goal):
            raise InvalidEnvError("start or goal on a wall")
        if env.box is not None and (
            not env.is_free(env.box) or not env.is_free(env.box_target)
        ):
            raise InvalidEnvError("box or box target on a wall")
        self.env = env
        self.graph = graph if graph is not None else ConceptGraph()
        self.goal_state = env.goal_state
        self.node_of: dict[State, int] = _NodeIndex(self)
        self.state_of: dict[int, State] = {}
        self._successors: dict[State, list[State]] = {}

    def successors(self, state: State) -> list[State]:
        """States one move from `state`, in `DIRECTIONS` order, without repeats."""
        succs = self._successors.get(state)
        if succs is None:
            if len(self._successors) >= MAX_STATES:
                raise InvalidEnvError(f"the search space exceeds {MAX_STATES} states")
            succs = []
            for _, delta in DIRECTIONS:
                nxt = step(self.env, state, delta)
                if nxt is not None and nxt != state and nxt not in succs:
                    succs.append(nxt)
            self._successors[state] = succs
        return succs

    @cached_property
    def states(self) -> list[State]:
        states = [self.env.start_state]
        seen = set(states)
        for cur in states:  # breadth-first: the list is the queue
            for nxt in self.successors(cur):
                if nxt not in seen:
                    seen.add(nxt)
                    states.append(nxt)
        for s in states:
            self.node_of[s]  # names every state, in breadth-first order
        return states

    @cached_property
    def transitions(self) -> dict[State, list[State]]:
        return {s: self.successors(s) for s in self.states}

    @cached_property
    def predecessors(self) -> dict[State, list[State]]:
        preds: dict[State, list[State]] = {s: [] for s in self.states}
        for s in self.states:
            for t in self.successors(s):
                preds[t].append(s)
        return preds

    @cached_property
    def targets(self) -> set[State]:
        return {s for s in self.states if s == self.goal_state}

    def view(self) -> StateGraphView:
        return StateGraphView(
            states={self.node_of[s] for s in self.states},
            transitions={
                self.node_of[s]: [self.node_of[t] for t in self.transitions[s]]
                for s in self.states
            },
            targets={self.node_of[s] for s in self.targets},
        )


def _cul_de_sac_cells(env: Environment) -> set[tuple[int, int]]:
    """Iterated dead-end filling; start and goal cells are protected."""
    live = {
        (x, y)
        for x in range(env.width)
        for y in range(env.height)
        if env.is_free((x, y))
    }

    def live_neighbours(cell):
        around = ((cell[0] + dx, cell[1] + dy) for _, (dx, dy) in DIRECTIONS)
        return [n for n in around if n in live]

    protected = (env.start, env.goal)
    degree = {cell: len(live_neighbours(cell)) for cell in live}
    queue = [c for c, d in degree.items() if d <= 1 and c not in protected]
    removed: set[tuple[int, int]] = set()
    while queue:
        cell = queue.pop()
        if cell in removed:
            continue
        removed.add(cell)
        live.discard(cell)
        for n in live_neighbours(cell):
            degree[n] -= 1
            if degree[n] <= 1 and n not in protected:
                queue.append(n)
    return removed


def prune_deadlocks(
    space: StateSpace,
    sessions: SessionStack,
    trace: TraceRecorder | None = None,
) -> set[State]:
    """Inhibit states that cannot take part in any solution.

    Covers states from which the goal state is unreachable (the rule-C
    fixpoint closed over cycles, which inhibits e.g. every state with the
    box in a non-target corner) and, for mazes, iterated cul-de-sac cells.
    """
    alive: set[State] = set()
    queue = [s for s in space.targets]
    alive.update(queue)
    while queue:
        cur = queue.pop()
        for pred in space.predecessors[cur]:
            if pred not in alive:
                alive.add(pred)
                queue.append(pred)
    dead = {s for s in space.states if s not in alive}
    if space.env.kind == "Maze":
        culs = _cul_de_sac_cells(space.env)
        dead |= {s for s in space.states if s.agent in culs}
    for s in sorted(dead, key=lambda s: space.node_of[s]):
        if not sessions.is_inhibited(space.node_of[s]):
            sessions.inhibit(space.node_of[s])
            if trace is not None:
                trace.emit("inhibit", _state_label(s), sessions.depth)
    return dead


def _inhibited_sequences(space: StateSpace, sessions: SessionStack) -> set[tuple[int, ...]]:
    out = set()
    for n in sessions.inhibited_nodes():
        node = space.graph.nodes.get(n)
        if node is None or node.kind is not NodeKind.SOLUTION:
            continue
        entries = sorted(space.graph.children_of(n), key=lambda e: e[1][0])
        out.add(tuple(child for child, _ in entries))
    return out


def _register_solution(space: StateSpace, path: list[State]) -> int:
    children = [(space.node_of[s], (i, 0)) for i, s in enumerate(path)]
    concept = space.graph.create_composite(children, kind=NodeKind.SOLUTION)
    node = space.graph.nodes[concept]
    if not node.label:
        node.label = f"solution:{concept}"
    return concept


def _shortest_path(
    space: StateSpace,
    source: State,
    blocked: Callable[[State], bool],
    cut: set[tuple[State, State]],
) -> Optional[list[State]]:
    """BFS with parent pointers from `source` to the goal state.

    Never enters a `blocked` state or takes a `cut` transition.
    """
    goal = space.goal_state
    parent: dict[State, Optional[State]] = {source: None}
    queue = deque([source])
    while queue:
        cur = queue.popleft()
        if cur == goal:
            path = []
            while cur is not None:
                path.append(cur)
                cur = parent[cur]
            return path[::-1]
        for nxt in space.successors(cur):
            if nxt not in parent and (cur, nxt) not in cut and not blocked(nxt):
                parent[nxt] = cur
                queue.append(nxt)
    return None


def _loopless_paths(
    space: StateSpace, blocked: Callable[[State], bool]
) -> Iterator[list[State]]:
    """Yen's algorithm: loopless start-to-goal paths avoiding `blocked` states.

    Paths come in nondecreasing length, equal lengths ordered by their
    node-id sequence. Each path after the first is the shortest candidate
    that leaves an earlier path at some state (the spur) by a transition
    no earlier path with the same prefix took, and never revisits the
    prefix.
    """
    start = space.env.start_state
    first = None if blocked(start) else _shortest_path(space, start, blocked, set())
    if first is None:
        return

    def ids(path: list[State]) -> tuple[int, ...]:
        return tuple(space.node_of[s] for s in path)

    candidates = [(len(first), ids(first), first)]
    seen = {candidates[0][1]}
    # the yielded paths as a prefix tree below the start state: the keys of
    # the subtree under a prefix are the states those paths go to next
    tree: dict[State, dict] = {}
    while candidates:
        path = heapq.heappop(candidates)[2]
        yield path
        subtree = tree
        for i in range(len(path) - 1):
            subtree.setdefault(path[i + 1], {})
            cut = {(path[i], nxt) for nxt in subtree}
            subtree = subtree[path[i + 1]]
            prefix = set(path[:i])
            spur = _shortest_path(space, path[i], lambda s: s in prefix or blocked(s), cut)
            if spur is None:
                continue
            candidate = path[:i] + spur
            key = ids(candidate)
            if key not in seen:
                seen.add(key)
                heapq.heappush(candidates, (len(candidate), key, candidate))


def _solutions(
    space: StateSpace,
    sessions: SessionStack,
    trace: TraceRecorder | None,
    forbidden: Container[tuple[int, int]] = (),
) -> Iterator[Solution]:
    """Yield each path that avoids inhibited states and `forbidden` cells
    and is not an inhibited solution."""
    rejected = _inhibited_sequences(space, sessions)
    inhibited = {
        space.state_of[n] for n in sessions.inhibited_nodes() if n in space.state_of
    }
    for path in _loopless_paths(space, lambda s: s in inhibited or s.agent in forbidden):
        if tuple(space.node_of[s] for s in path) in rejected:
            continue
        concept = _register_solution(space, path)
        if trace is not None:
            trace.emit("create_node", f"solution:{concept}", sessions.depth)
            trace.emit("solution", ".".join(moves_of(path)), sessions.depth)
        yield Solution(tuple(path), concept)


def _first_solution(
    space: StateSpace,
    sessions: SessionStack | None,
    trace: TraceRecorder | None,
    forbidden: Container[tuple[int, int]] = (),
):
    if sessions is None:
        sessions = SessionStack(space.graph)
    result = next(_solutions(space, sessions, trace, forbidden), None)
    if result is None:
        if trace is not None:
            trace.emit("no_solution", "unreachable", sessions.depth)
        return NoSolution()
    return result


def solve(
    space: StateSpace,
    sessions: SessionStack | None = None,
    trace: TraceRecorder | None = None,
):
    """Shortest solution that is not inhibited; returns Solution or NoSolution.

    The search steps only into the states it reaches, and unless a found
    path is an inhibited solution, only the returned path's states get
    nodes. It needs no deadlock pruning: a state that cannot reach the
    goal never lies on a shortest path, so the breadth-first parent
    pointers pick the path they would pick with the deadlock states
    inhibited.
    """
    return _first_solution(space, sessions, trace)


def enumerate_solutions(
    space: StateSpace,
    max_solutions: int | None = None,
    trace: TraceRecorder | None = None,
) -> list[Solution]:
    """Every loopless solution (at most `max_solutions`), shortest first.

    Deadlock states are inhibited first, which builds the whole space and
    spares Yen's spur searches from entering them.
    """
    sessions = SessionStack(space.graph)
    prune_deadlocks(space, sessions, trace)
    return list(islice(_solutions(space, sessions, trace), max_solutions))


def solve_with_constraints(
    space: StateSpace,
    forbidden: set[tuple[int, int]],
    trace: TraceRecorder | None = None,
):
    """Shortest solution whose agent never stands on a `forbidden` cell."""
    return _first_solution(space, None, trace, forbidden)
