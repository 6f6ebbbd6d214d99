"""Grounded problem solving on corridor mazes and single-box push puzzles.

The state space is implicit: a search steps from the states it reaches
and nothing else, and a state gets a concept node only when a path or an
inhibition names it. Inside a `StateSpace` a state is one int: the agent's
cell index `y * width + x` in a maze, `agent * (width * height) + box` in
a push puzzle. A push-puzzle space keeps a table from a free cell to the
cell one move away in each direction (or -1), filled one cell at a time
the first time a search reaches the cell; a maze state is its own cell.
Each state a search steps from keeps its successors as a list of ints.
The searches, the memo, the state budget, deadlock pruning and the
full build all run on these ints; `State` tuples are decoded only for the
public boundary (`states`, `transitions`, `node_of`, `state_of` and
`Solution.path`). The full build, and each path
a search returns, names its unnamed states in one batch of childless
graph atoms; labels and `State` tuples come from a per-cell table filled
the first time a cell is looked up. The search is a breadth-first search
with parent pointers that skips blocked states: those inhibited in the
caller's sessions and, under constraints, those on a forbidden cell. Yen's
algorithm (1971) runs it again from each branching point of the paths
found so far, which yields every loopless start-to-goal path in
nondecreasing length. Before any state search, a push puzzle has no
solution when its box starts on a dead square (one from which no push
sequence reaches the target, whatever the agent's position) or when walls
alone keep the agent from its goal; this takes O(cells), so an unsolvable
large room answers without meeting the state budget. Enumeration first
inhibits deadlock states (states from which no goal state is reachable,
plus iterated cul-de-sac cells in mazes), which needs the whole space and
reads only its successor lists; a single solve does not, because no
deadlock state lies on a shortest path. Solutions are registered as
high-level concepts; a path whose solution concept is inhibited is
skipped, so inhibiting a found solution makes the next run return an
alternative.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Container, Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import NamedTuple, Optional

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


class _Cells(dict):
    """Cell index -> ((x, y), "x,y"), made on the cell's first lookup, so a
    short path in a large grid pays only for the cells it visits."""

    def __init__(self, width: int):
        super().__init__()
        self.width = width

    def __missing__(self, cell: int) -> tuple[tuple[int, int], str]:
        y, x = divmod(cell, self.width)
        entry = self[cell] = ((x, y), f"{x},{y}")
        return entry


class _Names:
    """One environment's state codes, and the concept nodes of coded states.

    A maze state is the agent's cell index `y * width + x`; a push-puzzle
    state is `agent * (width * height) + box`. `node` maps a state to its
    concept node and `code` maps the node back. States are decoded and
    labelled through one per-cell table of coordinates and `"x,y"` labels,
    and `name_all` names states in one batch of childless graph atoms.
    This holds no reference to the `StateSpace`, so `node_of` and
    `state_of` close no reference cycle and a space is freed as soon as the
    last reference to it goes.
    """

    def __init__(self, env: Environment, graph: ConceptGraph):
        self.env = env
        self.graph = graph
        # a state's agent cell is `state // per_agent`, its box cell the rest
        self.per_agent = env.width * env.height if env.box is not None else 1
        self.cells = _Cells(env.width)
        self.node: dict[int, int] = {}
        self.code: dict[int, int] = {}

    def cell(self, pos: tuple[int, int]) -> int:
        """Index of the cell at `pos`, or -1 off the grid."""
        x, y = pos
        width = self.env.width
        return y * width + x if 0 <= x < width and 0 <= y < self.env.height else -1

    def encode(self, state: State) -> int:
        if (state.box is None) != (self.env.box is None):
            raise KeyError(state)
        agent = self.cell(state.agent)
        box = 0 if state.box is None else self.cell(state.box)
        if agent < 0 or box < 0:
            raise KeyError(state)
        return agent * self.per_agent + box

    def decode_all(self, codes: Iterable[int]) -> list[State]:
        cells = self.cells
        if self.env.box is None:
            return [State(cells[c][0]) for c in codes]
        per_agent = self.per_agent
        return [State(cells[c // per_agent][0], cells[c % per_agent][0]) for c in codes]

    def decode(self, code: int) -> State:
        return self.decode_all((code,))[0]

    def labels(self, codes: Iterable[int]) -> list[str]:
        cells = self.cells
        if self.env.box is None:
            return ["state:" + cells[c][1] for c in codes]
        per_agent = self.per_agent
        return [f"state:{cells[c // per_agent][1]}:{cells[c % per_agent][1]}" for c in codes]

    def name_all(self, codes: Iterable[int]) -> None:
        """Give each unnamed state among `codes` (distinct) a concept node,
        in the order given, in one batch."""
        node = self.node
        new = [c for c in codes if c not in node]
        if new:
            ids = self.graph.create_atoms(NodeKind.STATE, self.labels(new))
            node.update(zip(new, ids))
            self.code.update(zip(ids, new))

    def name(self, code: int) -> int:
        """The concept node of a state, created on first use."""
        node = self.node.get(code)
        if node is None:
            self.name_all((code,))
            node = self.node[code]
        return node


class _NodeOf(Mapping):
    """State -> concept node; a state's node is created on its first lookup."""

    def __init__(self, names: _Names):
        self._names = names

    def __getitem__(self, state: State) -> int:
        return self._names.name(self._names.encode(state))

    def __contains__(self, state) -> bool:
        try:
            return self._names.encode(state) in self._names.node
        except KeyError:
            return False

    def __iter__(self) -> Iterator[State]:
        return iter(self._names.decode_all(self._names.node))

    def __len__(self) -> int:
        return len(self._names.node)


class _StateOf(Mapping):
    """Concept node -> state, over the states that have a node."""

    def __init__(self, names: _Names):
        self._names = names

    def __getitem__(self, node: int) -> State:
        return self._names.decode(self._names.code[node])

    def __iter__(self) -> Iterator[int]:
        return iter(self._names.code)

    def __len__(self) -> int:
        return len(self._names.code)


class StateSpace:
    """The states reachable in an environment, stepped into on demand.

    Inside the space a state is one int, coded by `_names` (see `_Names`).
    `_succ` maps each state a search has stepped from to the states one
    move away, in `DIRECTIONS` order; `MAX_STATES` bounds its size. A push
    puzzle's `_moves` is the cell table: for each free cell, the cell one
    move away in each of the `DIRECTIONS`, or -1 where a wall or the border
    blocks. A cell's row is filled the first time a search reaches the
    cell, so a short search in a large room pays only for the cells it
    touches, and every state with the agent on that cell reuses it. A maze
    state is its agent's cell and is stepped from once, so its successor
    list is its cell's row and a maze keeps no table.

    `State` tuples appear only at the boundary. `node_of` gives a state its
    concept node the first time it is looked up, and `state_of` maps the
    node back. `states`, `transitions` and `view()` build the whole
    reachable space once, on first use, and name
    every state not yet named in one batch, in breadth-first order. The
    full build keeps only that order, `_order`, and the successor lists in
    `_succ`; the views and `prune_deadlocks` derive all else from these.
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
        self._names = names = _Names(env, self.graph)
        self._moves: list[Optional[tuple[int, int, int, int]]] = (
            [None] * names.per_agent if env.box is not None else []
        )
        self._succ: dict[int, list[int]] = {}
        # whether a push puzzle is unsolvable, once `_cut_off` asks
        self._dead: Optional[bool] = None if env.box is not None else False
        self._start = names.encode(env.start_state)
        self._goal = names.encode(env.goal_state)
        self.node_of: Mapping[State, int] = _NodeOf(names)
        self.state_of: Mapping[int, State] = _StateOf(names)

    def _row(self, cell: int) -> tuple[int, int, int, int]:
        """The cells one move from a free cell, in `DIRECTIONS` order (N, E,
        S, W), with -1 where a wall or the border blocks the move."""
        env = self.env
        width, walls = env.width, env.walls
        y, x = divmod(cell, width)
        return (
            cell - width if y > 0 and (x, y - 1) not in walls else -1,
            cell + 1 if x + 1 < width and (x + 1, y) not in walls else -1,
            cell + width if y + 1 < env.height and (x, y + 1) not in walls else -1,
            cell - 1 if x > 0 and (x - 1, y) not in walls else -1,
        )

    def _expand(self, state: int) -> list[int]:
        """Step from a state not yet in `_succ` and remember its successors."""
        if len(self._succ) >= MAX_STATES:
            raise InvalidEnvError(f"the search space exceeds {MAX_STATES} states")
        if self.env.box is None:  # a maze state is its cell, stepped from once
            succs = [cell for cell in self._row(state) if cell >= 0]
        else:
            per_agent, table = self._names.per_agent, self._moves
            agent, box = divmod(state, per_agent)
            moves = table[agent]
            if moves is None:
                moves = table[agent] = self._row(agent)
            if box in moves:  # the agent stands beside the box
                beyond = table[box]
                if beyond is None:
                    beyond = table[box] = self._row(box)
                succs = [
                    cell * per_agent + (pushed if cell == box else box)
                    for cell, pushed in zip(moves, beyond)
                    if cell >= 0 and (cell != box or pushed >= 0)
                ]
            else:
                succs = [cell * per_agent + box for cell in moves if cell >= 0]
        self._succ[state] = succs
        return succs

    def _cut_off(self) -> bool:
        """Whether a push puzzle is unsolvable before any state search: its
        box starts on a dead square, a cell from which no push sequence
        brings it to its target even with the agent free to stand anywhere
        (Junghanns & Schaeffer, 2001), or its agent cannot reach `G` over
        free cells even with the box out of the way. The box moves to a free
        neighbour when the cell on its other side is free for the agent to
        push from; the agent moves to any free neighbour. A breadth-first
        search over these moves stops at the destination: O(cells) at most,
        and only the nearby cells when the destination is a few moves away.
        Computed on the first call, and not as a `cached_property`: writing
        the instance `__dict__` slows every attribute lookup of the state
        search that follows."""
        if self._dead is None:
            env, table, cell_of = self.env, self._moves, self._names.cell
            self._dead = False
            for mover, dest, pushed in (
                (env.box, env.box_target, True),
                (env.start, env.goal, False),
            ):
                dest = cell_of(dest)
                queue = [cell_of(mover)]
                seen = set(queue)
                for cell in queue:  # the list is the queue
                    if cell == dest:
                        break
                    moves = table[cell]
                    if moves is None:
                        moves = table[cell] = self._row(cell)
                    for i, nxt in enumerate(moves):
                        # a push needs the cell opposite `nxt` free
                        if nxt >= 0 and nxt not in seen and (not pushed or moves[i - 2] >= 0):
                            seen.add(nxt)
                            queue.append(nxt)
                else:
                    self._dead = True
                    break
        return self._dead

    @cached_property
    def _order(self) -> list[int]:
        """Every reachable state in breadth-first order, each one named."""
        order = [self._start]
        seen = {self._start}
        memo, expand = self._succ, self._expand
        for cur in order:  # the list is the queue
            succs = memo.get(cur)
            if succs is None:
                succs = expand(cur)
            for nxt in succs:
                if nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
        self._names.name_all(order)
        return order

    @cached_property
    def states(self) -> list[State]:
        return self._names.decode_all(self._order)

    @cached_property
    def transitions(self) -> dict[State, list[State]]:
        state = dict(zip(self._order, self.states))
        return {state[s]: [state[t] for t in self._succ[s]] for s in self._order}

    def view(self) -> StateGraphView:
        node = self._names.node
        transitions = {
            node[s]: [node[t] for t in self._succ[s]] for s in self._order
        }
        # the full build leaves exactly the reachable states in `_succ`
        return StateGraphView(
            states=set(transitions),
            transitions=transitions,
            targets={node[self._goal]} if self._goal in self._succ else set(),
        )


def prune_deadlocks(
    space: StateSpace,
    sessions: SessionStack,
    trace: TraceRecorder | None = None,
) -> set[State]:
    """Inhibit states that cannot take part in any solution.

    Covers states from which the goal state is unreachable (the rule-C
    fixpoint closed over cycles, which inhibits e.g. every state with the
    box in a non-target corner) and, for mazes, iterated cul-de-sac cells.
    Both are found on the full build's successor lists: the first by a
    breadth-first search from the goal over the reversed lists, the second
    by filling dead ends on the lists of the reachable states.
    """
    order, succ = space._order, space._succ
    preds: dict[int, list[int]] = {s: [] for s in order}
    for s in order:
        for t in succ[s]:
            preds[t].append(s)
    # the full build leaves exactly the reachable states in `succ`
    queue = [space._goal] if space._goal in succ else []
    alive = set(queue)
    for s in queue:  # the list is the queue
        for pred in preds[s]:
            if pred not in alive:
                alive.add(pred)
                queue.append(pred)
    if space.env.box is None:
        # A maze state is its agent's cell and every move can be undone, so a
        # state's successors are its free neighbours. Filling dead ends has
        # one result in any order, so filling only the reachable cells finds
        # the reachable ones among the dead ends of the whole grid.
        spared = (space._start, space._goal)
        degree = {s: len(succ[s]) for s in order}
        filled = [s for s, d in degree.items() if d <= 1 and s not in spared]
        for s in filled:  # the list is the queue
            del degree[s]
            for n in succ[s]:
                if n in degree:
                    degree[n] -= 1
                    if degree[n] == 1 and n not in spared:
                        filled.append(n)
        alive.difference_update(filled)
    dead = [s for s in order if s not in alive]
    node = space._names.node
    for s in sorted(dead, key=node.__getitem__):
        if not sessions.is_inhibited(node[s]):
            sessions.inhibit(node[s])
            if trace is not None:
                trace.emit("inhibit", space.graph.nodes[node[s]].label, sessions.depth)
    return set(space._names.decode_all(dead))


def _inhibited_sequences(space: StateSpace, sessions: SessionStack) -> set[tuple[int, ...]]:
    out = set()
    for n in sessions.inhibited_nodes():
        node = space.graph.nodes.get(n)
        if node is None or node.kind is not NodeKind.SOLUTION:
            continue
        entries = sorted(space.graph.children_of(n), key=lambda e: e[1][0])
        out.add(tuple(child for child, _ in entries))
    return out


def _register_solution(space: StateSpace, nodes: tuple[int, ...]) -> int:
    children = [(node, (i, 0)) for i, node in enumerate(nodes)]
    concept = space.graph.create_composite(children, kind=NodeKind.SOLUTION)
    node = space.graph.nodes[concept]
    if not node.label:
        node.label = f"solution:{concept}"
    return concept


def _shortest_path(
    space: StateSpace,
    source: int,
    blocked: Callable[[int], bool],
    avoid: Iterable[int] = (),
    cut: Container[int] = (),
) -> Optional[list[int]]:
    """BFS with parent pointers from `source` to the goal state.

    Never enters a `blocked` state or a state in `avoid`, and does not step
    from `source` into a state in `cut`.
    """
    goal = space._goal
    memo, expand = space._succ, space._expand
    parent = dict.fromkeys(avoid, -1)
    parent[source] = -1
    queue = [source]
    for cur in queue:  # the list is the queue
        if cur == goal:
            path = [cur]
            while (cur := parent[cur]) >= 0:
                path.append(cur)
            return path[::-1]
        succs = memo.get(cur)
        if succs is None:
            succs = expand(cur)
        if cur == source:
            succs = [nxt for nxt in succs if nxt not in cut]
        for nxt in succs:
            if nxt not in parent and not blocked(nxt):
                parent[nxt] = cur
                queue.append(nxt)
    return None


def _loopless_paths(
    space: StateSpace, blocked: Callable[[int], bool]
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Yen's algorithm: loopless start-to-goal paths avoiding `blocked` states.

    Yields each path with its node-id sequence. Paths come in
    nondecreasing length, equal lengths ordered by their node-id sequence.
    Each path after the first is the shortest candidate that leaves an
    earlier path at some state (the spur) by a transition no earlier path
    with the same prefix took, and never revisits the prefix.
    """
    start = space._start
    first = None if blocked(start) else _shortest_path(space, start, blocked)
    if first is None:
        return
    names = space._names
    names.name_all(first)
    key = tuple(map(names.node.__getitem__, first))
    candidates = [(len(first), key, first)]
    seen = {key}
    # the yielded paths as a prefix tree below the start state: the keys of
    # the subtree under a prefix are the states those paths go to next
    tree: dict[int, dict] = {}
    while candidates:
        _, key, path = heapq.heappop(candidates)
        yield key, path
        subtree = tree
        for i in range(len(path) - 1):
            subtree.setdefault(path[i + 1], {})
            taken, subtree = subtree, subtree[path[i + 1]]
            spur = _shortest_path(space, path[i], blocked, path[:i], taken)
            if spur is None:
                continue
            candidate = path[:i] + spur
            names.name_all(candidate)
            key = tuple(map(names.node.__getitem__, candidate))
            if key not in seen:
                seen.add(key)
                heapq.heappush(candidates, (len(candidate), key, candidate))


def _solutions(
    space: StateSpace,
    sessions: SessionStack,
    trace: TraceRecorder | None,
    forbidden: Iterable[tuple[int, int]] = (),
) -> Iterator[Solution]:
    """Yield each path that avoids inhibited states and `forbidden` cells
    and is not an inhibited solution."""
    rejected = _inhibited_sequences(space, sessions)
    names = space._names
    inhibited = {names.code[n] for n in sessions.inhibited_nodes() if n in names.code}
    cells = {names.cell(cell) for cell in forbidden} - {-1}
    blocked = inhibited.__contains__
    if cells:
        per_agent = names.per_agent
        blocked = lambda s: s in inhibited or s // per_agent in cells
    for key, path in _loopless_paths(space, blocked):
        if key in rejected:
            continue
        concept = _register_solution(space, key)
        states = names.decode_all(path)
        if trace is not None:
            trace.emit("create_node", f"solution:{concept}", sessions.depth)
            trace.emit("solution", ".".join(moves_of(states)), sessions.depth)
        yield Solution(tuple(states), concept)


def _first_solution(
    space: StateSpace,
    sessions: SessionStack | None,
    trace: TraceRecorder | None,
    forbidden: Iterable[tuple[int, int]] = (),
):
    if sessions is None:
        sessions = SessionStack(space.graph)
    result = None
    if not space._cut_off():
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
    inhibited. A push puzzle found unsolvable before any search (see
    `StateSpace._cut_off`) gives `NoSolution` without a search.
    """
    return _first_solution(space, sessions, trace)


def enumerate_solutions(
    space: StateSpace,
    max_solutions: int | None = None,
    trace: TraceRecorder | None = None,
) -> list[Solution]:
    """Every loopless solution (at most `max_solutions`), shortest first.

    Deadlock states are inhibited first, which builds the whole space and
    spares Yen's spur searches from entering them. A push puzzle found
    unsolvable before any search gives no solution before any of that.
    """
    if space._cut_off():
        return []
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
