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
plus iterated cul-de-sac cells in mazes) in the caller's sessions, which
needs the whole space and reads only its successor lists; a single solve
does not, because no deadlock state lies on a shortest path. Solutions are
registered as high-level concepts; each path found is looked up as its
solution concept, and a path whose concept is inhibited is skipped, so
inhibiting a found solution makes the next `solve` or `enumerate_solutions`
on the same sessions return an alternative. What a run inhibits and the
solutions it returns are its whole record; the CLI writes its run log
from them.
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
        return cls(
            width,
            len(lines),
            frozenset(walls),
            marks["S"][0],
            marks["G"][0],
            box,
            target,
        )


@dataclass(frozen=True)
class Solution:
    path: tuple[State, ...]
    concept: int

    @property
    def moves(self) -> list[str]:
        out = []
        for a, b in zip(self.path, self.path[1:]):
            delta = (b.agent[0] - a.agent[0], b.agent[1] - a.agent[1])
            out.append(next(name for name, d in DIRECTIONS if d == delta))
        return out


@dataclass(frozen=True)
class NoSolution:
    pass


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


class _NodeOf(Mapping):
    """State -> concept node; a state's node is created on its first lookup."""

    def __init__(self, space: StateSpace):
        self._space = space

    def __getitem__(self, state: State) -> int:
        space = self._space
        code = space._encode(state)
        if code not in space._node:
            space._name_all((code,))
        return space._node[code]

    def __contains__(self, state) -> bool:
        try:
            return self._space._encode(state) in self._space._node
        except KeyError:
            return False

    def __iter__(self) -> Iterator[State]:
        return iter(self._space._decode_all(self._space._node))

    def __len__(self) -> int:
        return len(self._space._node)


class _StateOf(Mapping):
    """Concept node -> state, over the states that have a node."""

    def __init__(self, space: StateSpace):
        self._space = space

    def __getitem__(self, node: int) -> State:
        return self._space._decode_all((self._space._code[node],))[0]

    def __iter__(self) -> Iterator[int]:
        return iter(self._space._code)

    def __len__(self) -> int:
        return len(self._space._code)


class StateSpace:
    """The states reachable in an environment, stepped into on demand.

    The space makes its own concept graph, `graph`, which holds its state
    nodes and the solution concepts registered on it, so no two spaces
    name one state label in the same graph.

    Inside the space a state is one int (see the module docstring).
    `_encode` and `_decode_all` convert between these ints and `State`
    tuples through `_cells`, one per-cell table of coordinates and `"x,y"`
    labels. `_node` maps a state to its concept node and `_code` maps the
    node back; `_name_all` names states in one batch of childless graph
    atoms. `_succ` maps each state a search has stepped from to the states
    one move away, in `DIRECTIONS` order; `MAX_STATES` bounds its size. A
    push puzzle's `_moves` is the cell table: for each free cell, the cell
    one move away in each of the `DIRECTIONS`, or -1 where a wall or the
    border blocks. A cell's row is filled the first time a search reaches the
    cell, so a short search in a large room pays only for the cells it
    touches, and every state with the agent on that cell reuses it. A maze
    state is its agent's cell and is stepped from once, so its successor
    list is its cell's row and a maze keeps no table.

    `State` tuples appear only at the boundary. `node_of` gives a state its
    concept node the first time it is looked up, and `state_of` maps the
    node back. Each access makes a fresh read-only view over `_node` or
    `_code`; the space stores no view, so it closes no reference cycle and
    is freed as soon as the last reference to it goes. `states`,
    `transitions` and `view()` build the whole reachable space once, on
    first use, and name every state not yet named in one batch, in
    breadth-first order. The full build keeps only that order, `_order`,
    and the successor lists in `_succ`; the views and `prune_deadlocks`
    derive all else from these.
    """

    def __init__(self, env: Environment):
        if not env.is_free(env.start) or not env.is_free(env.goal):
            raise InvalidEnvError("start or goal on a wall")
        if env.box is not None and (
            not env.is_free(env.box) or not env.is_free(env.box_target)
        ):
            raise InvalidEnvError("box or box target on a wall")
        self.env = env
        self.graph = ConceptGraph()
        # a state's agent cell is `state // _per_agent`, its box cell the rest
        self._per_agent = env.width * env.height if env.box is not None else 1
        self._cells = _Cells(env.width)
        self._node: dict[int, int] = {}  # state -> its concept node
        self._code: dict[int, int] = {}  # concept node -> its state
        self._moves: list[Optional[tuple[int, int, int, int]]] = (
            [None] * self._per_agent if env.box is not None else []
        )
        self._succ: dict[int, list[int]] = {}
        self._start = self._encode(env.start_state)
        self._goal = self._encode(env.goal_state)

    @property
    def node_of(self) -> Mapping[State, int]:
        return _NodeOf(self)

    @property
    def state_of(self) -> Mapping[int, State]:
        return _StateOf(self)

    def _cell(self, pos: tuple[int, int]) -> int:
        """Index of the cell at `pos`, or -1 off the grid."""
        x, y = pos
        width = self.env.width
        return y * width + x if 0 <= x < width and 0 <= y < self.env.height else -1

    def _encode(self, state: State) -> int:
        if (state.box is None) != (self.env.box is None):
            raise KeyError(state)
        agent = self._cell(state.agent)
        box = 0 if state.box is None else self._cell(state.box)
        if agent < 0 or box < 0:
            raise KeyError(state)
        return agent * self._per_agent + box

    def _decode_all(self, codes: Iterable[int]) -> list[State]:
        cells = self._cells
        if self.env.box is None:
            return [State(cells[c][0]) for c in codes]
        per_agent = self._per_agent
        return [State(cells[c // per_agent][0], cells[c % per_agent][0]) for c in codes]

    def _name_all(self, codes: Iterable[int]) -> None:
        """Give each unnamed state among `codes` (distinct) a concept node
        labelled `state:x,y` (`state:x,y:bx,by` with a box), in the order
        given, in one batch."""
        node, cells = self._node, self._cells
        new = [c for c in codes if c not in node]
        if new:
            if self.env.box is None:
                labels = ["state:" + cells[c][1] for c in new]
            else:
                per_agent = self._per_agent
                labels = [f"state:{cells[c // per_agent][1]}:{cells[c % per_agent][1]}" for c in new]
            ids = self.graph.create_atoms(NodeKind.STATE, labels)
            node.update(zip(new, ids))
            self._code.update(zip(ids, new))

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
            per_agent, table = self._per_agent, self._moves
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
        A maze is never cut off."""
        env, table, cell_of = self.env, self._moves, self._cell
        if env.box is None:
            return False
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
                return True
        return False

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
        self._name_all(order)
        return order

    @cached_property
    def states(self) -> list[State]:
        return self._decode_all(self._order)

    @cached_property
    def transitions(self) -> dict[State, list[State]]:
        state = dict(zip(self._order, self.states))
        return {state[s]: [state[t] for t in self._succ[s]] for s in self._order}

    def view(self) -> StateGraphView:
        node = self._node
        transitions = {
            node[s]: [node[t] for t in self._succ[s]] for s in self._order
        }
        # the full build leaves exactly the reachable states in `_succ`
        return StateGraphView(
            states=set(transitions),
            transitions=transitions,
            targets={node[self._goal]} if self._goal in self._succ else set(),
        )


def prune_deadlocks(space: StateSpace, sessions: SessionStack) -> set[State]:
    """Inhibit states that cannot take part in any solution.

    Covers states from which the goal state is unreachable (the rule-C
    fixpoint closed over cycles, which inhibits e.g. every state with the
    box in a non-target corner) and, for mazes, iterated cul-de-sac cells.
    Both are found on the full build's successor lists. In a push puzzle
    the first is a breadth-first search from the goal over the reversed
    lists. In a maze every move can be undone, so either every reachable
    state reaches the goal or none does, and no reversed lists are built;
    the cul-de-sac cells are found by filling dead ends on the lists of the
    reachable states.

    If a dead state is Active in `sessions`, raises `ConflictError` before
    inhibiting any, so `sessions` is left unchanged.
    """
    order, succ = space._order, space._succ
    # the full build leaves exactly the reachable states in `succ`
    queue = [space._goal] if space._goal in succ else []
    if space.env.box is None:
        # A maze state is its agent's cell, so a state's successors are its
        # free neighbours. Filling dead ends has one result in any order, so
        # filling only the reachable cells finds the reachable ones among
        # the dead ends of the whole grid.
        alive = set(order) if queue else set()
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
    else:
        preds: dict[int, list[int]] = {s: [] for s in order}
        for s in order:
            for t in succ[s]:
                preds[t].append(s)
        alive = set(queue)
        for s in queue:  # the list is the queue
            for pred in preds[s]:
                if pred not in alive:
                    alive.add(pred)
                    queue.append(pred)
    dead = [s for s in order if s not in alive]
    node = space._node
    sessions.inhibit(*(node[s] for s in dead))
    return set(space._decode_all(dead))


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
    name_all, node = space._name_all, space._node
    name_all(first)
    key = tuple(map(node.__getitem__, first))
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
            name_all(candidate)
            key = tuple(map(node.__getitem__, candidate))
            if key not in seen:
                seen.add(key)
                heapq.heappush(candidates, (len(candidate), key, candidate))


def _solutions(
    space: StateSpace,
    sessions: SessionStack,
    forbidden: Iterable[tuple[int, int]] = (),
) -> Iterator[Solution]:
    """Yield each path that avoids inhibited states and `forbidden` cells
    and is not an inhibited solution: every path's solution concept is
    registered (or found, if it exists), and the path is skipped when that
    concept is inhibited."""
    code = space._code
    inhibited = {code[n] for n in sessions.inhibited_nodes() if n in code}
    cells = {space._cell(cell) for cell in forbidden} - {-1}
    blocked = inhibited.__contains__
    if cells:
        per_agent = space._per_agent
        blocked = lambda s: s in inhibited or s // per_agent in cells
    for key, path in _loopless_paths(space, blocked):
        concept = _register_solution(space, key)
        if not sessions.is_inhibited(concept):
            yield Solution(tuple(space._decode_all(path)), concept)


def _first_solution(
    space: StateSpace,
    sessions: SessionStack | None,
    forbidden: Iterable[tuple[int, int]] = (),
):
    if space._cut_off():
        return NoSolution()
    if sessions is None:
        sessions = SessionStack(space.graph)
    return next(_solutions(space, sessions, forbidden), NoSolution())


def solve(space: StateSpace, sessions: SessionStack | None = None):
    """Shortest solution that is not inhibited; returns Solution or NoSolution.

    The search steps only into the states it reaches, and unless a found
    path is an inhibited solution, only the returned path's states get
    nodes. It needs no deadlock pruning: a state that cannot reach the
    goal never lies on a shortest path, so the breadth-first parent
    pointers pick the path they would pick with the deadlock states
    inhibited. A push puzzle found unsolvable before any search (see
    `StateSpace._cut_off`) gives `NoSolution` without a search.
    """
    return _first_solution(space, sessions)


def enumerate_solutions(
    space: StateSpace,
    max_solutions: int | None = None,
    sessions: SessionStack | None = None,
) -> list[Solution]:
    """Every loopless solution (at most `max_solutions`), shortest first.

    Deadlock states are inhibited first, in `sessions` (a fresh stack if
    none is given), in its open layer; that builds the whole space and
    spares Yen's spur searches from entering them. The paths skip states
    and solution concepts already inhibited in `sessions`, so inhibiting a
    found solution makes the next call return an alternative. A push
    puzzle found unsolvable before any search gives no solution before any
    of that, and inhibits nothing.
    """
    if space._cut_off():
        return []
    if sessions is None:
        sessions = SessionStack(space.graph)
    prune_deadlocks(space, sessions)
    return list(islice(_solutions(space, sessions), max_solutions))


def solve_with_constraints(space: StateSpace, forbidden: set[tuple[int, int]]):
    """Shortest solution whose agent never stands on a `forbidden` cell."""
    return _first_solution(space, None, forbidden)
