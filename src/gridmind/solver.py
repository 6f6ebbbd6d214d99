"""Grounded problem solving on corridor mazes and single-box push puzzles.

The state space is implicit: a search steps from the states it reaches
and nothing else. Inside a `StateSpace` a state is one int: the agent's
cell index `y * width + x` in a maze, `agent * (width * height) + box` in a
push puzzle. Each state a search steps from keeps its successors as a
list of ints, and `State` tuples are decoded only at the public boundary
(`states`, `transitions`, `node_of`, `state_of` and `Solution.path`).
Naming, registering and decoding a batch of states makes no Python call
per state (see `StateSpace`). A state gets a concept node only from the
full build or from a path registered as a solution; `node_of` raises
`KeyError` for a state with none, so read `states` or `view()` first to
name them all.

One breadth-first search with parent pointers, `_search`, does all the
searching. It has five users:

- the first route from the start to the goal, which skips blocked states:
  those inhibited in the caller's sessions and, under constraints, those
  on a forbidden cell. `blocked` is a container the search tests with
  `in`: the inhibited set itself, `()` when nothing is blocked, or a
  `_Blocked` under constraints;
- the spur searches of Yen's algorithm (1971), which yields every loopless
  start-to-goal path in nondecreasing length, equal lengths in the order
  of their states' breadth-first ranks, so the order depends only on the
  environment and the blocked states; together they may reach
  `MAX_SPUR_STATES` states;
- the full build, `StateSpace._order`, a search from the start with no goal;
- deadlock pruning in a push puzzle, a search from the goal over the
  reversed successor lists;
- the two cell searches of `StateSpace._cut_off`, which find a push puzzle
  unsolvable in O(cells) before any state search, so an unsolvable large
  room answers without meeting the state budget.

Enumeration first inhibits deadlock states (states from which no goal
state is reachable, plus iterated cul-de-sac cells in mazes) in the
caller's sessions; a single solve does not, because no deadlock state lies
on a shortest path. Each path found is registered as a solution concept,
and a path whose concept is inhibited is skipped, so inhibiting a found
solution makes the next `solve` or `enumerate_solutions` on the same
sessions return an alternative. What a run inhibits and the solutions it
returns are its whole record; the CLI writes its run log from them.
"""

from __future__ import annotations

import heapq
import sys
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
_CELL_CHARS = frozenset(WALL + "SGBT. ")  # every character an environment may hold
_FREE_TABLE = bytes.maketrans(WALL.encode(), b"\0")  # a wall's byte to 0, the rest kept

# Most states a search or a full build may step from. Every maze up to
# MAX_DIM x MAX_DIM fits, and so does every push puzzle up to about a 16 x 16
# open room; beyond that a push space grows as the square of its cells.
MAX_STATES = MAX_DIM * MAX_DIM

# Most states Yen's spur searches may reach in one enumeration, summed over
# the searches. Listing every route of a 5 x 5 open room fits: its 8,512
# routes take spur searches that reach 287,159 states in all. So do the
# first 3 routes of a 64 x 64 open room; a 6 x 6 room has too many routes
# to list and meets the budget in about 2 s.
MAX_SPUR_STATES = 16 * MAX_STATES


class InvalidEnvError(Exception):
    pass


class State(NamedTuple):
    agent: tuple[int, int]
    box: Optional[tuple[int, int]] = None


@dataclass(frozen=True)
class Environment:
    """A grid of `width` x `height` cells. `free` is one byte per cell,
    row-major (cell `(x, y)` at `y * width + x`): 0 on a wall, non-zero on
    a free cell. `box` and `box_target` are both set in a push puzzle and
    both None in a maze."""

    width: int
    height: int
    free: bytes
    start: tuple[int, int]
    goal: tuple[int, int]
    box: Optional[tuple[int, int]] = None
    box_target: Optional[tuple[int, int]] = None

    def is_free(self, pos: tuple[int, int]) -> bool:
        x, y = pos
        return 0 <= x < self.width and 0 <= y < self.height and self.free[y * self.width + x] != 0

    @property
    def start_state(self) -> State:
        return State(self.start, self.box)

    @property
    def goal_state(self) -> State:
        return State(self.goal, self.box_target)

    @classmethod
    def from_text(cls, text: str) -> "Environment":
        lines = text.splitlines()
        while lines and not lines[-1].strip():
            lines.pop()
        if not lines:
            raise InvalidEnvError("empty environment")
        width, height = max(map(len, lines)), len(lines)
        if width > MAX_DIM or height > MAX_DIM:
            raise InvalidEnvError(f"environment larger than {MAX_DIM}x{MAX_DIM}: {width}x{height}")
        # the rows, each padded with walls to the width, in row-major order
        cells = "".join(line.ljust(width, WALL) for line in lines)
        unknown = set(cells) - _CELL_CHARS
        if unknown:
            first = min(map(cells.index, unknown))
            raise InvalidEnvError(f"unknown cell {cells[first]!r} at ({first % width}, {first // width})")
        if cells.count("S") != 1 or cells.count("G") != 1:
            raise InvalidEnvError("environment needs exactly one S and one G")
        boxes = cells.count("B")
        if boxes != cells.count("T") or boxes > 1:
            raise InvalidEnvError("a push puzzle needs exactly one B and one T")

        def place(mark: str) -> tuple[int, int]:
            y, x = divmod(cells.find(mark), width)
            return x, y

        box, target = (place("B"), place("T")) if boxes else (None, None)
        free = cells.encode().translate(_FREE_TABLE)
        return cls(width, height, free, place("S"), place("G"), box, target)


@dataclass(frozen=True)
class Solution:
    path: tuple[State, ...]
    concept: int

    @property
    def moves(self) -> list[str]:
        name = {d: n for n, d in DIRECTIONS}
        return [
            name[(b.agent[0] - a.agent[0], b.agent[1] - a.agent[1])]
            for a, b in zip(self.path, self.path[1:])
        ]


@dataclass(frozen=True)
class NoSolution:
    pass


class _Cells(dict):
    """Cell index -> ((x, y), "x,y") for push states, made on the cell's
    first lookup, so a short path in a large grid pays only for the cells
    it visits."""

    def __init__(self, width: int):
        super().__init__()
        self.width = width

    def __missing__(self, cell: int) -> tuple[tuple[int, int], str]:
        y, x = divmod(cell, self.width)
        entry = self[cell] = ((x, y), f"{x},{y}")
        return entry


class _NodeOf(Mapping):
    """State -> concept node, over the states that have a node. Looking a
    state up never names it: a state with no node raises `KeyError`."""

    def __init__(self, space: StateSpace):
        self._space = space

    def __getitem__(self, state: State) -> int:
        return self._space._node[self._space._encode(state)]

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

    Inside the space a state is one int (see the module docstring);
    `_encode` and `_decode_all` convert to and from `State` tuples. A maze
    state's `(x, y)` and its label `state:x,y` come from arithmetic on its
    code. `_cells` serves push states only: they share their cells' `(x,
    y)` tuples and label parts through it, so a full push build holds one
    tuple per cell, not two per state. `_node` maps a state to its concept
    node and `_code` maps the node back. `_succ` holds the successors, in
    `DIRECTIONS` order, of each state a search has stepped from;
    `MAX_STATES` bounds its size. `_free` is `env.free`, the environment's
    own table, not a copy. A maze state is its agent's cell and is stepped
    from once, so `_expand` reads its free neighbours straight from
    `_free`. A push puzzle's `_moves` holds, for each free cell a search
    has reached, the cell one move away in each direction or -1, so every
    state with the agent on that cell reuses it.

    `node_of` and `state_of` are read-only views made fresh on each
    access; the space stores none, so it closes no reference cycle and is
    freed as soon as the last reference to it goes. `states`, `transitions`
    and `view()` build the whole reachable space once, on first use:
    `_order` lists every reachable state in breadth-first order and names
    those not yet named, in that order, in one batch. On a fresh space a
    state's node id is its index in `_order`.
    """

    def __init__(self, env: Environment):
        if env.width > MAX_DIM or env.height > MAX_DIM:  # as `from_text`
            raise InvalidEnvError(f"environment larger than {MAX_DIM}x{MAX_DIM}: {env.width}x{env.height}")
        if len(env.free) != env.width * env.height:
            raise InvalidEnvError(f"free-cell table of {len(env.free)} bytes for {env.width}x{env.height} cells")
        if (env.box is None) != (env.box_target is None):
            raise InvalidEnvError("a push puzzle needs both a box and a box target")
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
        self._free = env.free  # `_expand` reads it on every step
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
        # `tuple.__new__` skips the named tuple's Python-level `__new__`
        new = tuple.__new__
        if self.env.box is None:
            width = self.env.width
            return [new(State, ((c % width, c // width), None)) for c in codes]
        cells, per_agent = self._cells, self._per_agent
        return [new(State, (cells[c // per_agent][0], cells[c % per_agent][0])) for c in codes]

    def _name_all(self, codes: Iterable[int]) -> None:
        """Give each unnamed state among `codes` (distinct) a concept node
        labelled `state:x,y` (`state:x,y:bx,by` with a box), in the order
        given, in one batch."""
        node = self._node
        new = [c for c in codes if c not in node]
        if new:
            if self.env.box is None:
                width = self.env.width
                labels = [f"state:{c % width},{c // width}" for c in new]
            else:
                cells, per_agent = self._cells, self._per_agent
                labels = [f"state:{cells[c // per_agent][1]}:{cells[c % per_agent][1]}" for c in new]
            ids = self.graph.create_atoms(NodeKind.STATE, labels)
            node.update(zip(new, ids))
            self._code.update(zip(ids, new))

    def _row(self, cell: int) -> tuple[int, int, int, int]:
        """The cells one move from a free cell, in `DIRECTIONS` order (N, E,
        S, W), with -1 where a wall or the border blocks the move. A maze's
        `_expand` makes these four tests inline; change both together."""
        free, width = self._free, self.env.width
        x = cell % width
        return (
            cell - width if cell >= width and free[cell - width] else -1,
            cell + 1 if x + 1 < width and free[cell + 1] else -1,
            cell + width if cell + width < len(free) and free[cell + width] else -1,
            cell - 1 if x and free[cell - 1] else -1,
        )

    def _expand(self, state: int) -> list[int]:
        """Step from a state not yet in `_succ` and remember its successors."""
        if len(self._succ) >= MAX_STATES:
            raise InvalidEnvError(f"the search space exceeds {MAX_STATES} states")
        if self.env.box is None:  # a maze state is its cell, stepped from once
            free, width = self._free, self.env.width
            x = state % width
            succs = []
            if state >= width and free[state - width]:
                succs.append(state - width)
            if x + 1 < width and free[state + 1]:
                succs.append(state + 1)
            if state + width < len(free) and free[state + width]:
                succs.append(state + width)
            if x and free[state - 1]:
                succs.append(state - 1)
        else:
            per_agent, table = self._per_agent, self._moves
            agent, box = divmod(state, per_agent)
            # a row is a 4-tuple, never falsy
            moves = table[agent] or self._moves_of(agent)
            if box in moves:  # the agent stands beside the box
                beyond = table[box] or self._moves_of(box)
                succs = [
                    cell * per_agent + (pushed if cell == box else box)
                    for cell, pushed in zip(moves, beyond)
                    if cell >= 0 and (cell != box or pushed >= 0)
                ]
            else:
                succs = [cell * per_agent + box for cell in moves if cell >= 0]
        self._succ[state] = succs
        return succs

    def _moves_of(self, cell: int) -> tuple[int, int, int, int]:
        """`_moves[cell]`, filled the first time it is read."""
        row = self._moves[cell]
        if row is None:
            row = self._moves[cell] = self._row(cell)
        return row

    def _pushes(self, cell: int) -> list[int]:
        """The cells a box on a free cell can be pushed to, with the agent
        free to stand anywhere. A push needs the cell on the box's other
        side free to push from, so the box moves along an axis both ways or
        not at all."""
        north, east, south, west = self._moves_of(cell)
        return ([north, south] if north >= 0 and south >= 0 else []) + (
            [east, west] if east >= 0 and west >= 0 else []
        )

    def _cut_off(self) -> bool:
        """Whether a push puzzle is unsolvable before any state search: its
        box starts on a dead square, a cell from which no push sequence
        brings it to its target even with the agent free to stand anywhere
        (Junghanns & Schaeffer, 2001), or its agent cannot reach `G` over
        free cells even with the box out of the way. Both are cell searches
        that stop at their destination: O(cells) at most, and only the
        nearby cells when the destination is a few moves away. A maze is
        never cut off."""
        env, cell = self.env, self._cell
        if env.box is None:
            return False
        if _search({}, self._pushes, cell(env.box), cell(env.box_target))[0] is None:
            return True
        # a row's -1, a move a wall or the border blocks, is never entered
        return _search({}, self._moves_of, cell(env.start), cell(env.goal), avoid=(-1,))[0] is None

    @cached_property
    def _order(self) -> list[int]:
        """Every reachable state in breadth-first order, each one named."""
        order = _search(self._succ, self._expand, self._start, -1)[1]
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
    the first is `_search` from the goal over the reversed lists. In a
    maze every move can be undone, so either every reachable state reaches
    the goal or none does, and no reversed lists are built; the cul-de-sac
    cells are found by filling dead ends on the lists of the reachable
    states.

    If a dead state is Active in `sessions`, raises `ConflictError` before
    inhibiting any, so `sessions` is left unchanged.
    """
    order, succ, goal = space._order, space._succ, space._goal
    # the full build leaves exactly the reachable states in `succ`
    if space.env.box is None:
        # A maze state is its agent's cell, so a state's successors are its
        # free neighbours. Filling dead ends has one result in any order, so
        # filling only the reachable cells finds the reachable ones among
        # the dead ends of the whole grid.
        alive = set(order) if goal in succ else set()
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
        # every reachable state has its list, so `expand` never runs
        alive = set(_search(preds, preds.__getitem__, goal, -1)[1]) if goal in succ else set()
    dead = [s for s in order if s not in alive]
    node = space._node
    sessions.inhibit(*(node[s] for s in dead))
    return set(space._decode_all(dead))


def _register_solution(space: StateSpace, path: list[int]) -> int:
    """Name the states of `path` not yet named, in path order, and return
    the solution concept over their nodes, made if it is new."""
    space._name_all(path)
    children = [(space._node[s], (i, 0)) for i, s in enumerate(path)]
    concept = space.graph.create_composite(children, kind=NodeKind.SOLUTION)
    node = space.graph.nodes[concept]
    if not node.label:
        node.label = f"solution:{concept}"
    return concept


def _search(
    memo: Mapping[int, list[int]],
    expand: Callable[[int], list[int]],
    source: int,
    goal: int,
    blocked: Container[int] = (),
    avoid: Iterable[int] = (),
    cut: Container[int] = (),
) -> tuple[Optional[list[int]], list[int]]:
    """Breadth-first search with parent pointers from `source` to `goal`
    (-1 for none, to reach everything reachable).

    A state's successors are `memo[state]`, or `expand(state)` when the
    memo has none. Never enters a `blocked` state or a state in `avoid`,
    and does not step from `source` into a state in `cut`. Returns the
    path, or None, with the states reached, in breadth-first order.
    """
    parent = dict.fromkeys(avoid, -1)
    parent[source] = -1
    queue = [source]
    for cur in queue:  # the list is the queue
        if cur == goal:
            path = [cur]
            while (cur := parent[cur]) >= 0:
                path.append(cur)
            return path[::-1], queue
        succs = memo.get(cur)
        if succs is None:
            succs = expand(cur)
        if cur == source:
            succs = [nxt for nxt in succs if nxt not in cut]
        for nxt in succs:
            if nxt not in parent and nxt not in blocked:
                parent[nxt] = cur
                queue.append(nxt)
    return None, queue


def _loopless_paths(space: StateSpace, blocked: Container[int]) -> Iterator[list[int]]:
    """Yen's algorithm: loopless start-to-goal paths avoiding `blocked` states.

    Yields each path as a list of state codes. Paths come in nondecreasing
    length, equal lengths ordered by the breadth-first ranks of their states
    in `StateSpace._order`, so the order depends only on the environment and
    `blocked`, not on which states earlier calls named. Each path after the
    first is the shortest candidate that leaves an earlier path at some
    state (the spur) by a transition no earlier path with the same prefix
    took, and never revisits the prefix. The first path needs no rank, so
    the full build runs, and the ranks are counted once from it, only when
    a second path is asked for. Raises `InvalidEnvError` once the spur
    searches have reached more than `MAX_SPUR_STATES` states, summed.
    """
    start, goal = space._start, space._goal
    memo, expand = space._succ, space._expand
    path = None if start in blocked else _search(memo, expand, start, goal, blocked)[0]
    if path is None:
        return
    yield path
    rank = {s: i for i, s in enumerate(space._order)}
    candidates = []  # a heap of (length, rank key, path)
    seen = set()  # candidate keys; the prefix tree keeps yielded paths out
    # the yielded paths as a prefix tree below the start state: the keys of
    # the subtree under a prefix are the states those paths go to next
    tree: dict[int, dict] = {}
    reached = 0
    while True:
        subtree = tree
        for i in range(len(path) - 1):
            subtree.setdefault(path[i + 1], {})
            taken, subtree = subtree, subtree[path[i + 1]]
            spur, spur_reached = _search(memo, expand, path[i], goal, blocked, path[:i], taken)
            reached += len(spur_reached)
            if reached > MAX_SPUR_STATES:
                raise InvalidEnvError(
                    f"the route search exceeds {MAX_SPUR_STATES} states;"
                    " list fewer routes with --enumerate N"
                )
            if spur is None:
                continue
            candidate = path[:i] + spur
            key = tuple(map(rank.__getitem__, candidate))
            if key not in seen:
                seen.add(key)
                heapq.heappush(candidates, (len(candidate), key, candidate))
        if not candidates:
            return
        path = heapq.heappop(candidates)[2]
        yield path


class _Blocked:
    """The states a search under constraints never enters: those inhibited,
    and those with the agent on one of the forbidden `cells`."""

    def __init__(self, inhibited: set[int], cells: set[int], per_agent: int):
        self.inhibited, self.cells, self.per_agent = inhibited, cells, per_agent

    def __contains__(self, state: int) -> bool:
        return state in self.inhibited or state // self.per_agent in self.cells


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
    blocked: Container[int] = inhibited or ()
    if cells:
        blocked = _Blocked(inhibited, cells, space._per_agent)
    for path in _loopless_paths(space, blocked):
        concept = _register_solution(space, path)
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
    inhibited. When the shortest path is an inhibited solution, the next
    route is Yen's next path, ranked by breadth-first rank, so the solve
    first builds the whole space, as `enumerate_solutions` does, under the
    same `MAX_STATES` budget. A push puzzle found unsolvable before any
    search (see `StateSpace._cut_off`) gives `NoSolution` without a search.
    """
    return _first_solution(space, sessions)


def enumerate_solutions(
    space: StateSpace,
    max_solutions: int | None = None,
    sessions: SessionStack | None = None,
) -> list[Solution]:
    """Every loopless solution (at most `max_solutions`, any int >= 0, or
    all of them when it is None), shortest first, equal lengths in the
    breadth-first order of their states from the start (see
    `_loopless_paths`), so a space searched before gives what a fresh one
    would.

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
    # `islice` stops at most at sys.maxsize, more routes than any space has
    limit = max_solutions if max_solutions is None else min(max_solutions, sys.maxsize)
    return list(islice(_solutions(space, sessions), limit))


def solve_with_constraints(space: StateSpace, forbidden: set[tuple[int, int]]):
    """Shortest solution whose agent never stands on a `forbidden` cell."""
    return _first_solution(space, None, forbidden)
