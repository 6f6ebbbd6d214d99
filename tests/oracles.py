"""Independent brute-force oracles used to cross-check the engine.

Everything here is deliberately naive: plain BFS/DFS, subset enumeration,
iterated elimination. None of it shares code with the implementation
under test.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from gridmind import Environment, Grid, NodeKind, State, extract_features

DELTAS = {"N": (0, -1), "E": (1, 0), "S": (0, 1), "W": (-1, 0)}
DELTA_ORDER = [("N", (0, -1)), ("E", (1, 0)), ("S", (0, 1)), ("W", (-1, 0))]


# -- state-space oracles ---------------------------------------------------


def parse_environment(text: str):
    """The environment `text` describes, read cell by cell in (x, y) order:
    the error message `Environment.from_text` gives for it, or
    `(width, height, walls, S, G, B, T)` with `walls` a set of cells and
    `B` and `T` None in a maze."""
    lines = text.splitlines()
    while lines and lines[-1].strip() == "":
        del lines[-1]
    if not lines:
        return "empty environment"
    width = max(len(line) for line in lines)
    height = len(lines)
    if width > 256 or height > 256:
        return f"environment larger than 256x256: {width}x{height}"
    walls = set()
    marks = {"S": [], "G": [], "B": [], "T": []}
    for y in range(height):
        for x in range(width):
            ch = lines[y][x] if x < len(lines[y]) else "#"
            if ch == "#":
                walls.add((x, y))
            elif ch in marks:
                marks[ch].append((x, y))
            elif ch not in ". ":
                return f"unknown cell {ch!r} at ({x}, {y})"
    if len(marks["S"]) != 1 or len(marks["G"]) != 1:
        return "environment needs exactly one S and one G"
    if len(marks["B"]) != len(marks["T"]) or len(marks["B"]) > 1:
        return "a push puzzle needs exactly one B and one T"
    box = marks["B"][0] if marks["B"] else None
    target = marks["T"][0] if marks["T"] else None
    return width, height, walls, marks["S"][0], marks["G"][0], box, target



def legal_successors(env: Environment, state: State) -> list[State]:
    out = []
    ax, ay = state.agent
    for _, (dx, dy) in DELTA_ORDER:
        nxt = (ax + dx, ay + dy)
        if not env.is_free(nxt):
            continue
        if state.box is not None and nxt == state.box:
            beyond = (nxt[0] + dx, nxt[1] + dy)
            if env.is_free(beyond):
                out.append(State(nxt, beyond))
        else:
            out.append(State(nxt, state.box))
    return out


def breadth_first_states(env: Environment) -> list[State]:
    """Every reachable state, in the order a breadth-first search from the
    start first meets it, stepping with `legal_successors`."""
    start = State(env.start, env.box)
    order = [start]
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in legal_successors(env, cur):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    return order


def reachable_states(env: Environment) -> set[State]:
    return set(breadth_first_states(env))


def goal_reachable(env: Environment) -> bool:
    goal = State(env.goal, env.box_target)
    return goal in reachable_states(env)


def bfs_distance(env: Environment, forbidden: set | None = None) -> int | None:
    """Shortest number of moves from start to goal, None if unreachable."""
    start = State(env.start, env.box)
    goal = State(env.goal, env.box_target)
    forbidden = forbidden or set()
    if start.agent in forbidden or goal.agent in forbidden:
        return None
    seen = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if cur == goal:
            return seen[cur]
        for nxt in legal_successors(env, cur):
            if nxt.agent in forbidden or nxt in seen:
                continue
            seen[nxt] = seen[cur] + 1
            queue.append(nxt)
    return None


def push_cut_off(env: Environment) -> bool:
    """Whether a push puzzle is unsolvable for a reason its cells alone show:
    no push sequence takes the box to its target even with the agent free
    to stand anywhere (a push needs the cell behind the box free), or the
    agent cannot reach its goal with the box taken away."""
    seen = {env.box}
    queue = deque([env.box])
    while queue:
        x, y = queue.popleft()
        for _, (dx, dy) in DELTA_ORDER:
            nxt = (x + dx, y + dy)
            if env.is_free(nxt) and env.is_free((x - dx, y - dy)) and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    walled = bfs_distance(Environment(env.width, env.height, env.free, env.start, env.goal)) is None
    return env.box_target not in seen or walled


def all_simple_maze_paths(env: Environment) -> set[tuple]:
    """Every simple start-to-goal cell sequence (mazes only)."""
    assert env.box is None
    paths: set[tuple] = set()
    goal = env.goal

    def rec(path: list, on_path: set):
        cur = path[-1]
        if cur == goal:
            paths.add(tuple(path))
            return
        for _, (dx, dy) in DELTA_ORDER:
            nxt = (cur[0] + dx, cur[1] + dy)
            if env.is_free(nxt) and nxt not in on_path:
                path.append(nxt)
                on_path.add(nxt)
                rec(path, on_path)
                path.pop()
                on_path.remove(nxt)

    rec([env.start], {env.start})
    return paths


def count_simple_maze_paths(env: Environment, cap: int) -> int:
    """Number of simple start-to-goal paths, stopping early at `cap`."""
    assert env.box is None
    goal = env.goal
    count = 0

    def rec(cur, on_path):
        nonlocal count
        if count > cap:
            return
        if cur == goal:
            count += 1
            return
        for _, (dx, dy) in DELTA_ORDER:
            nxt = (cur[0] + dx, cur[1] + dy)
            if env.is_free(nxt) and nxt not in on_path:
                on_path.add(nxt)
                rec(nxt, on_path)
                on_path.remove(nxt)

    rec(env.start, {env.start})
    return count


def iterated_elimination(
    states: set, transitions: dict, targets: set
) -> set:
    """Repeatedly delete non-target states with no successor outside the
    deleted set (zero-transition states included)."""
    deleted: set = set()
    changed = True
    while changed:
        changed = False
        for s in list(states):
            if s in deleted or s in targets:
                continue
            succs = transitions.get(s, [])
            if all(t in deleted for t in succs):
                deleted.add(s)
                changed = True
    return deleted


def deadlock_oracle(env: Environment) -> set[State]:
    """States from which the goal state is unreachable, plus (for mazes)
    iterated dead-end cells; computed independently of the engine."""
    states = reachable_states(env)
    goal = State(env.goal, env.box_target)
    # backward reachability over reversed edges
    preds: dict[State, list[State]] = {s: [] for s in states}
    for s in states:
        for t in legal_successors(env, s):
            if t in states:
                preds[t].append(s)
    alive = set()
    if goal in states:
        alive.add(goal)
        queue = deque([goal])
        while queue:
            cur = queue.popleft()
            for p in preds[cur]:
                if p not in alive:
                    alive.add(p)
                    queue.append(p)
    dead = states - alive
    if env.box is None:
        open_cells = {
            (x, y)
            for x in range(env.width)
            for y in range(env.height)
            if env.is_free((x, y))
        }
        filled: set = set()
        changed = True
        while changed:
            changed = False
            for cell in list(open_cells - filled):
                if cell in (env.start, env.goal):
                    continue
                degree = sum(
                    1
                    for dx, dy in DELTAS.values()
                    if (cell[0] + dx, cell[1] + dy) in open_cells - filled
                )
                if degree <= 1:
                    filled.add(cell)
                    changed = True
        dead |= {s for s in states if s.agent in filled}
    return dead


# -- inhibition oracle -----------------------------------------------------


def parents_by_node(graph) -> dict[int, set[int]]:
    """Each node of `graph` -> the set of its parents, read off the public
    `children_of` of every node."""
    parents: dict[int, set[int]] = {n: set() for n in graph.node_ids()}
    for n in graph.node_ids():
        for child, _ in graph.children_of(n):
            parents[child].add(n)
    return parents


def inhibition_closure_oracle(
    parents: dict[int, set[int]],
    mutex: set[tuple[int, int]],
    inhibited: set[int],
    active: set[int],
    transitions: dict[int, list[int]] | None = None,
    targets: set[int] = frozenset(),
) -> set[int] | None:
    """Close `inhibited` under rules A, B, C and the mutex closure by full
    sweeps until nothing changes; None when the closure reaches an Active
    node or two Active nodes are mutex partners.

    A: every parent of an inhibited node is inhibited. B: a node with at
    least one parent, all of them inhibited, is inhibited. C: a state (a
    key of `transitions`) that is not a target and whose successors are
    all inhibited is inhibited. Mutex: every partner of an Active node is
    inhibited.
    """
    closed = set(inhibited)
    while True:
        new = set()
        for n, ps in parents.items():
            if n in closed:
                new |= ps
            elif ps and ps <= closed:
                new.add(n)
        for st, succs in (transitions or {}).items():
            if st not in targets and set(succs) <= closed:
                new.add(st)
        for a, b in mutex:
            if a in active:
                new.add(b)
            if b in active:
                new.add(a)
        if new <= closed:
            break
        closed |= new
    if closed & active or any(a in active and b in active for a, b in mutex):
        return None
    return closed


# -- feature oracle --------------------------------------------------------


def features_oracle(g: Grid) -> list[tuple]:
    """(symbol, offsets, anchor) for every feature of g, sorted by
    (anchor y, anchor x, symbol, sorted offsets).

    A boundary cell has a 4-neighbour that does not hold its symbol. A run
    is a maximal straight segment of 2 or more same-symbol boundary cells,
    found by trying every boundary cell as a start in both directions and
    keeping the segments that cannot be extended at either end. A boundary
    cell on no run is a single. The interior cells of each symbol form one
    fill region per 4-connected component. Each feature is anchored at its
    smallest (y, x) cell, its offsets relative to that cell.
    """
    cells = g.cells
    sides = [(0, -1), (1, 0), (0, 1), (-1, 0)]

    def is_boundary(pos) -> bool:
        return pos in cells and any(
            cells.get((pos[0] + dx, pos[1] + dy)) != cells[pos] for dx, dy in sides
        )

    def same_boundary(pos, sym) -> bool:
        return cells.get(pos) == sym and is_boundary(pos)

    out = []
    on_run = set()
    for (x, y), sym in cells.items():
        if not is_boundary((x, y)):
            continue
        for dx, dy in [(1, 0), (0, 1)]:
            if same_boundary((x - dx, y - dy), sym):
                continue  # not the start of a maximal segment
            segment = [(x, y)]
            while same_boundary((x + len(segment) * dx, y + len(segment) * dy), sym):
                segment.append((x + len(segment) * dx, y + len(segment) * dy))
            if len(segment) >= 2:
                on_run.update(segment)
                out.append((sym, segment))
    for pos, sym in cells.items():
        if is_boundary(pos) and pos not in on_run:
            out.append((sym, [pos]))
    interior = {pos for pos in cells if not is_boundary(pos)}
    while interior:
        start = interior.pop()
        region, queue = [start], deque([start])
        while queue:
            x, y = queue.popleft()
            for dx, dy in sides:
                nb = (x + dx, y + dy)
                if nb in interior and cells[nb] == cells[start]:
                    interior.remove(nb)
                    region.append(nb)
                    queue.append(nb)
        out.append((cells[start], region))
    features = []
    for sym, group in out:
        ay, ax = min((y, x) for x, y in group)
        features.append((sym, frozenset((x - ax, y - ay) for x, y in group), (ax, ay)))
    features.sort(key=lambda f: (f[2][1], f[2][0], f[0], sorted(f[1])))
    return features


# -- recognition oracle ----------------------------------------------------


def recognition_oracle(graph, probe: Grid, inhibited=frozenset()) -> list[tuple]:
    """(concept, anchor, score) for every composite the probe evokes, by
    trying every composite at every anchor that puts a part on the probe.

    A feature of the probe is detected as the lowest-id node it names: the
    primitive `cell:<symbol>` for one cell, else a node whose parts are
    exactly that primitive at the feature's offsets. A detected composite
    scores 1 at its top-left-most instance. Any other composite scores the
    share of its parts (child, offset) detected at anchor + offset, at its
    best anchor, the top-left-most among ties, if that share is not 0.
    Sorted by score, then scale, both descending, then by id.
    """
    ids = sorted(graph.nodes)
    detected = set()
    for f in extract_features(probe):
        prims = [
            n for n in ids
            if graph.nodes[n].kind is NodeKind.PRIMITIVE
            and graph.nodes[n].label == "cell:" + f.symbol
        ]
        if not prims:
            continue
        if f.offsets == {(0, 0)}:
            detected.add((prims[0], f.anchor))
            continue
        parts = sorted((prims[0], off) for off in f.offsets)
        named = [n for n in ids if sorted(graph.children_of(n)) == parts]
        if named:
            detected.add((named[0], f.anchor))
    out = []
    for n in ids:
        if graph.nodes[n].kind is not NodeKind.COMPOSITE or n in inhibited:
            continue
        own = sorted((y, x) for m, (x, y) in detected if m == n)
        if own:
            out.append((n, (own[0][1], own[0][0]), Fraction(1)))
            continue
        parts = graph.children_of(n)
        if not parts:
            continue
        xs = [dx for _, (dx, _) in parts]
        ys = [dy for _, (_, dy) in parts]
        best = (0, None)
        for ay in range(-max(ys), probe.height - min(ys)):
            for ax in range(-max(xs), probe.width - min(xs)):
                hits = sum((c, (ax + dx, ay + dy)) in detected for c, (dx, dy) in parts)
                if hits > best[0]:
                    best = (hits, (ax, ay))
        if best[0]:
            out.append((n, best[1], Fraction(best[0], len(parts))))
    out.sort(key=lambda e: (-e[2], -graph.nodes[e[0]].scale, e[0]))
    return out


# -- explanation oracle ----------------------------------------------------


def explanation_subsets_oracle(
    composites: dict[int, set[int]],
    features: set[int],
    mutex: set[tuple[int, int]],
) -> set[frozenset[int]]:
    """All maximal consistent covers by brute-force subset enumeration.

    A subset of composites is valid when: their feature sets are pairwise
    disjoint, each covers >= 1 feature, no mutex pair occurs among chosen
    composites or covered features, and every feature is covered,
    mutex-suppressed by a covered feature, or not coverable by any
    composite at all.

    Its scope: consistency here is mutex only among the chosen composites
    and the covered features, with no inhibition closure. It agrees with
    the search while mutex links join features alone. A link on a pad (a
    child that is no feature) or on a composite inhibits a parent through
    the closure, which this oracle does not see; `explanation_closure_oracle`
    covers those inputs.
    """

    def partners(n: int) -> set[int]:
        out = set()
        for a, b in mutex:
            if a == n:
                out.add(b)
            if b == n:
                out.add(a)
        return out

    explainable = {f for f in features if any(f in fs for fs in composites.values())}
    ids = sorted(composites)
    valid: set[frozenset[int]] = set()
    for mask in range(1, 2 ** len(ids)):
        chosen = [ids[i] for i in range(len(ids)) if mask >> i & 1]
        feat_sets = [composites[c] & features for c in chosen]
        if any(not fs for fs in feat_sets):
            continue
        covered: set[int] = set()
        disjoint = True
        for fs in feat_sets:
            if fs & covered:
                disjoint = False
                break
            covered |= fs
        if not disjoint:
            continue
        everything = set(chosen) | covered
        if any(partners(n) & everything for n in everything):
            continue
        suppressed = {
            f for f in features - covered if partners(f) & covered
        }
        if explainable - covered - suppressed:
            continue
        valid.add(frozenset(chosen))
    return {s for s in valid if not any(s < o for o in valid)}


def explanation_closure_oracle(
    composites: dict[int, set[int]],
    features: set[int],
    parents: dict[int, set[int]],
    mutex: set[tuple[int, int]],
) -> tuple[set[tuple[frozenset[int], frozenset[int], frozenset[int]]], set[int]]:
    """The maximal explanations, as (chosen, covered, suppressed), and the
    novel residue, by brute-force subset enumeration with consistency
    judged by `inhibition_closure_oracle`.

    `composites` maps each composite to its children; those with a child
    in `features` may be chosen. A nonempty subset of them is consistent
    when their feature sets are pairwise disjoint and the closure, with
    nothing inhibited and Active = chosen | covered, reaches no Active
    node. It is an explanation when, besides, each coverable feature it
    leaves uncovered, its suppressed set, has a covered mutex partner. The
    residue is every feature that no maximal explanation covers or
    suppresses: all of them when there is no explanation.
    """
    coverable = {c: kids & features for c, kids in composites.items() if kids & features}
    explainable = set().union(*coverable.values())
    ids = sorted(coverable)
    found = {}
    for mask in range(1, 2 ** len(ids)):
        chosen = frozenset(ids[i] for i in range(len(ids)) if mask >> i & 1)
        covered = set().union(*(coverable[c] for c in chosen))
        if sum(len(coverable[c]) for c in chosen) != len(covered):
            continue  # two chosen composites share a feature
        if inhibition_closure_oracle(parents, mutex, set(), chosen | covered) is None:
            continue
        suppressed = explainable - covered
        if not all(
            any((f, p) in mutex or (p, f) in mutex for p in covered) for f in suppressed
        ):
            continue
        found[chosen] = (chosen, frozenset(covered), frozenset(suppressed))
    maximal = {e for s, e in found.items() if not any(s < o for o in found)}
    residue = set(features).difference(*(cov | sup for _, cov, sup in maximal))
    return maximal, residue


# -- graph format oracle ---------------------------------------------------


def legacy_quote(label: str) -> str:
    """How `CGRAPH 1` files wrote a label before labels had escapes: bare if
    non-empty with no whitespace and no double quote, else double-quoted
    with only the double quotes backslash-escaped."""
    if label == "" or any(ch.isspace() for ch in label) or '"' in label:
        return '"' + label.replace('"', '\\"') + '"'
    return label


def links_on_cycles(pairs) -> set[tuple[int, int]]:
    """The distinct (parent, child) composition links that lie on a cycle,
    from the raw pairs alone: a link is on a cycle when a depth-first walk
    from its child reaches its parent (a self-link reaches it at once)."""
    below: dict[int, set[int]] = {}
    for parent, child in pairs:
        below.setdefault(parent, set()).add(child)

    def reaches(start: int, target: int) -> bool:
        seen, stack = set(), [start]
        while stack:
            n = stack.pop()
            if n == target:
                return True
            if n not in seen:
                seen.add(n)
                stack.extend(below.get(n, ()))
        return False

    return {(p, c) for p, c in set(pairs) if reaches(c, p)}


# -- misc ------------------------------------------------------------------


def random_grid(rng, max_dim=16, symbols="abcd", max_symbols=4) -> Grid:
    w = rng.randint(1, max_dim)
    h = rng.randint(1, max_dim)
    syms = symbols[: rng.randint(1, max_symbols)]
    cells = {}
    for y in range(h):
        for x in range(w):
            if rng.random() < 0.35:
                cells[(x, y)] = rng.choice(syms)
    if not cells:
        cells[(rng.randrange(w), rng.randrange(h))] = syms[0]
    return Grid(w, h, cells)


def random_maze_text(rng, width, height, wall_p) -> str:
    cells = [
        ["#" if rng.random() < wall_p else "." for _ in range(width)]
        for _ in range(height)
    ]
    free = [(x, y) for y in range(height) for x in range(width)]
    sx, sy = rng.choice(free)
    gx, gy = rng.choice([c for c in free if c != (sx, sy)])
    cells[sy][sx] = "S"
    cells[gy][gx] = "G"
    return "\n".join("".join(row) for row in cells)


def random_push_text(rng, width=5, height=5, wall_p=0.15) -> str | None:
    cells = [
        ["#" if rng.random() < wall_p else "." for _ in range(width)]
        for _ in range(height)
    ]
    free = [(x, y) for y in range(height) for x in range(width) if cells[y][x] == "."]
    if len(free) < 4:
        return None
    picks = rng.sample(free, 4)
    for (x, y), ch in zip(picks, "SGBT"):
        cells[y][x] = ch
    return "\n".join("".join(row) for row in cells)
