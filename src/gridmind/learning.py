"""Mirrored compositional learning over symbolic grids.

`observe` decomposes a grid into features (maximal straight boundary runs,
isolated boundary cells and interior fill regions, per symbol), stores each
feature as a concept anchored at its top-left-most cell and groups all
co-active features under a root composite. Reconstruction expands the
composition links top-down and reproduces the input, which is the mirror
property everything else leans on.

This module stands on `graph` and `grid` alone. Recognition under
inhibition is the caller's filter over the ranked list: `[m for m in
learner.recognize(g) if not sessions.is_inhibited(m.concept)]` is the
list with the inhibited composites left out, because no composite's score
or rank depends on another's. A caller that must not reconstruct an
inhibited node tests `sessions.is_inhibited(root)` first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .graph import ConceptGraph, NodeKind
from .grid import MAX_DIM, Grid, GridError

Coord = tuple[int, int]

PRIMITIVE_PREFIX = "cell:"
ACTION_PREFIX = "action:"
TRANSFORM_PREFIX = "tf:"
# the kinds `reconstruct` descends through; any other node is not a grid
_GRID_KINDS = (NodeKind.PRIMITIVE, NodeKind.COMPOSITE)


class LearningError(Exception):
    pass


class EmptyInputError(LearningError):
    pass


class NoFitError(LearningError):
    pass


class BoundsError(LearningError):
    pass


@dataclass(frozen=True)
class FeatureInstance:
    """A feature shape detected at a concrete grid position."""

    symbol: str
    offsets: frozenset[Coord]  # anchor-relative, anchor cell at (0, 0)
    anchor: Coord


class RecognitionMatch(NamedTuple):
    """A composite `recognize` found, the anchor it is placed at and its
    score. A named tuple, so it is cheap to build, with read-only fields;
    but it equals only another match, never a plain tuple, and it hashes
    as the tuple of its fields, as a frozen dataclass does."""

    concept: int
    anchor: Coord
    score: Fraction

    def __eq__(self, other):
        return type(other) is RecognitionMatch and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


@dataclass(frozen=True)
class Discrepancy:
    missing: frozenset[tuple[int, int, str]]
    surplus: frozenset[tuple[int, int, str]]

    def is_empty(self) -> bool:
        return not self.missing and not self.surplus


@dataclass(frozen=True)
class ObserveReport:
    root: int
    nodes_created: int
    nodes_reused: int


def _normalize(cells: set[Coord]) -> tuple[frozenset[Coord], Coord]:
    """Shift cells so the top-left-most one lands on (0, 0)."""
    ay, ax = min((y, x) for x, y in cells)
    return frozenset((x - ax, y - ay) for x, y in cells), (ax, ay)


def extract_features(g: Grid) -> list[FeatureInstance]:
    """Deterministic feature decomposition of a grid.

    Per symbol: boundary cells (those with a non-matching 4-neighbour) are
    carved into maximal horizontal and vertical runs of length >= 2; cells
    in no run become single-cell features; interior cells form fill-region
    features per connected component. Every occupied cell is covered.
    """
    features: list[FeatureInstance] = []
    by_symbol: dict[str, set[Coord]] = {}
    for pos, sym in g.cells.items():
        by_symbol.setdefault(sym, set()).add(pos)
    for sym in sorted(by_symbol):
        cells = by_symbol[sym]
        boundary = {
            (x, y)
            for x, y in cells
            if any(
                (x + dx, y + dy) not in cells
                for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0))
            )
        }
        interior = cells - boundary
        ordered = sorted(boundary, key=lambda p: (p[1], p[0]))
        covered: set[Coord] = set()
        for dx, dy in ((1, 0), (0, 1)):
            for x, y in ordered:
                if (x - dx, y - dy) in boundary:
                    continue
                n = 1
                while (x + n * dx, y + n * dy) in boundary:
                    n += 1
                if n >= 2:
                    run = [(i * dx, i * dy) for i in range(n)]
                    features.append(FeatureInstance(sym, frozenset(run), (x, y)))
                    covered.update((x + rx, y + ry) for rx, ry in run)
        for x, y in ordered:
            if (x, y) not in covered:
                features.append(FeatureInstance(sym, frozenset([(0, 0)]), (x, y)))
        seen: set[Coord] = set()
        for start in sorted(interior, key=lambda p: (p[1], p[0])):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                cx, cy = stack.pop()
                for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0)):
                    nb = (cx + dx, cy + dy)
                    if nb in interior and nb not in comp:
                        comp.add(nb)
                        stack.append(nb)
            seen |= comp
            offsets, anchor = _normalize(comp)
            features.append(FeatureInstance(sym, offsets, anchor))
    features.sort(key=lambda f: (f.anchor[1], f.anchor[0], f.symbol, sorted(f.offsets)))
    return features


# -- transformations -------------------------------------------------------

# each kind's fields, in the order its label writes them after the kind
_FIELDS = {"identity": (), "translate": ("dx", "dy"), "rotate90": ("k",),
           "reflect_h": (), "reflect_v": (), "scale": ("k",)}


@dataclass(frozen=True)
class Transformation:
    kind: str  # identity | translate | rotate90 | reflect_h | reflect_v | scale
    dx: int = 0
    dy: int = 0
    k: int = 0

    def __post_init__(self) -> None:
        try:
            used = _FIELDS[self.kind]
        except KeyError:
            raise ValueError(f"unknown transformation kind {self.kind!r}") from None
        for f in ("dx", "dy", "k"):
            if getattr(self, f) and f not in used:
                raise ValueError(f"a {self.kind} transformation has no field {f}")
        if self.kind == "scale" and self.k < 2:
            raise ValueError(f"scale factor must be >= 2, got {self.k}")

    def __str__(self) -> str:
        return ":".join([self.kind, *(str(getattr(self, f)) for f in _FIELDS[self.kind])])

    @classmethod
    def parse(cls, text: str) -> "Transformation":
        """The transformation whose `str` is `text`; `ValueError` for any
        text `str` never writes (a missing, extra or non-canonical field)."""
        kind, *fields = text.split(":")
        try:
            t = cls(kind, **dict(zip(_FIELDS[kind], map(int, fields))))
        except (KeyError, ValueError):
            t = None
        if t is None or str(t) != text:
            raise ValueError(f"unknown transformation {text!r}")
        return t

    def apply(self, g: Grid) -> Grid:
        if self.kind == "identity":
            return g
        if self.kind == "translate":
            cells = {}
            for (x, y), s in g.cells.items():
                nx, ny = x + self.dx, y + self.dy
                if not (0 <= nx < g.width and 0 <= ny < g.height):
                    raise BoundsError(f"translate moves ({x},{y}) off the canvas")
                cells[(nx, ny)] = s
            return Grid(g.width, g.height, cells)
        if self.kind == "rotate90":
            w, h = g.width, g.height
            cells = dict(g.cells)
            for _ in range(self.k % 4):
                cells = {(h - 1 - y, x): s for (x, y), s in cells.items()}
                w, h = h, w
            return Grid(w, h, cells)
        if self.kind == "reflect_h":
            return Grid(
                g.width,
                g.height,
                {(g.width - 1 - x, y): s for (x, y), s in g.cells.items()},
            )
        if self.kind == "reflect_v":
            return Grid(
                g.width,
                g.height,
                {(x, g.height - 1 - y): s for (x, y), s in g.cells.items()},
            )
        # scale, the one kind left
        k = self.k
        if g.width * k > MAX_DIM or g.height * k > MAX_DIM:
            raise BoundsError("scaled grid exceeds the maximum canvas")
        cells = {}
        for (x, y), s in g.cells.items():
            for i in range(k):
                for j in range(k):
                    cells[(x * k + i, y * k + j)] = s
        return Grid(g.width * k, g.height * k, cells)

    def inverse_apply(self, g: Grid) -> Grid | None:
        """Pre-image of g under this transformation, or None if it has none.

        A scale shrinks each k x k block to one cell, and the result is a
        pre-image only if scaling it back gives g. Every other kind applies
        its inverse: the opposite translation (None when that moves a cell
        off the canvas), the rotation by the remaining quarter turns, and
        the identity and the reflections themselves."""
        if self.kind == "scale":
            k = self.k
            if g.width % k or g.height % k:
                return None
            cells = {(x // k, y // k): s for (x, y), s in g.cells.items()}
            pre = Grid(g.width // k, g.height // k, cells)
            return pre if self.apply(pre) == g else None
        inverse = Transformation(self.kind, dx=-self.dx, dy=-self.dy, k=-self.k % 4)
        try:
            return inverse.apply(g)
        except BoundsError:
            return None


IDENTITY = Transformation("identity")
# the rotations and reflections of the family, in family order
_ROTATIONS_AND_REFLECTIONS = (
    *(Transformation("rotate90", k=k) for k in (1, 2, 3)),
    Transformation("reflect_h"),
    Transformation("reflect_v"),
)


def _translate_candidate(before: Grid, after: Grid) -> Transformation | None:
    if before.width != after.width or before.height != after.height:
        return None
    if before.is_empty() or after.is_empty():
        return None
    bx, by = before.anchor()
    ax, ay = after.anchor()
    return Transformation("translate", dx=ax - bx, dy=ay - by)


def transformation_candidates(before: Grid, after: Grid) -> list[Transformation]:
    """Family members worth trying for mapping `before` onto `after`."""
    out: list[Transformation] = [IDENTITY]
    t = _translate_candidate(before, after)
    if t is not None:
        out.append(t)
    out.extend(_ROTATIONS_AND_REFLECTIONS)
    if after.width % before.width == 0 and after.height % before.height == 0:
        k = after.width // before.width
        if k >= 2 and after.height // before.height == k:
            out.append(Transformation("scale", k=k))
    return out


def find_transformation(before: Grid, after: Grid) -> Transformation:
    """First family member t with t(before) == after, in canonical order."""
    for t in transformation_candidates(before, after):
        try:
            if t.apply(before) == after:
                return t
        except BoundsError:
            continue
    raise NoFitError("no transformation in the family maps before to after")


# -- the learner -----------------------------------------------------------


def _ranks(scores: dict) -> dict:
    """Each key -> the rank of its score among the distinct score values,
    best first, so that equal values such as 1/2 and 2/4 share a rank and a
    sort on ranks compares integers, not Fractions."""
    order = {s: i for i, s in enumerate(sorted(set(scores.values()), reverse=True))}
    return {key: order[s] for key, s in scores.items()}


class Learner:
    """Owns the bottom-up/top-down learning loops over a concept graph."""

    def __init__(self, graph: ConceptGraph | None = None):
        self.graph = graph if graph is not None else ConceptGraph()
        # (kind, label) -> the first node of that kind with that label, over
        # the nodes below `_indexed`; a symbol's node is the `Primitive`
        # labelled `cell:<symbol>`
        self._labeled: dict[tuple[NodeKind, str], int] = {}
        self._indexed = 0
        # `recognize`'s row width W, which only grows, and each composite's
        # parts as (child, dy * W + dx), filled on its first vote
        self._row_width = 4 * MAX_DIM
        self._coded_parts: dict[int, tuple[tuple[int, int], ...]] = {}

    # node helpers

    def _feature_node(self, feat: FeatureInstance) -> int:
        prim = self.labeled_node(PRIMITIVE_PREFIX + feat.symbol)
        if feat.offsets == frozenset([(0, 0)]):
            return prim
        return self.graph.create_composite([(prim, off) for off in feat.offsets])

    def _label_index(self) -> dict[tuple[NodeKind, str], int]:
        """`_labeled`, first extended over the nodes made since the last
        lookup, by this learner or anyone else: node ids are dense and in
        creation order, so those are the ids from `_indexed` on."""
        labeled, nodes = self._labeled, self.graph.nodes
        for node_id in range(self._indexed, len(nodes)):
            node = nodes[node_id]
            if node.label:
                labeled.setdefault((node.kind, node.label), node_id)
        self._indexed = len(nodes)
        return labeled

    def _lookup_feature_node(self, feat: FeatureInstance) -> int | None:
        prim = self._label_index().get((NodeKind.PRIMITIVE, PRIMITIVE_PREFIX + feat.symbol))
        if prim is None:
            return None
        if feat.offsets == frozenset([(0, 0)]):
            return prim
        return self.graph.find_composite([(prim, off) for off in feat.offsets])

    def labeled_node(self, label: str, kind: NodeKind = NodeKind.PRIMITIVE) -> int:
        node_id = self._label_index().get((kind, label))
        if node_id is None:  # the next lookup indexes it
            node_id = self.graph.create_atom(kind, label, 1)
        return node_id

    # observe / reconstruct

    def observe(self, g: Grid) -> ObserveReport:
        if g.is_empty():
            raise EmptyInputError("observe requires at least one occupied cell")
        before = len(self.graph)
        features = extract_features(g)
        instances = [(self._feature_node(f), f.anchor) for f in features]
        # one lookup per feature, one more per multi-cell feature and one
        # for a root over two or more instances; each creates at most a node
        lookups = len(features) + sum(len(f.offsets) > 1 for f in features)
        if len(instances) == 1:
            root = instances[0][0]
        else:
            px, py = g.anchor()
            children = [(n, (ax - px, ay - py)) for n, (ax, ay) in instances]
            root = self.graph.create_composite(children)
            lookups += 1
        self.graph.record_association(n for n, _ in instances)
        created = len(self.graph) - before
        return ObserveReport(root, created, lookups - created)

    def reconstruct(self, root: int) -> Grid:
        """The tightest grid of `root`'s cells, expanding each node once and
        stopping at the first node wider or taller than `MAX_DIM`. A node
        that is neither a primitive nor a composite is rejected before the
        walk descends below it, so the error names the node asked for. The
        graph keeps a primitive childless and a composite with 2 or more
        children, so the childless nodes of the walk are its primitives,
        each one cell with the symbol its label names. A child's expansion
        is dropped as soon as its last parent below `root` is built, so
        memory follows the widest few nodes, not the number of nodes."""
        self.graph.node(root)
        nodes, graph_children = self.graph.nodes, self.graph._children
        # how many distinct parents below root still need each node
        needed = {root: 0}
        stack = [root]
        while stack:
            node_id = stack.pop()
            if nodes[node_id].kind not in _GRID_KINDS:
                raise LearningError(f"node {node_id} is not a grid concept")
            for child in {c for c, _ in graph_children.get(node_id, ())}:
                if child in needed:
                    needed[child] += 1
                else:
                    needed[child] = 1
                    stack.append(child)
        memo: dict[int, dict[Coord, str]] = {}
        for node_id in sorted(needed):  # a child's id is below its parents'
            node = nodes[node_id]
            children = graph_children.get(node_id, ())
            if not children:  # a primitive: one cell
                if not node.label.startswith(PRIMITIVE_PREFIX):
                    raise LearningError(f"node {node_id} is not a grid concept")
                memo[node_id] = {(0, 0): node.label[len(PRIMITIVE_PREFIX):]}
                continue
            cells: dict[Coord, str] = {}
            for child, (dx, dy) in children:
                for (x, y), s in memo[child].items():
                    cells[(x + dx, y + dy)] = s
            xs, ys = {x for x, _ in cells}, {y for _, y in cells}
            if max(xs) - min(xs) >= MAX_DIM or max(ys) - min(ys) >= MAX_DIM:
                raise GridError(f"node {node_id} does not fit in {MAX_DIM}x{MAX_DIM} cells")
            memo[node_id] = cells
            for child in {c for c, _ in children}:
                needed[child] -= 1
                if not needed[child]:
                    del memo[child]
        return Grid.from_cells(memo[root])

    # recognition

    def recognize(self, g: Grid) -> list[RecognitionMatch]:
        """Composites evoked by the features of g, best match first.

        Each detected feature instance votes, through its parents, for the
        anchor at which each placement of it would put the parent. A
        composite scores its most-voted anchor (the top-left-most among
        ties) over its number of parts; a composite detected as a feature
        scores 1 at its top-left-most instance.

        Anchors and roles are coded as ints in rows of width W: an anchor
        (x, y) as `y * W + x + W // 2`, a role (dx, dy) as `dy * W + dx`, so
        a vote is one subtraction and the plain `min` over tied votes is
        the top-left-most anchor. A vote `k` decodes to
        `(k % W - W // 2, k // W)`, which is exact while every `x - dx` lies
        in `[-W/2, W/2)`. A probe's x lies in `[0, MAX_DIM)`, so W, which
        starts at `4 * MAX_DIM`, doubles until `W >= 2 * (|dx| + MAX_DIM)`
        whenever a composite with a wider role is first coded, and every
        part coded with the old W is dropped. Each composite's coded parts
        are kept in a table on the learner, filled on the composite's first
        vote; a node's children never change, so nothing else invalidates
        the table.

        The composites found are bucketed by `(hits, parts)`; buckets with
        equal scores (1/2 and 2/4) are merged, the scores are walked best
        first, and each bucket is sorted on plain `(-scale, concept,
        anchor)` tuples: larger scale first, then lower id.

        Under inhibition, filter this list by `sessions.is_inhibited` on
        each match's concept; that is the ranked list of the composites
        left active, since each is scored and ranked on its own.
        """
        detected: dict[int, list[Coord]] = {}  # detected node -> its anchors in g
        for feat in extract_features(g):
            node_id = self._lookup_feature_node(feat)
            if node_id is not None:
                detected.setdefault(node_id, []).append(feat.anchor)
        nodes, children = self.graph.nodes, self.graph._children
        voters = [
            node_id
            for node_id in set(detected).union(*(self.graph._parents.get(n, ()) for n in detected))
            if nodes[node_id].kind is NodeKind.COMPOSITE
        ]
        table = self._coded_parts
        uncoded = [n for n in voters if n not in table]
        reach = max((abs(dx) for n in uncoded for _, (dx, _) in children[n]), default=0)
        while 2 * (reach + MAX_DIM) > self._row_width:
            self._row_width *= 2
            table.clear()
            uncoded = voters
        w, half = self._row_width, self._row_width // 2
        for n in uncoded:
            table[n] = tuple([(child, dy * w + dx) for child, (dx, dy) in children[n]])
        anchors = {n: [y * w + x + half for x, y in xys] for n, xys in detected.items()}
        buckets: dict[tuple[int, int], list] = {}  # (hits, parts) -> (-scale, concept, anchor)
        for node_id in voters:
            if node_id in anchors:
                key, anchor = (1, 1), min(anchors[node_id])
            else:
                votes: dict[int, int] = {}
                count = votes.get
                parts = table[node_id]
                for child, d in parts:
                    for a in anchors.get(child, ()):
                        a -= d
                        votes[a] = count(a, 0) + 1
                hits = max(votes.values())
                anchor = min(votes if hits == 1 else [a for a, n in votes.items() if n == hits])
                key = (hits, len(parts))
            buckets.setdefault(key, []).append((-nodes[node_id].scale, node_id, anchor))
        by_score: dict[Fraction, list] = {}
        for key, bucket in buckets.items():
            by_score.setdefault(Fraction(*key), []).extend(bucket)
        matches = []
        for score in sorted(by_score, reverse=True):
            bucket = by_score[score]
            bucket.sort()
            matches += [RecognitionMatch(n, (k % w - half, k // w), score) for _, n, k in bucket]
        return matches

    def match_under_transformations(
        self, g: Grid
    ) -> list[tuple[RecognitionMatch, Transformation]]:
        """`recognize`'s matches on g and on its pre-image under each
        member of the family, each with its transformation, ranked as
        `recognize` ranks them and in family order among ties. A
        translation's matches are the identity's with shifted anchors, for
        every translation that keeps g's bounding box on its canvas; a
        rotation, reflection or scale runs `recognize` on its pre-image."""
        base = self.recognize(g)
        results = [(m, IDENTITY) for m in base]
        if base:
            # a translation has a pre-image iff it keeps the bounding box on
            # the canvas; recognition is anchor-based, so shifting the grid
            # shifts the anchors
            min_x, min_y, max_x, max_y = g.bounding_box()
            for dy in range(max_y - g.height + 1, min_y + 1):
                for dx in range(max_x - g.width + 1, min_x + 1):
                    if dx or dy:
                        t = Transformation("translate", dx=dx, dy=dy)
                        results += [
                            (RecognitionMatch(m.concept, (m.anchor[0] - dx, m.anchor[1] - dy), m.score), t)
                            for m in base
                        ]
        scales = [Transformation("scale", k=k) for k in range(2, max(g.width, g.height) + 1)]
        for t in (*_ROTATIONS_AND_REFLECTIONS, *scales):
            pre = t.inverse_apply(g)
            if pre is not None:
                results += [(m, t) for m in self.recognize(pre)]

        def ratio(entry):
            return entry[0].score.numerator, entry[0].score.denominator

        rank = _ranks({ratio(e): e[0].score for e in results})
        nodes = self.graph.nodes
        results.sort(key=lambda e: (rank[ratio(e)], -nodes[e[0].concept].scale, e[0].concept))
        return results

    # transformations as concepts

    def learn_transformation(self, before: Grid, after: Grid, action_label: str) -> int:
        if before.is_empty():
            raise EmptyInputError("before-grid must have at least one occupied cell")
        t = find_transformation(before, after)
        t_node = self.labeled_node(TRANSFORM_PREFIX + str(t), NodeKind.TRANSFORMATION)
        a_node = self.labeled_node(ACTION_PREFIX + action_label, NodeKind.PRIMITIVE)
        self.graph.record_association([t_node, a_node])
        return t_node

    def transformation_of(self, node_id: int) -> Transformation:
        node = self.graph.node(node_id)
        if not node.label.startswith(TRANSFORM_PREFIX):
            raise LearningError(f"node {node_id} is not a transformation")
        try:
            return Transformation.parse(node.label[len(TRANSFORM_PREFIX):])
        except ValueError:
            raise LearningError(f"node {node_id} has a bad transformation label {node.label!r}") from None

    # discrepancy

    def compute_discrepancy(self, g: Grid, goal: int) -> Discrepancy:
        rec = self.reconstruct(goal)
        anchor = None
        for m in self.recognize(g):
            if m.concept == goal:
                anchor = m.anchor
                break
        if anchor is None:
            anchor = g.anchor() if not g.is_empty() else (0, 0)
        lx, ly = rec.anchor()
        expected = {
            (anchor[0] + x - lx, anchor[1] + y - ly, s) for (x, y), s in rec.cells.items()
        }
        actual = {(x, y, s) for (x, y), s in g.cells.items()}
        return Discrepancy(frozenset(expected - actual), frozenset(actual - expected))

    # imagination

    def imagine(self, seed: int, steps: int) -> list[int]:
        self.graph.node(seed)
        visited = {seed}
        chain = []
        current = seed
        for _ in range(steps):
            options = [
                (w, n) for w, n in self.graph.neighbors_by_weight(current) if n not in visited
            ]
            if not options:
                break
            _, nxt = max(options, key=lambda e: (e[0], -e[1]))
            chain.append(nxt)
            visited.add(nxt)
            current = nxt
        return chain
