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

from typing import NamedTuple

from .graph import ConceptGraph, NodeKind
from .grid import MAX_DIM, Grid, GridError

Coord = tuple[int, int]

PRIMITIVE_PREFIX = "cell:"
ACTION_PREFIX = "action:"
TRANSFORM_PREFIX = "tf:"
# the kinds `reconstruct` descends through; any other node is not a grid
_GRID_KINDS = (NodeKind.PRIMITIVE, NodeKind.COMPOSITE)


class LearningError(GridError):
    pass


class EmptyInputError(LearningError):
    pass


class NoFitError(LearningError):
    pass


class BoundsError(LearningError):
    pass


class FeatureInstance:
    """A feature shape detected at a concrete grid position: its `symbol`,
    its `offsets` relative to the anchor cell at (0, 0), and its `anchor`."""

    __slots__ = ("symbol", "offsets", "anchor")

    def __init__(self, symbol: str, offsets: frozenset[Coord], anchor: Coord):
        self.symbol, self.offsets, self.anchor = symbol, offsets, anchor


class RecognitionMatch(NamedTuple):
    """A composite `recognize` found, the anchor it is placed at and its
    score. A named tuple, so it is cheap to build, with read-only fields;
    but it equals only another match, never a plain tuple, and it hashes
    as the tuple of its fields. `score` is a `fractions.Fraction`, which
    only `recognize` imports."""

    concept: int
    anchor: Coord
    score: Fraction

    def __eq__(self, other):
        return type(other) is RecognitionMatch and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class Discrepancy:
    __slots__ = ("missing", "surplus")

    def __init__(self, missing: frozenset[tuple[int, int, str]], surplus: frozenset[tuple[int, int, str]]):
        self.missing, self.surplus = missing, surplus

    def is_empty(self) -> bool:
        return not self.missing and not self.surplus


class ObserveReport:
    __slots__ = ("root", "nodes_created", "nodes_reused")

    def __init__(self, root: int, nodes_created: int, nodes_reused: int):
        self.root, self.nodes_created, self.nodes_reused = root, nodes_created, nodes_reused


# the four 4-neighbour steps, and the one-cell shape of a single or a
# primitive feature
_SIDES = ((0, -1), (1, 0), (0, 1), (-1, 0))
_ONE_CELL = frozenset([(0, 0)])


def extract_features(g: Grid) -> list[FeatureInstance]:
    """Deterministic feature decomposition of a grid.

    Per symbol: boundary cells (those with a non-matching 4-neighbour) are
    carved into maximal horizontal and vertical runs of length >= 2; cells
    in no run become single-cell features; interior cells form fill-region
    features per connected component. Every occupied cell is covered.

    The features come in the order of their anchor `(y, x)`, then symbol,
    then sorted offsets. Each is anchored at its top-left-most cell and
    emitted when one pass over the cells in row-major order reaches that
    cell, so no feature is sorted. For each direction, vertical then
    horizontal, a boundary cell with a same-symbol boundary cell just
    before it (above, or to the left) lies inside an earlier run, and one
    with such a cell just after it starts a run; a boundary cell in no run
    is a single. Only a vertical and a horizontal run can share an anchor,
    and the vertical one, emitted first, sorts first (`(0, 1) < (1, 0)`).
    A fill region's first cell in the pass is its top-left-most.
    """
    cells = g.cells
    edge = {
        (x, y): s
        for (x, y), s in cells.items()
        if any(cells.get((x + dx, y + dy)) != s for dx, dy in _SIDES)
    }
    features: list[FeatureInstance] = []
    filled: set[Coord] = set()
    for y, x, s in sorted([(y, x, s) for (x, y), s in cells.items()]):
        if (x, y) in edge:
            single = True
            for dx, dy in ((0, 1), (1, 0)):
                if edge.get((x - dx, y - dy)) == s:
                    single = False
                elif edge.get((x + dx, y + dy)) == s:
                    n = 2
                    while edge.get((x + n * dx, y + n * dy)) == s:
                        n += 1
                    run = frozenset([(i * dx, i * dy) for i in range(n)])
                    features.append(FeatureInstance(s, run, (x, y)))
                    single = False
            if single:
                features.append(FeatureInstance(s, _ONE_CELL, (x, y)))
        elif (x, y) not in filled:
            # every neighbour of an interior cell holds its symbol, so the
            # region grows through the neighbours that are not boundary
            filled.add((x, y))
            region, stack = [], [(x, y)]
            while stack:
                cx, cy = stack.pop()
                region.append((cx - x, cy - y))
                for dx, dy in _SIDES:
                    nb = (cx + dx, cy + dy)
                    if nb not in edge and nb not in filled:
                        filled.add(nb)
                        stack.append(nb)
            features.append(FeatureInstance(s, frozenset(region), (x, y)))
    return features


# -- transformations -------------------------------------------------------

# each kind's fields, in the order its label writes them after the kind
_FIELDS = {"identity": (), "translate": ("dx", "dy"), "rotate90": ("k",),
           "reflect_h": (), "reflect_v": (), "scale": ("k",)}


class Transformation:
    """One member of the family: its `kind` and the fields that kind uses
    (see `_FIELDS`); the others stay 0."""

    __slots__ = ("kind", "dx", "dy", "k")

    def __init__(self, kind: str, dx: int = 0, dy: int = 0, k: int = 0):
        try:
            used = _FIELDS[kind]
        except KeyError:
            raise ValueError(f"unknown transformation kind {kind!r}") from None
        for f, value in (("dx", dx), ("dy", dy), ("k", k)):
            if value and f not in used:
                raise ValueError(f"a {kind} transformation has no field {f}")
        if kind == "scale" and k < 2:
            raise ValueError(f"scale factor must be >= 2, got {k}")
        self.kind = kind
        self.dx = dx
        self.dy = dy
        self.k = k

    def __eq__(self, other):
        if type(other) is not Transformation:
            return NotImplemented
        return (self.kind, self.dx, self.dy, self.k) == (other.kind, other.dx, other.dy, other.k)

    def __hash__(self):
        return hash((self.kind, self.dx, self.dy, self.k))

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


# the most canvas cells one `recognize` call counts votes on; a composite
# `observe` makes has roles within MAX_DIM - 1 of each other on each axis,
# so its canvas is at most (2 * MAX_DIM - 1) cells on a side
MAX_RECOGNITION_CELLS = 4 * MAX_DIM * MAX_DIM


def _code(parts: tuple) -> tuple:
    """A voter's sorted, distinct (child, role) parts as `recognize`
    counts them: `(len(parts), mx, my, sx, sy, parts)`, with `(mx, my)` the
    largest role on each axis and `(sx, sy)` the spread (the largest role
    minus the least). `parts` is the graph's own tuple, not a copy."""
    xs, ys = zip(*[role for _, role in parts])
    mx, my = max(xs), max(ys)
    return len(parts), mx, my, mx - min(xs), my - min(ys), parts


class Learner:
    """Owns the bottom-up/top-down learning loops over a concept graph."""

    def __init__(self, graph: ConceptGraph | None = None):
        self.graph = graph if graph is not None else ConceptGraph()
        # (kind, label) -> the first node of that kind with that label, over
        # the nodes below `_indexed`; a symbol's node is the `Primitive`
        # labelled `cell:<symbol>`
        self._labeled: dict[tuple[NodeKind, str], int] = {}
        self._indexed = 0
        # each composite's code for `recognize` (see `_code`) over its
        # children, filled the first time it votes through them
        self._codes: dict[int, tuple] = {}

    # node helpers

    def _feature_node(self, feat: FeatureInstance) -> int:
        prim = self.labeled_node(PRIMITIVE_PREFIX + feat.symbol)
        if feat.offsets == _ONE_CELL:
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

    def _detect(self, g: Grid) -> dict[int | None, list[Coord]]:
        """The anchors in g of each node that is one of g's features, in
        `extract_features` order, with those of the features no node
        stands for under `None`."""
        labeled, find = self._label_index(), self.graph.find_composite
        detected: dict[int | None, list[Coord]] = {}
        for feat in extract_features(g):
            node_id = labeled.get((NodeKind.PRIMITIVE, PRIMITIVE_PREFIX + feat.symbol))
            if node_id is not None and feat.offsets != _ONE_CELL:
                node_id = find([(node_id, off) for off in feat.offsets])
            detected.setdefault(node_id, []).append(feat.anchor)
        return detected

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
        ties) over its number of parts.

        Each voter is coded by its parts (see `_code`): their number, the
        largest role `(mx, my)` on each axis, the spreads `sx` and `sy`
        (the largest role minus the least) and the sorted parts
        themselves. A composite detected as a feature votes through one
        part, itself at (0, 0), so it scores 1 at its top-left-most
        instance. Any other composite votes through its children, the
        graph's own sorted tuple, and that code is kept on the learner: a
        node's children never change, so nothing invalidates it.

        The votes are counted bit-parallel on a canvas W cells wide and H
        high: the probe's width and height plus the largest `sx` and `sy`
        among the voters in this call (a detected composite's are 0). A
        canvas of more than `MAX_RECOGNITION_CELLS` cells is refused with
        `BoundsError` before any counting; every composite `observe` makes
        fits. Each detected node is one int mask, with bit `y * W + x` set
        for each of its instances at (x, y). A part `(child, (dx, dy))`
        adds the child's mask, shifted left by `(my - dy) * W + (mx - dx)`,
        to a binary counter held as bit planes (plane i holds bit i of
        every cell's count), with ripple carry. So an instance at (x, y)
        adds one at canvas cell `(x + mx - dx, y + my - dy)`, the vote for
        the anchor `(x - dx, y - dy)`: the canvas is the anchor plane
        shifted by `(mx, my)`, so how far a role lies from (0, 0) costs
        nothing. No vote wraps into the next row, since
        `x + mx - dx <= x + sx < W`. Walking the planes from the top down,
        and ANDing in each plane that leaves the mask non-empty, leaves the
        mask of the most-voted cells and gives their count, `hits`; its
        lowest set bit is the top-left-most of them, since bits run row by
        row.

        The composites found are bucketed by `(hits, parts)`; buckets with
        equal scores (1/2 and 2/4) are merged, the scores are walked best
        first, and each bucket is sorted on plain `(-scale, concept,
        anchor)` tuples: larger scale first, then lower id.

        Under inhibition, filter this list by `sessions.is_inhibited` on
        each match's concept; that is the ranked list of the composites
        left active, since each is scored and ranked on its own.
        """
        from fractions import Fraction

        detected = self._detect(g)  # detected node -> its anchors in g
        detected.pop(None, None)
        nodes, children, codes = self.graph.nodes, self.graph._children, self._codes
        voters = []  # (composite, its code)
        for node_id in set(detected).union(*(self.graph._parents.get(n, ()) for n in detected)):
            if nodes[node_id].kind is not NodeKind.COMPOSITE:
                continue
            if node_id in detected:
                code = _code(((node_id, (0, 0)),))
            elif node_id in codes:
                code = codes[node_id]
            else:
                code = codes[node_id] = _code(children[node_id])
            voters.append((node_id, code))
        w = g.width + max((code[3] for _, code in voters), default=0)
        h = g.height + max((code[4] for _, code in voters), default=0)
        if w * h > MAX_RECOGNITION_CELLS:
            raise BoundsError(
                f"recognition needs a canvas of {w}x{h} cells, "
                f"more than MAX_RECOGNITION_CELLS ({MAX_RECOGNITION_CELLS})"
            )
        masks = {}
        for node_id, xys in detected.items():
            mask = 0
            for x, y in xys:
                mask |= 1 << (y * w + x)
            masks[node_id] = mask
        buckets: dict[tuple[int, int], list] = {}  # (hits, parts) -> (-scale, concept, anchor)
        for node_id, (parts, x0, y0, _, _, links) in voters:
            base = y0 * w + x0
            # bit 0 of every cell's vote count, then bits 1, 2, ...
            low, planes = 0, []
            for child, (dx, dy) in links:
                mask = masks.get(child)
                if mask is None:
                    continue
                carry = mask << (base - dy * w - dx)
                low, carry = low ^ carry, low & carry
                if carry:
                    for i, plane in enumerate(planes):
                        planes[i] = plane ^ carry
                        carry &= plane
                        if not carry:
                            break
                    else:
                        planes.append(carry)
            planes.insert(0, low)
            best, hits = -1, 0  # -1 has every bit set
            for i in range(len(planes) - 1, -1, -1):
                both = best & planes[i]
                if both:
                    best, hits = both, hits | 1 << i
            y, x = divmod((best & -best).bit_length() - 1, w)
            buckets.setdefault((hits, parts), []).append((-nodes[node_id].scale, node_id, (x - x0, y - y0)))
        by_score: dict[Fraction, list] = {}
        for key, bucket in buckets.items():
            by_score.setdefault(Fraction(*key), []).extend(bucket)
        # `tuple.__new__` builds a match without the named tuple's `__new__`
        matches, new = [], tuple.__new__
        for score in sorted(by_score, reverse=True):
            bucket = by_score[score]
            bucket.sort()
            matches += [new(RecognitionMatch, (n, anchor, score)) for _, n, anchor in bucket]
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

        # a Fraction is in lowest terms, so equal scores (1/2 and 2/4) share
        # a ratio, and the sort below compares integer ranks, not Fractions
        scores = {ratio(e): e[0].score for e in results}
        rank = {r: i for i, r in enumerate(sorted(scores, key=scores.get, reverse=True))}
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
