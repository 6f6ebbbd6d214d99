"""Concept node/link store.

Nodes are never deleted; ids are dense non-negative integers assigned in
creation order. Links come in three flavors: composition (parent -> child
with a placement role), excitatory association (symmetric co-occurrence
counter) and mutex (symmetric inhibitory pair).

Mutex links live in one symmetric adjacency map, node -> set of partners,
so `mutex_partners` costs O(degree); `mutex` is a read-only view of the
same links as sorted pairs.

The composition link maps, parent -> children and child -> parents, hold
entries only for nodes that have links, so a childless atom such as a
`State` costs one slotted `ConceptNode` record and nothing else; readers
look a node's links up with `.get(n, ())`.

Roles are (dx, dy) integer offsets of the child's anchor inside the
parent's frame; ordinal positions (state sequences) are encoded as (i, 0).
A node's children are stored as one sorted tuple of distinct (child, role)
pairs, which is also its key in the composite index; `_attach` stores it
on both paths into the graph, `create_composite` and import. A child
exists before its parent takes the next id, so a child's id is always
below its parent's, and the graph has no cycle.

In the `CGRAPH 1` text format a record is whitespace-separated fields,
and a node's label is the rest of its `N` line: bare when it is non-empty
and has no whitespace and no double quote, otherwise double-quoted with
the escapes listed at `_ESCAPES`. `import_text` reads a file in one pass
and loads only what `create_atom` and `create_composite` could have built,
so a `C` record whose child id is not below its parent's is a `ParseError`.
A learned graph places a few parts at a few offsets many times over, so
within one call import parses each distinct `child dx dy` text of a `C`
record once and shares the one (child, role) pair among every composite
that places it, and export formats each distinct pair once.
"""

from __future__ import annotations

import contextlib
import operator
import os
import re
from enum import Enum

Role = tuple[int, int]


class NodeKind(Enum):
    PRIMITIVE = "Primitive"
    COMPOSITE = "Composite"
    STATE = "State"
    TRANSFORMATION = "Transformation"
    SOLUTION = "SolutionConcept"


# the kinds whose nodes have children; a node of any other kind is an atom
PARENT_KINDS = (NodeKind.COMPOSITE, NodeKind.SOLUTION)


class GraphError(Exception):
    pass


class ArityError(GraphError):
    pass


class SelfMutexError(GraphError):
    pass


class UnknownNodeError(GraphError):
    pass


class ParseError(GraphError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ConceptNode:
    __slots__ = ("id", "kind", "label", "scale")

    def __init__(self, id: int, kind: NodeKind, label: str = "", scale: int = 1):
        self.id = id
        self.kind = kind
        self.label = label
        self.scale = scale


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _key(children: list[tuple[int, Role]]) -> tuple[tuple[int, Role], ...]:
    """The distinct (child, role) pairs of `children` as one sorted tuple, a
    composite's key. More than 4 pairs already strictly increasing, as an
    export and a route on a fresh state space list them, are taken as they
    are; fewer sort about as fast as they are checked."""
    if len(children) > 4:
        key = tuple(children)
        if all(map(operator.lt, key, key[1:])):
            return key
    return tuple(sorted(set(children)))


class ConceptGraph:
    def __init__(self):
        self.nodes: dict[int, ConceptNode] = {}
        self._children: dict[int, tuple[tuple[int, Role], ...]] = {}
        self._parents: dict[int, set[int]] = {}
        self._composite_index: dict[tuple, int] = {}
        self.excitatory: dict[tuple[int, int], int] = {}
        self._mutex: dict[int, set[int]] = {}

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> ConceptNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"no node {node_id}") from None

    def node_ids(self) -> list[int]:
        return list(self.nodes)  # ids are dense, in creation order

    # -- creation ----------------------------------------------------------

    def _new_node(self, kind: NodeKind, label: str = "", scale: int = 1) -> int:
        node_id = len(self.nodes)
        self.nodes[node_id] = ConceptNode(node_id, kind, label, scale)
        return node_id

    def create_primitive(self, label: str, scale: int = 1) -> int:
        return self.create_atom(NodeKind.PRIMITIVE, label, scale)

    def create_atom(self, kind: NodeKind, label: str = "", scale: int = 1) -> int:
        """One childless node, made by `create_atoms`, with a positive
        `scale`."""
        if scale < 1:
            raise ValueError("scale must be positive")
        node_id = self.create_atoms(kind, [label])[0]
        self.nodes[node_id].scale = scale
        return node_id

    def create_atoms(self, kind: NodeKind, labels: list[str]) -> range:
        """One childless node of scale 1 per label, with consecutive ids, of
        any kind not in `PARENT_KINDS` (primitives, states, transformations)."""
        if kind in PARENT_KINDS:
            raise ValueError(f"a {kind.value} node needs children")
        nodes = self.nodes
        first = len(nodes)
        for node_id, label in enumerate(labels, first):
            nodes[node_id] = ConceptNode(node_id, kind, label)
        return range(first, len(nodes))

    def create_composite(
        self,
        children: list[tuple[int, Role]],
        kind: NodeKind = NodeKind.COMPOSITE,
    ) -> int:
        if kind not in PARENT_KINDS:
            raise ValueError(f"a {kind.value} node has no children")
        key = _key(children)
        if len(key) < 2:
            raise ArityError(f"composite needs >= 2 children, got {len(key)}")
        # only known children are ever indexed, so a hit needs no check
        existing = self._composite_index.get(key)
        if existing is not None:
            return existing
        nodes = self.nodes
        try:
            scale = sum(nodes[c].scale for c, _ in key)
        except KeyError as missing:  # the first unknown child in key order
            raise UnknownNodeError(f"no node {missing.args[0]}") from None
        node_id = self._new_node(kind, scale=scale)
        self._attach(node_id, key)
        return node_id

    def _attach(self, node_id: int, key: tuple[tuple[int, Role], ...]) -> None:
        """Store `key`, a sorted tuple of distinct (child, role) pairs whose
        children all have ids below `node_id`, as that node's links."""
        self._children[node_id] = key
        parents = self._parents
        for child, _role in key:
            linked = parents.get(child)
            if linked is None:
                parents[child] = {node_id}
            else:
                linked.add(node_id)
        self._composite_index[key] = node_id

    # -- associations ------------------------------------------------------

    def add_mutex(self, a: int, b: int) -> None:
        if a == b:
            raise SelfMutexError(f"mutex requires two distinct nodes, got {a}")
        self.node(a)
        self.node(b)
        self._mutex.setdefault(a, set()).add(b)
        self._mutex.setdefault(b, set()).add(a)

    @property
    def mutex(self) -> set[tuple[int, int]]:
        """Every mutex link as a sorted (low, high) pair."""
        return {(a, b) for a, partners in self._mutex.items() for b in partners if a < b}

    def mutex_partners(self, n: int) -> set[int]:
        return set(self._mutex.get(n, ()))

    def record_association(self, co_active) -> None:
        ids = sorted(set(co_active))
        for n in ids:
            self.node(n)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                self.excitatory[(a, b)] = self.excitatory.get((a, b), 0) + 1

    def neighbors_by_weight(self, n: int) -> list[tuple[int, int]]:
        """(weight, other) pairs for every excitatory link touching n."""
        out = []
        for (a, b), w in self.excitatory.items():
            if a == n:
                out.append((w, b))
            elif b == n:
                out.append((w, a))
        return out

    # -- structure queries -------------------------------------------------

    def children_of(self, n: int) -> list[tuple[int, Role]]:
        self.node(n)
        return list(self._children.get(n, ()))

    def find_composite(self, children: list[tuple[int, Role]]) -> int | None:
        return self._composite_index.get(_key(children))

    # -- persistence -------------------------------------------------------

    def export_text(self) -> str:
        lines = ["CGRAPH 1"]
        for n in self.nodes.values():  # in id order
            lines.append(f"N {n.id} {n.kind.value} {n.scale} {_quote(n.label)}")
        texts: dict[tuple[int, Role], str] = {}  # each distinct pair's `child dx dy`
        for parent, children in self._children.items():  # in id order, children sorted
            prefix = f"C {parent} "
            for pair in children:
                text = texts.get(pair)
                if text is None:
                    child, (dx, dy) = pair
                    text = texts[pair] = f"{child} {dx} {dy}"
                lines.append(prefix + text)
        for (a, b) in sorted(self.excitatory):
            lines.append(f"E {a} {b} {self.excitatory[(a, b)]}")
        for (a, b) in sorted(self.mutex):
            lines.append(f"M {a} {b}")
        return "\n".join(lines) + "\n"

    def export_file(self, destination) -> None:
        """Write through a temp file beside `destination`, then rename it
        over `destination`, so a failed export leaves the old file whole.
        An `OSError` names `destination`, not the temp file."""
        tmp = f"{destination}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(self.export_text())
            os.replace(tmp, destination)
        except BaseException as exc:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            if isinstance(exc, OSError):
                raise OSError(exc.errno, exc.strerror, os.fspath(destination)) from None
            raise

    @classmethod
    def import_text(cls, text: str) -> "ConceptGraph":
        """Parse a `CGRAPH 1` text in one pass and build the graph that
        `create_atom` and `create_composite` would have built.

        Every record is read first: `N` ids must run 0, 1, 2, ... in file
        order, so a repeated id is refused, and each `M` record goes through
        `add_mutex` and its checks. A second `E` record for one pair of
        nodes is refused: a pair has one weight, and no export writes two.
        A repeated `M` record loads as one link, since `add_mutex` is
        idempotent, as a repeated `C` record loads as one child. Then each
        `C` record must place a known child whose id is below its parent's
        (checked in file order), so no cycle can load. Then, in id order, a
        node whose kind is not in `PARENT_KINDS` must have no links, as
        `create_atom` makes it, and a node whose kind is must be one
        `create_composite` makes: at least 2 distinct (child, role) pairs, a
        child set no earlier node has, and a scale that is the sum of its
        children's.
        Any record that breaks a rule is a `ParseError` naming its line.
        """
        lines = text.splitlines()
        if not lines or lines[0].strip() != "CGRAPH 1":
            raise ParseError(1, "missing 'CGRAPH 1' header")
        g = cls()
        kinds = {k.value: k for k in NodeKind}
        links: list[tuple[int, int, tuple[int, Role]]] = []  # line, parent, (child, role)
        pairs: dict[str, tuple[int, Role]] = {}  # each distinct `child dx dy` text, parsed
        node_lines: list[int] = []  # each node's N line
        last, parent = "", 0  # the previous C record's parent field, parsed
        for line_no, raw in enumerate(lines[1:], start=2):
            line = raw.strip()
            if not line:
                continue
            fields = line.split(None, 2)  # a C record as tag, parent, `child dx dy`
            tag = fields[0]
            try:
                if tag == "C":
                    _, p, rest = fields
                    if p != last:
                        parent, last = int(p), p
                    pair = pairs.get(rest)
                    if pair is None:
                        c, dx, dy = rest.split()
                        pair = pairs[rest] = (int(c), (int(dx), int(dy)))
                    links.append((line_no, parent, pair))
                elif tag == "N":  # a label is the rest of its line
                    _, sid, kind_name, sscale, quoted = line.split(None, 4)
                    label = _unquote(quoted)
                    node_id, scale = int(sid), int(sscale)
                    if kind_name not in kinds:
                        raise ParseError(line_no, f"unknown kind {kind_name!r}")
                    if node_id != len(g.nodes):
                        raise ParseError(line_no, f"node ids must be dense, got {node_id}")
                    if scale < 1:
                        raise ParseError(line_no, f"scale must be >= 1, got {scale}")
                    g._new_node(kinds[kind_name], label, scale)
                    node_lines.append(line_no)
                elif tag == "E":
                    _, a, b, w = line.split()
                    ia, ib, iw = int(a), int(b), int(w)
                    if ia not in g.nodes or ib not in g.nodes:
                        raise ParseError(line_no, "excitatory link to unknown node")
                    if ia == ib:
                        raise ParseError(line_no, "excitatory link must join distinct nodes")
                    if iw < 1:
                        raise ParseError(line_no, f"weight must be >= 1, got {iw}")
                    if _pair(ia, ib) in g.excitatory:
                        raise ParseError(line_no, f"second excitatory link between {ia} and {ib}")
                    g.excitatory[_pair(ia, ib)] = iw
                elif tag == "M":
                    _, a, b = line.split()
                    g.add_mutex(int(a), int(b))
                else:
                    raise ParseError(line_no, f"unknown record tag {tag!r}")
            except ParseError:
                raise
            except GraphError as exc:  # add_mutex's checks
                raise ParseError(line_no, f"mutex link: {exc}") from None
            except (ValueError, IndexError) as exc:
                raise ParseError(line_no, f"malformed record: {exc}") from None
        nodes, count = g.nodes, len(g.nodes)
        grouped: list[list[tuple[int, Role]]] = [[] for _ in nodes]
        for line_no, parent, pair in links:
            if not 0 <= pair[0] < parent < count:
                child = pair[0]
                rule = "unknown node" if child < parent else "child id not below parent id"
                raise ParseError(line_no, f"composition link {parent}->{child}: {rule}")
            grouped[parent].append(pair)
        scales = [node.scale for node in nodes.values()]
        for node_id, entries in enumerate(grouped):  # in id order, children first
            node = nodes[node_id]
            if node.kind not in PARENT_KINDS:
                if not entries:
                    continue  # an atom, as create_atom makes
                problem = f"has children, but a {node.kind.value} node has none"
            elif len(key := _key(entries)) < 2:
                problem = f"needs 2 or more children, has {len(key)}"
            elif key in g._composite_index:
                problem = f"has the same children as node {g._composite_index[key]}"
            elif node.scale != sum([scales[c] for c, _role in key]):
                problem = f"has scale {node.scale}, not the sum of its children's"
            else:
                g._attach(node_id, key)
                continue
            raise ParseError(node_lines[node_id], f"node {node_id} {problem}")
        return g


_NEEDS_QUOTES = re.compile(r'[\s"]')
# one table spells a quoted label both ways: `\\`, `\"`, and `\uXXXX` for
# each character str.splitlines breaks at, so a label never splits a record
_ESCAPES = {"\\": "\\\\", '"': '\\"'} | {
    ch: f"\\u{ord(ch):04x}" for ch in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
}
_UNESCAPES = {esc: ch for ch, esc in _ESCAPES.items()}
_UNESCAPE = re.compile("|".join(map(re.escape, _UNESCAPES)))
_QUOTED = re.compile(rf'"((?:[^"\\]|{_UNESCAPE.pattern})*)"')


def _quote(label: str) -> str:
    """A label as the last field of an `N` record; `_unquote` inverts it."""
    if label and not _NEEDS_QUOTES.search(label):
        return label
    return '"' + "".join(_ESCAPES.get(ch, ch) for ch in label) + '"'


def _unquote(field: str) -> str:
    if not _NEEDS_QUOTES.search(field):
        return field
    m = _QUOTED.fullmatch(field)
    if m is None:
        raise ValueError(f"bad label {field!r}")
    return _UNESCAPE.sub(lambda e: _UNESCAPES[e[0]], m[1])
