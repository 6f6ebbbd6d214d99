"""Node/link store behavior: creation, dedup, mutex, persistence."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmind import ConceptGraph, NodeKind, SessionStack
from gridmind.cli import main
from gridmind.graph import ArityError, ParseError, SelfMutexError, UnknownNodeError
from oracles import inhibition_closure_oracle, legacy_quote, links_on_cycles, parents_by_node


def test_first_primitive_gets_id_zero():
    g = ConceptGraph()
    assert g.create_primitive("cell:x", 1) == 0
    assert g.nodes[0].kind is NodeKind.PRIMITIVE


def test_identical_labels_make_distinct_nodes():
    g = ConceptGraph()
    a = g.create_primitive("cell:x")
    b = g.create_primitive("cell:x")
    assert a != b


def test_scale_stored_verbatim():
    g = ConceptGraph()
    n = g.create_primitive("edge:h3", 3)
    assert g.nodes[n].scale == 3


def test_composite_reuse_same_id():
    g = ConceptGraph()
    a = g.create_primitive("a")
    b = g.create_primitive("b")
    children = [(a, (0, 0)), (b, (2, 0))]
    c1 = g.create_composite(children)
    before = len(g)
    c2 = g.create_composite(list(reversed(children)))
    assert c1 == c2
    assert len(g) == before


def test_composite_scale_counts_each_placement():
    g = ConceptGraph()
    a = g.create_primitive("a", 2)
    c = g.create_composite([(a, (0, 0)), (a, (1, 0)), (a, (2, 0))])
    assert g.nodes[c].scale == 6


def test_composite_arity_error():
    g = ConceptGraph()
    a = g.create_primitive("a")
    with pytest.raises(ArityError):
        g.create_composite([(a, (0, 0))])


@pytest.mark.parametrize("unknown", [4, -1, 0.5], ids=["past-the-end", "negative", "half"])
def test_create_composite_names_its_first_unknown_child(unknown):
    g = ConceptGraph()
    a, b, c = (g.create_primitive(label) for label in "abc")
    known = g.create_composite([(a, (0, 0)), (b, (1, 0))])
    index = dict(g._composite_index)
    # 7 is unknown too, but `unknown` comes first in key order, not in the list
    children = [(7, (0, 0)), (c, (1, 0)), (unknown, (2, 0)), (a, (0, 0))]
    for kind in (NodeKind.COMPOSITE, NodeKind.SOLUTION):
        with pytest.raises(UnknownNodeError, match=rf"^no node {unknown}$"):
            g.create_composite(children, kind=kind)
    assert len(g) == known + 1
    assert g._composite_index == index


def test_cycle_rejected_on_import():
    text = (
        "CGRAPH 1\n"
        "N 0 Composite 1 a\n"
        "N 1 Composite 1 b\n"
        "C 0 1 0 0\n"
        "C 1 0 0 0\n"
    )
    with pytest.raises(ParseError):
        ConceptGraph.import_text(text)


def test_mutex_symmetric_and_idempotent():
    g = ConceptGraph()
    flame = g.create_primitive("flame")
    water = g.create_primitive("water")
    g.add_mutex(flame, water)
    g.add_mutex(water, flame)
    assert g.mutex == {(flame, water)}
    assert g.mutex_partners(flame) == {water}


def test_self_mutex_rejected():
    g = ConceptGraph()
    n = g.create_primitive("n")
    with pytest.raises(SelfMutexError):
        g.add_mutex(n, n)


def test_association_counter_semantics():
    g = ConceptGraph()
    a = g.create_primitive("a")
    b = g.create_primitive("b")
    c = g.create_primitive("c")
    g.record_association([a, b])
    g.record_association([b, a])
    assert g.excitatory == {(a, b): 2}
    g.record_association([a])
    assert g.excitatory == {(a, b): 2}
    g.record_association([c, b, a])
    assert g.excitatory == {(a, b): 3, (a, c): 1, (b, c): 1}


# -- persistence -----------------------------------------------------------


def test_empty_graph_round_trip():
    g = ConceptGraph()
    text = g.export_text()
    assert text.startswith("CGRAPH 1")
    g2 = ConceptGraph.import_text(text)
    assert len(g2) == 0
    assert g2.export_text() == g.export_text()


def test_round_trip_preserves_mutex_scene():
    g = ConceptGraph()
    ids = [g.create_primitive(f"f{i}") for i in range(1, 5)]
    g.add_mutex(ids[1], ids[2])
    g.add_mutex(ids[3], ids[1])
    g.create_composite([(ids[0], (0, 0)), (ids[1], (1, 0))])
    g.create_composite([(ids[2], (0, 0)), (ids[3], (1, 0))])
    g.record_association(ids)
    g2 = ConceptGraph.import_text(g.export_text())
    assert g2.mutex == g.mutex
    assert g2.mutex_partners(ids[1]) == {ids[2], ids[3]}
    assert [g2.mutex_partners(n) for n in ids] == [g.mutex_partners(n) for n in ids]
    assert g2.excitatory == g.excitatory
    assert g2.export_text() == g.export_text()


def test_failed_export_keeps_existing_file(tmp_path, monkeypatch):
    g = ConceptGraph()
    g.create_primitive("a")
    dest = tmp_path / "kb.cg"
    g.export_file(dest)
    before = dest.read_bytes()

    def broken(self):
        raise RuntimeError("export failed")

    g.create_primitive("b")
    monkeypatch.setattr(ConceptGraph, "export_text", broken)
    with pytest.raises(RuntimeError):
        g.export_file(dest)
    assert dest.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["kb.cg"]


def test_dangling_child_is_parse_error():
    text = "CGRAPH 1\nN 0 Primitive 1 a\nC 0 7 0 0\n"
    with pytest.raises(ParseError) as exc:
        ConceptGraph.import_text(text)
    assert "line 3" in str(exc.value)


# Files that no sequence of `create_atom` and `create_composite` calls
# could have written, and the line each is refused at.
_UNCONSTRUCTIBLE = {
    "one-child": ('N 0 Primitive 1 cell:x\nN 1 Composite 1 ""\nC 1 0 0 0', 3),
    "scale-not-sum": ('N 0 Primitive 1 cell:x\nN 1 Composite 99 ""\nC 1 0 0 0\nC 1 0 1 0', 3),
    "same-children": (
        'N 0 Primitive 1 cell:x\nN 1 Composite 2 ""\nN 2 Composite 2 ""\n'
        "C 1 0 0 0\nC 1 0 1 0\nC 2 0 1 0\nC 2 0 0 0",
        4,
    ),
    "zero-scale": ("N 0 Primitive 0 cell:x", 2),
    "child-above-parent": ('N 0 Composite 2 ""\nN 1 Primitive 1 cell:x\nC 0 1 0 0\nC 0 1 1 0', 4),
    "childless-composite": ('N 0 Composite 1 ""', 2),
    "childless-solution": ('N 0 Primitive 1 cell:x\nN 1 SolutionConcept 1 ""', 3),
    "self-excitatory": ("N 0 Primitive 1 cell:x\nE 0 0 1", 3),
    "self-composition": ("N 0 Composite 1 a\nC 0 0 0 0", 3),
    "two-node-cycle": (
        'N 0 Primitive 1 cell:x\nN 1 Composite 2 ""\nN 2 Composite 3 ""\n'
        "C 1 0 0 0\nC 1 2 0 0\nC 2 1 0 0\nC 2 0 1 0",
        6,
    ),
    # only a Composite or a SolutionConcept node has children
    "primitive-with-children": (
        "N 0 Primitive 1 cell:x\nN 1 Primitive 1 cell:y\nN 2 Primitive 2 cell:z\n"
        "C 2 0 0 0\nC 2 1 1 0",
        4,
    ),
    "state-with-children": (
        "N 0 State 1 state:0,0\nN 1 State 1 state:1,0\nN 2 State 2 state:2,0\n"
        "C 2 0 0 0\nC 2 1 1 0",
        4,
    ),
    "transformation-with-children": (
        "N 0 Primitive 1 cell:x\nN 1 Transformation 2 tf:identity\nC 1 0 0 0\nC 1 0 1 0",
        3,
    ),
    "unknown-kind": ("N 0 Widget 1 cell:x", 2),
    "repeated-id": ("N 0 Primitive 1 cell:x\nN 0 Primitive 1 cell:y", 3),
    "zero-weight": ("N 0 Primitive 1 cell:x\nN 1 Primitive 1 cell:y\nE 0 1 0", 4),
    "excitatory-to-unknown": ("N 0 Primitive 1 cell:x\nE 0 5 1", 3),
    "mutex-to-unknown": ("N 0 Primitive 1 cell:x\nM 0 5", 3),
    "self-mutex": ("N 0 Primitive 1 cell:x\nM 0 0", 3),
    # a pair has one weight, and record_association counts, so a second
    # record cannot be a later update of the first
    "repeated-excitatory": ("N 0 Primitive 1 cell:x\nN 1 Primitive 1 cell:y\nE 0 1 3\nE 1 0 5", 5),
}


@pytest.mark.parametrize(
    "records, line_no", list(_UNCONSTRUCTIBLE.values()), ids=list(_UNCONSTRUCTIBLE)
)
def test_import_refuses_what_construction_cannot_build(capsys, tmp_path, records, line_no):
    text = f"CGRAPH 1\n{records}\n"
    with pytest.raises(ParseError) as exc:
        ConceptGraph.import_text(text)
    assert exc.value.line_no == line_no
    path = tmp_path / "kb.cg"
    path.write_text(text)
    assert main(["graph", "import", str(path)]) == 2
    assert f": line {line_no}: " in capsys.readouterr().err


# Files with a record said twice that load as if it were said once: a
# mutex link and a composition link are members of a set. Each is paired
# with the records its graph exports.
_REPEATS_THAT_LOAD = {
    "repeated-mutex": (
        "N 0 Primitive 1 cell:x\nN 1 Primitive 1 cell:y\nM 0 1\nM 1 0",
        "N 0 Primitive 1 cell:x\nN 1 Primitive 1 cell:y\nM 0 1",
    ),
    "repeated-composition": (
        'N 0 Primitive 1 cell:x\nN 1 Composite 2 ""\nC 1 0 0 0\nC 1 0 1 0\nC 1 0 0 0',
        'N 0 Primitive 1 cell:x\nN 1 Composite 2 ""\nC 1 0 0 0\nC 1 0 1 0',
    ),
}


@pytest.mark.parametrize(
    "records, exported", list(_REPEATS_THAT_LOAD.values()), ids=list(_REPEATS_THAT_LOAD)
)
def test_import_loads_a_repeated_set_member_once(records, exported):
    g = ConceptGraph.import_text(f"CGRAPH 1\n{records}\n")
    assert g.export_text() == f"CGRAPH 1\n{exported}\n"


def test_create_atom_refuses_composite_kinds():
    g = ConceptGraph()
    for kind in (NodeKind.COMPOSITE, NodeKind.SOLUTION):
        with pytest.raises(ValueError):
            g.create_atom(kind, "x")
    assert len(g) == 0


@pytest.mark.parametrize("kind", [NodeKind.COMPOSITE, NodeKind.SOLUTION])
def test_create_atoms_refuses_composite_kinds(kind):
    g = ConceptGraph()
    with pytest.raises(ValueError, match="needs children"):
        g.create_atoms(kind, ["x"])
    assert len(g) == 0


def test_create_atom_refuses_zero_scale():
    g = ConceptGraph()
    with pytest.raises(ValueError, match="scale"):
        g.create_atom(NodeKind.PRIMITIVE, "x", scale=0)
    assert len(g) == 0


def test_import_skips_blank_lines():
    g = ConceptGraph.import_text("CGRAPH 1\nN 0 Primitive 1 a\n\n  \nN 1 Primitive 1 b\nM 0 1\n")
    assert [g.nodes[n].label for n in g.node_ids()] == ["a", "b"]
    assert g.mutex == {(0, 1)}


def test_create_composite_refuses_atom_kinds():
    g = ConceptGraph()
    a, b = g.create_primitive("a"), g.create_primitive("b")
    for kind in (NodeKind.PRIMITIVE, NodeKind.STATE, NodeKind.TRANSFORMATION):
        with pytest.raises(ValueError):
            g.create_composite([(a, (0, 0)), (b, (1, 0))], kind=kind)
    assert len(g) == 2


def _constructed(rng: random.Random) -> ConceptGraph:
    """Atoms and composites built in a random order, with associations."""
    g = ConceptGraph()
    for i in range(rng.randint(1, 3)):
        g.create_atom(rng.choice([NodeKind.PRIMITIVE, NodeKind.STATE]), f"a{i}", rng.randint(1, 3))
    for i in range(rng.randint(2, 14)):
        pool = g.node_ids()
        if rng.random() < 0.3:
            g.create_atom(NodeKind.TRANSFORMATION, f"t{i}", rng.randint(1, 3))
            continue
        children = [(rng.choice(pool), (rng.randint(-1, 1), 0)) for _ in range(rng.randint(2, 4))]
        if len(set(children)) >= 2:
            g.create_composite(children, rng.choice([NodeKind.COMPOSITE, NodeKind.SOLUTION]))
    for _ in range(rng.randint(0, 4)):
        g.record_association(rng.sample(g.node_ids(), 2))
    return g


_DEFECTS = ["one-child", "scale", "same-children", "zero-scale", "up-link", "childless", "self-E"]


def _inject(rng: random.Random, g: ConceptGraph, nodes: list[str], rest: list[str], defect: str):
    """Break one rule of construction in the records of `g`; returns the
    record the error must name, or None if `g` has no place for `defect`."""
    composites = [n for n in g.node_ids() if g.children_of(n)]
    if defect == "up-link":  # a self-link, a cycle, or a link to a later node
        parent = rng.choice(g.node_ids())
        bad = f"C {parent} {rng.randint(parent, len(g) - 1)} 0 0"
        rest.append(bad)
        return bad
    if defect == "self-E":
        n = rng.choice(g.node_ids())
        rest.append(f"E {n} {n} 1")
        return rest[-1]
    if defect == "zero-scale":
        n = rng.choice(g.node_ids())
        kind = g.nodes[n].kind.value
        nodes[n] = nodes[n].replace(f"N {n} {kind} {g.nodes[n].scale} ", f"N {n} {kind} 0 ")
        return nodes[n]
    if not composites:
        return None
    k = rng.choice(composites)
    node = g.nodes[k]
    if defect == "same-children":
        n = len(g)
        nodes.append(f'N {n} Composite {node.scale} ""')
        rest += [f"C {n} {c} {dx} {dy}" for c, (dx, dy) in g.children_of(k)]
        return nodes[-1]
    if defect == "scale":
        scale = node.scale + rng.choice([-1, 1, 97])
        if scale < 1:
            return None
        nodes[k] = f"N {k} {node.kind.value} {scale} {nodes[k].split(None, 4)[4]}"
        return nodes[k]
    links = [r for r in rest if r.startswith(f"C {k} ")]
    rest[:] = [r for r in rest if r not in links]
    if defect == "one-child":
        rest += [rng.choice(links)] * rng.randint(1, 2)
    return nodes[k]


def test_import_rejects_exactly_the_cyclic_link_sets_random():
    """A shuffled construction replay loads, and exports as the graph it
    came from; the same records with one rule of construction broken are
    refused at the line that breaks it. Every cyclic link set is refused."""
    rng = random.Random(29)
    refused, cyclic = {defect: 0 for defect in _DEFECTS}, 0
    for case in range(600):
        g = _constructed(rng)
        text = g.export_text()
        records = text.splitlines()[1:]
        nodes = [r for r in records if r.startswith("N ")]
        rest = [r for r in records if not r.startswith("N ")]
        rest += [r for r in rest if r.startswith("C ") and rng.random() < 0.3]
        defect = rng.choice(_DEFECTS) if case % 4 else None
        bad = _inject(rng, g, nodes, rest, defect) if defect else None
        rng.shuffle(rest)
        lines = ["CGRAPH 1", *nodes, *rest]
        links = [tuple(map(int, r.split()[1:3])) for r in rest if r.startswith("C ")]
        if bad is None:
            assert not links_on_cycles(links)
            assert ConceptGraph.import_text("\n".join(lines) + "\n").export_text() == text
            continue
        refused[defect] += 1
        with pytest.raises(ParseError) as exc:
            ConceptGraph.import_text("\n".join(lines) + "\n")
        assert exc.value.line_no == lines.index(bad) + 1
        if links_on_cycles(links):
            assert defect == "up-link"
            cyclic += 1
    assert min(refused.values()) > 30, refused
    assert cyclic > 10


def test_unsorted_duplicated_records_import_as_create_composite_builds():
    rng = random.Random(31)
    for _ in range(30):
        g = _random_graph(rng, max_nodes=40)
        text = g.export_text()
        records = text.splitlines()[1:]
        links = [r for r in records if r.startswith("C ")]
        rest = [r for r in records if r[0] in "EMC"] + rng.sample(links, len(links) // 3)
        rng.shuffle(rest)
        nodes = [r for r in records if r.startswith("N ")]
        g2 = ConceptGraph.import_text("\n".join(["CGRAPH 1", *nodes, *rest]) + "\n")
        assert g2.export_text() == text
        for n in g.node_ids():
            children = g.children_of(n)
            assert g2.children_of(n) == children
            if children:
                placed = children + rng.sample(children, len(children) // 2)
                rng.shuffle(placed)
                assert g2.find_composite(placed) == g.find_composite(placed) == n


def _atoms_among_composites(rng: random.Random) -> tuple[ConceptGraph, list[int]]:
    """States, transformations and primitives interleaved with composites;
    returns the graph and the atoms that no composite places."""
    g = ConceptGraph()
    linkable, lone = [], []
    for i in range(rng.randint(10, 40)):
        if len(linkable) >= 2 and rng.random() < 0.4:
            children = [(rng.choice(linkable), (rng.randint(-2, 2), 0)) for _ in range(3)]
            if len(set(children)) >= 2:
                linkable.append(g.create_composite(children))
            continue
        kind = rng.choice([NodeKind.STATE, NodeKind.TRANSFORMATION, NodeKind.PRIMITIVE])
        atom = g.create_atom(kind, f"a{i}")
        (lone if rng.random() < 0.3 else linkable).append(atom)
    for _ in range(rng.randint(0, 6)):
        g.add_mutex(*rng.sample(g.node_ids(), 2))
    return g, lone


def test_link_maps_hold_only_linked_nodes_random():
    rng = random.Random(37)
    for _ in range(40):
        g, lone = _atoms_among_composites(rng)
        text = g.export_text()
        records = text.splitlines()[1:]
        links = [r for r in records if r.startswith("C ")]
        links += rng.sample(links, len(links) // 2)
        links.sort(key=lambda r: int(r.split()[1]), reverse=True)
        rest = [r for r in records if not r.startswith("C ")]
        g2 = ConceptGraph.import_text("\n".join(["CGRAPH 1", *rest, *links]) + "\n")
        assert g2.export_text() == text
        for graph in (g, g2):
            assert set(graph._children) == {int(r.split()[1]) for r in links}
            assert set(graph._parents) == {int(r.split()[2]) for r in links}
            parents = parents_by_node(graph)
            for n in lone:
                assert graph.children_of(n) == []
                assert parents[n] == set()
        s = SessionStack(g2)
        for n in rng.sample(g2.node_ids(), 3) + lone[:1]:
            s.inhibit(n)
        before = s.inhibited_nodes()
        expected = inhibition_closure_oracle(parents_by_node(g2), g2.mutex, before, set())
        assert s.propagate() == expected - before


def test_deep_chain_imports_and_exports_byte_identically():
    # 20,000 levels: node i places node i-1 and the primitive; a walk per
    # link would make import quadratic
    g = ConceptGraph()
    prim = node = g.create_primitive("cell:x")
    for _ in range(20_000):
        node = g.create_composite([(node, (0, 0)), (prim, (1, 0))])
    text = g.export_text()
    g2 = ConceptGraph.import_text(text)
    assert g2.export_text() == text
    assert g2.find_composite([(prim, (1, 0)), (node - 1, (0, 0))]) == node


def test_labels_with_spaces_round_trip():
    g = ConceptGraph()
    g.create_primitive("a label with spaces")
    g.create_primitive("")
    g2 = ConceptGraph.import_text(g.export_text())
    assert g2.nodes[0].label == "a label with spaces"
    assert g2.nodes[1].label == ""


def _random_graph(rng: random.Random, max_nodes=200) -> ConceptGraph:
    g = ConceptGraph()
    n_prims = rng.randint(1, max(1, max_nodes // 4))
    for i in range(n_prims):
        g.create_primitive(f"p{i}", rng.randint(1, 5))
    target = rng.randint(n_prims, max_nodes)
    while len(g) < target:
        pool = g.node_ids()
        k = rng.randint(2, 4)
        children = [
            (rng.choice(pool), (rng.randint(-3, 3), rng.randint(-3, 3)))
            for _ in range(k)
        ]
        if len({(c, r) for c, r in children}) < 2:
            continue
        g.create_composite(children)
    ids = g.node_ids()
    if len(ids) >= 2:
        for _ in range(rng.randint(0, 10)):
            a, b = rng.sample(ids, 2)
            g.add_mutex(a, b)
        for _ in range(rng.randint(0, 10)):
            g.record_association(rng.sample(ids, rng.randint(2, min(4, len(ids)))))
    return g


def test_round_trip_random_graphs():
    rng = random.Random(7)
    for _ in range(100):
        g = _random_graph(rng)
        text = g.export_text()
        g2 = ConceptGraph.import_text(text)
        assert g2.export_text() == text  # bit-exact re-export
        assert g2.export_text() == g.export_text()


def test_dedup_property_random():
    rng = random.Random(11)
    g = _random_graph(rng, max_nodes=40)
    pool = g.node_ids()
    children = [(pool[0], (0, 0)), (pool[1] if len(pool) > 1 else pool[0], (1, 1))]
    first = g.create_composite(children)
    count = len(g)
    assert g.create_composite(children) == first
    assert len(g) == count


@given(st.lists(st.text(max_size=8), min_size=1, max_size=8))
@settings(max_examples=200)
def test_arbitrary_labels_round_trip(labels):
    g = ConceptGraph()
    for lb in labels:
        g.create_primitive(lb)
    text = g.export_text()
    g2 = ConceptGraph.import_text(text)
    assert [g2.nodes[i].label for i in sorted(g2.nodes)] == labels
    assert g2.export_text() == text


def _is_line_break(ch: str) -> bool:
    return len(f"a{ch}b".splitlines()) > 1


@given(st.lists(st.text(max_size=8).filter(
    lambda lb: "\\" not in lb and not any(map(_is_line_break, lb))), min_size=1, max_size=8))
@settings(max_examples=200)
def test_export_matches_legacy_quoting(labels):
    g = ConceptGraph()
    for lb in labels:
        g.create_primitive(lb)
    records = g.export_text().splitlines()[1:]
    assert records == [f"N {i} Primitive 1 {legacy_quote(lb)}" for i, lb in enumerate(labels)]


def test_every_line_break_round_trips():
    breaks = [chr(i) for i in range(sys.maxunicode + 1) if _is_line_break(chr(i))]
    g = ConceptGraph()
    for ch in breaks:
        g.create_primitive(f"a{ch}b")
    text = g.export_text()
    assert len(text.splitlines()) == 1 + len(breaks)
    assert [n.label for n in ConceptGraph.import_text(text).nodes.values()] == [
        f"a{ch}b" for ch in breaks
    ]


@pytest.mark.parametrize(
    "label",
    ['"a', 'a"b', '"a"b"', '"a\\q"', '"a\\"', '"\\u0041"', "a b", '"a" b'],
)
def test_malformed_label_is_parse_error(label):
    with pytest.raises(ParseError) as exc:
        ConceptGraph.import_text(f"CGRAPH 1\nN 0 Primitive 1 {label}\n")
    assert "line 2" in str(exc.value)


def test_bare_labels_are_read_literally():
    text = "CGRAPH 1\nN 0 Primitive 1 cell:'\nN 1 Primitive 1 cell:\\\nN 2 Primitive 1 x'\\y\n"
    g = ConceptGraph.import_text(text)
    assert [n.label for n in g.nodes.values()] == ["cell:'", "cell:\\", "x'\\y"]
    assert g.export_text() == text


def test_no_node_is_its_own_ancestor_random():
    rng = random.Random(23)
    for _ in range(20):
        g = _random_graph(rng, max_nodes=60)
        for n in g.node_ids():
            # a child's id is below its parent's, so no walk returns to n
            assert all(child < n for child, _ in g.children_of(n))
