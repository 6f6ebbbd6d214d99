"""Learning: feature extraction, mirror property, recognition,
transformations, discrepancy and imagination."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmind import (
    ConceptGraph,
    Grid,
    Learner,
    NodeKind,
    SessionStack,
    Transformation,
    extract_features,
)
from gridmind.grid import MAX_DIM
from gridmind.learning import (
    BoundsError,
    EmptyInputError,
    LearningError,
    NoFitError,
    RecognitionMatch,
    find_transformation,
    transformation_candidates,
)
from oracles import random_grid, recognition_oracle

RING = "xxx\nx.x\nxxx\n"


def test_extract_ring_has_four_runs():
    feats = extract_features(Grid.from_text(RING))
    shapes = sorted((f.offsets, f.anchor) for f in feats)
    assert len(feats) == 4
    h_run = frozenset({(0, 0), (1, 0), (2, 0)})
    v_run = frozenset({(0, 0), (0, 1), (0, 2)})
    assert (h_run, (0, 0)) in shapes
    assert (h_run, (0, 2)) in shapes
    assert (v_run, (0, 0)) in shapes
    assert (v_run, (2, 0)) in shapes


def test_extract_solid_block_has_interior():
    feats = extract_features(Grid.from_text("xxx\nxxx\nxxx\n"))
    interiors = [f for f in feats if f.anchor == (1, 1)]
    assert len(interiors) == 1
    assert interiors[0].offsets == frozenset({(0, 0)})
    covered = set()
    for f in feats:
        covered |= {(f.anchor[0] + dx, f.anchor[1] + dy) for dx, dy in f.offsets}
    assert covered == {(x, y) for x in range(3) for y in range(3)}


def test_observe_single_cell():
    learner = Learner()
    report = learner.observe(Grid.from_text("x\n"))
    assert report.nodes_created == 1
    assert learner.reconstruct(report.root) == Grid.from_text("x\n")


def test_observe_empty_grid_rejected():
    with pytest.raises(EmptyInputError):
        Learner().observe(Grid(3, 3, {}))


def test_observe_idempotent():
    learner = Learner()
    g = Grid.from_text(RING)
    first = learner.observe(g)
    second = learner.observe(g)
    assert second.nodes_created == 0
    assert second.root == first.root


def test_mirror_property_ring():
    learner = Learner()
    g = Grid.from_text(RING)
    assert learner.reconstruct(learner.observe(g).root) == g.cropped()


def test_mirror_property_random_grids():
    rng = random.Random(3)
    learner = Learner()
    for _ in range(100):
        g = random_grid(rng)
        root = learner.observe(g).root
        assert learner.reconstruct(root) == g.cropped()


@st.composite
def grids(draw):
    w = draw(st.integers(1, 8))
    h = draw(st.integers(1, 8))
    cells = draw(
        st.dictionaries(
            st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)),
            st.sampled_from("abc"),
            min_size=1,
        )
    )
    return Grid(w, h, cells)


@settings(max_examples=60, deadline=None)
@given(grids())
def test_mirror_property_hypothesis(g):
    learner = Learner()
    assert learner.reconstruct(learner.observe(g).root) == g.cropped()


def test_non_interference_across_observations():
    rng = random.Random(13)
    learner = Learner()
    history = []
    for _ in range(10):
        g = random_grid(rng, max_dim=8)
        history.append((learner.observe(g).root, g.cropped().to_text()))
        for root, text in history:
            assert learner.reconstruct(root).to_text() == text


def test_reconstruct_frees_expansions_of_built_children():
    # a 64x64 block, then 60 nodes that each place the one below and one
    # more cell; keeping every expansion until the end peaked at 22 MB
    g = ConceptGraph()
    cell = g.create_primitive("cell:x")
    row = g.create_composite([(cell, (x, 0)) for x in range(64)])
    top = g.create_composite([(row, (0, y)) for y in range(64)])
    for i in range(60):
        top = g.create_composite([(top, (0, 0)), (cell, (i, 64))])
    learner = Learner(g)
    tracemalloc.start()
    try:
        grid = learner.reconstruct(top)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grid.cells) == 64 * 64 + 60
    assert peak < 4 * 2**20


# -- recognition -----------------------------------------------------------

FOUR_BARS = "aaa.bbb\n.......\nccc.ddd\n"


def test_recognize_exact_pattern_scores_one():
    learner = Learner()
    g = Grid.from_text(RING)
    root = learner.observe(g).root
    matches = learner.recognize(g)
    assert matches[0].concept == root
    assert matches[0].score == 1
    assert matches[0].anchor == (0, 0)


def test_recognize_missing_feature_scores_three_quarters():
    learner = Learner()
    root = learner.observe(Grid.from_text(FOUR_BARS)).root
    partial = Grid.from_text("aaa.bbb\n.......\nccc....\n")
    match = next(m for m in learner.recognize(partial) if m.concept == root)
    assert match.score == Fraction(3, 4)


def test_recognize_equal_scores_share_a_rank():
    # the probe scores 1/2 for `half` and 2/4 for `quarters`: equal, so the
    # larger scale (half's) comes first although (1, 2) < (2, 4)
    g = ConceptGraph()
    x = g.create_primitive("cell:x")
    heavy = g.create_primitive("cell:h", 10)
    y, z = g.create_primitive("cell:y"), g.create_primitive("cell:z")
    quarters = g.create_composite([(x, (0, 0)), (x, (2, 0)), (y, (5, 0)), (z, (7, 0))])
    half = g.create_composite([(x, (0, 0)), (heavy, (5, 0))])
    learner = Learner(g)
    matches = learner.recognize(Grid.from_text("x.x\n"))
    assert [(m.concept, m.score) for m in matches] == [
        (half, Fraction(1, 2)), (quarters, Fraction(1, 2))
    ]
    ranked = [m.concept for m, _ in learner.match_under_transformations(Grid.from_text("x.x\n"))]
    assert ranked == sorted(ranked, key=[half, quarters].index)


def test_recognize_ties_go_to_the_top_left_most_anchor():
    # `cell:x` is detected at (2, 0) and (0, 1), and each placement is one
    # vote: the tie goes to the anchor with the lower y, then the lower x
    g = ConceptGraph()
    x, z = g.create_primitive("cell:x"), g.create_primitive("cell:z")
    right = g.create_composite([(x, (0, 0)), (z, (1, 0))])
    left = g.create_composite([(x, (3, 0)), (z, (0, 0))])  # anchors left of the canvas
    probe = Grid.from_text("..x\nx..\n")
    got = [(m.concept, m.anchor, m.score) for m in Learner(g).recognize(probe)]
    assert got == [(right, (2, 0), Fraction(1, 2)), (left, (-1, 0), Fraction(1, 2))]
    assert got == recognition_oracle(g, probe)


def test_recognize_unknown_pattern_returns_nothing():
    learner = Learner()
    learner.observe(Grid.from_text(RING))
    scribble = Grid.from_text("z.z\n.z.\n")
    assert learner.recognize(scribble) == []


def test_recognize_translated_pattern():
    learner = Learner()
    root = learner.observe(Grid.from_text(RING)).root
    shifted = Grid.from_text(".....\n.xxx.\n.x.x.\n.xxx.\n")
    match = next(m for m in learner.recognize(shifted) if m.concept == root)
    assert match.score == 1
    assert match.anchor == (1, 1)


def test_recognition_humility_random():
    # patterns over disjoint symbol sets share no features at all
    rng = random.Random(29)
    learner = Learner()
    for _ in range(10):
        learner.observe(random_grid(rng, max_dim=8, symbols="abcd"))
    for _ in range(50):
        novel = random_grid(rng, max_dim=8, symbols="wxyz")
        assert all(m.score < Fraction(1, 2) for m in learner.recognize(novel))


def _scene(rng, pieces, max_dim=8):
    """Two or three of the shared pieces placed on one canvas."""
    cells = {}
    for piece in rng.sample(pieces, rng.randint(2, 3)):
        ox = rng.randint(0, max_dim - piece.width)
        oy = rng.randint(0, max_dim - piece.height)
        cells.update({(x + ox, y + oy): s for (x, y), s in piece.cells.items()})
    return Grid(max_dim, max_dim, cells)


def _probes(rng, learned, noise_dim=8):
    source = rng.choice(learned).cropped()
    w = source.width + rng.randint(0, 3)
    h = source.height + rng.randint(0, 3)
    ox, oy = rng.randint(0, w - source.width), rng.randint(0, h - source.height)
    translated = Grid(w, h, {(x + ox, y + oy): s for (x, y), s in source.cells.items()})
    partial = {p: s for p, s in source.cells.items() if rng.random() < 0.7}
    return [
        rng.choice(learned),
        translated,
        Grid(source.width, source.height, partial or dict(source.cells)),
        random_grid(rng, max_dim=noise_dim, symbols="abc"),
    ]


def _active(matches, sessions):
    """`matches` without those of inhibited composites, the filter that
    recognition under inhibition is; `sessions` may be None."""
    return [m for m in matches if sessions is None or not sessions.is_inhibited(m.concept)]


def test_recognize_matches_oracle_random():
    rng = random.Random(61)
    for case in range(40):
        learner = Learner()
        # small pieces reused across scenes give features with many parents
        pieces = [random_grid(rng, max_dim=3, symbols="ab").cropped() for _ in range(4)]
        learned = []
        for _ in range(rng.randint(1, 10)):
            if rng.random() < 0.5:
                g = _scene(rng, pieces)
            else:
                g = random_grid(rng, max_dim=6, symbols="abc")
            learner.observe(g)
            learned.append(g)
        sessions = None
        if case % 2:
            sessions = SessionStack(learner.graph)
            sessions.begin_session()
            composites = [
                n for n, node in learner.graph.nodes.items() if node.kind.value == "Composite"
            ]
            for n in rng.sample(composites, min(len(composites), rng.randint(1, 3))):
                sessions.inhibit(n)
            if rng.random() < 0.5:
                sessions.propagate()
        inhibited = sessions.inhibited_nodes() if sessions else set()
        for probe in _probes(rng, learned) + _probes(rng, learned):
            got = _active(learner.recognize(probe), sessions)
            expected = recognition_oracle(learner.graph, probe, inhibited)
            assert [(m.concept, m.anchor, m.score) for m in got] == expected
            if not learner.recognize(probe):
                continue
            listed = {
                (t.dx, t.dy)
                for _, t in learner.match_under_transformations(probe)
                if t.kind == "translate"
            }
            fits = {
                (dx, dy)
                for dy in range(1 - probe.height, probe.height)
                for dx in range(1 - probe.width, probe.width)
                if (dx or dy)
                and Transformation("translate", dx=dx, dy=dy).inverse_apply(probe) is not None
            }
            assert listed == fits


# role offsets at and past what a learned composite holds: a learned role
# has |dx| < MAX_DIM, and create_composite and import accept any int
_FAR = (0, MAX_DIM - 1, 1 - MAX_DIM, 4 * MAX_DIM, -4 * MAX_DIM, 10**6, -(10**6))


def _add_composites(rng, graph, pool, count, offsets):
    """`count` composites over `pool` whose parts lie within a few cells of
    each other, around a role offset drawn from `offsets` on each axis."""
    for _ in range(count):
        dx, dy = rng.choice(offsets), rng.choice(offsets)
        children = [
            (rng.choice(pool), (dx + rng.randint(0, 3), dy + rng.randint(0, 2)))
            for _ in range(rng.randint(2, 4))
        ]
        if len(set(children)) >= 2:
            graph.create_composite(children)


def _wide_probe(rng):
    w, h = rng.randint(1, MAX_DIM), rng.randint(1, 3)
    cells = {(x, y): rng.choice("ab") for y in range(h) for x in range(w) if rng.random() < 0.3}
    return Grid(w, h, cells or {(0, 0): "a"})


def test_recognize_matches_oracle_for_far_roles():
    """Composites built with create_composite at roles far past the canvas
    are recognized as the oracle finds them, on probes up to MAX_DIM wide,
    before and after wider roles join a graph a learner already votes on,
    and on the same graph exported and imported."""
    rng = random.Random(67)
    for case in range(24):
        graph = ConceptGraph()
        prims = [graph.create_primitive("cell:" + s) for s in "ab"]
        # two-cell runs, so a probe's runs are detected as composites too
        pool = prims + [graph.create_composite([(p, (0, 0)), (p, (1, 0))]) for p in prims]
        learner = Learner(graph)
        # first roles a learned composite can hold, then far ones as well
        for offsets in (_FAR[:3], _FAR):
            _add_composites(rng, graph, pool, rng.randint(2, 5), offsets)
            sessions = None
            if case % 2:
                sessions = SessionStack(graph)
                sessions.begin_session()
                composites = [n for n, node in graph.nodes.items() if node.kind is NodeKind.COMPOSITE]
                for n in rng.sample(composites, rng.randint(1, 2)):
                    sessions.inhibit(n)
            inhibited = sessions.inhibited_nodes() if sessions else set()
            loaded = Learner(ConceptGraph.import_text(graph.export_text()))
            for _ in range(3):
                probe = _wide_probe(rng)
                expected = recognition_oracle(graph, probe, inhibited)
                for recognizer in (learner, loaded):
                    got = _active(recognizer.recognize(probe), sessions)
                    assert [(m.concept, m.anchor, m.score) for m in got] == expected


def test_recognition_match_equals_only_a_match():
    m = RecognitionMatch(3, (1, 2), Fraction(1, 2))
    same = RecognitionMatch(3, (1, 2), Fraction(2, 4))
    assert m == same and not m != same
    assert hash(m) == hash(same) == hash((3, (1, 2), Fraction(1, 2)))
    assert m != RecognitionMatch(4, (1, 2), Fraction(1, 2))
    plain = (3, (1, 2), Fraction(1, 2))
    assert m != plain and plain != m
    assert not m == plain and not plain == m
    assert repr(m) == "RecognitionMatch(concept=3, anchor=(1, 2), score=Fraction(1, 2))"
    for field in ("concept", "anchor", "score"):
        with pytest.raises(AttributeError):
            setattr(m, field, 0)


def _transformation_oracle(graph, probe):
    """`match_under_transformations` built from `recognition_oracle`: the
    family in order (identity; every translation with a pre-image, dy-major,
    only if the identity list is not empty; rotate90 1..3, reflect_h,
    reflect_v and scale 2..max(w, h)), the oracle's list on each pre-image,
    stable-sorted by score and scale, both descending, then by id."""
    family = [Transformation("identity")]
    if recognition_oracle(graph, probe):
        family += [
            Transformation("translate", dx=dx, dy=dy)
            for dy in range(1 - probe.height, probe.height)
            for dx in range(1 - probe.width, probe.width)
            if dx or dy
        ]
    family += [Transformation("rotate90", k=k) for k in (1, 2, 3)]
    family += [Transformation("reflect_h"), Transformation("reflect_v")]
    family += [Transformation("scale", k=k) for k in range(2, max(probe.width, probe.height) + 1)]
    out = []
    for t in family:
        pre = t.inverse_apply(probe)
        if pre is not None:
            out += [(n, anchor, score, t) for n, anchor, score in recognition_oracle(graph, pre)]
    out.sort(key=lambda e: (-e[2], -graph.nodes[e[0]].scale, e[0]))
    return out


def test_match_under_transformations_matches_oracle_random():
    rng = random.Random(67)
    for _ in range(20):
        learner = Learner()
        learned = []
        for _ in range(rng.randint(1, 5)):
            g = random_grid(rng, max_dim=3, symbols="ab")
            learner.observe(g)
            learned.append(g)
        scaled = Transformation("scale", k=2).apply(rng.choice(learned))
        for probe in _probes(rng, learned, noise_dim=6) + [scaled]:
            got = [
                (m.concept, m.anchor, m.score, t)
                for m, t in learner.match_under_transformations(probe)
            ]
            assert got == _transformation_oracle(learner.graph, probe)


# -- transformations -------------------------------------------------------

L_SHAPE = "x..\nx..\nxxx\n"


def test_identity_transformation():
    g = Grid.from_text(L_SHAPE)
    assert find_transformation(g, g).kind == "identity"


def test_translate_learned_from_shift():
    before = Grid.from_text("xx..\n....\n")
    after = Grid.from_text(".xx.\n....\n")
    t = find_transformation(before, after)
    assert (t.kind, t.dx, t.dy) == ("translate", 1, 0)
    assert t.apply(before) == after


def test_no_translate_candidate_from_or_to_an_empty_grid():
    empty, x = Grid(2, 2, {}), Grid.from_text("x.\n..\n")
    for before, after in ((empty, x), (x, empty)):
        kinds = [t.kind for t in transformation_candidates(before, after)]
        assert "translate" not in kinds and kinds[0] == "identity"


def test_rotation_round_trips():
    before = Grid.from_text("xxx\nxxx\n")
    after = Transformation("rotate90", k=1).apply(before)
    assert (after.width, after.height) == (2, 3)
    t = find_transformation(before, after)
    assert (t.kind, t.k) == ("rotate90", 1)
    back = Transformation("rotate90", k=3).apply(after)
    assert back == before


def test_translate_inverse_pair():
    g = Grid.from_text(".x.\n.x.\n")
    t = Transformation("translate", dx=1, dy=0)
    u = Transformation("translate", dx=-1, dy=0)
    assert u.apply(t.apply(g)) == g


def test_scale_doubles_single_cell():
    g = Grid.from_text("x\n")
    scaled = Transformation("scale", k=2).apply(g)
    assert scaled == Grid.from_text("xx\nxx\n")


def test_no_fit_raises():
    with pytest.raises(NoFitError):
        find_transformation(Grid.from_text("x.\n..\n"), Grid.from_text("xx\nxx\n"))


def test_transformation_consistency_random():
    rng = random.Random(37)
    kinds = [
        Transformation("identity"),
        Transformation("translate", dx=1, dy=0),
        Transformation("translate", dx=0, dy=1),
        Transformation("rotate90", k=1),
        Transformation("rotate90", k=2),
        Transformation("rotate90", k=3),
        Transformation("reflect_h"),
        Transformation("reflect_v"),
        Transformation("scale", k=2),
    ]
    for _ in range(50):
        g = random_grid(rng, max_dim=6, symbols="ab", max_symbols=2)
        for t in kinds:
            try:
                after = t.apply(g)
            except Exception:
                continue
            found = find_transformation(g, after)
            assert found.apply(g) == after


def test_inverse_apply_undoes_apply_random():
    rng = random.Random(47)
    family = [
        Transformation("identity"),
        Transformation("translate", dx=1, dy=0),
        Transformation("translate", dx=-2, dy=1),
        Transformation("rotate90", k=1),
        Transformation("rotate90", k=2),
        Transformation("rotate90", k=3),
        Transformation("reflect_h"),
        Transformation("reflect_v"),
        Transformation("scale", k=2),
        Transformation("scale", k=3),
    ]
    for _ in range(60):
        g = random_grid(rng, max_dim=6)
        for t in family:
            try:
                image = t.apply(g)
            except BoundsError:
                continue
            assert t.inverse_apply(image) == g


def test_scale_inverse_apply_rejects_non_images():
    t = Transformation("scale", k=2)
    assert t.inverse_apply(Grid.from_text("xxx\nxxx\n")) is None  # width 3
    assert t.inverse_apply(Grid.from_text("xx\nxx\nxx\n")) is None  # height 3
    assert t.inverse_apply(Grid.from_text("xy\nxx\n")) is None  # two symbols
    assert t.inverse_apply(Grid.from_text("xx\nx.\n")) is None  # partly empty
    assert t.inverse_apply(Grid.from_text(".x\n..\n")) is None  # top-left empty
    scaled = Grid.from_text("xx..\nxx..\n..yy\n..yy\n")
    assert t.inverse_apply(scaled) == Grid.from_text("x.\n.y\n")


def test_learn_transformation_stores_concepts():
    learner = Learner()
    before = Grid.from_text("xx..\n....\n")
    after = Grid.from_text(".xx.\n....\n")
    node = learner.learn_transformation(before, after, "push-east")
    t = learner.transformation_of(node)
    assert (t.kind, t.dx, t.dy) == ("translate", 1, 0)
    action = learner.labeled_node("action:push-east")
    assert learner.graph.excitatory == {(min(node, action), max(node, action)): 1}


def test_transformation_parse_inverts_str():
    family = [Transformation("identity"), Transformation("reflect_h"), Transformation("reflect_v")]
    family += [Transformation("translate", dx=dx, dy=dy) for dx in (-12, -1, 0, 3) for dy in (-2, 0, 7)]
    family += [Transformation("rotate90", k=k) for k in (0, 1, 2, 3, 11)]
    family += [Transformation("scale", k=k) for k in (2, 3, 11)]
    for t in family:
        assert Transformation.parse(str(t)) == t


@pytest.mark.parametrize(
    "fields, message",
    [(dict(kind="identity", k=3), "has no field k"), (dict(kind="translate", dx=1, k=5), "has no field k"),
     (dict(kind="reflect_v", dy=-1), "has no field dy"), (dict(kind="scale", k=2, dx=1), "has no field dx"),
     (dict(kind="spin"), "unknown transformation kind")]
)
def test_transformation_rejects_an_unknown_kind_or_an_unused_field(fields, message):
    # `str` writes only the kind's own fields, so anything else would not
    # survive `parse(str(t))`
    with pytest.raises(ValueError, match=message):
        Transformation(**fields)


@pytest.mark.parametrize("k", [-2, 0, 1])
def test_scale_factor_below_2_is_refused(k):
    # refused where it is built, so `apply`, `inverse_apply` and `parse`
    # never meet it
    with pytest.raises(ValueError, match="scale factor must be >= 2"):
        Transformation("scale", k=k)


BAD_TRANSFORMATION_LABELS = [
    "translate:1", "translate:1:2:3", "translate:1:x", "translate:+1:2", "translate:-0:0",
    "rotate90:1:9", "rotate90:01", "rotate90", "scale: 2", "scale:1_0",
    "identity:3", "reflect_h:0", "spin", "", "scale:0", "scale:1",
]


@pytest.mark.parametrize("label", BAD_TRANSFORMATION_LABELS)
def test_transformation_parse_rejects_labels_str_never_writes(label):
    with pytest.raises(ValueError, match="unknown transformation"):
        Transformation.parse(label)


@pytest.mark.parametrize("label", ["translate:1", "rotate90:1:9", "identity:3", "scale:0"])
def test_transformation_of_bad_loaded_label_is_learning_error(label):
    graph = ConceptGraph.import_text(f"CGRAPH 1\nN 0 Transformation 1 tf:{label}\n")
    with pytest.raises(LearningError, match="node 0"):
        Learner(graph).transformation_of(0)


def test_transformation_of_a_node_that_is_no_transformation_is_learning_error():
    learner = Learner()
    node = learner.labeled_node("cell:x")
    with pytest.raises(LearningError, match="not a transformation"):
        learner.transformation_of(node)


def test_scale_past_the_canvas_is_bounds_error():
    with pytest.raises(BoundsError):
        Transformation("scale", k=2).apply(Grid(200, 1, {(0, 0): "x"}))


def test_learn_transformation_from_an_empty_grid_is_rejected():
    with pytest.raises(EmptyInputError):
        Learner().learn_transformation(Grid(2, 2, {}), Grid.from_text("x\n"), "noop")


@pytest.mark.parametrize("label_first", [True, False])
def test_labeled_node_and_observe_share_one_primitive(label_first):
    learner = Learner()
    g = Grid.from_text("xx\n")
    if label_first:
        learner.labeled_node("cell:x")
        learner.observe(g)
    else:
        learner.observe(g)
        learner.labeled_node("cell:x")
    graph = learner.graph
    assert [n.id for n in graph.nodes.values() if n.label == "cell:x"] == [0]
    matches = learner.recognize(g)
    assert matches
    reloaded = Learner(ConceptGraph.import_text(graph.export_text()))
    assert reloaded.recognize(g) == matches


@pytest.mark.parametrize("maker", ["graph", "second learner"])
@pytest.mark.parametrize("lookup", ["observe", "labeled_node"])
def test_learner_finds_labelled_nodes_made_after_it(maker, lookup):
    # a `cell:q` made on the graph after the learner was, by the graph itself
    # or by a second learner, is the learner's node for `q`: a second
    # `cell:q` would make a reloaded graph recognize nothing
    g = Grid.from_text("qq\nq.\n")
    graph = ConceptGraph()
    learner = Learner(graph)
    if maker == "graph":
        graph.create_primitive("cell:q")
    else:
        Learner(graph).observe(g)
    if lookup == "labeled_node":
        assert learner.labeled_node("cell:q") == 0
    learner.observe(g)
    assert [n.id for n in graph.nodes.values() if n.label == "cell:q"] == [0]
    matches = learner.recognize(g)
    assert len(matches) == 3
    reloaded = Learner(ConceptGraph.import_text(graph.export_text()))
    assert reloaded.recognize(g) == matches


def test_symbol_node_is_a_primitive():
    graph = ConceptGraph()
    graph.create_atom(NodeKind.STATE, "cell:x")
    report = Learner(graph).observe(Grid.from_text("x\n"))
    assert report.root == 1
    assert graph.nodes[1].kind is NodeKind.PRIMITIVE


def test_match_under_transformations_rotated_shape():
    learner = Learner()
    g = Grid.from_text(L_SHAPE)
    root = learner.observe(g).root
    rotated = Transformation("rotate90", k=1).apply(g)
    results = learner.match_under_transformations(rotated)
    hits = [
        (m.concept, t.kind, t.k)
        for m, t in results
        if m.concept == root and m.score == 1
    ]
    assert (root, "rotate90", 1) in hits


def test_match_under_transformations_unknown_pattern():
    learner = Learner()
    learner.observe(Grid.from_text(RING))
    assert learner.match_under_transformations(Grid.from_text("q\n")) == []


# -- discrepancy -----------------------------------------------------------


def test_discrepancy_equilibrium():
    learner = Learner()
    g = Grid.from_text(RING)
    root = learner.observe(g).root
    d = learner.compute_discrepancy(g, root)
    assert d.is_empty()


def test_discrepancy_goal_vs_empty_grid():
    learner = Learner()
    root = learner.observe(Grid.from_text(RING)).root
    d = learner.compute_discrepancy(Grid(3, 3, {}), root)
    assert d.surplus == frozenset()
    assert {(x, y) for x, y, _ in d.missing} == set(Grid.from_text(RING).cells)


def test_discrepancy_surplus_cell():
    learner = Learner()
    g = Grid.from_text(RING)
    root = learner.observe(g).root
    extra_cells = dict(g.cells)
    extra_cells[(4, 4)] = "x"
    extra = Grid(5, 5, extra_cells)
    d = learner.compute_discrepancy(extra, root)
    assert d.missing == frozenset()
    assert d.surplus == frozenset({(4, 4, "x")})


def test_discrepancy_zero_iff_full_recognition():
    rng = random.Random(43)
    learner = Learner()
    for _ in range(20):
        g = random_grid(rng, max_dim=6).cropped()
        root = learner.observe(g).root
        assert learner.compute_discrepancy(g, root).is_empty()
        if learner.graph.nodes[root].kind.value == "Composite":
            assert any(
                m.concept == root and m.score == 1 and m.anchor == g.anchor()
                for m in learner.recognize(g)
            )
        if len(g.cells) > 1:
            dropped = dict(g.cells)
            dropped.pop(sorted(dropped)[-1])
            damaged = Grid(g.width, g.height, dropped)
            assert not learner.compute_discrepancy(damaged, root).is_empty()


# -- imagination -----------------------------------------------------------


def test_imagine_no_links():
    learner = Learner()
    n = learner.graph.create_primitive("n")
    assert learner.imagine(n, 3) == []


def test_imagine_follows_heaviest_link():
    learner = Learner()
    g = learner.graph
    a, b, c = (g.create_primitive(x) for x in "abc")
    g.record_association([a, b])
    g.record_association([a, b])
    g.record_association([a, b])
    g.record_association([a, c])
    assert learner.imagine(a, 1) == [b]


def test_imagine_stops_without_revisit():
    learner = Learner()
    g = learner.graph
    a, b, c = (g.create_primitive(x) for x in "abc")
    g.record_association([a, b])
    g.record_association([b, c])
    assert learner.imagine(a, 5) == [b, c]
