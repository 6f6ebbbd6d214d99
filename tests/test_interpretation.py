"""Alternative-explanation search vs brute-force subset enumeration."""

import random

import pytest

from gridmind import ConceptGraph, Grid, Learner, SessionStack, explain, explain_features
from gridmind.inhibition import ConflictError
from gridmind.learning import BoundsError
from oracles import explanation_closure_oracle, explanation_subsets_oracle, parents_by_node


class _CountingSessions(SessionStack):
    """Counts `propagate` calls, one per cover branch tried, and conflicts."""

    def __init__(self, graph):
        super().__init__(graph)
        self.propagations = 0
        self.conflicts = 0

    def propagate(self, state_view=None):
        self.propagations += 1
        try:
            return super().propagate(state_view)
        except ConflictError:
            self.conflicts += 1
            raise


def _fixture():
    """Four features, one mutex pair, four covering composites."""
    g = ConceptGraph()
    f = {i: g.create_primitive(f"f{i}") for i in range(1, 5)}
    g.add_mutex(f[2], f[3])
    pad1 = g.create_primitive("pad1")
    pad2 = g.create_primitive("pad2")
    comp = {
        "A": g.create_composite([(f[1], (0, 0)), (f[2], (1, 0))]),
        "B": g.create_composite([(f[3], (0, 0)), (f[4], (1, 0))]),
        "C": g.create_composite([(f[4], (0, 0)), (pad1, (1, 0))]),
        "D": g.create_composite([(f[1], (0, 0)), (pad2, (1, 0))]),
    }
    return g, f, comp


def test_fixture_yields_two_maximal_explanations():
    g, f, comp = _fixture()
    features = {f[i] for i in range(1, 5)}
    result = explain_features(g, features)
    regular = [e for e in result if not e.novel]
    assert {e.chosen for e in regular} == {
        frozenset({comp["A"], comp["C"]}),
        frozenset({comp["B"], comp["D"]}),
    }
    by_chosen = {e.chosen: e for e in regular}
    assert by_chosen[frozenset({comp["A"], comp["C"]})].suppressed == {f[3]}
    assert by_chosen[frozenset({comp["B"], comp["D"]})].suppressed == {f[2]}
    assert not any(e.novel for e in result)


def test_fixture_matches_subset_oracle():
    g, f, comp = _fixture()
    features = {f[i] for i in range(1, 5)}
    composites = {
        c: {ch for ch, _ in g.children_of(c)} for c in comp.values()
    }
    oracle = explanation_subsets_oracle(composites, features, g.mutex)
    result = {e.chosen for e in explain_features(g, features) if not e.novel}
    assert result == oracle


def test_single_cover_no_mutex():
    g = ConceptGraph()
    f1 = g.create_primitive("f1")
    f2 = g.create_primitive("f2")
    comp = g.create_composite([(f1, (0, 0)), (f2, (1, 0))])
    result = explain_features(g, {f1, f2})
    assert len(result) == 1
    assert result[0].chosen == {comp}
    assert result[0].suppressed == frozenset()


def test_uncoverable_feature_lands_in_novel_residue():
    g = ConceptGraph()
    f1 = g.create_primitive("f1")
    f2 = g.create_primitive("f2")
    orphan = g.create_primitive("orphan")
    g.create_composite([(f1, (0, 0)), (f2, (1, 0))])
    result = explain_features(g, {f1, f2, orphan})
    novel = [e for e in result if e.novel]
    assert len(novel) == 1
    assert novel[0].residue == {orphan}


def test_no_composites_everything_is_residue():
    g = ConceptGraph()
    f1 = g.create_primitive("f1")
    result = explain_features(g, {f1})
    assert len(result) == 1
    assert result[0].novel and result[0].residue == {f1}


def test_empty_feature_set_single_empty_explanation():
    g = ConceptGraph()
    result = explain_features(g, set())
    assert len(result) == 1
    assert not result[0].chosen and not result[0].novel


def test_session_hygiene():
    for conflicting in (False, True):
        g, f, comp = _fixture()
        if conflicting:
            # covering with a composite of two mutex features always conflicts
            g.create_composite([(f[2], (0, 0)), (f[3], (1, 0))])
        sessions = _CountingSessions(g)
        sessions.begin_session()
        sessions.set_active(f[1])
        sessions.inhibit(g.create_primitive("elsewhere"))
        before = (sessions.inhibited_nodes(), sessions.active_nodes())
        result = explain_features(g, {f[i] for i in range(1, 5)}, sessions)
        assert {e.chosen for e in result if not e.novel} == {
            frozenset({comp["A"], comp["C"]}),
            frozenset({comp["B"], comp["D"]}),
        }
        assert (sessions.conflicts > 0) == conflicting
        assert sessions.depth == 1
        assert (sessions.inhibited_nodes(), sessions.active_nodes()) == before


def test_oracle_equivalence_random():
    rng = random.Random(77)
    for _ in range(60):
        g = ConceptGraph()
        n_feats = rng.randint(2, 9)
        feats = [g.create_primitive(f"f{i}") for i in range(n_feats)]
        for _ in range(rng.randint(0, 3)):
            a, b = rng.sample(feats, 2)
            g.add_mutex(a, b)
        comps = {}
        for _ in range(rng.randint(1, 9)):
            k = rng.randint(1, min(4, n_feats))
            chosen = rng.sample(feats, k)
            if k == 1:
                pad = g.create_primitive(f"pad{len(g)}")
                children = [(chosen[0], (0, 0)), (pad, (1, 0))]
            else:
                children = [(c, (i, 0)) for i, c in enumerate(chosen)]
            cid = g.create_composite(children)
            comps[cid] = set(chosen)
        feature_set = set(feats)
        explainable = set().union(*comps.values())
        oracle = explanation_subsets_oracle(comps, feature_set, g.mutex)
        regular = [e for e in explain_features(g, feature_set) if not e.novel]
        assert {e.chosen for e in regular} == oracle
        for e in regular:
            assert e.covered == set().union(*(comps[c] for c in e.chosen))
            assert e.suppressed == explainable - e.covered


def _random_scene(rng):
    """A graph and a feature set with mutex links on features, pads and
    composites, and composites that place composites."""
    g = ConceptGraph()
    feats = [g.create_primitive(f"f{i}") for i in range(rng.randint(1, 7))]
    nodes = feats + [g.create_primitive(f"pad{i}") for i in range(rng.randint(0, 3))]
    comps = []
    for _ in range(rng.randint(0, 7)):
        kids = rng.sample(nodes, rng.randint(1, min(3, len(nodes))))
        cid = g.create_composite([(kid, (0, 0)) for kid in kids] + [(kids[0], (1, 0))])
        if cid not in comps:
            comps.append(cid)
            nodes.append(cid)
    for _ in range(rng.randint(0, 4)):
        if len(nodes) > 1:
            g.add_mutex(*rng.sample(nodes, 2))
    features = set(feats)
    if comps and rng.random() < 0.3:
        features.add(rng.choice(comps))  # a multi-cell feature is a composite
    if rng.random() < 0.2:
        features.add(len(g) + 5)  # a feature id the graph does not know
    return g, comps, features


def test_closure_oracle_equivalence_random():
    rng = random.Random(2024)
    for _ in range(2000):
        g, comps, features = _random_scene(rng)
        composites = {c: {ch for ch, _ in g.children_of(c)} for c in comps}
        maximal, residue = explanation_closure_oracle(
            composites, features, parents_by_node(g), g.mutex
        )
        result = explain_features(g, features)
        regular = {(e.chosen, e.covered, e.suppressed) for e in result if not e.novel}
        assert regular == maximal
        assert [e.residue for e in result if e.novel] == ([residue] if residue else [])


def test_pad_mutex_conflict_leaves_every_feature_novel():
    # choosing B activates f2, so its partner pad1 is inhibited, and so is
    # pad1's parent A (rule A): A and B conflict, though no chosen composite
    # or covered feature is a partner of another. Neither covers alone, so
    # there is no explanation and every feature is novel, not only the
    # uncoverable ones.
    g = ConceptGraph()
    f1, f2, pad1, pad2 = (g.create_primitive(name) for name in ("f1", "f2", "pad1", "pad2"))
    g.add_mutex(pad1, f2)
    g.create_composite([(f1, (0, 0)), (pad1, (1, 0))])
    g.create_composite([(f2, (0, 0)), (pad2, (1, 0))])
    [novel] = explain_features(g, {f1, f2})
    assert novel.novel and not (novel.chosen or novel.covered or novel.suppressed)
    assert novel.residue == {f1, f2}


def test_decision_budget_bounds_the_search(monkeypatch):
    # the fixture's search takes 7 decisions: 5 cover attempts (one
    # conflicts) and 2 leave branches
    g, f, comp = _fixture()
    features = {f[i] for i in range(1, 5)}
    monkeypatch.setattr("gridmind.interpretation.MAX_EXPLAIN_DECISIONS", 7)
    assert len(explain_features(g, features)) == 2
    monkeypatch.setattr("gridmind.interpretation.MAX_EXPLAIN_DECISIONS", 6)
    with pytest.raises(BoundsError, match="MAX_EXPLAIN_DECISIONS"):
        explain_features(g, features)


def test_refused_search_leaves_the_callers_sessions_as_they_were(monkeypatch):
    g, f, comp = _fixture()
    elsewhere = g.create_primitive("elsewhere")
    for budget in range(7):
        monkeypatch.setattr("gridmind.interpretation.MAX_EXPLAIN_DECISIONS", budget)
        sessions = _CountingSessions(g)
        sessions.begin_session()
        sessions.set_active(f[1])
        sessions.inhibit(elsewhere)
        with pytest.raises(BoundsError):
            explain_features(g, {f[i] for i in range(1, 5)}, sessions)
        assert sessions.propagations <= budget
        assert sessions.depth == 1
        assert sessions.active_nodes() == {f[1]}
        assert sessions.inhibited_nodes() == {elsewhere}


def test_all_pairs_of_12_features_fit_the_decision_budget():
    # 11!! = 10,395 explanations from 25,058 cover attempts
    g = ConceptGraph()
    feats = [g.create_primitive(f"f{i}") for i in range(12)]
    for i, a in enumerate(feats):
        for b in feats[i + 1:]:
            g.create_composite([(a, (0, 0)), (b, (1, 0))])
    sessions = _CountingSessions(g)
    assert len(explain_features(g, set(feats), sessions)) == 10395
    assert sessions.propagations == 25058


def test_accounting_always_complete():
    rng = random.Random(123)
    for _ in range(30):
        g = ConceptGraph()
        feats = [g.create_primitive(f"f{i}") for i in range(rng.randint(2, 5))]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(feats, 2)
            g.add_mutex(a, b)
        for _ in range(rng.randint(0, 4)):
            k = rng.randint(2, max(2, len(feats)))
            g.create_composite(
                [(c, (i, 0)) for i, c in enumerate(rng.sample(feats, min(k, len(feats))))]
            )
        feature_set = set(feats)
        for e in explain_features(g, feature_set):
            if e.novel:
                continue
            assert e.covered | e.suppressed | e.residue == feature_set
            assert not (e.covered & e.suppressed)
            for n in e.chosen | e.covered:
                assert not (g.mutex_partners(n) & (e.chosen | e.covered))


def test_explain_grid_end_to_end():
    learner = Learner()
    g = Grid.from_text("xxx\nx.x\nxxx\n")
    root = learner.observe(g).root
    result = explain(learner, g)
    regular = [e for e in result if not e.novel]
    assert any(root in e.chosen for e in regular)


def test_repeated_known_pattern_is_not_novel():
    # two copies of "ab": fewer distinct feature nodes than feature
    # instances, yet every instance has a node
    learner = Learner()
    learner.observe(Grid.from_text("ab\n"))
    learner.observe(Grid.from_text("ab\nc.\n"))
    result = explain(learner, Grid.from_text("ab...ab\n"))
    assert result and not any(e.novel for e in result)
    assert any(e.novel for e in explain(learner, Grid.from_text("ab...q\n")))


def test_explain_empty_grid():
    learner = Learner()
    result = explain(learner, Grid(2, 2, {}))
    assert len(result) == 1
    assert not result[0].chosen


def test_all_pairs_composites_give_every_perfect_matching():
    # 10 features, one composite per pair: the maximal explanations are the
    # 9!! = 945 perfect matchings, and no partial matching is maximal
    g = ConceptGraph()
    feats = [g.create_primitive(f"f{i}") for i in range(10)]
    pair_of = {}
    for i, a in enumerate(feats):
        for b in feats[i + 1:]:
            pair_of[g.create_composite([(a, (0, 0)), (b, (1, 0))])] = {a, b}
    result = explain_features(g, set(feats))
    assert len(result) == 945
    assert len({e.chosen for e in result}) == 945
    for e in result:
        assert not e.novel and len(e.chosen) == 5
        assert set().union(*(pair_of[c] for c in e.chosen)) == set(feats)
        assert e.covered == set(feats)


def _disjoint_pairs(n):
    """`n` composites over disjoint feature pairs: exactly one explanation."""
    g = ConceptGraph()
    feats = set()
    for i in range(n):
        a, b = g.create_primitive(f"a{i}"), g.create_primitive(f"b{i}")
        g.create_composite([(a, (0, 0)), (b, (1, 0))])
        feats |= {a, b}
    return g, feats


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # one decision per composite, well past the default recursion limit
    g, feats = _disjoint_pairs(1200)
    result = explain_features(g, feats)
    assert len(result) == 1
    assert len(result[0].chosen) == 1200 and result[0].covered == feats


@pytest.mark.parametrize("n", [8, 16, 32])
def test_disjoint_composites_cost_one_branch_each(n):
    g, feats = _disjoint_pairs(n)
    sessions = _CountingSessions(g)
    assert len(explain_features(g, feats, sessions)) == 1
    assert sessions.propagations == n


def test_leave_branch_only_when_a_partner_can_still_cover():
    # f1 and f2 are mutex, g stands alone; each feature is in one
    # composite, so the search decides them in id order
    gr = ConceptGraph()
    f1, f2, g = (gr.create_primitive(name) for name in ("f1", "f2", "g"))
    gr.add_mutex(f1, f2)
    a, b, c = (
        gr.create_composite([(n, (0, 0)), (gr.create_primitive(f"pad{n}"), (1, 0))])
        for n in (f1, f2, g)
    )
    sessions = _CountingSessions(gr)
    result = explain_features(gr, {f1, f2, g}, sessions)
    assert [(e.chosen, e.suppressed) for e in result] == [
        ({a, c}, {f2}),
        ({b, c}, {f1}),
    ]
    # cover f1, leave f2, cover g; leave f1, cover f2, cover g. Leaving f2
    # too is skipped: f1 is uncovered and its only candidate is banned.
    assert sessions.propagations == 4
