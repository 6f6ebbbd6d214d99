"""Session stack semantics and rule A/B/C fixpoint propagation."""

import random

import pytest

from gridmind import ConceptGraph, SessionStack
from gridmind.inhibition import ConflictError, StateGraphView, UnderflowError
from oracles import inhibition_closure_oracle, iterated_elimination


def _chain_graph():
    g = ConceptGraph()
    ids = [g.create_primitive(f"f{i}") for i in range(4)]
    parent34 = g.create_composite([(ids[2], (0, 0)), (ids[3], (1, 0))])
    return g, ids, parent34


def test_session_revert():
    g = ConceptGraph()
    n = g.create_primitive("n")
    s = SessionStack(g)
    s.begin_session()
    s.inhibit(n)
    assert s.is_inhibited(n)
    s.release_session()
    assert not s.is_inhibited(n) and not s.is_active(n)


def test_released_activation_leaves_no_trace():
    # an activation made in a released session must not survive it, or the
    # next propagate writes its consequence into the base layer
    g = ConceptGraph()
    a = g.create_primitive("a")
    b = g.create_primitive("b")
    g.add_mutex(a, b)
    s = SessionStack(g)
    s.begin_session()
    s.set_active(a)
    assert s.propagate() == {b}
    s.release_session()
    assert s.active_nodes() == set()
    assert s.propagate() == set()
    assert s.inhibited_nodes() == set()


def test_inhibit_with_an_active_node_inhibits_none():
    g = ConceptGraph()
    a = g.create_primitive("a")
    b = g.create_primitive("b")
    s = SessionStack(g)
    s.set_active(b)
    with pytest.raises(ConflictError, match=f"node {b} is Active"):
        s.inhibit(a, b)
    assert s.inhibited_nodes() == set()
    s.inhibit(a, a)
    assert s.inhibited_nodes() == {a} and s._layers == [{a, b}]


def test_release_at_base_underflows():
    s = SessionStack(ConceptGraph())
    with pytest.raises(UnderflowError):
        s.release_session()


def test_nested_inhibit_shallowest_depth_wins():
    g = ConceptGraph()
    n = g.create_primitive("n")
    s = SessionStack(g)
    s.begin_session()
    s.inhibit(n)
    s.begin_session()
    s.inhibit(n)  # no-op, already inhibited at depth 1
    s.release_session()
    assert s.is_inhibited(n)
    s.release_session()
    assert not s.is_inhibited(n)


def test_release_drops_only_its_layer():
    g, ids, parent34 = _chain_graph()
    s = SessionStack(g)
    s.begin_session()
    s.inhibit(ids[2])
    s.begin_session()
    assert s.propagate() == {parent34, ids[3]}  # rules A and B, at depth 2
    s.release_session()
    assert s.inhibited_nodes() == {ids[2]}
    s.release_session()
    assert s.inhibited_nodes() == set()


def test_inhibit_idempotent():
    g = ConceptGraph()
    n = g.create_primitive("n")
    s = SessionStack(g)
    s.begin_session()
    s.inhibit(n)
    s.inhibit(n)
    assert s.inhibited_nodes() == {n}


def test_propagation_reverted_with_session():
    g, ids, parent34 = _chain_graph()
    s = SessionStack(g)
    s.begin_session()
    s.inhibit(ids[2])
    derived = s.propagate()
    assert parent34 in derived
    s.release_session()
    assert s.inhibited_nodes() == set()


def test_mutex_activation_cascade():
    # activating 2 inhibits its mutex partner 3, rule A takes the parent,
    # rule B then takes 4 whose only parent is that composite
    g, ids, parent34 = _chain_graph()
    g.add_mutex(ids[1], ids[2])
    s = SessionStack(g)
    s.begin_session()
    s.set_active(ids[1])
    derived = s.propagate()
    assert derived == {ids[2], parent34, ids[3]}


def test_empty_propagate_returns_nothing():
    g, _, _ = _chain_graph()
    s = SessionStack(g)
    s.begin_session()
    assert s.propagate() == set()


def test_conflict_when_propagation_hits_active_node():
    g = ConceptGraph()
    a = g.create_primitive("a")
    b = g.create_primitive("b")
    g.add_mutex(a, b)
    s = SessionStack(g)
    s.begin_session()
    s.set_active(a)
    s.set_active(b)
    with pytest.raises(ConflictError):
        s.propagate()


def test_activate_inhibited_node_conflicts():
    g = ConceptGraph()
    n = g.create_primitive("n")
    s = SessionStack(g)
    s.begin_session()
    s.inhibit(n)
    with pytest.raises(ConflictError):
        s.set_active(n)


def test_rule_b_skips_parentless_nodes():
    g = ConceptGraph()
    g.create_primitive("lonely")
    s = SessionStack(g)
    s.begin_session()
    assert s.propagate() == set()


def test_rule_c_directed_corridor():
    g = ConceptGraph()
    from gridmind import NodeKind

    s1, s2, s3 = (g.create_atom(NodeKind.STATE, f"s{i}") for i in (1, 2, 3))
    view = StateGraphView(
        states={s1, s2, s3},
        transitions={s1: [s2], s2: [s3], s3: []},
        targets=set(),
    )
    s = SessionStack(g)
    s.begin_session()
    derived = s.propagate(view)
    assert derived == {s1, s2, s3}
    oracle = iterated_elimination(view.states, view.transitions, view.targets)
    assert derived == oracle


def test_rule_c_spares_targets():
    g = ConceptGraph()
    from gridmind import NodeKind

    s1, s2 = (g.create_atom(NodeKind.STATE, f"s{i}") for i in (1, 2))
    view = StateGraphView(states={s1, s2}, transitions={s1: [s2], s2: []}, targets={s2})
    s = SessionStack(g)
    s.begin_session()
    assert s.propagate(view) == set()


def test_rule_c_derives_states_without_transitions():
    # a state with no `transitions` entry and one with an empty list both
    # fall, and so does a state whose successors are those two; a target
    # with neither does not
    g = ConceptGraph()
    from gridmind import NodeKind

    missing, empty, above, target = (
        g.create_atom(NodeKind.STATE, f"s{i}") for i in range(4)
    )
    view = StateGraphView(
        states={missing, empty, above, target},
        transitions={empty: [], above: [missing, empty]},
        targets={target},
    )
    s = SessionStack(g)
    assert s.propagate(view) == {missing, empty, above}
    assert not s.is_inhibited(target)


def _random_concept_graph(rng):
    g = ConceptGraph()
    n_prims = rng.randint(2, 40)
    for i in range(n_prims):
        g.create_primitive(f"p{i}")
    target = rng.randint(n_prims, 200)
    while len(g) < target:
        pool = g.node_ids()
        children = {
            (rng.choice(pool), (rng.randint(0, 3), rng.randint(0, 3)))
            for _ in range(rng.randint(2, 4))
        }
        if len(children) >= 2:
            g.create_composite(sorted(children))
    ids = g.node_ids()
    for _ in range(rng.randint(0, 12)):
        a, b = rng.sample(ids, 2)
        g.add_mutex(a, b)
    return g


def _random_seed_session(rng, g):
    s = SessionStack(g)
    s.begin_session()
    ids = g.node_ids()
    seeds = rng.sample(ids, rng.randint(0, min(5, len(ids))))
    for n in seeds:
        s.inhibit(n)
    for n in rng.sample(ids, rng.randint(0, min(5, len(ids)))):
        if not s.is_inhibited(n) and not any(
            s.is_active(p) or s.is_inhibited(p) for p in g.mutex_partners(n)
        ):
            try:
                s.set_active(n)
            except ConflictError:
                pass
    return s


def test_fixpoint_properties_random_graphs():
    rng = random.Random(99)
    for _ in range(100):
        g = _random_concept_graph(rng)
        s = _random_seed_session(rng, g)
        before = set(s.inhibited_nodes())
        try:
            first = s.propagate()
        except ConflictError:
            continue
        after = set(s.inhibited_nodes())
        assert before <= after  # monotone
        assert s.propagate() == set()  # idempotent
        assert after == before | first


def test_confluence_under_worklist_permutations():
    rng = random.Random(5)
    for _ in range(30):
        g = _random_concept_graph(rng)
        seeds = rng.sample(g.node_ids(), min(4, len(g)))
        s = SessionStack(g)
        for n in seeds:
            s.inhibit(n)
        s.propagate()
        reference = s.inhibited_nodes()
        for _ in range(10):
            # inhibit the seeds in two batches, closing after each
            rng.shuffle(seeds)
            cut = rng.randint(0, len(seeds))
            s = SessionStack(g)
            for batch in (seeds[:cut], seeds[cut:]):
                for n in batch:
                    s.inhibit(n)
                s.propagate()
            assert s.inhibited_nodes() == reference


def _propagate_against_closure_oracle(g, s, view=None) -> bool:
    """Propagate once and compare with the oracle; False on a conflict."""
    before = s.inhibited_nodes()
    expected = inhibition_closure_oracle(
        {n: g.parents_of(n) for n in g.node_ids()},
        g.mutex,
        before,
        s.active_nodes(),
        view.transitions if view else None,
        view.targets if view else set(),
    )
    if expected is None:
        with pytest.raises(ConflictError):
            s.propagate(view)
        return False
    assert s.propagate(view) == expected - before
    assert s.inhibited_nodes() == expected
    return True


def test_view_state_under_rules_b_c_and_mutex_matches_oracle():
    # `s1` has no transitions (rule C), its only parent is inhibited (rule
    # B) and it is the mutex partner of an Active node, so three rules reach
    # it in one call
    from gridmind import NodeKind

    g = ConceptGraph()
    a = g.create_primitive("a")
    s1 = g.create_atom(NodeKind.STATE, "s1")
    x = g.create_primitive("x")
    c = g.create_composite([(s1, (0, 0)), (x, (1, 0))])
    g.add_mutex(a, s1)
    view = StateGraphView(states={s1}, transitions={}, targets=set())
    s = SessionStack(g)
    s.inhibit(c)
    s.set_active(a)
    assert _propagate_against_closure_oracle(g, s, view)
    assert s.inhibited_nodes() == {c, s1, x}
    assert s.propagate(view) == set()


def test_propagate_matches_closure_oracle_random():
    # nested sessions, inhibit/set_active and graph growth between calls:
    # every call must still reach the full closure; half the graphs also
    # carry a state view over some of their nodes, mixing rule C with A/B
    rng = random.Random(2718)
    for _ in range(60):
        g = _random_concept_graph(rng)
        view = None
        if rng.random() < 0.5:
            states = rng.sample(g.node_ids(), min(len(g), 30))
            view = StateGraphView(
                states=set(states),
                transitions={
                    st: [t for t in rng.sample(states, rng.randint(0, 3)) if t != st]
                    for st in states
                },
                targets=set(rng.sample(states, rng.randint(0, 5))),
            )
        s = SessionStack(g)
        for _ in range(rng.randint(1, 6)):
            if s.depth and rng.random() < 0.3:
                s.release_session()
            s.begin_session()
            ids = g.node_ids()
            for n in rng.sample(ids, rng.randint(0, 3)):
                if not s.is_active(n):
                    s.inhibit(n)
            for n in rng.sample(ids, rng.randint(0, 2)):
                if not s.is_inhibited(n):
                    s.set_active(n)
            if rng.random() < 0.3:
                g.add_mutex(*rng.sample(ids, 2))
            if not _propagate_against_closure_oracle(g, s, view):
                while s.depth:
                    s.release_session()
                continue
            inhibited = sorted(s.inhibited_nodes())
            if inhibited and rng.random() < 0.5:
                # a new composite over an already-inhibited child
                fresh = g.create_primitive(f"q{len(g)}")
                g.create_composite(
                    [(rng.choice(inhibited), (0, 0)), (fresh, (1, 0))]
                )
                assert _propagate_against_closure_oracle(g, s, view)


def test_rule_c_matches_elimination_oracle_random():
    from gridmind import NodeKind

    rng = random.Random(17)
    for _ in range(100):
        g = ConceptGraph()
        n = rng.randint(2, 30)
        states = [g.create_atom(NodeKind.STATE, f"s{i}") for i in range(n)]
        transitions = {
            s: [t for t in rng.sample(states, rng.randint(0, min(3, n))) if t != s]
            for s in states
        }
        targets = set(rng.sample(states, rng.randint(0, max(1, n // 5))))
        view = StateGraphView(states=set(states), transitions=transitions, targets=targets)
        s = SessionStack(g)
        s.begin_session()
        derived = s.propagate(view)
        oracle = iterated_elimination(set(states), transitions, targets)
        assert derived == oracle


def test_session_soundness_random():
    rng = random.Random(41)
    for _ in range(30):
        g = _random_concept_graph(rng)
        s = SessionStack(g)
        s.begin_session()
        for n in rng.sample(g.node_ids(), min(3, len(g))):
            s.inhibit(n)
        s.propagate()
        # an activation the inner release must keep, in a session of its
        # own because it may conflict with the inhibitions above
        s.begin_session()
        outer = rng.choice(g.node_ids())
        if not s.is_inhibited(outer):
            s.set_active(outer)
        try:
            s.propagate()
        except ConflictError:
            s.release_session()
        snapshot = s.inhibited_nodes()
        active = s.active_nodes()
        s.begin_session()
        for n in rng.sample(g.node_ids(), min(4, len(g))):
            if not s.is_active(n):
                s.inhibit(n)
        for n in rng.sample(g.node_ids(), min(2, len(g))):
            if not s.is_inhibited(n):
                s.set_active(n)
        try:
            s.propagate()
        except ConflictError:
            pass  # the release must undo a conflicting session too
        s.release_session()
        assert s.inhibited_nodes() == snapshot
        assert s.active_nodes() == active


def test_no_node_both_active_and_inhibited_after_propagation():
    rng = random.Random(61)
    for _ in range(30):
        g = _random_concept_graph(rng)
        s = _random_seed_session(rng, g)
        try:
            s.propagate()
        except ConflictError:
            continue
        assert not (s.active_nodes() & s.inhibited_nodes())
