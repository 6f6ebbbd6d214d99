"""Alternative-explanation search under mutex constraints.

Given a set of detected low-level features, the search covers them with a
consistent set of composites: choosing a composite activates it and its
detected children, and mutex propagation may suppress competing features.
Every maximal consistent cover is returned; features no composite can ever
cover come back as a distinguished novel-residue explanation, which is the
trigger for learning something new.

An explanation needs no maximality test. It is a choice that accounts for
every feature it leaves uncovered, so each such feature that some
composite covers is inhibited. Any composite that could still join covers
one of those features, and activating it would conflict, because
propagation is monotone. So no explanation is contained in another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import ConceptGraph, NodeKind
from .grid import Grid
from .inhibition import ConflictError, SessionStack
from .learning import Learner, extract_features


@dataclass(frozen=True)
class Explanation:
    chosen: frozenset[int]
    covered: frozenset[int]
    suppressed: frozenset[int]
    residue: frozenset[int] = field(default_factory=frozenset)
    novel: bool = False


def _candidate_composites(graph: ConceptGraph, features: set[int]) -> list[int]:
    out = {
        p
        for f in features
        for p in graph._parents.get(f, ())
        if graph.nodes[p].kind is NodeKind.COMPOSITE
    }
    return sorted(out, key=lambda n: (-graph.nodes[n].scale, n))


def explain_features(
    graph: ConceptGraph,
    features: set[int],
    sessions: SessionStack | None = None,
) -> list[Explanation]:
    """All maximal consistent explanations of the given feature nodes."""
    if sessions is None:
        sessions = SessionStack(graph)
    if not features:
        return [Explanation(frozenset(), frozenset(), frozenset())]
    candidates = _candidate_composites(graph, features)
    feats_of = {
        c: {ch for ch, _ in graph._children[c]} & features for c in candidates
    }
    unexplainable = features - set().union(*feats_of.values())
    maximal: list[Explanation] = []

    def branch(idx: int, chosen: list[int], covered: set[int]):
        extended = False
        for i in range(idx, len(candidates)):
            cand = candidates[i]
            feats = feats_of[cand]
            if feats & covered:
                continue
            if sessions.is_inhibited(cand) or any(sessions.is_inhibited(f) for f in feats):
                continue
            sessions.begin_session()
            marked = []
            try:
                for n in [cand, *sorted(feats)]:
                    if not sessions.is_active(n):
                        sessions.set_active(n)
                        marked.append(n)
                sessions.propagate()
            except ConflictError:
                for n in marked:
                    sessions.clear_active(n)
                sessions.release_session()
                continue
            extended = True
            branch(i + 1, chosen + [cand], covered | feats)
            for n in marked:
                sessions.clear_active(n)
            sessions.release_session()
        if extended or not chosen:
            return
        # terminal: account for every feature; a choice that does is
        # maximal (see the module docstring)
        suppressed = set()
        for f in features - covered:
            if f in unexplainable:
                continue
            if sessions.is_inhibited(f) and any(
                p in covered for p in graph.mutex_partners(f)
            ):
                suppressed.add(f)
            else:
                return
        maximal.append(
            Explanation(
                frozenset(chosen),
                frozenset(covered),
                frozenset(suppressed),
                frozenset(unexplainable),
            )
        )

    branch(0, [], set())
    maximal.sort(key=lambda e: (-len(e.covered), sorted(e.chosen)))
    residue = features.difference(*(e.covered | e.suppressed for e in maximal))
    if residue:
        maximal.append(
            Explanation(
                frozenset(), frozenset(), frozenset(), frozenset(residue), novel=True
            )
        )
    return maximal


def explain(
    learner: Learner, g: Grid, sessions: SessionStack | None = None
) -> list[Explanation]:
    """Explain a grid: detect its features, then cover them with composites."""
    if g.is_empty():
        return [Explanation(frozenset(), frozenset(), frozenset())]
    nodes = [learner._lookup_feature_node(f) for f in extract_features(g)]
    result = explain_features(
        learner.graph, {n for n in nodes if n is not None}, sessions
    )
    # features with no node at all are novelty the search cannot see
    if None in nodes and not any(e.novel for e in result):
        result.append(
            Explanation(frozenset(), frozenset(), frozenset(), frozenset(), novel=True)
        )
    return result
