"""Alternative-explanation search under mutex constraints.

Given a set of detected low-level features, the search covers them with a
consistent set of composites: choosing a composite activates it and its
detected children, and mutex propagation may suppress competing features.
Every maximal consistent cover is returned; features no composite can ever
cover come back as a distinguished novel-residue explanation, which is the
trigger for learning something new, and so does every feature when no
cover is consistent.

The search branches on features, as Knuth's Algorithm X does for exact
cover. It decides the explainable features one at a time, in a fixed
order (those in the fewest candidates first), skipping those already
covered. A feature is either covered, by one compatible candidate that
contains it, or left uncovered, which bans every candidate that contains
it below that branch. The branches at a feature
differ in which composite covers it, or in that none does, and that
choice holds below them, so each chosen set is visited once. Conflict
checks do not depend on the order composites are activated in, because
propagation is monotone and confluent. Open decisions sit on an explicit
stack of generators, so the search depth is not bounded by Python's
recursion limit.

Once every feature is decided, a choice is an explanation when it
accounts for every feature it left uncovered: each has a covered mutex
partner, through which propagation has inhibited it. A covered feature is
Active and its branch's propagation succeeded, so the mutex closure has
already inhibited each of its partners, and the test reads the partners
alone. Such a choice needs no maximality test. Any
composite that could still join covers one of those features, and
activating it would conflict, because propagation is monotone. So no
explanation is contained in another.

A feature is left uncovered only if one of its mutex partners is covered
or can still be covered by an unbanned candidate. This loses no
explanation: below that branch the feature stays uncovered, and so does
each partner that is not covered yet and that no unbanned candidate
contains, because bans only grow. Every choice found there would fail
the test above.

The novel residue is the uncoverable features when some explanation
exists, and every feature when none does. An explanation covers some
coverable features and suppresses exactly the others, so each one
accounts for all of the coverable features and for nothing else.
"""

from __future__ import annotations

from collections.abc import Iterator

from .graph import ConceptGraph, NodeKind
from .grid import MAX_DIM, Grid
from .inhibition import ConflictError, SessionStack
from .learning import BoundsError, Learner

# Most decisions one explanation search may take: cover attempts and leave
# branches together. It admits any search that takes one decision per feature
# of the largest grid.
MAX_EXPLAIN_DECISIONS = MAX_DIM * MAX_DIM


class Explanation:
    __slots__ = ("chosen", "covered", "suppressed", "residue", "novel")

    def __init__(
        self,
        chosen: frozenset[int],
        covered: frozenset[int],
        suppressed: frozenset[int],
        residue: frozenset[int] = frozenset(),
        novel: bool = False,
    ):
        self.chosen, self.covered, self.suppressed = chosen, covered, suppressed
        self.residue, self.novel = residue, novel


def explain_features(
    graph: ConceptGraph,
    features: set[int],
    sessions: SessionStack | None = None,
) -> list[Explanation]:
    """All maximal consistent explanations of the given feature nodes, most
    features covered first, then by chosen ids; a novel-residue explanation
    comes last when some feature is left unexplained.

    `sessions` is the caller's inhibition state. Each cover is propagated
    on top of it, so what it inhibits or holds Active steers which covers
    the search may choose. Without it the search starts from a fresh stack.

    The search takes at most `MAX_EXPLAIN_DECISIONS` decisions, cover
    attempts and leave branches together; one more raises `BoundsError`.
    Every session it opened is released first, so `sessions` keeps its
    depth and its inhibited and Active nodes, whether the search answers
    or is refused.
    """
    if sessions is None:
        sessions = SessionStack(graph)
    if not features:
        return [Explanation(frozenset(), frozenset(), frozenset())]
    feats_of: dict[int, set[int]] = {}
    covering: dict[int, list[int]] = {}
    candidates = {
        p
        for f in features
        for p in graph._parents.get(f, ())
        if graph.nodes[p].kind is NodeKind.COMPOSITE
    }
    for c in sorted(candidates, key=lambda n: (-graph.nodes[n].scale, n)):
        feats_of[c] = {ch for ch, _ in graph._children[c]} & features
        for f in feats_of[c]:
            covering.setdefault(f, []).append(c)
    unexplainable = frozenset(features - covering.keys())
    order = sorted(covering, key=lambda f: (len(covering[f]), f))
    banned: set[int] = set()
    chosen: list[int] = []
    covered: set[int] = set()
    maximal: list[Explanation] = []
    decisions = 0

    def decide(i: int) -> Iterator[int]:
        """Branch on the first undecided feature from `order[i]` on.

        Yields, inside each branch, the position to go on from. Once every
        feature is decided, records the choice if it is an explanation.
        Past the budget it returns at once, holding no session of its own.
        """
        nonlocal decisions
        while i < len(order) and order[i] in covered:
            i += 1
        if i == len(order):
            # a choice that accounts for each feature it left uncovered is
            # maximal (see the module docstring)
            suppressed = covering.keys() - covered
            if chosen and all(
                any(p in covered for p in graph.mutex_partners(f)) for f in suppressed
            ):
                maximal.append(
                    Explanation(
                        frozenset(chosen), frozenset(covered), frozenset(suppressed), unexplainable
                    )
                )
            return
        f = order[i]
        for cand in covering[f]:
            feats = feats_of[cand]
            if cand in banned or feats & covered:
                continue
            decisions += 1
            if decisions > MAX_EXPLAIN_DECISIONS:
                return
            sessions.begin_session()
            try:
                for n in (cand, *feats):
                    sessions.set_active(n)
                sessions.propagate()
            except ConflictError:
                pass
            else:
                chosen.append(cand)
                covered.update(feats)
                yield i + 1
                chosen.pop()
                covered.difference_update(feats)
            sessions.release_session()
        # leave `f` uncovered: worth it only if a partner can suppress it
        newly = [c for c in covering[f] if c not in banned]
        banned.update(newly)
        if any(
            p in covered or any(c not in banned for c in covering.get(p, ()))
            for p in graph._mutex.get(f, ())
        ):
            decisions += 1
            if decisions <= MAX_EXPLAIN_DECISIONS:
                yield i + 1
        banned.difference_update(newly)

    stack = [decide(0)]
    while stack:
        i = next(stack[-1], None)
        if i is None:
            stack.pop()
        else:
            stack.append(decide(i))
    if decisions > MAX_EXPLAIN_DECISIONS:
        raise BoundsError(
            "the explanation search takes more than MAX_EXPLAIN_DECISIONS"
            f" ({MAX_EXPLAIN_DECISIONS}) decisions"
        )
    maximal.sort(key=lambda e: (-len(e.covered), sorted(e.chosen)))
    residue = unexplainable if maximal else frozenset(features)
    if residue:
        maximal.append(Explanation(frozenset(), frozenset(), frozenset(), residue, novel=True))
    return maximal


def explain(learner: Learner, g: Grid) -> list[Explanation]:
    """Explain a grid: detect its features, then cover them with composites.

    Features with no node at all are novelty the search cannot see. When
    some feature has none, the result ends in a novel explanation; when no
    feature has a node, the search has nothing to cover and that novel
    explanation is the whole result. Only an empty grid gets the one empty
    explanation of no features."""
    detected = learner._detect(g)
    unseen = detected.pop(None, None) is not None
    result = explain_features(learner.graph, set(detected)) if detected or not unseen else []
    if unseen and not any(e.novel for e in result):
        result.append(Explanation(frozenset(), frozenset(), frozenset(), novel=True))
    return result
