"""Session-scoped inhibition with fixpoint propagation.

Inhibition and activation are layered: depth 0 is permanent base
knowledge, deeper layers are revocable counterfactual assumptions, and
releasing a session retracts all of its assumptions together. `propagate`
closes the inhibited set under:

  A) parents of an inhibited node are inhibited;
  B) a node all of whose parents are inhibited (and that has at least one
     parent) is inhibited;
  C) on a state-graph view, a non-target state whose every transition
     leads to an inhibited state is inhibited (zero transitions counts);

plus the mutex-activation closure: partners of Active nodes are inhibited.
Trying to inhibit an Active node raises ConflictError, which is the signal
to backtrack and look for an alternative set of assumptions.

`propagate` runs one FIFO worklist and queues each node once. It is
seeded with every inhibited node and every Active node, in id order, and
then derives, given a view, every non-target view state with no
transitions, so each call computes the whole closure, whatever `inhibit`,
`set_active` or graph growth happened since the last call. A view state
with transitions needs no seed: it can fall only when its last successor
is expanded, and the successor count below catches that. A popped Active
node inhibits its mutex partners; a popped inhibited node inhibits and
enqueues its parents (A), each child whose parents are now all expanded
(B) and each view predecessor whose successors are now all expanded (C).
Only a node not yet inhibited is derived, and deriving an Active one
raises, so no node enters the queue twice. B and C keep a per-node count
of the parents or successors not yet expanded, so a call costs the seeds
plus what they reach and their links, not repeated sweeps over the whole
graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import ConceptGraph


class InhibitionError(Exception):
    pass


class UnderflowError(InhibitionError):
    pass


class ConflictError(InhibitionError):
    pass


@dataclass
class StateGraphView:
    states: set[int]
    transitions: dict[int, list[int]]
    targets: set[int]


class SessionStack:
    """Activation/inhibition bookkeeping over a concept graph.

    `_layers[d]` holds the nodes first inhibited or activated at depth
    `d`. A node is never both inhibited and Active, and it is recorded
    once, in the layer that was open then, so the layers partition the
    inhibited and Active sets, and releasing a session undoes every
    inhibition and activation made in it.
    """

    def __init__(self, graph: ConceptGraph):
        self.graph = graph
        self._layers: list[set[int]] = [set()]
        self._inhibited: set[int] = set()
        self._active: set[int] = set()

    @property
    def depth(self) -> int:
        return len(self._layers) - 1

    def begin_session(self) -> int:
        self._layers.append(set())
        return self.depth

    def release_session(self) -> None:
        if self.depth == 0:
            raise UnderflowError("cannot release the base layer")
        layer = self._layers.pop()
        self._inhibited -= layer
        self._active -= layer

    def is_inhibited(self, n: int) -> bool:
        return n in self._inhibited

    def inhibited_nodes(self) -> set[int]:
        return set(self._inhibited)

    def is_active(self, n: int) -> bool:
        return n in self._active

    def active_nodes(self) -> set[int]:
        return set(self._active)

    def inhibit(self, *nodes: int) -> None:
        """Inhibit `nodes` in the open layer; if one is Active, raise
        `ConflictError` before inhibiting any."""
        for n in nodes:
            self.graph.node(n)
            if n in self._active:
                raise ConflictError(f"node {n} is Active, cannot inhibit")
        new = set(nodes) - self._inhibited
        self._inhibited |= new
        self._layers[-1] |= new

    def set_active(self, n: int) -> None:
        self.graph.node(n)
        if n in self._inhibited:
            raise ConflictError(f"node {n} is Inhibited, cannot activate")
        if n not in self._active:
            self._active.add(n)
            self._layers[-1].add(n)

    def propagate(self, state_view: StateGraphView | None = None) -> set[int]:
        """Run rules A/B/C plus the mutex closure to fixpoint.

        Returns the nodes it inhibited. Raises `ConflictError` if the
        closure would inhibit an Active node or two mutex partners are both
        Active; the nodes derived before the raise stay in the open layer,
        so the caller releases that session. Given a view, an Active
        non-target state with no transitions raises as the queue is seeded,
        before any node is popped.
        """
        g = self.graph
        inhibited, active, layer = self._inhibited, self._active, self._layers[-1]
        queue = sorted(inhibited | active)
        derived: set[int] = set()
        # per node, how many of its parents (B) or successors (C) are not
        # yet expanded; a node is derived when its count reaches 0
        parents_left: dict[int, int] = {}
        succs_left: dict[int, int] = {}

        def derive(n: int) -> None:
            if n in active:
                raise ConflictError(f"propagation would inhibit Active node {n}")
            inhibited.add(n)
            layer.add(n)
            derived.add(n)
            queue.append(n)

        preds: dict[int, list[int]] = {}
        if state_view is not None:
            for s in state_view.states - state_view.targets:
                succs = state_view.transitions.get(s)
                if succs:
                    for t in succs:
                        preds.setdefault(t, []).append(s)
                elif s not in inhibited:
                    derive(s)

        for n in queue:  # the list is the queue
            if n in active:
                for partner in g._mutex.get(n, ()):
                    if partner in active:
                        raise ConflictError(
                            f"mutex partners {n} and {partner} are both Active"
                        )
                    if partner not in inhibited:
                        derive(partner)
                continue
            for parent in g._parents.get(n, ()):
                if parent not in inhibited:
                    derive(parent)
            for child in {c for c, _role in g._children.get(n, ())}:
                left = parents_left.get(child, len(g._parents.get(child, ()))) - 1
                parents_left[child] = left
                if not left and child not in inhibited:
                    derive(child)
            for s in preds.get(n, ()):
                left = succs_left.get(s, len(state_view.transitions[s])) - 1
                succs_left[s] = left
                if not left and s not in inhibited:
                    derive(s)
        return derived
