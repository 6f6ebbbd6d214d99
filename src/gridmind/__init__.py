"""Concept-graph reasoning engine for symbolic grids.

Learns mirrored compositional representations of grid patterns, reasons
with activation/inhibition fixpoints, searches alternative explanations
under mutex constraints, and solves grounded maze / push-puzzle tasks with
deadlock pruning and exhaustive counterfactual solution enumeration.
"""

from .graph import ConceptGraph, NodeKind
from .grid import Grid
from .inhibition import SessionStack
from .interpretation import explain, explain_features
from .learning import Learner, Transformation, extract_features
from .solver import (
    Environment,
    NoSolution,
    Solution,
    State,
    StateSpace,
    enumerate_solutions,
    prune_deadlocks,
    solve,
    solve_with_constraints,
)

__version__ = "0.1.0"
