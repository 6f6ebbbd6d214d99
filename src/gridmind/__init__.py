"""Concept-graph reasoning engine for symbolic grids.

Learns mirrored compositional representations of grid patterns, reasons
with activation/inhibition fixpoints, searches alternative explanations
under mutex constraints, and solves grounded maze / push-puzzle tasks with
deadlock pruning and exhaustive counterfactual solution enumeration.
"""

from .graph import (
    ArityError,
    ConceptGraph,
    ConceptNode,
    GraphError,
    NodeKind,
    ParseError,
    SelfMutexError,
    UnknownNodeError,
)
from .grid import Grid, GridError
from .inhibition import (
    ConflictError,
    SessionStack,
    StateGraphView,
    UnderflowError,
)
from .interpretation import Explanation, explain, explain_features
from .learning import (
    BoundsError,
    Discrepancy,
    EmptyInputError,
    FeatureInstance,
    InhibitedError,
    Learner,
    NoFitError,
    ObserveReport,
    RecognitionMatch,
    Transformation,
    extract_features,
    find_transformation,
)
from .solver import (
    Environment,
    InvalidEnvError,
    NoSolution,
    Solution,
    State,
    StateSpace,
    TraceRecord,
    TraceRecorder,
    enumerate_solutions,
    prune_deadlocks,
    solve,
    solve_with_constraints,
)

__version__ = "0.1.0"
