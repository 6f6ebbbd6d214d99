"""Concept-graph reasoning engine for symbolic grids.

Learns mirrored compositional representations of grid patterns, reasons
with activation/inhibition fixpoints, searches alternative explanations
under mutex constraints, and solves grounded maze / push-puzzle tasks with
deadlock pruning and exhaustive counterfactual solution enumeration.

`import gridmind` loads none of the engine's modules. Each name in
`__all__` loads the module that defines it the first time it is used
(PEP 562), and is then stored on the package, so later lookups are plain
attribute reads. The `gridmind` command likewise imports only the modules
the subcommand it runs needs (see `gridmind.cli`).
"""

__version__ = "0.1.0"

# each re-exported name -> the module that defines it
_HOME = {
    "ConceptGraph": "graph",
    "NodeKind": "graph",
    "Grid": "grid",
    "SessionStack": "inhibition",
    "explain": "interpretation",
    "explain_features": "interpretation",
    "Learner": "learning",
    "Transformation": "learning",
    "extract_features": "learning",
    "Environment": "solver",
    "NoSolution": "solver",
    "Solution": "solver",
    "State": "solver",
    "StateSpace": "solver",
    "enumerate_solutions": "solver",
    "prune_deadlocks": "solver",
    "solve": "solver",
    "solve_with_constraints": "solver",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value
