"""repro — Filter Placement for Minimizing Information Multiplicity.

A complete, self-contained reproduction of

    Dóra Erdős, Vatche Ishakian, Andrei Lapets, Evimaria Terzi,
    Azer Bestavros.  "The Filter-Placement Problem and its Application to
    Minimizing Information Multiplicity."  PVLDB 5(5), 2012.

Quick start
-----------
::

    from repro import CGraph, greedy_all, filter_ratio

    g = CGraph([
        ("s", "x"), ("s", "y"),
        ("x", "z1"), ("x", "z2"), ("y", "z2"), ("y", "z3"),
        ("z1", "w"), ("z2", "w"), ("z3", "w"),
    ])
    result = greedy_all(g, k=2)
    print(result.filters)                  # where to install filters
    print(filter_ratio(g, result.filters)) # fraction of redundancy removed

Package layout
--------------
* :mod:`repro.graphs` — the c-graph structure, traversals, the ``Acyclic``
  algorithm, the binary-tree transform, I/O.
* :mod:`repro.propagation` — exact, simulated, and probabilistic
  propagation engines.
* :mod:`repro.backends` — pluggable propagation backends: the exact
  big-int engine and a vectorized NumPy engine, behind one registry.
* :mod:`repro.core` — the objective and every placement algorithm from the
  paper (plus exact baselines).
* :mod:`repro.reductions` — executable NP-completeness gadgets
  (Theorems 1 and 2).
* :mod:`repro.datasets` — the synthetic generator of Section 5 and
  structure-matched substitutes for the Quote/Twitter/APS datasets.
* :mod:`repro.analysis` — FR curves, degree CDFs, runtime harness.
* :mod:`repro.experiments` — one module per paper figure.
"""

from repro.exceptions import (
    CyclicGraphError,
    DivergentPropagationError,
    GraphStructureError,
    MissingNodeError,
    MissingSourceError,
    ParameterError,
    ReproError,
)
from repro.graphs import (
    CGraph,
    acyclic_subgraph,
    binarize_ctree,
    ensure_single_source,
    largest_acyclic_subgraph,
)
from repro.propagation import (
    node_receipts,
    simulate,
    total_receipts,
)
from repro.backends import (
    BACKEND_NAMES,
    available_backends,
    get_backend,
    set_default_backend,
    use_backend,
)
from repro.core import (
    PlacementResult,
    filter_ratio,
    get_algorithm,
    greedy_all,
    greedy_l,
    greedy_max,
    greedy_one,
    impacts,
    marginal_gains,
    max_objective,
    minimal_perfect_filter_set,
    objective_value,
    optimal_placement,
    phi,
    tree_optimal_placement,
    use_strategy,
)

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "GraphStructureError",
    "CyclicGraphError",
    "MissingNodeError",
    "MissingSourceError",
    "ParameterError",
    "DivergentPropagationError",
    # graphs
    "CGraph",
    "acyclic_subgraph",
    "largest_acyclic_subgraph",
    "ensure_single_source",
    "binarize_ctree",
    # propagation
    "node_receipts",
    "total_receipts",
    "simulate",
    # backends
    "BACKEND_NAMES",
    "available_backends",
    "get_backend",
    "set_default_backend",
    "use_backend",
    # core
    "PlacementResult",
    "phi",
    "objective_value",
    "max_objective",
    "filter_ratio",
    "minimal_perfect_filter_set",
    "impacts",
    "marginal_gains",
    "greedy_all",
    "greedy_max",
    "greedy_one",
    "greedy_l",
    "tree_optimal_placement",
    "optimal_placement",
    "get_algorithm",
    "use_strategy",
]
