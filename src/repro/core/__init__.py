"""The paper's primary contribution: filter-placement algorithms.

Public surface:

* Objective machinery — ``Φ``, ``F``, the Filter Ratio, Proposition 1's
  minimal perfect filter set (:mod:`repro.core.objective`).
* Impact computation — the fast prefix/absorbing-suffix engine
  (:mod:`repro.core.impact`) and the paper-faithful ``plist`` engine
  (:mod:`repro.core.plist`).
* Placement algorithms — ``Greedy_All`` (Algorithm 1, the (1-1/e)
  approximation), ``Greedy_Max``, ``Greedy_1``, ``Greedy_L`` (Algorithm 2),
  the three randomized baselines, the exact tree dynamic program
  (Section 4.1), exhaustive search, and a betweenness-centrality strawman.
* :func:`repro.core.registry.get_algorithm` — name-based lookup shared by
  the CLI, the experiments and the benchmarks.
"""

from repro.core.base import PlacementResult, PlacementStep
from repro.core.objective import (
    filter_ratio,
    max_objective,
    minimal_perfect_filter_set,
    objective_value,
    phi,
)
from repro.core.impact import (
    absorbing_suffix,
    impacts,
    marginal_gain,
    marginal_gains,
)
from repro.core.plist import PlistTables, compute_plists, plist_impacts
from repro.core.greedy_all import GreedyAll, greedy_all
from repro.core.greedy_max import GreedyMax, greedy_max
from repro.core.greedy_one import GreedyOne, greedy_one
from repro.core.greedy_l import GreedyL, greedy_l
from repro.core.random_placement import (
    RandomIndependent,
    RandomK,
    RandomWeighted,
)
from repro.core.tree_dp import TreeDynamicProgram, tree_optimal_placement
from repro.core.exhaustive import ExhaustiveSearch, optimal_placement
from repro.core.betweenness import BetweennessPlacement
from repro.core.registry import (
    ALGORITHM_NAMES,
    PAPER_ALGORITHM_NAMES,
    STRATEGY_NAMES,
    get_algorithm,
    get_default_strategy,
    set_default_strategy,
    use_strategy,
)

__all__ = [
    "PlacementResult",
    "PlacementStep",
    "phi",
    "objective_value",
    "max_objective",
    "filter_ratio",
    "minimal_perfect_filter_set",
    "impacts",
    "marginal_gain",
    "marginal_gains",
    "absorbing_suffix",
    "PlistTables",
    "compute_plists",
    "plist_impacts",
    "GreedyAll",
    "greedy_all",
    "GreedyMax",
    "greedy_max",
    "GreedyOne",
    "greedy_one",
    "GreedyL",
    "greedy_l",
    "RandomK",
    "RandomIndependent",
    "RandomWeighted",
    "TreeDynamicProgram",
    "tree_optimal_placement",
    "ExhaustiveSearch",
    "optimal_placement",
    "BetweennessPlacement",
    "get_algorithm",
    "get_default_strategy",
    "set_default_strategy",
    "use_strategy",
    "ALGORITHM_NAMES",
    "PAPER_ALGORITHM_NAMES",
    "STRATEGY_NAMES",
]
