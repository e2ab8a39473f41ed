"""Greedy prefix-consistency.

Every algorithm that advertises ``prefix_consistent = True`` must return,
for budget ``k``, a sequence whose first ``j`` picks equal its budget-``j``
result — the property the FR sweep machinery relies on to draw a whole
curve from a single run.  Checked for the greedy family on toy and
synthetic graphs, plus the ``PlacementResult.prefix`` accessor itself.
"""

from __future__ import annotations

import pytest

from conftest import random_dag
from repro.core.registry import get_algorithm
from repro.datasets.synthetic import sparse_synthetic
from repro.datasets.toy import fig3_like_graph, fig10_sketch_graph

ALGORITHMS = ("G_All", "G_All_paper", "G_Max", "G_1", "G_L")

GRAPHS = {
    "fig3": fig3_like_graph,
    "fig10": fig10_sketch_graph,
    "synthetic": lambda: sparse_synthetic(seed=2, scale=0.08),
    "random": lambda: random_dag(7),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("algorithm_name", ALGORITHMS)
def test_prefixes_match_smaller_budgets(name, algorithm_name):
    graph = GRAPHS[name]()
    algorithm = get_algorithm(algorithm_name)
    assert algorithm.prefix_consistent
    k = 6
    full = algorithm.place(graph, k)
    for j in range(k + 1):
        smaller = get_algorithm(algorithm_name).place(graph, j)
        assert smaller.filters == full.filters[: len(smaller.filters)], (
            f"{algorithm_name} budget {j} diverges from prefix"
        )
        assert full.prefix(len(smaller.filters)) == smaller.filter_set()
