"""Cross-layer equivalence: dict-path oracle vs the compiled path.

The compile-once refactor rewired every layer — engine, backends,
algorithms — onto the interned-id/CSR view.  This suite pins the
semantics to the pre-refactor dict engine (:mod:`oracle_dictpath`, kept
in the test tree only): identical placements and objectives across the
full algorithm × route × backend matrix on **every** built-in dataset
(scaled down where generation or oracle sweeps would otherwise dominate
the test run), and identical raw sweep numbers on assorted filter sets.

The oracle never touches ``repro.backends`` or ``CGraph.compiled()``, so
this is an independent derivation, not a self-comparison — and the whole
module is NumPy-free unless NumPy is installed, which is how the no-numpy
CI job proves the compiled layer is dependency-free.
"""

from __future__ import annotations

import pytest

import oracle_dictpath as oracle
from repro.backends.registry import (
    available_backends,
    build_backend,
    use_backend,
)
from repro.core.objective import objective_value
from repro.core.registry import get_algorithm
from repro.datasets.registry import DATASET_NAMES, get_dataset

#: Every built-in dataset, scaled so oracle dict sweeps stay test-sized.
DATASET_SPECS: dict[str, dict] = {
    "synthetic-sparse": {"seed": 0, "scale": 0.25},
    "synthetic-dense": {"seed": 0, "scale": 0.2},
    "quote": {"seed": 0, "scale": 0.3},
    "twitter": {"seed": 0, "scale": 0.02},
    "citation": {"seed": 0, "scale": 0.1},
    "scale-dag": {"seed": 0, "scale": 0.001},
    "fig1": {},
    "fig2": {},
    "fig3": {},
    "fig10": {},
}

K = 5

#: How a matrix cell reaches its placement.  ``exact`` and ``sketch`` are
#: the registry strategies, run on the shared dataset graph that earlier
#: cells have already compiled and warmed.  ``lazy`` runs ``exact`` on a
#: freshly generated copy that nothing has touched, so the compile, the
#: reachability warm and the backend plan all happen inside ``place``.
ROUTES = ("exact", "lazy", "sketch")

_graphs: dict[str, object] = {}


def dataset_graph(name: str):
    if name not in _graphs:
        _graphs[name] = get_dataset(name, **DATASET_SPECS[name])
    return _graphs[name]


def test_every_builtin_dataset_is_covered():
    assert set(DATASET_SPECS) == set(DATASET_NAMES)


@pytest.mark.parametrize("dataset", sorted(DATASET_SPECS))
@pytest.mark.parametrize("algorithm", sorted(oracle.ORACLE_PLACERS))
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("backend", available_backends())
def test_matrix_placements_match_dict_oracle(
    dataset, algorithm, route, backend
):
    graph = dataset_graph(dataset)
    expected = oracle.ORACLE_PLACERS[algorithm](graph, K)
    engine, strategy = backend, route
    if route == "lazy":
        graph = get_dataset(dataset, **DATASET_SPECS[dataset])
        engine, strategy = build_backend(backend), "exact"

    instance = get_algorithm(algorithm, strategy=strategy, backend=engine)
    with use_backend(engine):
        result = instance.place(graph, K)

    assert result.filters == expected, (
        f"{dataset}/{algorithm}/{route}/{backend} diverged from the "
        "dict-path oracle"
    )
    # Objectives agree too: the compiled Φ equals the oracle's dict Φ.
    oracle_objective = oracle.phi_dict(graph, ()) - oracle.phi_dict(
        graph, expected
    )
    assert (
        objective_value(graph, result.filters, backend=backend)
        == oracle_objective
    )


@pytest.mark.parametrize("dataset", sorted(DATASET_SPECS))
@pytest.mark.parametrize("backend", available_backends())
def test_sweep_numbers_match_dict_oracle(dataset, backend):
    from repro.backends.registry import get_backend

    graph = dataset_graph(dataset)
    impl = get_backend(backend)
    # ∅ plus two growing filter sets drawn from the oracle's own picks.
    prefix = oracle.greedy_all_dict(graph, 4)
    for cut in (0, 2, len(prefix)):
        filters = prefix[:cut]
        assert impl.marginal_gains(graph, filters) == oracle.marginal_gains_dict(
            graph, filters
        )
        assert impl.simplified_impacts(
            graph, filters
        ) == oracle.simplified_impacts_dict(graph, filters)
        assert impl.node_receipts(graph, filters) == oracle.node_receipts_dict(
            graph, filters
        )
        # The id fast path is the same numbers in rank order.
        compiled = graph.compiled()
        ids = compiled.to_ids(filters)
        gains = impl.marginal_gains_ids(graph, ids)
        assert list(gains) == [
            oracle.marginal_gains_dict(graph, filters)[v]
            for v in compiled.nodes
        ]


@pytest.mark.parametrize("backend", available_backends())
def test_gain_session_id_path_matches_oracle(backend):
    """Walk a greedy sequence through ids only; compare every state.

    The per-step re-sweep on the chosen id prefix is what replaced the
    incremental gain sessions (the sketch strategy's exact rescore runs
    exactly this loop), so each step must match the oracle and a placed
    node's gain must drop to zero.
    """
    from repro.backends.registry import get_backend

    graph = dataset_graph("fig10")
    compiled = graph.compiled()
    impl = get_backend(backend)
    placed: list = []
    for _ in range(4):
        gains = impl.marginal_gains_ids(graph, compiled.to_ids(placed))
        assert list(gains) == [
            oracle.marginal_gains_dict(graph, placed)[v]
            for v in compiled.nodes
        ]
        best = max(range(compiled.n), key=lambda v: (gains[v], -v))
        if gains[best] <= 0:
            break
        placed.append(compiled.nodes[best])
        after = impl.marginal_gains_ids(graph, compiled.to_ids(placed))
        assert after[best] == 0
    assert placed, "fig10 must yield at least one positive-gain pick"
