"""The ``lazy`` names are aliases of eager ``Greedy_All``.

The CELF optimizer is gone: one bit-packed two-sweep evaluation yields
every marginal gain, so lazy re-evaluation had nothing left to save.
The names stay for one release so scripts and service cache keys keep
working — ``G_All_lazy``, ``get_algorithm(..., strategy="lazy")``,
``place --strategy lazy`` and a service request with
``"strategy": "lazy"`` must all return eager ``G_All``'s filters and
objective.

The incremental gain sessions went with CELF.  What they guaranteed is
still relied on: callers that walk a placement sequence (the sketch
strategy's exact rescore) re-sweep the gains on each prefix, and those
per-step gains must equal full sweeps, agree across backends, and never
rise as filters are added (the diminishing returns CELF's stale heap
bounds rested on).
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from conftest import random_dag
from repro.backends import available_backends, get_backend
from repro.cli import main
from repro.core.greedy_all import GreedyAll
from repro.core.objective import objective_value
from repro.core.registry import get_algorithm, use_strategy
from repro.datasets.registry import get_dataset
from repro.datasets.synthetic import dense_synthetic, sparse_synthetic
from repro.datasets.toy import (
    fig1_graph,
    fig2_like_graph,
    fig3_like_graph,
    fig10_sketch_graph,
)
from repro.service.app import ServiceApp

GRAPHS = {
    "fig1": fig1_graph,
    "fig2": fig2_like_graph,
    "fig3": fig3_like_graph,
    "fig10": fig10_sketch_graph,
    "sparse": lambda: sparse_synthetic(seed=3, scale=0.12),
    "dense": lambda: dense_synthetic(seed=1, scale=0.12),
    "random": lambda: random_dag(11, n=24, p=0.3, sources=3),
}

BACKENDS = available_backends()

K = 6
ROUTES = ("G_All_lazy", "strategy", "cli", "service")


def lazy_filters_and_objective(route, dataset, backend_name):
    """(filters, objective) through one ``lazy`` route, serialized."""
    if route in ("G_All_lazy", "strategy"):
        if route == "G_All_lazy":
            algorithm = get_algorithm("G_All_lazy", backend=backend_name)
        else:
            algorithm = get_algorithm(
                "G_All", strategy="lazy", backend=backend_name
            )
        graph = get_dataset(dataset)
        result = algorithm.place(graph, K)
        return (
            [repr(v) for v in result.filters],
            objective_value(graph, result.filters, backend=backend_name),
        )
    if route == "cli":
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main([
                "place", "--dataset", dataset, "--algorithm", "G_All",
                "-k", str(K), "--strategy", "lazy",
                "--backend", backend_name, "--json",
            ])
        assert code == 0
        payload = json.loads(buffer.getvalue())
    else:
        app = ServiceApp(workers=1, warm_backends=False)
        try:
            status, graph_doc = app.handle_register_graph(
                {"dataset": dataset}
            )
            assert status == 201, graph_doc
            status, doc = app.handle_placement({
                "graph": graph_doc["digest"],
                "algorithm": "G_All",
                "k": K,
                "strategy": "lazy",
                "backend": backend_name,
                "wait": True,
            })
            assert status == 200, doc
            payload = doc["result"]
        finally:
            app.close()
    return payload["filters"], payload["objective"]


@pytest.mark.parametrize("backend_name", available_backends())
@pytest.mark.parametrize("dataset", ("fig10", "quote"))
@pytest.mark.parametrize("route", ROUTES)
def test_lazy_alias_matches_eager_g_all(route, dataset, backend_name):
    graph = get_dataset(dataset)
    eager = get_algorithm("G_All", backend=backend_name).place(graph, K)
    expected = (
        [repr(v) for v in eager.filters],
        objective_value(graph, eager.filters, backend=backend_name),
    )
    assert eager.filters, "the alias check needs a non-empty placement"
    assert lazy_filters_and_objective(route, dataset, backend_name) == (
        expected
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_lazy_matches_exact_up_to_k10(graph_name, backend_name):
    graph = GRAPHS[graph_name]()
    backend = get_backend(backend_name)
    k = min(10, len(graph))
    eager = GreedyAll(backend=backend).place(graph, k)
    lazy = get_algorithm("G_All_lazy", backend=backend).place(graph, k)
    assert lazy.algorithm == "G_All_lazy"
    assert lazy.filters == eager.filters
    assert [s.gain for s in lazy.steps] == [s.gain for s in eager.steps]
    # Objective values agree at every prefix, not just the endpoint.
    for j in range(len(eager.filters) + 1):
        assert objective_value(
            graph, eager.filters[:j], backend=backend
        ) == objective_value(graph, lazy.filters[:j], backend=backend)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_heap_staleness_upper_bound_property(backend_name):
    # Submodularity: a gain computed before a placement (a stale value)
    # bounds the same node's gain after it — the property that made
    # stale heap entries safe upper bounds.  Checked for every node at
    # every step of an eager G_All walk.
    backend = get_backend(backend_name)
    graph = sparse_synthetic(seed=5, scale=0.15)
    result = GreedyAll(backend=backend).place(graph, 10)
    stale = backend.marginal_gains(graph, ())
    dropped = 0
    for j in range(1, len(result.filters) + 1):
        fresh = backend.marginal_gains(graph, result.filters[:j])
        for node, gain in fresh.items():
            assert gain <= stale[node], (
                f"gain of {node!r} rose {stale[node]} -> {gain} after "
                f"placing {result.filters[j - 1]!r}"
            )
            dropped += gain < stale[node]
        stale = fresh
    assert dropped, "expected at least one gain to fall on this graph"


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_session_matches_full_sweeps_after_each_placement(backend_name):
    # The sketch strategy's exact rescore re-sweeps the gains of each
    # chosen prefix through the id path; every rescored step must equal
    # the node-keyed full sweep after the picks before it.
    backend = get_backend(backend_name)
    graph = random_dag(4, n=22, p=0.3, sources=8)
    result = get_algorithm(
        "G_All", strategy="sketch", sketch_k=4, backend=backend
    ).place(graph, 8)
    assert result.rescored and result.filters
    for j, step in enumerate(result.steps):
        assert ("sketch_rescore", 1) in step.evaluations
        fresh = backend.marginal_gains(graph, result.filters[:j])
        assert step.gain == fresh[step.node]


def test_sessions_identical_across_backends():
    if "numpy" not in BACKENDS:
        pytest.skip("numpy not available")
    graph = fig10_sketch_graph()
    py = get_backend("python")
    np_backend = get_backend("numpy")
    gains = py.marginal_gains(graph)
    order = sorted(gains, key=gains.__getitem__, reverse=True)[:3]
    for j in range(len(order) + 1):
        assert py.marginal_gains(graph, order[:j]) == (
            np_backend.marginal_gains(graph, order[:j])
        )


def test_strategy_selects_celf_without_changing_the_name():
    # ``strategy="lazy"`` now selects the eager optimizer; the reported
    # name stays ``G_All`` so result labels never fork.
    exact = get_algorithm("G_All")
    lazy = get_algorithm("G_All", strategy="lazy")
    assert isinstance(exact, GreedyAll)
    assert isinstance(lazy, GreedyAll)
    assert lazy.name == "G_All"
    with use_strategy("lazy"):
        assert isinstance(get_algorithm("G_All"), GreedyAll)
        assert get_algorithm("G_All").name == "G_All"
        # Algorithms without a lazy alias are untouched by the strategy.
        assert type(get_algorithm("G_1")).__name__ == "GreedyOne"
    assert isinstance(get_algorithm("G_All"), GreedyAll)


def test_place_cli_strategy_flag_matches_exact(capsys):
    outputs = {}
    for strategy in ("exact", "lazy"):
        code = main(
            [
                "place",
                "--dataset", "fig10",
                "--algorithm", "G_All",
                "-k", "4",
                "--strategy", strategy,
            ]
        )
        assert code == 0
        outputs[strategy] = capsys.readouterr().out
    assert outputs["exact"] == outputs["lazy"]
