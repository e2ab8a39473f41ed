"""Python-vs-NumPy backend equivalence.

The contract of :mod:`repro.backends`: every backend returns bit-identical
integers for every query, and placement runs produce byte-identical
``PlacementResult`` contents regardless of backend — including on graphs
whose receipt counts overflow int64, where the NumPy backend must detect
the risk and delegate to the exact path.
"""

from __future__ import annotations

import pytest

from conftest import diamond_chain, random_dag
from repro.backends import get_backend, use_backend
from repro.backends.numpy_backend import NumpyBackend
from repro.core.objective import filter_ratio
from repro.core.registry import get_algorithm
from repro.datasets.registry import DATASET_NAMES, get_dataset
from repro.exceptions import CyclicGraphError, ParameterError
from repro.graphs.cgraph import CGraph

numpy = pytest.importorskip("numpy")

SCALED = {"synthetic-sparse", "synthetic-dense", "quote", "twitter", "citation"}


def small_dataset(name):
    kwargs = {"seed": 0}
    if name in SCALED:
        kwargs["scale"] = 0.15
    return get_dataset(name, **kwargs)


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_queries_agree_on_datasets(name):
    graph = small_dataset(name)
    py = get_backend("python")
    np_backend = get_backend("numpy")
    filter_sets = [(), graph.merge_nodes()[:5]]
    for filters in filter_sets:
        assert py.node_receipts(graph, filters) == np_backend.node_receipts(
            graph, filters
        )
        assert py.total_receipts(graph, filters) == np_backend.total_receipts(
            graph, filters
        )
        assert py.marginal_gains(graph, filters) == np_backend.marginal_gains(
            graph, filters
        )
        assert py.simplified_impacts(
            graph, filters
        ) == np_backend.simplified_impacts(graph, filters)


@pytest.mark.parametrize("seed", range(4))
def test_queries_agree_on_random_dags(seed):
    graph = random_dag(seed, n=18, p=0.35, sources=3)
    py, np_backend = get_backend("python"), get_backend("numpy")
    assert py.marginal_gains(graph) == np_backend.marginal_gains(graph)
    weights = {s: 2 + i for i, s in enumerate(sorted(graph.sources))}
    assert py.node_receipts(
        graph, (), items_per_source=weights
    ) == np_backend.node_receipts(graph, (), items_per_source=weights)


@pytest.mark.parametrize(
    "algorithm_name", ("G_All", "G_All_paper", "G_Max", "G_L")
)
@pytest.mark.parametrize("dataset", ("fig10", "synthetic-sparse", "citation"))
def test_placements_identical_across_backends(algorithm_name, dataset):
    graph = small_dataset(dataset)
    results = {}
    for backend_name in ("python", "numpy"):
        with use_backend(backend_name):
            results[backend_name] = get_algorithm(algorithm_name).place(
                graph, 6
            )
            results[f"fr_{backend_name}"] = filter_ratio(
                graph, results[backend_name].filters
            )
    assert results["python"].filters == results["numpy"].filters
    assert results["python"].steps == results["numpy"].steps
    assert results["fr_python"] == results["fr_numpy"]


def test_overflow_falls_back_to_exact_path():
    graph = diamond_chain(70)  # receipts reach 2**70 ≫ int64
    backend = NumpyBackend()
    assert backend.plan_for(graph).exact_only is True
    exact = get_backend("python")
    receipts = backend.node_receipts(graph)
    assert receipts == exact.node_receipts(graph)
    assert max(receipts.values()) == 2**70  # genuinely beyond int64
    assert backend.marginal_gains(graph) == exact.marginal_gains(graph)


def test_safe_graphs_use_the_fast_path():
    graph = diamond_chain(10)
    backend = NumpyBackend()
    assert backend.plan_for(graph).exact_only is False
    assert max(backend.node_receipts(graph).values()) == 2**10


def test_weighted_overflow_triggers_per_call_fallback():
    graph = diamond_chain(40)  # 2**40 per item: safe unweighted...
    backend = NumpyBackend()
    assert backend.plan_for(graph).exact_only is False
    weight = 2**30  # ...but 2**70 total once weighted
    exact = get_backend("python")
    assert backend.node_receipts(
        graph, (), items_per_source=weight
    ) == exact.node_receipts(graph, (), items_per_source=weight)
    # Weights beyond float64 range must also fall back, not crash the
    # overflow guard itself.
    huge = 10**400
    assert backend.node_receipts(
        graph, (), items_per_source=huge
    ) == exact.node_receipts(graph, (), items_per_source=huge)


def test_nonfinite_probe_forces_exact_path():
    # A source-unreachable region whose W overflows float64 to inf makes
    # the probe compute inf·0 = NaN; NaN compares False against every
    # threshold, so it must be treated as overflow explicitly or the int64
    # path runs unguarded and can return wrapped (negative) gains.
    reachable = [("s", "r0")] + [(f"r{i}", f"r{i+1}") for i in range(3)]
    unreachable = []
    prev = "u_top"
    for i in range(1300):  # W ~ 2**1300 ≫ float64 max
        a, b, m = f"ua{i}", f"ub{i}", f"um{i}"
        unreachable += [(prev, a), (prev, b), (a, m), (b, m)]
        prev = m
    graph = CGraph(reachable + unreachable, sources=["s"])
    backend = NumpyBackend()
    assert backend.plan_for(graph).exact_only is True
    assert backend.marginal_gains(graph) == get_backend(
        "python"
    ).marginal_gains(graph)
    gains = backend.marginal_gains(graph)
    assert all(g >= 0 for g in gains.values())


def test_result_dicts_share_key_order_across_backends(fig1):
    py, np_backend = get_backend("python"), get_backend("numpy")
    for query in ("node_receipts", "marginal_gains", "simplified_impacts"):
        a = getattr(py, query)(fig1, ["z2"])
        b = getattr(np_backend, query)(fig1, ["z2"])
        assert list(a) == list(b) == list(fig1.nodes())


def test_numpy_backend_rejects_cycles():
    cyclic = CGraph(
        [("s", "a"), ("a", "b"), ("b", "c"), ("c", "a")], sources=["s"]
    )
    with pytest.raises(CyclicGraphError):
        NumpyBackend().plan_for(cyclic)


def test_registry_rejects_unknown_backend():
    with pytest.raises(ParameterError):
        get_backend("cuda")


@pytest.mark.parametrize("backend_name", ("python", "numpy"))
def test_backends_reject_unknown_filter_nodes_identically(backend_name):
    from repro.exceptions import GraphStructureError

    graph = CGraph([("s", "a"), ("a", "b")])
    backend = get_backend(backend_name)
    for query in (
        lambda: backend.node_receipts(graph, ["ghost"]),
        lambda: backend.total_receipts(graph, ["ghost"]),
        lambda: backend.marginal_gains(graph, ["ghost"]),
        lambda: backend.simplified_impacts(graph, ["ghost"]),
    ):
        with pytest.raises(GraphStructureError):
            query()


def _phi_backends():
    """(label, graph, backend) triples covering every validation path."""
    plain = CGraph([("s", "a"), ("a", "b"), ("s", "b")])
    exact_only = NumpyBackend()
    overflow = diamond_chain(70)
    assert exact_only.plan_for(overflow).exact_only
    return (
        ("python", plain, get_backend("python")),
        ("numpy", plain, NumpyBackend()),
        ("numpy-exact-only", overflow, exact_only),
    )


@pytest.mark.parametrize("case", range(3), ids=("python", "numpy", "exact-only"))
def test_phi_rejects_a_missing_filter_once(case, monkeypatch):
    """Φ validates the filter set at the backend boundary, exactly once:
    a missing filter raises GraphStructureError on every path, and a
    valid set is membership-checked by one validation pass."""
    import repro.backends.python_backend as python_backend
    from repro.core.objective import phi
    from repro.exceptions import GraphStructureError

    _, graph, backend = _phi_backends()[case]
    with pytest.raises(GraphStructureError, match="missing nodes"):
        phi(graph, ["s", "ghost"], backend=backend)
    calls = []
    real = python_backend.validate_filter_set
    monkeypatch.setattr(
        python_backend,
        "validate_filter_set",
        lambda g, f: calls.append(f) or real(g, f),
    )
    phi(graph, list(graph.nodes())[:2], backend=backend)
    # The python backend (and numpy's exact-only delegate) validate in
    # validate_filter_set; the numpy fast path validates in its mask.
    assert len(calls) == (0 if case == 1 else 1)


def test_max_objective_on_identity_graphs_builds_no_index():
    """F(V) on a table-built identity graph checks 10^3 filter nodes by
    bounds, never materializing the n-entry dict index."""
    from repro.core.objective import max_objective
    from repro.graphs.largescale import scale_dag

    graph = scale_dag(0.01, seed=0)
    backend = NumpyBackend()
    expected = max_objective(graph, backend="python")
    graph = scale_dag(0.01, seed=0)  # the python sweep built the index
    assert max_objective(graph, backend=backend) == expected
    assert graph.compiled()._index is None


def _per_level_origins(compiled, lvl):
    """The plan's origin rows/cols by their definition, one level."""
    members = list(compiled.level_members(lvl))
    rows = [
        row
        for row, s in enumerate(compiled.source_ids)
        if compiled.depth[s] == lvl
    ]
    return rows, [members.index(compiled.source_ids[r]) for r in rows]


def test_plan_origins_match_the_per_level_definition():
    """origin_rows/origin_cols (one stable sort of source depths) equal
    the brute-force per-level scan on many-source multi-level DAGs."""
    from strategies import reach_cases, standard_cases

    backend = NumpyBackend()
    for case in reach_cases() + standard_cases():
        graph = case.build()
        compiled = graph.compiled()
        plan = backend.plan_for(graph)
        assert len(plan.levels) == compiled.num_levels
        depths = {compiled.depth[s] for s in compiled.source_ids}
        if case in reach_cases():
            assert len(depths) > 1, case.name  # sources on several levels
        for lvl, level in enumerate(plan.levels):
            rows, cols = _per_level_origins(compiled, lvl)
            assert level.origin_rows.tolist() == rows, (case.name, lvl)
            assert level.origin_cols.tolist() == cols, (case.name, lvl)


def test_use_backend_restores_default():
    from repro.backends.registry import get_default_backend

    before = get_default_backend()
    with use_backend("python") as backend:
        assert backend.name == "python"
        assert get_default_backend() is backend
    assert get_default_backend() is before


def test_plan_cache_does_not_pin_discarded_graphs():
    """The weak-keyed plan cache must let graphs (and plans) die.

    Regression for the compile-once refactor: a _Plan that referenced
    its CompiledGraph would reach back to the CGraph key and pin the
    WeakKeyDictionary entry forever — exactly the leak the weak cache
    exists to prevent in the long-running service.
    """
    import gc
    import weakref

    backend = NumpyBackend()
    graph = get_dataset("fig10")
    backend.plan_for(graph)
    ref = weakref.ref(graph)
    assert len(backend._plans) == 1
    del graph
    gc.collect()
    assert ref() is None, "graph pinned by its own plan"
    assert len(backend._plans) == 0
