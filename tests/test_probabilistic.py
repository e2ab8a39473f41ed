"""The probabilistic relaying layer: model axis, SAA engine, estimation.

Covers the Section 3 extension end to end:

* ``p ≡ 1`` reduces *exactly* to the deterministic engine — on every
  built-in dataset the summed sampled gains are ``trials ×`` the exact
  deterministic gains, and the model axis normalizes unit probabilities
  onto the deterministic fast path (bit-identical placements).
* The exact linear-expectation formula matches Monte-Carlo means within
  confidence bounds, for both mechanisms, and the two mechanisms agree
  in expectation without filters.
* Seeded runs are byte-reproducible, worlds are shared (common random
  numbers), and both backends produce identical SAA integers.
* The ``lazy`` strategy alias selects the same filters as eager SAA
  greedy on both backends.
* The :class:`~repro.exceptions.MissingEdgeError` bugfix: an unknown
  *edge* in a probability mapping is reported as a missing edge, not a
  missing node.

The module runs without NumPy: backend-dependent cases iterate
``available_backends()``, everything else exercises the pure-Python
sampling layer directly (the no-numpy CI job runs this file explicitly).
"""

from __future__ import annotations

import math

import pytest

from conftest import random_dag
from repro.backends.registry import available_backends, get_backend
from repro.core.registry import get_algorithm
from repro.datasets.registry import DATASET_NAMES, get_dataset
from repro.exceptions import MissingEdgeError, ParameterError
from repro.propagation.model import (
    PropagationModel,
    build_model,
    use_model,
)
from repro.propagation.probabilistic import (
    ProbabilisticModel,
    estimate_total_receipts,
    expected_receipts_without_filters,
)
from repro.propagation.sampling import get_worlds

#: Every built-in dataset, scaled test-size (matches the compiled
#: equivalence suite's convention).
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

_graphs: dict[str, object] = {}


def dataset_graph(name: str):
    if name not in _graphs:
        _graphs[name] = get_dataset(name, **DATASET_SPECS[name])
    return _graphs[name]


def test_every_builtin_dataset_is_covered():
    assert set(DATASET_SPECS) == set(DATASET_NAMES)


# ----------------------------------------------------------------------
# Satellite bugfix: missing edges are missing *edges*
# ----------------------------------------------------------------------


def test_unknown_edge_raises_missing_edge_error(fig1):
    with pytest.raises(MissingEdgeError) as exc:
        ProbabilisticModel(fig1, {("s", "nope"): 0.5})
    assert "edge" in str(exc.value)
    assert "'s'" in str(exc.value) and "'nope'" in str(exc.value)
    assert exc.value.edge == ("s", "nope")


def test_unknown_edge_raises_on_compiled_path(fig1):
    with pytest.raises(MissingEdgeError):
        fig1.compiled().edge_probabilities({("x", "s"): 0.5})  # reversed


def test_out_of_range_probability_rejected(fig1):
    with pytest.raises(ParameterError):
        ProbabilisticModel(fig1, 1.5)
    with pytest.raises(ParameterError):
        ProbabilisticModel(fig1, {("s", "x"): -0.1})
    with pytest.raises(ParameterError):
        PropagationModel("live-edge", probabilities=2.0)


def test_model_axis_validation():
    with pytest.raises(ParameterError):
        PropagationModel("osmosis")
    with pytest.raises(ParameterError):
        PropagationModel("live-edge", trials=0)
    with pytest.raises(ParameterError):
        build_model("nonsense")
    with pytest.raises(ParameterError):
        use_model("live-edge").__enter__()  # names need build_model


# ----------------------------------------------------------------------
# p ≡ 1 reduces exactly to the deterministic engine
# ----------------------------------------------------------------------


def test_unit_probabilities_resolve_to_deterministic_fast_path():
    assert build_model("deterministic") is None
    assert build_model("live-edge", edge_prob=1.0) is None
    assert build_model("per-copy", edge_prob=1.0) is None
    assert build_model("live-edge", edge_prob=0.5) is not None


@pytest.mark.parametrize("dataset", sorted(DATASET_SPECS))
@pytest.mark.parametrize("backend", available_backends())
def test_unit_model_gains_are_trials_times_deterministic(dataset, backend):
    """With every edge live, each sampled world *is* the full graph."""
    graph = dataset_graph(dataset)
    impl = get_backend(backend)
    # Constructed directly (build_model would normalize it away): the
    # sampler must still handle the degenerate all-live spec exactly.
    model = PropagationModel("live-edge", probabilities=1.0, trials=7)
    exact = impl.marginal_gains_ids(graph, ())
    sampled = impl.sampled_marginal_gains_ids(graph, (), model=model)
    assert list(sampled) == [7 * g for g in exact]
    exact_simple = impl.simplified_impacts_ids(graph, ())
    sampled_simple = impl.sampled_simplified_impacts_ids(
        graph, (), model=model
    )
    assert list(sampled_simple) == [7 * s for s in exact_simple]
    assert impl.sampled_total_receipts(
        graph, (), model=model
    ) == 7 * impl.total_receipts(graph, ())


@pytest.mark.parametrize("dataset", sorted(DATASET_SPECS))
def test_unit_model_placements_bit_identical(dataset):
    graph = dataset_graph(dataset)
    plain = get_algorithm("G_All").place(graph, 4)
    unit = get_algorithm(
        "G_All", model=build_model("live-edge", edge_prob=1.0)
    ).place(graph, 4)
    assert unit.filters == plain.filters
    assert unit.steps == plain.steps


# ----------------------------------------------------------------------
# Exact expectation vs Monte-Carlo; mechanism agreement
# ----------------------------------------------------------------------


def _mc_ci(estimate, sigmas: float = 5.0) -> float:
    """A wide (≈5σ) confidence half-width for the Monte-Carlo mean."""
    return sigmas * estimate.std / math.sqrt(estimate.trials) + 1e-9


@pytest.mark.parametrize("mechanism", ["live-edge", "per-copy"])
def test_exact_expectation_matches_monte_carlo(fig1, mechanism):
    model = ProbabilisticModel(fig1, 0.7)
    exact_total = sum(
        sum(expected_receipts_without_filters(model, s).values())
        for s in fig1.sources
    )
    estimate = estimate_total_receipts(
        model, trials=400, seed=3, mechanism=mechanism
    )
    assert abs(estimate.mean - exact_total) <= _mc_ci(estimate)


def test_live_edge_and_per_copy_agree_in_expectation_without_filters():
    graph = random_dag(11, n=16, p=0.35, sources=2)
    model = ProbabilisticModel(graph, 0.6)
    live = estimate_total_receipts(
        model, trials=400, seed=5, mechanism="live-edge"
    )
    copy = estimate_total_receipts(
        model, trials=400, seed=6, mechanism="per-copy"
    )
    exact_total = sum(
        sum(expected_receipts_without_filters(model, s).values())
        for s in graph.sources
    )
    assert abs(live.mean - exact_total) <= _mc_ci(live)
    assert abs(copy.mean - exact_total) <= _mc_ci(copy)


def test_per_edge_mapping_expectations(fig1):
    """Mapping probabilities: absent edges default to deterministic."""
    model = ProbabilisticModel(fig1, {("s", "x"): 0.0})
    expected = expected_receipts_without_filters(model, "s")
    assert expected["x"] == 0.0  # the dead edge is x's only supply
    assert expected["y"] == 1.0  # untouched edges relay surely


# ----------------------------------------------------------------------
# Reproducibility and common random numbers
# ----------------------------------------------------------------------


def test_seeded_estimates_are_byte_reproducible(fig1):
    model = ProbabilisticModel(fig1, 0.5)
    for mechanism in ("live-edge", "per-copy"):
        a = estimate_total_receipts(
            model, ("x",), trials=50, seed=9, mechanism=mechanism
        )
        b = estimate_total_receipts(
            model, ("x",), trials=50, seed=9, mechanism=mechanism
        )
        assert a == b
    diff = estimate_total_receipts(model, ("x",), trials=50, seed=10)
    base = estimate_total_receipts(model, ("x",), trials=50, seed=9)
    assert diff != base  # seed actually steers the draw


def test_worlds_are_cached_and_shared(fig1):
    model = build_model("live-edge", edge_prob=0.4, trials=8, seed=1)
    assert get_worlds(fig1, model) is get_worlds(fig1, model)
    # Mechanism does not fork the worlds: both score through the same
    # live-edge coupling.
    per_copy = build_model("per-copy", edge_prob=0.4, trials=8, seed=1)
    assert get_worlds(fig1, per_copy) is get_worlds(fig1, model)
    other = build_model("live-edge", edge_prob=0.4, trials=8, seed=2)
    assert get_worlds(fig1, other) is not get_worlds(fig1, model)


@pytest.mark.parametrize("backend", available_backends())
def test_seeded_sampled_gains_reproducible(backend):
    graph = dataset_graph("quote")
    impl = get_backend(backend)
    model = build_model("live-edge", edge_prob=0.6, trials=16, seed=4)
    first = list(impl.sampled_marginal_gains_ids(graph, (), model=model))
    second = list(impl.sampled_marginal_gains_ids(graph, (), model=model))
    assert first == second


# ----------------------------------------------------------------------
# Cross-backend equality and CELF-under-SAA
# ----------------------------------------------------------------------


@pytest.mark.skipif(
    len(available_backends()) < 2, reason="needs both backends"
)
@pytest.mark.parametrize(
    "dataset", ["fig10", "quote", "citation", "synthetic-sparse"]
)
def test_backends_agree_on_sampled_integers(dataset):
    graph = dataset_graph(dataset)
    py = get_backend("python")
    np_backend = get_backend("numpy")
    model = build_model("live-edge", edge_prob=0.55, trials=12, seed=2)
    gains = list(py.sampled_marginal_gains_ids(graph, (), model=model))
    assert gains == list(
        np_backend.sampled_marginal_gains_ids(graph, (), model=model)
    )
    top = sorted(range(len(gains)), key=lambda v: -gains[v])[:3]
    for impl_pair in (
        "sampled_marginal_gains_ids",
        "sampled_simplified_impacts_ids",
    ):
        assert list(getattr(py, impl_pair)(graph, top, model=model)) == list(
            getattr(np_backend, impl_pair)(graph, top, model=model)
        )
    assert py.sampled_total_receipts(
        graph, (), model=model
    ) == np_backend.sampled_total_receipts(graph, (), model=model)


@pytest.mark.parametrize("dataset", ["fig10", "quote", "synthetic-sparse"])
@pytest.mark.parametrize("backend", available_backends())
def test_celf_saa_equals_eager_saa(dataset, backend):
    """Fixed (seed, trials) ⇒ the ``lazy`` alias == eager under SAA."""
    graph = dataset_graph(dataset)
    model = build_model("live-edge", edge_prob=0.5, trials=16, seed=7)
    eager = get_algorithm("G_All", model=model, backend=backend).place(
        graph, 6
    )
    lazy = get_algorithm(
        "G_All", strategy="lazy", model=model, backend=backend
    ).place(graph, 6)
    assert lazy.filters == eager.filters
    assert [s.gain for s in lazy.steps] == [s.gain for s in eager.steps]


@pytest.mark.skipif(
    len(available_backends()) < 2, reason="needs both backends"
)
def test_saa_placements_identical_across_backends():
    graph = dataset_graph("citation")
    model = build_model("live-edge", edge_prob=0.6, trials=16, seed=3)
    results = {
        backend: get_algorithm("G_All", model=model, backend=backend).place(
            graph, 5
        )
        for backend in available_backends()
    }
    filters = {r.filters for r in results.values()}
    assert len(filters) == 1


# ----------------------------------------------------------------------
# Per-step SAA gains (what a placement walk re-sweeps)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", available_backends())
def test_sampled_session_tracks_batched_gains(backend):
    """Re-swept SAA gains along a greedy walk equal the dict oracle's.

    The SAA gain session is gone; a walk re-sweeps
    ``sampled_marginal_gains_ids`` on each chosen prefix.  Every step
    must equal the oracle's per-world, per-source sums over the same
    worlds, and a placed node's gain must drop to zero.
    """
    import oracle_dictpath as oracle

    graph = dataset_graph("fig10")
    impl = get_backend(backend)
    model = build_model("live-edge", edge_prob=0.7, trials=8, seed=0)
    compiled = graph.compiled()
    placed: list[int] = []
    for _ in range(3):
        gains = impl.sampled_marginal_gains_ids(graph, placed, model=model)
        expected = oracle.sampled_marginal_gains_dict(
            graph, compiled.to_nodes(placed), model
        )
        assert list(gains) == [expected[v] for v in compiled.nodes]
        best = max(range(compiled.n), key=lambda v: (gains[v], -v))
        if gains[best] <= 0:
            break
        placed.append(best)
        after = impl.sampled_marginal_gains_ids(graph, placed, model=model)
        assert after[best] == 0
    assert placed, "fig10 must yield at least one positive SAA gain"


def test_sampled_session_rejects_bad_ids(fig1):
    """The sampled queries reject ids and nodes outside the graph."""
    from repro.exceptions import GraphStructureError, MissingNodeError

    model = build_model("live-edge", edge_prob=0.5, trials=4, seed=0)
    n = fig1.compiled().n
    for backend in available_backends():
        impl = get_backend(backend)
        for bad in (-1, n):
            with pytest.raises(MissingNodeError):
                impl.sampled_marginal_gains_ids(fig1, [bad], model=model)
            with pytest.raises(MissingNodeError):
                impl.sampled_simplified_impacts_ids(fig1, [bad], model=model)
        with pytest.raises(GraphStructureError):
            impl.sampled_total_receipts(fig1, ["nope"], model=model)


# ----------------------------------------------------------------------
# Registry / scoping wiring
# ----------------------------------------------------------------------


def test_get_algorithm_pins_model():
    model = build_model("live-edge", edge_prob=0.5, trials=4)
    algorithm = get_algorithm("G_All", model=model)
    assert algorithm.model is model
    # Sweep-free heuristics accept the axis and ignore it.
    assert get_algorithm("G_1", model=model).model is model


def test_use_model_scopes_the_default(fig1):
    model = build_model("live-edge", edge_prob=0.5, trials=8, seed=1)
    plain = get_algorithm("G_All").place(fig1, 2)
    with use_model(model):
        scoped = get_algorithm("G_All").place(fig1, 2)
        explicit = get_algorithm("G_All", model=model).place(fig1, 2)
    after = get_algorithm("G_All").place(fig1, 2)
    assert scoped.filters == explicit.filters
    assert after.filters == plain.filters
    assert [s.gain for s in after.steps] == [s.gain for s in plain.steps]


def test_model_describe_and_keys():
    model = build_model("live-edge", edge_prob=0.25, trials=10, seed=3)
    doc = model.describe()
    assert doc == {
        "name": "live-edge",
        "edge_prob": 0.25,
        "trials": 10,
        "seed": 3,
    }
    mapped = PropagationModel(
        "per-copy", probabilities={("a", "b"): 0.5}, trials=10, seed=3
    )
    assert mapped.describe()["edge_prob"] == "per-edge(1)"
    assert model.worlds_key() != mapped.worlds_key()


# ----------------------------------------------------------------------
# Compiled substrate
# ----------------------------------------------------------------------


def test_edge_probabilities_aligned_and_cached(fig1):
    compiled = fig1.compiled()
    probs = compiled.edge_probabilities({("s", "x"): 0.25})
    assert probs is compiled.edge_probabilities({("s", "x"): 0.25})
    assert not probs.unit
    # Forward alignment: position of edge (s, x) in the out-CSR.
    s = compiled.to_id("s")
    x = compiled.to_id("x")
    pos = compiled.out_offsets[s] + compiled.succ_ids[s].index(x)
    assert probs.out_probs[pos] == 0.25
    # Reverse alignment via the cached position map.
    in_pos = compiled.in_pos_of_out()[pos]
    assert probs.in_probs[in_pos] == 0.25
    assert sum(1 for p in probs.out_probs if p != 1.0) == 1
    # Cached probability tables are charged to the compiled footprint.
    assert compiled.nbytes() > 0


def test_probabilistic_model_compiled_path(fig1):
    model = ProbabilisticModel(fig1, 0.5)
    probs = model.compiled()
    assert probs.uniform == 0.5
    assert probs is model.compiled()  # cached on the compiled view
    axis = model.to_model("per-copy", trials=5, seed=2)
    assert axis.mechanism == "per-copy"
    assert axis.trials == 5 and axis.seed == 2


@pytest.mark.skipif(
    "numpy" not in available_backends(), reason="needs the numpy backend"
)
def test_int32_eligibility_consults_psi_bound():
    """Stored ψ entries accumulate across levels: a node whose parents
    span several levels can exceed every per-level sum, so the compact
    dtype must respect ``psi_bound``, not just the level-sum bounds."""
    from repro.graphs.cgraph import CGraph

    # A chain whose every node also feeds one shared sink: each level's
    # emission total stays tiny, while ψ(sink) accumulates one copy per
    # level — the accumulation-across-levels shape.
    k = 12
    edges = [(i, i + 1) for i in range(k)] + [(i, "sink") for i in range(k)]
    graph = CGraph(edges)
    backend = get_backend("numpy")
    plan = backend.plan_for(graph)
    # The forward level-sum bound is lazy (the flattened plan probe
    # defers it to the sampled path); the accessor computes and caches.
    assert plan.psi_bound > max(
        backend._fwd_levelsum(plan) / k, 1
    )  # sanity: the shape exercises multi-level fan-in
    model = build_model("live-edge", edge_prob=0.9, trials=6, seed=0)
    state = backend._sampled_state(graph, plan, model)
    import numpy as np

    assert state.dtype is np.int32  # small graph: compact dtype fine
    # Equality with the per-trial exact path on this shape.
    assert list(
        backend.sampled_marginal_gains_ids(graph, (), model=model)
    ) == list(
        get_backend("python").sampled_marginal_gains_ids(
            graph, (), model=model
        )
    )
    # Force ψ beyond int32 range while the level sums stay small: the
    # dtype decision must fall back to int64 on psi_bound alone.
    plan.psi_bound = float(2**31)
    assert backend._fwd_levelsum(plan) < 2**30
    wide = backend._build_sampled_state(graph, plan, model)
    assert wide.dtype is np.int64
    assert not wide.exact_only
