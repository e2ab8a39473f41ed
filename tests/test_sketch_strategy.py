"""The ``sketch`` execution strategy end to end.

Pins the strategy's cross-layer wiring: registry resolution (the
``strategy`` axis beside ``exact``), the exactness-regime
selection guarantee (bit-identical to exact ``Greedy_All`` whenever the
source count fits the register file), the approximate-regime objective
quality bound, the three rescore tiers of
:class:`~repro.sketches.celf.SketchCelfGreedyAll` and the service
serializer's estimator audit trail.
"""

from __future__ import annotations

import pytest

from repro.core.objective import objective_value
from repro.core.registry import (
    SKETCH_CAPABLE_NAMES,
    STRATEGY_NAMES,
    algorithm_catalog,
    get_algorithm,
    use_strategy,
)
from repro.datasets.registry import get_dataset
from repro.exceptions import ParameterError
from repro.propagation.model import build_model
from repro.service.serialize import placement_payload
from repro.sketches.bottomk import epsilon_for_k, k_for_epsilon
from repro.sketches.celf import DEFAULT_RESCORE_LIMIT, SketchCelfGreedyAll

K = 10

_graphs: dict[str, object] = {}


def graph_of(name: str, **spec):
    key = (name, tuple(sorted(spec.items())))
    if key not in _graphs:
        _graphs[key] = get_dataset(name, **spec)
    return _graphs[key]


def exact_fixture():
    """Small graph, one source: sketches are exact, selections identical."""
    return graph_of("citation", seed=0, scale=0.1)


def approx_fixture():
    """The scale-dag's spontaneous sources overflow k=16 registers."""
    return graph_of("scale-dag", seed=0, scale=0.01)


# ----------------------------------------------------------------------
# Registry wiring
# ----------------------------------------------------------------------


def test_sketch_is_a_registered_strategy():
    assert "sketch" in STRATEGY_NAMES


@pytest.mark.parametrize("name", SKETCH_CAPABLE_NAMES)
def test_capable_names_resolve_to_sketch_impl(name):
    algorithm = get_algorithm(name, strategy="sketch")
    assert isinstance(algorithm, SketchCelfGreedyAll)
    # The reported name survives the strategy swap — results stay
    # attributable to what the user asked for.
    assert algorithm.name == name


def test_noncapable_names_fall_back_to_their_factory():
    algorithm = get_algorithm("G_1", strategy="sketch")
    assert not isinstance(algorithm, SketchCelfGreedyAll)


def test_catalog_flags_sketch_capability():
    rows = {row["name"]: row for row in algorithm_catalog()}
    for name in SKETCH_CAPABLE_NAMES:
        assert rows[name]["sketch_capable"]
    assert not rows["G_1"]["sketch_capable"]


def test_epsilon_wins_over_sketch_k():
    algorithm = get_algorithm(
        "G_All", strategy="sketch", sketch_k=8, epsilon=0.5
    )
    assert algorithm.sketch_k == k_for_epsilon(0.5)
    assert algorithm.epsilon <= 0.5


def test_sketch_seed_passes_through():
    algorithm = get_algorithm("G_All", strategy="sketch", sketch_seed=9)
    assert algorithm.sketch_seed == 9


def test_use_strategy_scope_selects_sketch():
    with use_strategy("sketch"):
        assert isinstance(get_algorithm("G_All"), SketchCelfGreedyAll)
    assert not isinstance(get_algorithm("G_All"), SketchCelfGreedyAll)


def test_constructor_rejects_bad_sketch_k():
    with pytest.raises(ParameterError):
        SketchCelfGreedyAll(sketch_k=3)
    with pytest.raises(ParameterError):
        SketchCelfGreedyAll(sketch_k=16.0)


def test_sketch_rejects_probabilistic_models():
    algorithm = SketchCelfGreedyAll(
        model=build_model("live-edge", edge_prob=0.5)
    )
    with pytest.raises(ParameterError):
        algorithm.place(exact_fixture(), K)


# ----------------------------------------------------------------------
# Exactness regime: bit-identical to exact Greedy_All
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "dataset,spec",
    [
        ("citation", {"seed": 0, "scale": 0.1}),
        ("twitter", {"seed": 0, "scale": 0.02}),
        ("fig2", {}),
    ],
)
def test_exact_regime_selection_is_bit_identical(dataset, spec):
    graph = graph_of(dataset, **spec)
    k = min(K, graph.number_of_nodes())
    exact = get_algorithm("G_All", strategy="exact").place(graph, k)
    sketch = get_algorithm("G_All", strategy="sketch").place(graph, k)
    assert sketch.filters == exact.filters
    assert [s.gain for s in sketch.steps] == [s.gain for s in exact.steps]
    assert sketch.rescored is True
    # In the exactness regime the estimates already *are* the gains.
    assert list(sketch.estimated_gains) == [s.gain for s in sketch.steps]


def test_exact_regime_gains_are_ints():
    result = get_algorithm("G_All", strategy="sketch").place(
        exact_fixture(), K
    )
    assert all(isinstance(s.gain, int) for s in result.steps)


# ----------------------------------------------------------------------
# Approximate regime: objective quality and the rescore tiers
# ----------------------------------------------------------------------


def test_approx_objective_within_epsilon_of_exact():
    graph = approx_fixture()
    algorithm = get_algorithm("G_All", strategy="sketch", sketch_k=64)
    assert len(graph.sources) > algorithm.sketch_k  # approximate regime
    sketch = algorithm.place(graph, K)
    exact = get_algorithm("G_All", strategy="exact").place(graph, K)
    f_sketch = objective_value(graph, sketch.filters)
    f_exact = objective_value(graph, exact.filters)
    assert f_sketch >= (1.0 - epsilon_for_k(64)) * f_exact


def test_rescore_tier_replaces_estimates_with_exact_gains():
    graph = approx_fixture()
    assert graph.number_of_nodes() <= DEFAULT_RESCORE_LIMIT
    algorithm = SketchCelfGreedyAll(sketch_k=16)
    result = algorithm.place(graph, K)
    assert result.rescored is True
    assert all(isinstance(s.gain, int) for s in result.steps)
    assert len(result.estimated_gains) == len(result.steps)
    # The selection ran on estimates; the estimates survive beside the
    # exact rescores, and total exact gain telescopes to the objective.
    assert sum(s.gain for s in result.steps) == objective_value(
        graph, result.filters
    )


def test_estimate_only_tier_keeps_float_gains():
    graph = approx_fixture()
    algorithm = SketchCelfGreedyAll(sketch_k=16, rescore_limit=0)
    result = algorithm.place(graph, K)
    assert result.rescored is False
    assert [s.gain for s in result.steps] == list(result.estimated_gains)
    assert all(isinstance(g, float) for g in result.estimated_gains)


def test_rescore_tiers_select_identically():
    graph = approx_fixture()
    rescored = SketchCelfGreedyAll(sketch_k=16).place(graph, K)
    estimated = SketchCelfGreedyAll(sketch_k=16, rescore_limit=0).place(
        graph, K
    )
    assert rescored.filters == estimated.filters


def test_k_zero_short_circuits():
    result = SketchCelfGreedyAll().place(exact_fixture(), 0)
    assert result.filters == ()
    assert result.steps == ()
    assert result.rescored is True


def test_sketch_evaluation_kinds_on_steps():
    result = get_algorithm("G_All", strategy="sketch").place(
        exact_fixture(), K
    )
    kinds = {k for step in result.steps for k, _ in step.evaluations}
    assert "sketch_gains" in kinds
    # The build charges once, on the first step only.
    builds = [
        c
        for step in result.steps
        for k, c in step.evaluations
        if k == "sketch_build"
    ]
    assert builds == [1]


# ----------------------------------------------------------------------
# Serializer: the estimator audit trail
# ----------------------------------------------------------------------


def test_payload_carries_sketch_block_when_rescored():
    graph = approx_fixture()
    result = SketchCelfGreedyAll(sketch_k=16).place(graph, K)
    payload = placement_payload(graph, result)
    assert payload["sketch"]["rescored"] is True
    assert len(payload["sketch"]["estimated_gains"]) == len(result.steps)
    assert payload["objective"] == objective_value(graph, result.filters)


def test_payload_estimate_only_skips_scoring():
    graph = approx_fixture()
    result = SketchCelfGreedyAll(sketch_k=16, rescore_limit=0).place(
        graph, K
    )
    payload = placement_payload(graph, result)
    assert payload["scored"] is False
    assert payload["objective_estimate"] == pytest.approx(
        sum(result.estimated_gains)
    )
    assert "phi" not in payload and "objective" not in payload
    assert payload["sketch"]["rescored"] is False


def test_payload_exact_strategies_omit_sketch_block():
    graph = exact_fixture()
    result = get_algorithm("G_All", strategy="exact").place(graph, K)
    payload = placement_payload(graph, result)
    assert "sketch" not in payload
