"""Bottom-k reachability sketches: exactness, error bounds, determinism.

The sketch tier's contract has three layers, pinned here from strongest
to weakest:

* **Exactness regime** — fewer sources than registers: every estimate
  *is* the exact reach count, so ``counts()`` must equal
  ``CompiledGraph.reach_counts()`` element-for-element on every built-in
  dataset.
* **Approximate regime** — registers overflow (the scale-dag's ~30%
  spontaneous sources blow past ``k`` quickly): the KMV estimator's
  two-sigma ``(1 ± ε)`` band is a ~95% statement, not a per-node
  guarantee, so the suite asserts a robust quantile of nodes inside the
  band rather than a worst case.
* **Byte reproducibility** — the NumPy lane merge and the pure-python
  fallback must produce bit-identical registers
  (:meth:`ReachSketches.register_bytes`), and two builds with the same
  ``(graph, k, seed)`` must agree byte-for-byte; this is what makes
  sketch placements independent of NumPy availability.
"""

from __future__ import annotations

import math

import pytest

from repro.datasets.registry import DATASET_NAMES, get_dataset
from repro.exceptions import CyclicGraphError, ParameterError
from repro.graphs.cgraph import CGraph
from repro.sketches.bottomk import (
    DEFAULT_SKETCH_K,
    EMPTY_REGISTER,
    ReachSketches,
    build_reach_sketches,
    epsilon_for_k,
    k_for_epsilon,
)

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except Exception:  # pragma: no cover - the no-numpy CI job
    HAVE_NUMPY = False

LANES = ("numpy", "python") if HAVE_NUMPY else ("python",)

#: Every built-in dataset, scaled to test size (mirrors the
#: compiled-equivalence suite's sizing).
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


def overflow_graph():
    """A scale-dag rung whose ~30% spontaneous sources overflow small
    register files — the approximate-regime fixture."""
    return get_dataset("scale-dag", seed=0, scale=0.01)


def test_every_builtin_dataset_is_covered():
    assert set(DATASET_SPECS) == set(DATASET_NAMES)


# ----------------------------------------------------------------------
# The k ↔ epsilon correspondence
# ----------------------------------------------------------------------


def test_epsilon_for_k_matches_kmv_bound():
    assert epsilon_for_k(66) == pytest.approx(2.0 / math.sqrt(64))
    assert epsilon_for_k(DEFAULT_SKETCH_K) == pytest.approx(0.2540, abs=1e-4)


def test_epsilon_for_k_is_vacuous_below_four():
    assert epsilon_for_k(3) == 2.0
    assert epsilon_for_k(0) == 2.0


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.25, 0.5, 1.0, 1.99])
def test_k_for_epsilon_inverts_the_bound(eps):
    k = k_for_epsilon(eps)
    assert epsilon_for_k(k) <= eps
    # Minimality: one register fewer would miss the target.
    assert k == 4 or epsilon_for_k(k - 1) > eps


def test_k_for_epsilon_floors_at_four():
    assert k_for_epsilon(2.0) == 4
    assert k_for_epsilon(100.0) == 4


@pytest.mark.parametrize("eps", [0.0, -0.5])
def test_k_for_epsilon_rejects_nonpositive(eps):
    with pytest.raises(ParameterError):
        k_for_epsilon(eps)


# ----------------------------------------------------------------------
# Build validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("k", [3, 0, -1, 4.0, "64"])
def test_build_rejects_bad_k(k):
    compiled = dataset_graph("fig1").compiled()
    with pytest.raises(ParameterError):
        build_reach_sketches(compiled, k=k)


def test_build_rejects_unknown_lanes():
    compiled = dataset_graph("fig1").compiled()
    with pytest.raises(ParameterError):
        build_reach_sketches(compiled, lanes="cuda")


@pytest.mark.skipif(HAVE_NUMPY, reason="needs the no-numpy environment")
def test_numpy_lanes_unavailable_without_numpy():  # pragma: no cover
    compiled = dataset_graph("fig1").compiled()
    with pytest.raises(ParameterError):
        build_reach_sketches(compiled, lanes="numpy")


def test_build_rejects_cycles():
    cyclic = CGraph([(0, 1), (1, 2), (2, 0)], sources=[0])
    with pytest.raises(CyclicGraphError):
        build_reach_sketches(cyclic.compiled())


# ----------------------------------------------------------------------
# Exactness regime: counts == reach_counts on every built-in dataset
# ----------------------------------------------------------------------


@pytest.mark.parametrize("lanes", LANES)
@pytest.mark.parametrize("dataset", sorted(DATASET_SPECS))
def test_exact_regime_counts_equal_reach_counts(dataset, lanes):
    graph = dataset_graph(dataset)
    compiled = graph.compiled()
    k = DEFAULT_SKETCH_K
    if len(graph.sources) >= k:
        k = len(graph.sources) + 1
    sketches = build_reach_sketches(compiled, k=k, seed=0, lanes=lanes)
    assert sketches.is_exact()
    exact = compiled.reach_counts()
    estimated = sketches.counts()
    assert len(estimated) == compiled.n
    for est, ref in zip(estimated, exact):
        assert est == float(ref)


def test_exact_regime_guaranteed_when_sources_fit():
    # k exceeds the source count, so no register file can overflow.
    graph = overflow_graph()
    k = len(graph.sources) + 1
    sketches = build_reach_sketches(graph.compiled(), k=k, seed=0)
    assert sketches.is_exact()


def test_overflow_graph_is_actually_approximate():
    graph = overflow_graph()
    assert len(graph.sources) > 16  # the regime the next tests rely on
    sketches = build_reach_sketches(graph.compiled(), k=16, seed=0)
    assert not sketches.is_exact()


# ----------------------------------------------------------------------
# Approximate regime: the (1 ± ε) band, quantile-style
# ----------------------------------------------------------------------


@pytest.mark.parametrize("k", [16, 32, 64])
def test_estimates_inside_two_sigma_band(k):
    graph = overflow_graph()
    compiled = graph.compiled()
    sketches = build_reach_sketches(compiled, k=k, seed=0)
    eps = epsilon_for_k(k)
    exact = compiled.reach_counts()
    estimated = sketches.counts()
    inside = total = 0
    for est, ref in zip(estimated, exact):
        if ref == 0:
            assert est == 0.0  # no phantom reachability
            continue
        total += 1
        if abs(est - ref) <= eps * ref:
            inside += 1
    assert total > 100  # the regime check has teeth
    # Two-sigma is a ~95% band; hold a robust 90% quantile under the
    # deterministic seed rather than a flaky per-node worst case.
    assert inside >= 0.90 * total


def test_exact_regime_on_fuzz_corpus():
    from strategies import standard_cases

    for case in standard_cases():
        compiled = case.build().compiled()
        sketches = build_reach_sketches(
            compiled, k=DEFAULT_SKETCH_K, seed=0
        )
        assert sketches.is_exact()
        assert sketches.counts() == [
            float(x) for x in compiled.reach_counts()
        ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_band_on_seeded_random_dags(seed):
    from strategies import DagCase

    case = DagCase(
        name=f"rand-{seed}", seed=seed, n=160, density=0.08, sources=48
    )
    compiled = case.build().compiled()
    sketches = build_reach_sketches(compiled, k=16, seed=0)
    assert not sketches.is_exact()
    eps = epsilon_for_k(16)
    exact = compiled.reach_counts()
    estimated = sketches.counts()
    inside = total = 0
    for est, ref in zip(estimated, exact):
        if ref == 0:
            continue
        total += 1
        if abs(est - ref) <= eps * ref:
            inside += 1
    assert total > 50
    assert inside >= 0.90 * total


def test_estimates_unbiased_in_aggregate():
    graph = overflow_graph()
    compiled = graph.compiled()
    sketches = build_reach_sketches(compiled, k=32, seed=0)
    exact = compiled.reach_counts()
    estimated = sketches.counts()
    num = sum(est for est, ref in zip(estimated, exact) if ref > 0)
    den = float(sum(ref for ref in exact if ref > 0))
    assert 0.9 <= num / den <= 1.1


# ----------------------------------------------------------------------
# Register-level invariants and byte reproducibility
# ----------------------------------------------------------------------


@pytest.mark.parametrize("lanes", LANES)
def test_register_rows_are_ascending_and_sentinel_free(lanes):
    compiled = overflow_graph().compiled()
    sketches = build_reach_sketches(compiled, k=8, seed=3, lanes=lanes)
    for v in range(compiled.n):
        row = sketches.register_row(v)
        assert len(row) <= 8
        assert list(row) == sorted(set(row))
        assert all(0 <= h < EMPTY_REGISTER for h in row)


@pytest.mark.skipif(not HAVE_NUMPY, reason="differential test needs both lanes")
@pytest.mark.parametrize("dataset", ["scale-dag", "citation", "fig2"])
@pytest.mark.parametrize("k", [8, 64])
def test_lanes_produce_bit_identical_registers(dataset, k):
    compiled = dataset_graph(dataset).compiled()
    via_numpy = build_reach_sketches(compiled, k=k, seed=0, lanes="numpy")
    via_python = build_reach_sketches(compiled, k=k, seed=0, lanes="python")
    assert via_numpy.backend == "numpy"
    assert via_python.backend == "python"
    assert via_numpy.register_bytes() == via_python.register_bytes()
    assert via_numpy.counts() == via_python.counts()
    assert via_numpy.is_exact() == via_python.is_exact()


@pytest.mark.skipif(not HAVE_NUMPY, reason="the array mix needs numpy")
@pytest.mark.parametrize(
    "seed", [0, 7, -1, -(2**40) - 3, 2**64 + 5, 2**63, 2**63 + 2**62 + 9]
)
def test_hash_stream_array_matches_the_scalar_mix(seed):
    """The one vectorized splitmix64 is bit-identical to hash_stream on
    boundary keys, for negative, > 2^64 and high-bit seeds."""
    import numpy as np

    from repro.sketches.hashing import hash_stream, hash_stream_array

    keys = [0, 1, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1, 123456789]
    mixed = hash_stream_array(seed, np.array(keys, dtype=np.uint64), np)
    assert mixed.dtype == np.uint64
    assert mixed.tolist() == [hash_stream(seed, k) for k in keys]
    # Matrix shapes (the generator's parent draws) mix element-wise.
    grid = np.array(keys[:6], dtype=np.uint64).reshape(2, 3)
    assert hash_stream_array(seed, grid, np).tolist() == [
        [hash_stream(seed, k) for k in row] for row in grid.tolist()
    ]


def test_rebuild_is_byte_stable_and_seed_sensitive():
    compiled = overflow_graph().compiled()
    first = build_reach_sketches(compiled, k=16, seed=0)
    again = build_reach_sketches(compiled, k=16, seed=0)
    reseeded = build_reach_sketches(compiled, k=16, seed=1)
    assert first.register_bytes() == again.register_bytes()
    assert first.register_bytes() != reseeded.register_bytes()


def test_register_bytes_layout():
    compiled = dataset_graph("fig1").compiled()
    sketches = build_reach_sketches(compiled, k=4, seed=0)
    raw = sketches.register_bytes()
    assert len(raw) == compiled.n * 4 * 8  # n × k little-endian words


def test_estimate_matches_counts_per_node():
    compiled = overflow_graph().compiled()
    sketches = build_reach_sketches(compiled, k=16, seed=0)
    counts = sketches.counts()
    for v in (0, 1, compiled.n // 2, compiled.n - 1):
        assert sketches.estimate(v) == counts[v]


def test_nbytes_positive():
    sketches = build_reach_sketches(dataset_graph("fig1").compiled(), k=4)
    assert sketches.nbytes() > 0
    assert isinstance(sketches, ReachSketches)
