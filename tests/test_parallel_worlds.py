"""Process-parallel world sampling: determinism, failure, and gating.

The contract of :mod:`repro.propagation.parallel`: sharding a sampled
evaluation over a process pool is an *implementation detail* — results,
placements and SAA estimates are bit-identical to the serial loop for
every worker count and for either shard submit/reduce order (integer
shard sums are associative and commutative, so order genuinely cannot
matter; these tests hold the code to it).

Also pinned here:

* a crash inside a worker surfaces as a clean
  :class:`~repro.propagation.parallel.WorldShardError` in the caller —
  never a hang — and the pool recovers for subsequent calls;
* evaluations below the world-count threshold, or already scoped to an
  explicit ``trial_range`` (i.e. running *inside* a worker), never
  touch the pool at all.
"""

from __future__ import annotations

import pytest

from strategies import DagCase
from repro.core.registry import get_algorithm
from repro.propagation import parallel
from repro.propagation.model import PropagationModel
from repro.propagation.sampling import (
    sampled_marginal_gains_ids_exact,
    sampled_simplified_impacts_ids_exact,
    sampled_total_receipts_exact,
)

WORKER_COUNTS = (1, 2, 4)

CASE = DagCase(
    name="parallel", seed=424242, n=28, density=0.3, sources=3
)


@pytest.fixture(scope="module")
def graph():
    return CASE.build()


@pytest.fixture(scope="module")
def model():
    return PropagationModel(
        mechanism="live-edge",
        probabilities=CASE.edge_probabilities(),
        trials=16,
        seed=7,
    )


def serial_results(graph, model, filter_ids):
    # Worker count 1 never passes should_shard, so these are the plain
    # in-process loops.
    return (
        list(
            sampled_marginal_gains_ids_exact(
                graph, filter_ids, model=model
            )
        ),
        list(
            sampled_simplified_impacts_ids_exact(
                graph, filter_ids, model=model
            )
        ),
        sampled_total_receipts_exact(
            graph,
            graph.compiled().to_nodes(filter_ids),
            model=model,
        ),
    )


@pytest.mark.parametrize("workers", (2, 4))
@pytest.mark.parametrize("order", ("forward", "reverse"))
def test_sharded_evaluations_bit_identical_to_serial(
    graph, model, workers, order
):
    filter_ids = graph.compiled().to_ids(CASE.filter_pool(2))
    gains, impacts, total = serial_results(graph, model, filter_ids)
    assert (
        list(
            parallel.evaluate_sharded(
                "marginal_gains",
                graph,
                filter_ids,
                model,
                workers=workers,
                order=order,
            )
        )
        == gains
    )
    assert (
        list(
            parallel.evaluate_sharded(
                "simplified_impacts",
                graph,
                filter_ids,
                model,
                workers=workers,
                order=order,
            )
        )
        == impacts
    )
    assert (
        parallel.evaluate_sharded(
            "total_receipts",
            graph,
            filter_ids,
            model,
            workers=workers,
            order=order,
        )
        == total
    )


def test_placements_and_saa_estimates_identical_across_worker_counts(
    graph, model
):
    from repro.backends.registry import get_backend

    backend = get_backend("python")
    outcomes = []
    for workers in WORKER_COUNTS:
        with parallel.use_world_workers(workers):
            instance = get_algorithm(
                "G_All", backend=backend, model=model
            )
            result = instance.place(graph, 3)
            objective = backend.sampled_total_receipts(
                graph, (), model=model
            ) - backend.sampled_total_receipts(
                graph, result.filters, model=model
            )
            estimate = backend.expected_total_receipts(
                graph, result.filters, model=model
            )
        outcomes.append((result.filters, objective, estimate))
    assert outcomes[0] == outcomes[1] == outcomes[2], (
        "placements or SAA estimates drifted across worker counts: "
        f"{outcomes}"
    )


def test_worker_crash_surfaces_cleanly_and_pool_recovers(graph, model):
    filter_ids: list = []
    with pytest.raises(parallel.WorldShardError):
        parallel.evaluate_sharded(
            "__crash__", graph, filter_ids, model, workers=2
        )
    # The pool is not poisoned: the very next dispatch succeeds and
    # still matches the serial loop.
    expected = sampled_total_receipts_exact(graph, (), model=model)
    assert (
        parallel.evaluate_sharded(
            "total_receipts", graph, filter_ids, model, workers=2
        )
        == expected
    )


def test_pool_skipped_below_world_threshold(graph):
    small = PropagationModel(
        mechanism="live-edge",
        probabilities=CASE.edge_probabilities(),
        trials=parallel.MIN_WORLDS_FOR_POOL - 1,
        seed=7,
    )
    before = parallel.pool_dispatches()
    with parallel.use_world_workers(4):
        sampled_marginal_gains_ids_exact(graph, [], model=small)
    assert parallel.pool_dispatches() == before, (
        "an evaluation below MIN_WORLDS_FOR_POOL went to the pool"
    )


def test_pool_skipped_for_explicit_trial_ranges(graph, model):
    # An explicit trial_range means the caller *is* a shard; dispatching
    # again would fork pools from worker processes.
    before = parallel.pool_dispatches()
    with parallel.use_world_workers(4):
        partial = sampled_marginal_gains_ids_exact(
            graph, [], model=model, trial_range=(0, 4)
        )
    assert parallel.pool_dispatches() == before
    assert any(partial) or True  # result shape exercised; no dispatch


def test_should_shard_gating():
    assert not parallel.should_shard(100, (0, 10))
    with parallel.use_world_workers(1):
        assert not parallel.should_shard(100, None)
    with parallel.use_world_workers(2):
        assert parallel.should_shard(parallel.MIN_WORLDS_FOR_POOL, None)
        assert not parallel.should_shard(
            parallel.MIN_WORLDS_FOR_POOL - 1, None
        )


def test_shard_ranges_partition_exactly():
    for trials in (1, 7, 8, 16, 33):
        for workers in (1, 2, 4, 7):
            ranges = parallel.shard_ranges(trials, workers)
            assert ranges[0][0] == 0 and ranges[-1][1] == trials
            assert all(lo < hi for lo, hi in ranges)
            assert all(
                prev[1] == nxt[0]
                for prev, nxt in zip(ranges, ranges[1:])
            )
