"""The shared overflow probe: boundary cases and the exact fallback.

:func:`repro.backends.probe.pick_representation` is the single decision
point every accelerated path consults before committing to fixed-width
arithmetic — the numpy plan probe, the sampled-state builder, and the
bit-packed aggregate sweeps.  These tests pin the ladder's exact
boundaries (int32 / int64 / exact), its treatment of non-finite probe
values, and — end to end — that a graph whose receipt counts blow past
int64 makes the bit-packed sweeps fall back to exact big-int evaluation
that still matches the dict-path oracle bit for bit.
"""

from __future__ import annotations

import math

import pytest

from conftest import diamond_chain
from repro.backends.probe import (
    NARROW_LIMIT,
    OVERFLOW_LIMIT,
    REPRESENTATIONS,
    ProbeVerdict,
    pick_representation,
)


def test_ladder_constants():
    assert OVERFLOW_LIMIT == float(2**62)
    assert NARROW_LIMIT == float(2**30)
    assert REPRESENTATIONS == ("int32", "int64", "exact")


@pytest.mark.parametrize(
    "bound,expected",
    [
        (0.0, "int32"),
        (1.0, "int32"),
        (float(2**30 - 1), "int32"),
        (float(2**30), "int64"),  # narrow boundary is exclusive
        (float(2**31), "int64"),
        (float(2**62 - 512), "int64"),  # largest float64 below the limit
        (float(2**62), "exact"),  # overflow boundary is inclusive
        (float(2**80), "exact"),
        (float("inf"), "exact"),
        (float("-inf"), "int32"),  # magnitude bound: negatives clamp to 0
    ],
)
def test_single_bound_boundaries(bound, expected):
    assert pick_representation(bound).representation == expected


def test_nan_bound_is_conclusive_evidence_of_overflow():
    verdict = pick_representation(1.0, float("nan"), 2.0)
    assert verdict.exact_only
    assert math.isnan(verdict.bound)


def test_multiple_bounds_take_the_worst():
    verdict = pick_representation(3.0, float(2**40), 7.0)
    assert verdict.representation == "int64"
    assert verdict.bound == float(2**40)
    assert pick_representation(3.0, 7.0).narrow


def test_empty_bounds_mean_nothing_overflows():
    verdict = pick_representation()
    assert verdict.representation == "int32"
    assert verdict.bound == 0.0


def test_custom_limits_are_honoured():
    assert (
        pick_representation(100.0, limit=64.0).representation == "exact"
    )
    assert (
        pick_representation(
            100.0, narrow_limit=1000.0
        ).representation
        == "int32"
    )


def test_verdict_flags_are_mutually_consistent():
    for representation in REPRESENTATIONS:
        verdict = ProbeVerdict(representation, 1.0)
        assert verdict.exact_only == (representation == "exact")
        assert verdict.narrow == (representation == "int32")


def test_bitpack_overflow_falls_back_to_exact_bigint():
    """Regression: popcount *totals* can overflow even though each packed
    word is fine — the probe must force the exact path before the bitset
    sweep commits to int64 accumulators."""
    numpy = pytest.importorskip("numpy")
    del numpy

    import oracle_dictpath as oracle
    from repro.backends.numpy_backend import NumpyBackend

    graph = diamond_chain(70)  # deepest receipts reach 2**70 > int64
    backend = NumpyBackend()
    plan = backend.plan_for(graph)
    assert plan.exact_only, (
        "the probe failed to flag a 2**70-receipt graph as exact-only"
    )
    filters = ("m10",)
    assert backend.marginal_gains(graph, filters) == (
        oracle.marginal_gains_dict(graph, filters)
    )
    assert backend.total_receipts(graph, filters) == oracle.phi_dict(
        graph, filters
    )


def test_python_bitpack_handles_huge_counts_natively():
    # The pure-python bit-packed sweeps need no fallback: their popcount
    # totals are unbounded ints.  Equivalence must hold far past int64.
    import oracle_dictpath as oracle
    from repro.backends.python_backend import PythonBackend

    graph = diamond_chain(70)
    backend = PythonBackend()
    assert backend.marginal_gains(graph) == oracle.marginal_gains_dict(
        graph
    )
