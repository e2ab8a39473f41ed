"""Shared types for placement algorithms.

Every algorithm — greedy, randomized, exact — returns a
:class:`PlacementResult`, so the analysis, experiment and CLI layers treat
them uniformly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Hashable, Protocol, runtime_checkable

from repro.exceptions import ParameterError
from repro.graphs.cgraph import CGraph

Node = Hashable


@dataclass(frozen=True)
class PlacementStep:
    """One selection step of an iterative algorithm.

    Attributes
    ----------
    node:
        The node chosen at this step.
    gain:
        The algorithm's own score for the pick.  For ``Greedy_All`` this is
        the true marginal gain ``F(A ∪ {v}) − F(A)``; for the heuristics it
        is their surrogate score (``m(v)``, initial impact, ``I'(v)``).
    evaluations:
        Propagation work the algorithm performed to make this pick, as sorted
        ``(kind, count)`` pairs whose kinds match
        :data:`repro.obs.instrument.EVALUATION_KINDS` (e.g. one
        ``marginal_gains`` sweep per ``Greedy_All`` step).  Empty for
        algorithms that score without propagation. Deterministic, so results
        stay comparable across backends.
    """

    node: Node
    gain: int
    evaluations: tuple[tuple[str, int], ...] = ()

    def evaluation_counts(self) -> dict[str, int]:
        """The per-step evaluations as a plain dict."""
        return dict(self.evaluations)


@dataclass(frozen=True)
class PlacementResult:
    """Outcome of running a placement algorithm.

    Attributes
    ----------
    algorithm:
        Canonical algorithm name (e.g. ``"G_All"``).
    filters:
        Chosen filter nodes, in selection order when the algorithm has one.
    requested_k:
        The budget the caller asked for.  ``len(filters)`` may be smaller
        when the algorithm ran out of useful candidates (greedy methods
        stop once every remaining marginal gain is zero) or differ for the
        randomized baselines whose set size is only ``k`` in expectation.
    steps:
        Per-pick records for iterative algorithms; empty otherwise.
    prefix_consistent:
        True when the first ``j ≤ k`` entries of ``filters`` equal the
        result the same algorithm would return for budget ``j``.  The FR
        sweep exploits this to build a whole curve from one run.
    estimated_gains:
        For estimate-driven strategies (the ``sketch`` tier): the
        per-step gain *estimates* that drove selection, in step order.
        Empty for exact algorithms.  When :attr:`rescored` is True the
        step records carry the exact gains and this tuple preserves what
        the estimator believed — the pair is the estimator-error audit
        trail the service payload exposes.
    rescored:
        ``sketch`` strategy only: True when the recorded step gains are
        exact (either the sketch ran in its exactness regime or the
        winning prefix was exactly rescored), False when they are still
        estimates (rescoring skipped above the size guard).  None for
        exact algorithms.
    """

    algorithm: str
    filters: tuple[Node, ...]
    requested_k: int
    steps: tuple[PlacementStep, ...] = field(default_factory=tuple)
    prefix_consistent: bool = True
    estimated_gains: tuple[float, ...] = ()
    rescored: bool | None = None

    def filter_set(self) -> frozenset[Node]:
        """The chosen filters as an (order-free) frozen set ``A``."""
        return frozenset(self.filters)

    def prefix(self, j: int) -> frozenset[Node]:
        """The filter set after the first ``j`` selections."""
        if not self.prefix_consistent:
            raise ParameterError(
                f"{self.algorithm} results are not prefix-consistent"
            )
        return frozenset(self.filters[:j])


@runtime_checkable
class PlacementAlgorithm(Protocol):
    """The interface every placement algorithm implements."""

    name: str
    prefix_consistent: bool

    def place(
        self,
        graph: CGraph,
        k: int,
        *,
        rng: random.Random | None = None,
    ) -> PlacementResult:
        """Choose at most ``k`` filter nodes for ``graph``."""
        ...  # pragma: no cover


def check_budget(graph: CGraph, k: int) -> None:
    """Validate a filter budget ``k`` against the graph."""
    if not isinstance(k, int):
        raise ParameterError(f"k must be an int, got {type(k).__name__}")
    if k < 0:
        raise ParameterError(f"k must be non-negative, got {k}")
    if k > graph.number_of_nodes():
        raise ParameterError(
            f"k={k} exceeds the number of nodes ({graph.number_of_nodes()})"
        )
