"""Fast impact computation: prefix × absorbing-suffix.

The paper computes a node's impact as ``I(v) = (Prefix(v) − 1) × Suffix(v)``
where ``Prefix(v)`` is the number of copies ``v`` receives and ``Suffix(v)``
counts the directed paths leaving ``v`` — with the crucial refinement that a
filter's ``plist`` is *reset*, so paths are only followed until they hit an
existing filter (Section 4, "Implementation of Greedy All").

This module computes the same quantity with two linear passes instead of
per-node path dictionaries:

* ``ψ(v)`` — copies received given the current filter set ``A`` (forward
  topological pass; :func:`receipts_given_filters`).
* ``W(v)`` — the *absorbing suffix*: how many additional receipts one extra
  copy emitted by ``v`` on each out-edge creates downstream, filters
  absorbing the perturbation because their output is pinned at one copy
  (backward topological pass; :func:`absorbing_suffix`):
  ``W(v) = Σ_{u ∈ children(v)} (1 + [u ∉ A]·W(u))``.

The marginal gain of turning ``v`` into a filter is then exactly

    ``I(v | A) = max(ψ(v) − 1, 0) × W(v)``

because filtering drops ``v``'s per-edge emission from ``ψ(v)`` to 1 (when
``ψ(v) ≥ 1``; a node that never receives the item stays silent), the
perturbation propagates linearly through non-filter nodes, and reachability
is unchanged so no downstream filter flips on or off.  One pass per greedy
iteration instead of the paper's ``O(Δ·|E|)`` plist maintenance; the two
implementations are cross-checked in the test suite.

Everything aggregates over one item per source (distinct items, as in the
paper); ``W`` is item-independent, ``ψ`` is per-item.

All sweeps run over the graph's compiled view (interned ids, tuple
adjacency, cached topological order); :func:`absorbing_suffix_ids` and
:func:`marginal_gains_ids_exact` are the id-level primitives and the
node-keyed entry points translate only at the boundary.

:func:`marginal_gains` dispatches through the pluggable backend registry
(:mod:`repro.backends.registry`): the index sweeps below are the ``python``
backend's implementation, and the ``numpy`` backend computes the same
``ψ``/``W`` passes as batched level-synchronous array operations.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from typing import TYPE_CHECKING, Hashable

from repro.exceptions import MissingSourceError
from repro.graphs.cgraph import CGraph
from repro.graphs.validation import validate_filter_set
from repro.propagation.engine import item_receipts, loose_filter_mask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import PropagationBackend
    from repro.graphs.compiled import CompiledGraph

Node = Hashable


def receipts_given_filters(
    graph: CGraph,
    origin: Node,
    filters: Collection[Node] = (),
) -> dict[Node, int]:
    """``ψ(v)``: copies of ``origin``'s item each node receives under ``A``.

    Alias of :func:`repro.propagation.engine.item_receipts`, re-exported
    under the paper's vocabulary ("Prefix") for the impact computation.
    """
    return item_receipts(graph, origin, filters)


def absorbing_suffix_ids(
    compiled: "CompiledGraph",
    mask: bytearray,
    succ: "tuple[tuple[int, ...], ...] | None" = None,
) -> list[int]:
    """``W`` as a list over interned ids — one backward index sweep.

    Maintains the filter-absorbed view ``w_eff(u) = [u ∉ A]·W(u)`` so the
    recurrence collapses to ``W(v) = dout(v) + Σ_u w_eff(u)`` and the
    per-edge work runs inside C (``sum(map(...))``), mirroring the
    gather-from-parents trick of the forward ψ sweep.

    ``succ`` substitutes a different successor table over the same node
    ids (a live-edge world's pruned adjacency, from the Monte-Carlo
    sampler); the cached topological order stays valid on any edge
    subset.  Default: the full graph's adjacency.
    """
    w = [0] * compiled.n
    w_eff = [0] * compiled.n
    w_eff_get = w_eff.__getitem__
    if succ is None:
        succ = compiled.succ_ids
    for v in reversed(compiled.topo_order):
        children = succ[v]
        if children:
            acc = len(children) + sum(map(w_eff_get, children))
            w[v] = acc
            if not mask[v]:
                w_eff[v] = acc
    return w


def absorbing_suffix(
    graph: CGraph,
    filters: Collection[Node] = (),
    *,
    _order: tuple[Node, ...] | None = None,
) -> dict[Node, int]:
    """``W(v)``: downstream receipts created per extra emitted copy.

    Equivalently (and as the tests verify): the number of non-empty
    directed paths starting at ``v`` whose *interior* contains no filter —
    the ``Suffix`` of the paper after plist resets.  Sinks have ``W = 0``.
    ``_order`` is deprecated and ignored (the compiled view caches its
    own topological order).
    """
    compiled = graph.compiled()
    w = absorbing_suffix_ids(compiled, loose_filter_mask(compiled, filters))
    return dict(zip(compiled.nodes, w))


def marginal_gains(
    graph: CGraph,
    filters: Collection[Node] = (),
    *,
    backend: "str | PropagationBackend | None" = None,
) -> dict[Node, int]:
    """``I(v | A) = F(A ∪ {v}) − F(A)`` for every node at once.

    Nodes already in ``A`` report 0 (re-adding them changes nothing).
    ``backend`` selects the propagation backend (name, instance, or None
    for the registry default); every backend returns identical integers.
    """
    from repro.backends.registry import resolve_backend

    return resolve_backend(backend).marginal_gains(graph, filters)


def marginal_gains_ids(
    graph: CGraph,
    filter_ids: Iterable[int] = (),
    *,
    backend: "str | PropagationBackend | None" = None,
) -> list[int]:
    """:func:`marginal_gains` over interned ids — the algorithms' hot path.

    Returns a plain list indexed by compiled node id (which equals the
    ``graph.nodes()`` rank, so an index compare is a rank tie-break).
    ``filter_ids`` must be valid interned ids of ``graph.compiled()``.
    """
    from repro.backends.registry import resolve_backend

    return resolve_backend(backend).marginal_gains_ids(graph, filter_ids)


def marginal_gains_ids_exact(
    graph: CGraph,
    filter_ids: Iterable[int] = (),
) -> list[int]:
    """:func:`marginal_gains_ids` via the exact bit-packed aggregate
    sweeps (the ``python`` backend's implementation).

    The per-source decomposition ``I(v | A) = Σ_s max(ψ_s(v) − 1, 0) ·
    W(v)`` collapses: the max only trims sources that never reach ``v``,
    so the sum is ``(T(v) − nreach(v)) · W(v)`` with ``T`` from one
    aggregate sweep (:func:`~repro.propagation.engine.
    aggregate_receipts_ids`) and ``nreach`` a cached per-graph constant
    (:func:`~repro.graphs.compiled.packed_reach_counts`).

    Cost: one ``W`` pass plus one ``T`` pass — independent of the source
    count, where the per-source decomposition needs ``S + 1`` sweeps.
    The fuzz harness holds the results bit-identical to the dict-path
    oracle's per-source sums.
    """
    from repro.propagation.engine import aggregate_receipts_ids

    if not graph.sources:
        raise MissingSourceError("graph has no sources")
    compiled = graph.compiled()
    mask = compiled.filter_mask(filter_ids)
    w = absorbing_suffix_ids(compiled, mask)
    nreach = compiled.reach_counts()
    totals = aggregate_receipts_ids(compiled, mask, nreach)
    gains = [0] * compiled.n
    for v in range(compiled.n):
        if mask[v]:
            continue
        excess = totals[v] - nreach[v]
        if excess:
            wv = w[v]
            if wv:
                gains[v] = excess * wv
    return gains


def marginal_gains_exact(
    graph: CGraph,
    filters: Collection[Node] = (),
) -> dict[Node, int]:
    """:func:`marginal_gains` via the exact big-int index sweeps (the
    ``python`` backend's implementation)."""
    if not graph.sources:
        raise MissingSourceError("graph has no sources")
    filter_set = set(filters)
    validate_filter_set(graph, filter_set)
    compiled = graph.compiled()
    gains = marginal_gains_ids_exact(graph, compiled.to_ids(filter_set))
    # Keyed in graph.nodes() order — the cross-backend canonical order, so
    # serialized results match the numpy backend's byte for byte.
    return dict(zip(compiled.nodes, gains))


def impacts(
    graph: CGraph,
    *,
    backend: "str | PropagationBackend | None" = None,
) -> dict[Node, int]:
    """Initial impacts ``I(v) = I(v | ∅)`` — what ``Greedy_Max`` ranks by."""
    return marginal_gains(graph, (), backend=backend)


def marginal_gain(
    graph: CGraph,
    filters: Collection[Node],
    node: Node,
    *,
    backend: "str | PropagationBackend | None" = None,
) -> int:
    """``I(node | A)`` for a single node, via the same two-pass machinery."""
    return marginal_gains(graph, filters, backend=backend)[node]
