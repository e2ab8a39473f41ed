"""Exact receipt counting on DAGs.

For one item generated at ``origin`` and a filter set ``A``, the number of
copies each node receives is fully determined by one pass in topological
order:

* the origin emits exactly one copy on each outgoing edge;
* a non-filter node that receives ``ψ(v)`` copies emits ``ψ(v)`` copies on
  each outgoing edge;
* a filter node emits one copy on each outgoing edge — provided it received
  the item at all (a filter with nothing to forward emits nothing);
* ``ψ(v) = Σ_{p ∈ parents(v)} emit(p)``.

Hence ``Φ(A, V) = Σ_v ψ(v)``, the objective's raw material.  Counts grow as
path counts do — exponentially in the worst case — so everything stays in
exact Python integers.

Multiple sources generate *distinct* items (paper §3); per-item counts are
computed independently and summed.  Because copies of distinct items never
interact (filters deduplicate per item), this aggregation is exact.

The sweeps run on the graph's compiled view
(:meth:`repro.graphs.cgraph.CGraph.compiled`): interned integer ids, tuple
adjacency and a cached topological order, so the hot loops index flat
lists instead of hashing node objects.  :func:`item_receipts_ids` is the
id-level primitive; the node-keyed entry points translate at the boundary.

The aggregate entry points (:func:`node_receipts`, :func:`total_receipts`)
dispatch through the pluggable backend registry
(:mod:`repro.backends.registry`): the exact big-int sweeps below are the
``python`` backend's implementation, while the ``numpy`` backend batches
all sources into vectorized level sweeps and falls back here when int64
could overflow.  :func:`item_receipts` is the per-item primitive and always
runs exactly.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from typing import TYPE_CHECKING, Hashable

from repro.exceptions import MissingNodeError, MissingSourceError
from repro.graphs.cgraph import CGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import PropagationBackend
    from repro.graphs.compiled import CompiledGraph

Node = Hashable


def loose_filter_mask(
    compiled: "CompiledGraph", filters: Collection[Node]
) -> bytearray:
    """A 0/1 mask over interned ids, silently ignoring unknown nodes.

    The per-item primitives historically tolerated filter sets referencing
    nodes outside the graph (membership validation is the backends' job,
    so every backend rejects identically); this helper preserves that.
    """
    mask = bytearray(compiled.n)
    index_get = compiled.index.get
    for v in filters:
        i = index_get(v)
        if i is not None:
            mask[i] = 1
    return mask


def item_receipts_ids(
    compiled: "CompiledGraph",
    origin_id: int,
    mask: bytearray,
    pred: "tuple[tuple[int, ...], ...] | None" = None,
) -> list[int]:
    """``ψ`` for one item as a list over interned ids — the hot primitive.

    ``mask`` is a dense 0/1 filter-membership array
    (:func:`loose_filter_mask` or
    :meth:`~repro.graphs.compiled.CompiledGraph.filter_mask`).

    The sweep gathers from predecessors (``ψ(v) = Σ_p emit(p)``) so the
    per-edge work runs inside C (``sum(map(emit.__getitem__, parents))``)
    instead of a Python scatter loop — the difference between the
    pre-compile and compiled pure-python engines at paper scale.

    ``pred`` substitutes a different predecessor table over the same node
    ids — the Monte-Carlo sampler passes a live-edge world's pruned
    adjacency so each trial reuses this sweep (and the cached topological
    order, which remains valid on any edge subset) instead of rebuilding
    a graph.  Default: the full graph's adjacency.
    """
    received = [0] * compiled.n
    emit = [0] * compiled.n
    emit_get = emit.__getitem__
    if pred is None:
        pred = compiled.pred_ids
    for v in compiled.topo_order:
        parents = pred[v]
        if parents:
            count = sum(map(emit_get, parents))
            if count:
                received[v] = count
                emit[v] = 1 if mask[v] else count
        if v == origin_id:
            emit[v] = 1
    return received


def aggregate_receipts_ids(
    compiled: "CompiledGraph",
    mask: bytearray,
    nreach: "list[int] | None" = None,
    pred: "tuple[tuple[int, ...], ...] | None" = None,
) -> list[int]:
    """``T(v) = Σ_s ψ_s(v)`` in **one** sweep — the bit-packed
    formulation's deterministic workhorse.

    The per-source sweeps are collapsible because the only per-source
    fact a filter's emission depends on is *whether* that source's item
    arrived — and arrival is filter-independent (a filter forwards at
    least one copy of anything it receives), so it is exactly the
    reachability count ``nreach`` from
    :func:`repro.graphs.compiled.packed_reach_counts`.  Summing the
    per-item recurrence over sources gives one uniform emission rule::

        T(v)    = Σ_{p ∈ pred(v)} E(p)
        E(p)    = (nreach(p) if p ∈ A else T(p)) + [p is a source]

    A filter emits one copy per distinct item it received — ``nreach(p)``
    items; a non-filter relays everything — ``T(p)`` copies; a designated
    source additionally emits its own item once (``ψ_v(v) = 0`` in a
    DAG, so the own item never double-counts through a parent).

    ``nreach`` defaults to the graph's cached
    :meth:`~repro.graphs.compiled.CompiledGraph.reach_counts`; the
    Monte-Carlo samplers pass a live-edge world's pruned ``pred``
    together with that world's own reachability counts (both must
    describe the same edge subset, or the filter emissions disagree
    with what actually arrived).

    Cost: two sweeps per gains evaluation (this plus the suffix-weight pass)
    instead of ``S + 1`` — the asymptotic win the bit-packed formulation is
    built on.  Counts are exact Python ints, so no overflow ladder is needed
    here.
    """
    if pred is None:
        pred = compiled.pred_ids
    if nreach is None:
        nreach = compiled.reach_counts()
    bonus = compiled.source_mark()
    totals = [0] * compiled.n
    emit = [0] * compiled.n
    emit_get = emit.__getitem__
    for v in compiled.topo_order:
        parents = pred[v]
        t = sum(map(emit_get, parents)) if parents else 0
        totals[v] = t
        emit[v] = (nreach[v] if mask[v] else t) + bonus[v]
    return totals


def item_receipts(
    graph: CGraph,
    origin: Node,
    filters: Collection[Node] = (),
    *,
    _order: tuple[Node, ...] | None = None,
) -> dict[Node, int]:
    """Copies of a single item (generated at ``origin``) received per node.

    The origin's own receipt count is 0: in a DAG an item can never return
    to its generator.  Nodes unreachable from ``origin`` report 0.

    Parameters
    ----------
    graph:
        A DAG (raises :class:`~repro.exceptions.CyclicGraphError` otherwise).
    origin:
        The node generating the item.  It does not have to be a designated
        source of the graph — useful for what-if analyses.
    filters:
        Nodes equipped with deduplicating output filters.
    _order:
        Deprecated and ignored: the compiled view caches its own
        topological order, so there is nothing left to amortize.
    """
    compiled = graph.compiled()
    if origin not in compiled.index:
        raise MissingNodeError(origin)
    received = item_receipts_ids(
        compiled, compiled.index[origin], loose_filter_mask(compiled, filters)
    )
    return dict(zip(compiled.nodes, received))


def node_receipts(
    graph: CGraph,
    filters: Collection[Node] = (),
    *,
    items_per_source: int | Mapping[Node, int] = 1,
    backend: "str | PropagationBackend | None" = None,
) -> dict[Node, int]:
    """Total receipts per node, aggregated over all sources' items.

    Each source generates ``items_per_source`` distinct items (an int
    applies to every source; a mapping gives per-source counts).  Distinct
    items from the same source propagate identically, so their receipt
    counts are the single-item counts scaled — computed once and
    multiplied, exactly.

    ``backend`` selects the propagation backend (name, instance, or None
    for the registry default); every backend returns identical integers.
    """
    from repro.backends.registry import resolve_backend
    from repro.obs.trace import span

    resolved = resolve_backend(backend)
    with span("engine.node_receipts", backend=resolved.name):
        return resolved.node_receipts(
            graph, filters, items_per_source=items_per_source
        )


def node_receipts_exact(
    graph: CGraph,
    filters: Collection[Node] = (),
    *,
    items_per_source: int | Mapping[Node, int] = 1,
) -> dict[Node, int]:
    """:func:`node_receipts` via the exact big-int sweeps (the ``python``
    backend's implementation; fast backends fall back here on overflow)."""
    if not graph.sources:
        raise MissingSourceError("graph has no sources")
    compiled = graph.compiled()
    mask = loose_filter_mask(compiled, filters)
    totals = [0] * compiled.n
    for origin_id in compiled.source_ids:
        if isinstance(items_per_source, Mapping):
            weight = items_per_source.get(compiled.nodes[origin_id], 0)
        else:
            weight = items_per_source
        if weight <= 0:
            continue
        per_item = item_receipts_ids(compiled, origin_id, mask)
        for v, count in enumerate(per_item):
            if count:
                totals[v] += weight * count
    return dict(zip(compiled.nodes, totals))


def total_receipts(
    graph: CGraph,
    filters: Collection[Node] = (),
    *,
    items_per_source: int | Mapping[Node, int] = 1,
    backend: "str | PropagationBackend | None" = None,
) -> int:
    """``Φ(A, V)``: the grand total number of received copies."""
    from repro.backends.registry import resolve_backend
    from repro.obs.trace import span

    resolved = resolve_backend(backend)
    with span("engine.total_receipts", backend=resolved.name):
        return resolved.total_receipts(
            graph, filters, items_per_source=items_per_source
        )


def item_emissions(
    graph: CGraph,
    origin: Node,
    filters: Collection[Node] = (),
) -> dict[Node, int]:
    """Copies each node emits *per outgoing edge* for one item.

    Mostly a white-box testing aid: ``received[child] = Σ emissions[parent]``
    must hold edge-wise, and a filter's emission is capped at one.
    """
    received = item_receipts(graph, origin, filters)
    filter_set = set(filters)
    emissions: dict[Node, int] = {}
    for v in graph.nodes():
        if v == origin:
            emissions[v] = 1
        elif received[v] == 0:
            emissions[v] = 0
        elif v in filter_set:
            emissions[v] = 1
        else:
            emissions[v] = received[v]
    return emissions
