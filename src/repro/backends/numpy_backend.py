"""The dense vectorized NumPy backend.

Strategy
--------
The exact engine walks the topological order node by node in Python.
This backend reuses the **shared compiled view**'s levelization
(:meth:`repro.graphs.cgraph.CGraph.compiled`: level = longest path from
any root, so every edge crosses strictly upward), adapts its CSR arrays
to ndarrays once per graph, and then runs every sweep as a handful of
array operations per level, each edge bundle folded with
``np.add.reduceat``:

* **Packed reachability** — ``nreach(v)``, the number of sources
  reaching ``v``, swept once per graph over ``uint64`` words (64
  sources per lane) by the blocked warm of
  :mod:`repro.propagation.reach` and cached on the compiled view.
* **Forward T pass** — the aggregate totals ``T(v) = Σ_s ψ_s(v)`` in
  one 1-D sweep, whatever the source count.
* **Backward W pass** — the absorbing suffix
  ``W(v) = Σ_{u ∈ children(v)} (1 + [u ∉ A]·W(u))`` as one
  gather/scatter per level in reverse.
* ``I(v | A) = (T(v) − nreach(v)) · W(v)`` and
  ``I'(v) = T(v) · dout(v)`` are then elementwise products.  Adding
  filters never cuts a source off, so ``Σ_s max(ψ_s − 1, 0) = T −
  nreach`` for any filter set.

Only ``node_receipts`` with per-source ``items_per_source`` weights still
builds the ``(num_sources, n)`` ψ matrix, because the weights apply per
item.

Exactness and overflow
----------------------
Receipt counts are path counts: they grow exponentially in the worst case
and can overrun int64 silently.  At plan-build time the backend runs the
same recurrences once in float64 with ``A = ∅`` — an upper bound for every
filter set, because adding filters only ever shrinks ``ψ`` and ``W`` — and
feeds the bounds to the shared dtype-probe ladder
(:func:`repro.backends.probe.pick_representation`).  If any bound crosses
:data:`~repro.backends.probe.OVERFLOW_LIMIT`, the plan is marked
exact-only and every call transparently delegates to
:class:`~repro.backends.python_backend.PythonBackend`, whose big integers
cannot overflow.  Weighted queries re-check the bound against the supplied
item weights.  The equivalence tests assert bit-identical results across
the two paths either way.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.exceptions import MissingSourceError
from repro.graphs.cgraph import CGraph
from repro.graphs.validation import validate_filter_set
from repro.backends.probe import OVERFLOW_LIMIT, pick_representation
from repro.backends.python_backend import PythonBackend
from repro.backends.sampled import SampledEvaluationMixin

Node = Hashable

__all__ = ["NumpyBackend", "numpy_available", "OVERFLOW_LIMIT"]

_NUMPY_AVAILABLE: bool | None = None


def numpy_available() -> bool:
    """True when :mod:`numpy` can be imported in this environment.

    Memoized: this sits on the ``auto``-backend resolution path of every
    evaluation, and failed imports are not cached by Python itself.
    """
    global _NUMPY_AVAILABLE
    if _NUMPY_AVAILABLE is None:
        try:
            import numpy  # noqa: F401
        except ImportError:  # pragma: no cover - numpy is present in CI
            _NUMPY_AVAILABLE = False
        else:
            _NUMPY_AVAILABLE = True
    return _NUMPY_AVAILABLE


@dataclass
class _Level:
    """One level of the levelized DAG plus its outgoing edge bundle.

    The level's edges are stored twice, pre-grouped for the two sweep
    directions so both can scatter with ``np.add.reduceat`` (exact int64
    segment sums) instead of the much slower ``np.add.at``:

    * forward — grouped by destination: ``fwd_src_local`` (positions
      within ``nodes``), segment starts ``fwd_offsets``, one segment per
      ``fwd_uniq_dst`` entry;
    * backward — grouped by source (natural CSR order): ``bwd_dst``
      (global indices), segment starts ``bwd_offsets``, one segment per
      ``bwd_uniq_src`` entry.
    """

    nodes: Any  # intp[num_level_nodes] — global node indices
    fwd_src_local: Any  # intp[num_edges] — dst-grouped, positions in nodes
    fwd_uniq_dst: Any  # intp[...] — distinct destinations
    fwd_offsets: Any  # intp[...] — reduceat segment starts
    bwd_dst: Any  # intp[num_edges] — src-grouped, global dst indices
    bwd_uniq_src: Any  # intp[...] — distinct sources
    bwd_offsets: Any  # intp[...] — reduceat segment starts
    origin_rows: Any  # intp[...] — ψ rows whose source sits in this level
    origin_cols: Any  # intp[...] — matching positions within ``nodes``
    # Global forward-CSR edge positions of the level's edges, in each
    # grouping's order — how the sampled live-edge masks (trial × edge)
    # are gathered per level for the probabilistic batched sweeps.
    fwd_edge_ids: Any = None  # intp[num_edges] — dst-grouped order
    bwd_edge_ids: Any = None  # intp[num_edges] — src-grouped (CSR) order
    # Sampled-sweep gather tables (dst-grouped order): the global source
    # node of each edge, plus the subset of edges whose source is an item
    # origin (with the matching ψ item row).  The sampled forward pass
    # gathers emissions straight from ψ rows and fixes up only these.
    fwd_src_global: Any = None  # intp[num_edges]
    fwd_origin_sel: Any = None  # intp[...] — edge positions with origin src
    fwd_origin_row: Any = None  # intp[...] — their ψ item rows

    @property
    def has_edges(self) -> bool:
        return self.bwd_dst.size > 0


@dataclass
class _Plan:
    """Per-graph adapter over the shared compiled view.

    Since the compile-once refactor this is a *thin* layer: the CSR
    arrays, degree tables, depth/level partition and source indices are
    all views of :class:`~repro.graphs.compiled.CompiledGraph` data
    (converted to ndarrays once); the only genuinely backend-private
    state is the per-level ``reduceat`` edge groupings and the overflow
    probe's bounds.
    """

    # The plan references the CompiledGraph it adapts — safe with the
    # weak-keyed plan cache because the compiled view holds only a
    # *weak* ref back to its graph (the cache key), so no strong cycle
    # can pin a discarded graph alive.  The reference is what routes
    # ``_nreach`` through the shared blocked warm (and its ``.fpc``-
    # persisted counts).
    index: dict[Node, int]
    node_list: tuple[Node, ...]
    sources: tuple[Node, ...]
    compiled: Any = None
    levels: list[_Level] = field(default_factory=list)
    out_degree: Any = None  # int64[n]
    #: Out-CSR row starts (natural insertion order): node v's out-edges
    #: are global edge positions ``out_offsets[v]:out_offsets[v+1]``.
    out_offsets: Any = None  # intp[n+1]
    #: 1 on source columns, 0 elsewhere — the per-node emission bonus (a
    #: designated source emits its own item on top of whatever it relays).
    src_bonus: Any = None  # int64[n]
    #: Lazily-built packed reachability counts (a per-graph constant):
    #: ``nreach[v]`` = number of sources reaching ``v``, excluding ``v``
    #: itself.  ``None`` until first needed.
    nreach: Any = None  # int64[n] | None
    #: max over v of (Σ_s ψ_∅(v)) · W_∅(v) — bounds every gain/score.
    prod_bound: float = 0.0
    #: max over v of Σ_s ψ_∅(v) — bounds every per-node receipt total.
    psi_bound: float = 0.0
    #: max over (level, item) of the level's total forward emission, and
    #: max over levels of Σ (1 + W_∅(dst)) — bounds of the *cumulative*
    #: segment sums the sampled sweeps run per level (their prefix-sum
    #: trick sums a whole level before differencing, so the intermediate
    #: can exceed any single node's value).  The forward bound needs a
    #: per-source probe row, so it is deferred (None) until the sampled
    #: state builder — its only consumer — asks for it; the flattened
    #: 1-D plan probe never materializes the (num_sources, n) matrix.
    fwd_levelsum_bound: "float | None" = None
    bwd_levelsum_bound: float = 0.0
    #: When True the int64 path is unsafe; delegate to the exact backend.
    exact_only: bool = False

    @property
    def n(self) -> int:
        return len(self.node_list)


@dataclass
class _SampledState:
    """Per-(graph, model) adapter over the shared sampled worlds.

    Holds the (trials × edges) live-edge masks pre-gathered per level in
    both sweep groupings, plus the per-world live out-degrees and the
    trials-aware overflow verdict.  The coin flips themselves live in
    :class:`repro.propagation.sampling.SampledWorlds` (shared with the
    python backend — same worlds, bit-identical results); this is only
    the ndarray view of them.
    """

    trials: int
    live_fwd: list  # per level: dtype[(trials, level_edges)], dst-grouped
    live_bwd: list  # per level: dtype[(trials, level_edges)], CSR order
    fwd_ends: list  # per level: intp[...] — closing segment boundaries
    bwd_ends: list  # per level: intp[...] — closing segment boundaries
    out_degree: Any  # int64[(trials, n)] — live out-degree per world
    #: Working dtype of the hot path (int32 when the probe's level-sum
    #: bounds allow, halving memory traffic; int64 otherwise).
    dtype: Any = None
    #: True when summing across worlds could overrun int64; delegate.
    exact_only: bool = False


class NumpyBackend(SampledEvaluationMixin):
    """Levelized dense propagation on int64 arrays, exact or bust."""

    name = "numpy"

    def __init__(self) -> None:
        import weakref

        import numpy as np

        self._np = np
        self._exact = PythonBackend()
        # Weak-keyed (CGraph is immutable and identity-hashed): plans die
        # with their graphs instead of pinning discarded graphs alive in
        # the registry's singleton backend.
        self._plans: "weakref.WeakKeyDictionary[CGraph, _Plan]" = (
            weakref.WeakKeyDictionary()
        )
        # Per-graph sampled-world adapters (per-level live-mask gathers),
        # keyed inside by the model's worlds_key() — same lifetime rules
        # as the plans.
        self._sampled: "weakref.WeakKeyDictionary[CGraph, dict]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------

    def plan_for(self, graph: CGraph) -> _Plan:
        """The (cached) levelization plan for ``graph``.

        Public for two callers beyond the backend itself: tests inspect
        ``plan.exact_only`` (whether the overflow probe forced this graph
        onto the exact path), and :meth:`warm` calls it to build the
        cache outside a timed region.
        """
        plan = self._plans.get(graph)
        if plan is None:
            plan = self._build_plan(graph)
            self._plans[graph] = plan
        return plan

    def _build_plan(self, graph: CGraph) -> _Plan:
        """Adapt the shared compiled view for the vectorized sweeps.

        All structure — CSR arrays, degrees, the level partition — comes
        straight from :meth:`CGraph.compiled`; this method only converts
        the tables to ndarrays and derives the per-level ``reduceat``
        edge groupings the batched sweeps scatter with.  The former
        private builder (dict walks, Kahn levelization, cycle check) is
        gone: one graph, one plan.
        """
        np = self._np
        compiled = graph.compiled()
        if not compiled.is_dag:
            from repro.exceptions import CyclicGraphError

            raise CyclicGraphError("graph contains a directed cycle")
        nodes = compiled.nodes
        n = compiled.n
        index = compiled.index
        sources = tuple(nodes[i] for i in compiled.source_ids)
        plan = _Plan(
            index=index, node_list=nodes, sources=sources, compiled=compiled
        )

        counts = np.array(compiled.out_degree, dtype=np.intp)
        src = np.repeat(np.arange(n, dtype=np.intp), counts)
        dst = np.array(compiled.out_targets, dtype=np.intp)
        plan.out_degree = counts.astype(np.int64)
        plan.out_offsets = np.array(compiled.out_offsets, dtype=np.intp)

        num_levels = compiled.num_levels
        depth = np.array(compiled.depth, dtype=np.intp)
        # compiled.topo_order is sorted by (depth, id) — exactly the
        # stable by-level node grouping, with the level partition already
        # computed.
        nodes_by_level = np.array(compiled.topo_order, dtype=np.intp)
        level_starts = np.array(compiled.level_offsets, dtype=np.intp)
        local_pos = np.empty(n, dtype=np.intp)
        local_pos[nodes_by_level] = (
            np.arange(n, dtype=np.intp) - level_starts[depth[nodes_by_level]]
        )
        edge_level = depth[src] if src.size else np.empty(0, dtype=np.intp)
        edges_by_level = np.argsort(edge_level, kind="stable")
        edge_level_starts = np.searchsorted(
            edge_level[edges_by_level], np.arange(num_levels + 1)
        )
        source_idx = list(compiled.source_ids)
        col_to_row = np.full(n, -1, dtype=np.intp)
        for row, si in enumerate(source_idx):
            col_to_row[si] = row
        plan.src_bonus = (col_to_row >= 0).astype(np.int64)

        def group_starts(sorted_keys: Any) -> Any:
            """Segment starts of equal-key runs in an already-sorted array."""
            return np.flatnonzero(
                np.concatenate(
                    ([True], sorted_keys[1:] != sorted_keys[:-1])
                )
            )

        for lvl in range(num_levels):
            lvl_nodes = nodes_by_level[level_starts[lvl]:level_starts[lvl + 1]]
            eids = edges_by_level[
                edge_level_starts[lvl]:edge_level_starts[lvl + 1]
            ]
            src_global = src[eids]  # ascending (CSR order is kept by the
            dst_global = dst[eids]  # stable sort) — already src-grouped
            if src_global.size:
                by_dst = np.argsort(dst_global, kind="stable")
                dst_sorted = dst_global[by_dst]
                fwd_offsets = group_starts(dst_sorted)
                fwd_uniq_dst = dst_sorted[fwd_offsets]
                fwd_src_global = src_global[by_dst]
                fwd_src_local = local_pos[fwd_src_global]
                fwd_edge_ids = eids[by_dst]
                src_rows = col_to_row[fwd_src_global]
                fwd_origin_sel = np.flatnonzero(src_rows >= 0)
                fwd_origin_row = src_rows[fwd_origin_sel]
                bwd_offsets = group_starts(src_global)
                bwd_uniq_src = src_global[bwd_offsets]
                bwd_edge_ids = eids
            else:
                empty = np.empty(0, dtype=np.intp)
                fwd_offsets = fwd_uniq_dst = fwd_src_local = empty
                bwd_offsets = bwd_uniq_src = empty
                fwd_edge_ids = bwd_edge_ids = empty
                fwd_src_global = fwd_origin_sel = fwd_origin_row = empty
            origin_rows = [
                row for row, si in enumerate(source_idx) if depth[si] == lvl
            ]
            origin_cols = [local_pos[source_idx[row]] for row in origin_rows]
            plan.levels.append(
                _Level(
                    nodes=lvl_nodes,
                    fwd_src_local=fwd_src_local,
                    fwd_uniq_dst=fwd_uniq_dst,
                    fwd_offsets=fwd_offsets,
                    bwd_dst=dst_global,
                    bwd_uniq_src=bwd_uniq_src,
                    bwd_offsets=bwd_offsets,
                    origin_rows=np.array(origin_rows, dtype=np.intp),
                    origin_cols=np.array(origin_cols, dtype=np.intp),
                    fwd_edge_ids=fwd_edge_ids,
                    bwd_edge_ids=bwd_edge_ids,
                    fwd_src_global=fwd_src_global,
                    fwd_origin_sel=fwd_origin_sel,
                    fwd_origin_row=fwd_origin_row,
                )
            )

        self._probe_overflow(plan)
        return plan

    def _probe_overflow(self, plan: _Plan) -> None:
        """Bound every representable quantity by one float64 ``A = ∅`` run."""
        with self._np.errstate(over="ignore", invalid="ignore"):
            self._probe_overflow_inner(plan)

    def _probe_overflow_inner(self, plan: _Plan) -> None:
        # float64 overflow to inf (and inf·0 = NaN) is the probe's expected
        # saturation behavior — both force exact_only below.
        #
        # The probe runs entirely in 1-D aggregate form: with A = ∅ each
        # edge (u → v) emits T(u) + [u is a source] (a source's pinned
        # own-item emission — ψ_u(u) = 0 in a DAG, so the bonus term is
        # exactly the per-item origin pinning summed over items), and
        # T(v) = Σ_s ψ_s(v) accumulates over levels.  O(n + m) resident
        # instead of the former (num_sources, n) ψ matrix, which at the
        # scale rungs (S ≈ 0.3n) was half the superquadratic warm wall.
        np = self._np
        n = plan.n
        totals = np.zeros(n, dtype=np.float64)
        bonus = plan.src_bonus.astype(np.float64)
        for lvl in plan.levels:
            if not lvl.has_edges:
                continue
            src = lvl.fwd_src_global
            emit = totals[src] + bonus[src]
            totals[lvl.fwd_uniq_dst] += np.add.reduceat(
                emit, lvl.fwd_offsets
            )
        w = np.zeros(n, dtype=np.float64)
        bwd_levelsum = 0.0
        for lvl in reversed(plan.levels):
            if not lvl.has_edges:
                continue
            contrib = 1.0 + w[lvl.bwd_dst]
            bwd_levelsum = max(bwd_levelsum, float(contrib.sum()))
            w[lvl.bwd_uniq_src] += np.add.reduceat(
                contrib, lvl.bwd_offsets
            )
        # fwd_levelsum_bound needs per-source probe rows; it stays None
        # until _fwd_levelsum — the sampled-state builder's lazy path.
        plan.bwd_levelsum_bound = bwd_levelsum
        plan.psi_bound = float(totals.max()) if n else 0.0
        plan.prod_bound = float((totals * w).max()) if n else 0.0
        # Φ itself needs no bound: total_receipts sums Python ints from
        # .tolist(), so only per-entry/per-node int64 values can overflow,
        # and those are all covered by psi_bound (receipts) or prod_bound
        # (gains and simplified-impact scores, since W(v) ≥ dout(v)).
        # Non-finite bounds mean the probe itself overflowed float64 —
        # including the inf·0 = NaN case from a source-unreachable region
        # with astronomical W.  The shared ladder treats NaN and inf as
        # overflow (NaN comparisons are always False, so they must never
        # be compared directly).
        plan.exact_only = pick_representation(
            plan.psi_bound, plan.prod_bound
        ).exact_only

    def _fwd_levelsum(self, plan: _Plan) -> float:
        """The per-item forward level-sum bound (lazy; cached on the plan).

        max over (level, item) of one item's total forward emission in
        the ``A = ∅`` probe — the only bound that genuinely needs a ψ
        row per source, so it is the only place the ``(num_sources, n)``
        float64 matrix still exists.  Deferred here because only the
        sampled-world state builder consumes it, and the probabilistic
        model never runs at the source counts where the matrix hurts.
        """
        if plan.fwd_levelsum_bound is None:
            np = self._np
            with np.errstate(over="ignore", invalid="ignore"):
                psi = np.zeros(
                    (len(plan.sources), plan.n), dtype=np.float64
                )
                fwd_levelsum = 0.0
                for lvl in plan.levels:
                    if not lvl.has_edges:
                        continue
                    emit = psi[:, lvl.nodes]  # fancy index: a fresh copy
                    if lvl.origin_rows.size:
                        emit[lvl.origin_rows, lvl.origin_cols] = 1.0
                    edge_emit = emit[:, lvl.fwd_src_local]
                    if edge_emit.size:
                        fwd_levelsum = max(
                            fwd_levelsum, float(edge_emit.sum(axis=1).max())
                        )
                    psi[:, lvl.fwd_uniq_dst] += np.add.reduceat(
                        edge_emit, lvl.fwd_offsets, axis=1
                    )
            plan.fwd_levelsum_bound = fwd_levelsum
        return plan.fwd_levelsum_bound

    # ------------------------------------------------------------------
    # Vectorized sweeps
    # ------------------------------------------------------------------

    def _filter_mask(self, plan: _Plan, filters: Collection[Node]) -> Any:
        np = self._np
        mask = np.zeros(plan.n, dtype=bool)
        for v in filters:
            mask[plan.index[v]] = True
        return mask

    def _mask_from_ids(self, plan: _Plan, filter_ids: Iterable[int]) -> Any:
        np = self._np
        mask = np.zeros(plan.n, dtype=bool)
        ids = list(filter_ids)
        if ids:
            # Negative ids would wrap (ndarray indexing) and silently
            # filter the wrong node; reject them as unknown nodes.
            if min(ids) < 0 or max(ids) >= plan.n:
                from repro.exceptions import MissingNodeError

                raise MissingNodeError(min(ids) if min(ids) < 0 else max(ids))
            mask[ids] = True
        return mask

    def _gains_array(self, plan: _Plan, mask: Any) -> Any:
        """``I(v | A) = (T − nreach) · W`` as an int64 array (two sweeps)."""
        totals = self._totals_vector(plan, mask)
        gains = (totals - self._nreach(plan)) * self._suffix_vector(plan, mask)
        gains[mask] = 0
        return gains

    def _impact_scores(self, plan: _Plan, mask: Any) -> Any:
        """``I'(v) = T(v) · dout(v)`` as an int64 array (one sweep)."""
        return self._totals_vector(plan, mask) * plan.out_degree

    def _psi_matrix(self, plan: _Plan, mask: Any) -> Any:
        """``ψ`` for all sources at once: shape ``(num_sources, n)``.

        Only per-source weighted receipts need the per-item rows; every
        other query runs on the aggregate totals.
        """
        np = self._np
        psi = np.zeros((len(plan.sources), plan.n), dtype=np.int64)
        for lvl in plan.levels:
            if not lvl.has_edges:
                continue
            block = psi[:, lvl.nodes]  # fancy index: a fresh copy
            lvl_mask = mask[lvl.nodes]
            if lvl_mask.any():
                emit = np.where(
                    lvl_mask[None, :],
                    (block > 0).astype(np.int64),
                    block,
                )
            else:
                emit = block
            if lvl.origin_rows.size:
                emit[lvl.origin_rows, lvl.origin_cols] = 1
            psi[:, lvl.fwd_uniq_dst] += np.add.reduceat(
                emit[:, lvl.fwd_src_local], lvl.fwd_offsets, axis=1
            )
        return psi

    def _suffix_vector(self, plan: _Plan, mask: Any) -> Any:
        """``W`` (item-independent) in one backward sweep: shape ``(n,)``."""
        np = self._np
        w = np.zeros(plan.n, dtype=np.int64)
        for lvl in reversed(plan.levels):
            if not lvl.has_edges:
                continue
            contrib = 1 + np.where(mask[lvl.bwd_dst], 0, w[lvl.bwd_dst])
            w[lvl.bwd_uniq_src] += np.add.reduceat(contrib, lvl.bwd_offsets)
        return w

    # ------------------------------------------------------------------
    # Packed reachability + aggregate totals
    # ------------------------------------------------------------------

    def _nreach(self, plan: _Plan) -> Any:
        """The (cached) packed reachability counts — int64, shape ``(n,)``.

        Routed through the blocked out-of-core warm
        (:func:`repro.propagation.reach.warm_reach_counts`): O(n·B/8)
        resident instead of O(n·S/8), bit-identical by exact integer
        addition, and shared with the compiled graph's cache — so
        ``.fpc``-persisted counts are reused and the python backend's
        warm never re-sweeps.
        """
        if plan.nreach is None:
            from repro.propagation.reach import warm_reach_counts

            plan.nreach = self._np.asarray(
                warm_reach_counts(plan.compiled), dtype=self._np.int64
            )
        return plan.nreach

    def _totals_vector(self, plan: _Plan, mask: Any) -> Any:
        """Aggregate totals ``T(v) = Σ_s ψ_s(v)`` in one 1-D sweep.

        Per level, each edge ``(u, v)`` carries the emission
        ``E(u) = (nreach(u) if u ∈ A else T(u)) + [u is a source]`` —
        a filter forwards exactly one copy per item it receives (and
        its own item when it is also a source), so its emission is the
        per-graph constant ``nreach + bonus``.  Source-count-independent:
        the same two sweeps whether the graph has 1 source or 10 000.
        """
        np = self._np
        totals = np.zeros(plan.n, dtype=np.int64)
        nreach = self._nreach(plan)
        bonus = plan.src_bonus
        for lvl in plan.levels:
            if not lvl.has_edges:
                continue
            src = lvl.fwd_src_global
            emit = np.where(mask[src], nreach[src], totals[src]) + bonus[src]
            totals[lvl.fwd_uniq_dst] += np.add.reduceat(emit, lvl.fwd_offsets)
        return totals

    # ------------------------------------------------------------------
    # PropagationBackend interface
    # ------------------------------------------------------------------

    def node_receipts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        items_per_source: int | Mapping[Node, int] = 1,
    ) -> dict[Node, int]:
        """Receipts per node (``Σ_s ψ_s(v)``, weighted) — batched int64.

        Falls back to the exact backend when the plan's overflow probe
        (or the supplied weights) puts any value near ``2**63``.
        """
        if not graph.sources:
            raise MissingSourceError("graph has no sources")
        validate_filter_set(graph, set(filters))
        plan = self.plan_for(graph)
        np = self._np
        if isinstance(items_per_source, Mapping):
            weights = [max(items_per_source.get(s, 0), 0) for s in plan.sources]
        else:
            weights = [max(items_per_source, 0)] * len(plan.sources)
        max_weight = max(weights, default=0)
        # Compare before multiplying: a weight beyond float64 range would
        # raise OverflowError in the product, and anything >= the limit
        # needs the exact path regardless.
        if (
            plan.exact_only
            or max_weight >= OVERFLOW_LIMIT
            or max_weight * plan.psi_bound >= OVERFLOW_LIMIT
        ):
            return self._exact.node_receipts(
                graph, filters, items_per_source=items_per_source
            )
        mask = self._filter_mask(plan, filters)
        if not isinstance(items_per_source, Mapping):
            # Uniform weights scale the aggregate totals directly — one
            # T sweep instead of one ψ row per source.  Per-source
            # mappings weight individual items and need the ψ matrix.
            totals = self._totals_vector(plan, mask) * max(items_per_source, 0)
        else:
            psi = self._psi_matrix(plan, mask)
            wvec = np.array(weights, dtype=np.int64)
            totals = (psi * wvec[:, None]).sum(axis=0)
        return dict(zip(plan.node_list, totals.tolist()))

    def total_receipts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        items_per_source: int | Mapping[Node, int] = 1,
    ) -> int:
        """``Φ(A, V)``: total received copies (summed as Python ints)."""
        return sum(
            self.node_receipts(
                graph, filters, items_per_source=items_per_source
            ).values()
        )

    def marginal_gains(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
    ) -> dict[Node, int]:
        """``I(v | A) = (T(v) − nreach(v)) · W(v)``, vectorized."""
        if not graph.sources:
            raise MissingSourceError("graph has no sources")
        filter_set = set(filters)
        validate_filter_set(graph, filter_set)
        plan = self.plan_for(graph)
        if plan.exact_only:
            return self._exact.marginal_gains(graph, filter_set)
        gains = self._gains_array(plan, self._filter_mask(plan, filter_set))
        return dict(zip(plan.node_list, gains.tolist()))

    def marginal_gains_ids(
        self,
        graph: CGraph,
        filter_ids: Iterable[int] = (),
    ) -> list[int]:
        """``I(v | A)`` as a flat list over interned ids, vectorized."""
        if not graph.sources:
            raise MissingSourceError("graph has no sources")
        plan = self.plan_for(graph)
        if plan.exact_only:
            return self._exact.marginal_gains_ids(graph, filter_ids)
        gains = self._gains_array(plan, self._mask_from_ids(plan, filter_ids))
        return gains.tolist()

    def simplified_impacts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
    ) -> dict[Node, int]:
        """``Greedy_L``'s ``I'(v) = T(v) · dout(v)``, vectorized."""
        filter_set = set(filters)
        validate_filter_set(graph, filter_set)
        plan = self.plan_for(graph)
        if plan.exact_only:
            return self._exact.simplified_impacts(graph, filter_set)
        scores = self._impact_scores(plan, self._filter_mask(plan, filter_set))
        return dict(zip(plan.node_list, scores.tolist()))

    def simplified_impacts_ids(
        self,
        graph: CGraph,
        filter_ids: Iterable[int] = (),
    ) -> list[int]:
        """``I'(v)`` as a flat list over interned ids, vectorized."""
        plan = self.plan_for(graph)
        if plan.exact_only:
            return self._exact.simplified_impacts_ids(graph, filter_ids)
        scores = self._impact_scores(plan, self._mask_from_ids(plan, filter_ids))
        return scores.tolist()

    # ------------------------------------------------------------------
    # Propagation-model axis: batched sampled-world sweeps
    # ------------------------------------------------------------------
    #
    # The sampled worlds (shared with the python backend, see
    # repro.propagation.sampling) become one extra *sample axis* on the
    # level-synchronous sweeps: ψ grows from (S, n) to (T, S, n) and W
    # from (n,) to (T, n), with each level's scatter multiplied by the
    # level's (T, E_l) live-edge mask before the reduceat.  No per-trial
    # graph rebuilds, no per-trial python loops — one pass prices every
    # (world, item) pair simultaneously.

    def _sampled_state(self, graph: CGraph, plan: _Plan, model) -> "_SampledState":
        from collections import OrderedDict

        from repro.propagation.sampling import MAX_WORLD_SETS_PER_GRAPH

        per_graph = self._sampled.get(graph)
        if per_graph is None:
            per_graph = self._sampled.setdefault(graph, OrderedDict())
        key = model.worlds_key()
        state = per_graph.get(key)
        if state is None:
            state = self._build_sampled_state(graph, plan, model)
            per_graph[key] = state
            # Same LRU bound (and same safety argument) as the shared
            # worlds cache: states are pure functions of the key, so
            # eviction costs a rebuild, never a changed result.
            while len(per_graph) > MAX_WORLD_SETS_PER_GRAPH:
                per_graph.popitem(last=False)
        else:
            per_graph.move_to_end(key)
        return state

    def _build_sampled_state(
        self, graph: CGraph, plan: _Plan, model
    ) -> "_SampledState":
        from repro.propagation.sampling import get_worlds

        np = self._np
        worlds = get_worlds(graph, model)
        trials = worlds.trials
        m = len(worlds.probs.out_probs)
        live = (
            np.frombuffer(worlds.mask_bytes(), dtype=np.uint8)
            .reshape(trials, m)
            .astype(np.int64)
        )
        # The deterministic A = ∅ probe bounds every per-world value (a
        # live-edge world is an edge subset; counts are monotone in
        # edges).  Two derived checks: the final cross-world sum must fit
        # int64, and the working dtype must hold every intermediate —
        # the per-level prefix sums of the cumsum-difference segment
        # trick (levelsum bounds; they also cover each W entry, which
        # accumulates from exactly one level) *and* the stored ψ entries,
        # which accumulate across levels when a node's parents span
        # several and are bounded by psi_bound, not by any single level.
        # int32 halves the hot path's memory traffic when everything
        # comfortably fits; int64 otherwise.
        bound = max(plan.psi_bound, plan.prod_bound)
        levelsum = max(self._fwd_levelsum(plan), plan.bwd_levelsum_bound)
        # Same ladder as the deterministic plan, with the cross-world
        # sum (trials · bound) as the extra rung to clear; inf and NaN
        # (a saturated probe) land on "exact" like any other overflow.
        verdict = pick_representation(trials * bound, levelsum)
        exact_only = plan.exact_only or verdict.exact_only
        dtype = (
            np.int32
            if pick_representation(levelsum, plan.psi_bound).narrow
            else np.int64
        )
        # Pre-gather each level's live columns once (both groupings),
        # trials-major — matching the sweeps' row layout, where
        # per-(world, item) rows stay cache-resident and the segment-sum
        # cumsum runs along the contiguous last axis.  The forward masks
        # are row-repeated per item (ψ row ``t·S + s`` is world ``t``'s
        # item ``s``); the backward ``W`` is item-independent.
        S = len(plan.sources)
        live_fwd = []
        for lvl in plan.levels:
            # order="C": the fancy column gather returns transposed
            # strides, and a non-contiguous operand would poison every
            # hot-path multiply that touches it.
            fwd = live[:, lvl.fwd_edge_ids].astype(dtype, order="C")
            if S > 1:
                fwd = np.repeat(fwd, S, axis=0)
            live_fwd.append(fwd)
        live_bwd = [
            live[:, lvl.bwd_edge_ids].astype(dtype, order="C")
            for lvl in plan.levels
        ]
        # Segment ends per level grouping: segments are contiguous and
        # cover the level exactly, so the cumsum trick needs only the
        # starts (already on the level) plus this closing boundary.
        fwd_ends = [
            np.append(lvl.fwd_offsets[1:], lvl.fwd_src_global.size)
            for lvl in plan.levels
        ]
        bwd_ends = [
            np.append(lvl.bwd_offsets[1:], lvl.bwd_dst.size)
            for lvl in plan.levels
        ]
        # Per-world live out-degree (Greedy_L's dout_t), via cumsum
        # differences so zero-degree nodes need no special case.
        cs = np.zeros((trials, m + 1), dtype=np.int64)
        np.cumsum(live, axis=1, out=cs[:, 1:])
        out_degree = cs[:, plan.out_offsets[1:]] - cs[:, plan.out_offsets[:-1]]
        return _SampledState(
            trials=trials,
            live_fwd=live_fwd,
            live_bwd=live_bwd,
            fwd_ends=fwd_ends,
            bwd_ends=bwd_ends,
            out_degree=out_degree,
            dtype=dtype,
            exact_only=exact_only,
        )

    def _sampled_psi(self, plan: _Plan, state: "_SampledState", mask: Any) -> Any:
        """``ψ`` for all (world, item) pairs: shape ``(trials · S, n)``.

        Flat row-per-(world, item) layout with nodes last: each ``ψ``
        row is a few kilobytes, so the per-edge emission gather stays
        cache-resident, and the per-destination segment sums run as an
        in-place cumsum difference along the contiguous last axis
        (``reduceat``'s per-segment dispatch is what made the naive
        batched sweep no faster than the python loop).  Emissions are
        gathered straight from ``ψ`` and fixed up only where they
        differ: the few filter-source edge columns (clamp to 0/1) and
        origin-source edges (pinned to 1 in their item's rows), instead
        of materializing a per-level emit block.
        """
        np = self._np
        S = len(plan.sources)
        rows = state.trials * S
        psi = np.zeros((rows, plan.n), dtype=state.dtype)
        for i, lvl in enumerate(plan.levels):
            if not lvl.has_edges:
                continue
            src = lvl.fwd_src_global
            contrib = np.take(psi, src, axis=1)  # (rows, E), C-contiguous
            msk = mask[src]
            if msk.any():
                contrib[:, msk] = contrib[:, msk] > 0
            if lvl.fwd_origin_sel.size:
                if S == 1:
                    contrib[:, lvl.fwd_origin_sel] = 1
                else:
                    # Row t·S + s holds item s of world t: the item rows
                    # of source s are the strided slice s::S.
                    for pos, s_row in zip(
                        lvl.fwd_origin_sel, lvl.fwd_origin_row
                    ):
                        contrib[s_row::S, pos] = 1
            contrib *= state.live_fwd[i]
            # Segment sums by cumsum difference: segments (one per
            # destination) tile the level's edges contiguously, and the
            # probe's fwd_levelsum_bound guarantees the level-wide
            # prefix sums fit the working dtype.
            cs = np.cumsum(contrib, axis=1, out=contrib)
            hi = cs[:, state.fwd_ends[i] - 1]
            lo = cs[:, lvl.fwd_offsets - 1]
            lo[:, 0] = 0  # the first segment starts at edge 0
            hi -= lo
            psi[:, lvl.fwd_uniq_dst] += hi
        return psi

    def _sampled_w(self, plan: _Plan, state: "_SampledState", mask: Any) -> Any:
        """``W`` for all worlds in one backward sweep: shape ``(trials, n)``."""
        np = self._np
        w = np.zeros((state.trials, plan.n), dtype=state.dtype)
        for i in range(len(plan.levels) - 1, -1, -1):
            lvl = plan.levels[i]
            if not lvl.has_edges:
                continue
            live = state.live_bwd[i]
            wd = np.take(w, lvl.bwd_dst, axis=1)  # (T, E), C-contiguous
            dmsk = mask[lvl.bwd_dst]
            if dmsk.any():
                wd[:, dmsk] = 0  # filters absorb the perturbation
            # live · (1 + W(dst)) as mask arithmetic: zero dead edges,
            # then add the mask itself (the +1 of live edges only).
            wd *= live
            wd += live
            cs = np.cumsum(wd, axis=1, out=wd)
            hi = cs[:, state.bwd_ends[i] - 1]
            lo = cs[:, lvl.bwd_offsets - 1]
            lo[:, 0] = 0
            hi -= lo
            w[:, lvl.bwd_uniq_src] += hi
        return w

    def sampled_marginal_gains_ids(
        self,
        graph: CGraph,
        filter_ids: Iterable[int] = (),
        *,
        model=None,
    ) -> list[int]:
        """``Σ_t I_t(v | A)`` over interned ids — one batched sweep."""
        if model is None:
            return self.marginal_gains_ids(graph, filter_ids)
        if not graph.sources:
            raise MissingSourceError("graph has no sources")
        np = self._np
        plan = self.plan_for(graph)
        state = self._sampled_state(graph, plan, model)
        if state.exact_only:
            return self._exact.sampled_marginal_gains_ids(
                graph, filter_ids, model=model
            )
        mask = self._mask_from_ids(plan, filter_ids)
        psi = self._sampled_psi(plan, state, mask)
        w = self._sampled_w(plan, state, mask)
        surplus = psi - 1
        np.maximum(surplus, 0, out=surplus)
        # Reductions leave the (possibly int32) hot path: per-(node,
        # world) products and the cross-world sum run in int64, which the
        # trials-aware probe check guarantees is enough.
        per_world = surplus.reshape(
            state.trials, len(plan.sources), plan.n
        ).sum(axis=1, dtype=np.int64)
        gains = (per_world * w.astype(np.int64, copy=False)).sum(axis=0)
        gains[mask] = 0
        return gains.tolist()

    def sampled_simplified_impacts_ids(
        self,
        graph: CGraph,
        filter_ids: Iterable[int] = (),
        *,
        model=None,
    ) -> list[int]:
        """``Σ_t ψ_t(v) · dout_t(v)`` over interned ids, batched."""
        if model is None:
            return self.simplified_impacts_ids(graph, filter_ids)
        plan = self.plan_for(graph)
        state = self._sampled_state(graph, plan, model)
        if state.exact_only:
            return self._exact.sampled_simplified_impacts_ids(
                graph, filter_ids, model=model
            )
        np = self._np
        mask = self._mask_from_ids(plan, filter_ids)
        psi = self._sampled_psi(plan, state, mask)
        totals = psi.reshape(
            state.trials, len(plan.sources), plan.n
        ).sum(axis=1, dtype=np.int64)
        scores = (totals * state.out_degree).sum(axis=0)
        return scores.tolist()

    def sampled_total_receipts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        model=None,
    ) -> int:
        """``Σ_t Φ_t(A, V)`` — per-(world, node) int64, summed in Python.

        Only per-entry values need the int64 range (all covered by the
        probe bound); the grand total is accumulated as Python ints,
        mirroring the deterministic ``total_receipts``.
        """
        if model is None:
            return self.total_receipts(graph, filters)
        if not graph.sources:
            raise MissingSourceError("graph has no sources")
        validate_filter_set(graph, set(filters))
        plan = self.plan_for(graph)
        state = self._sampled_state(graph, plan, model)
        if state.exact_only:
            return self._exact.sampled_total_receipts(
                graph, filters, model=model
            )
        np = self._np
        mask = self._filter_mask(plan, filters)
        psi = self._sampled_psi(plan, state, mask)
        return sum(psi.sum(axis=0, dtype=np.int64).tolist())

    # expected_total_receipts / expected_marginal_gains come from
    # SampledEvaluationMixin — one shared reporting boundary over this
    # backend's batched sampled sweeps.

    def warm(self, graph: CGraph) -> None:
        """Adapt (and cache) the shared compiled plan outside timed regions.

        This also runs the blocked reachability warm (the only other
        per-graph preprocessing), so timed solve regions never pay for
        it.  Exact-only plans warm the delegate backend instead, which
        consumes the same shared counts.
        """
        plan = self.plan_for(graph)
        if plan.exact_only:
            self._exact.warm(graph)
        else:
            self._nreach(plan)
