"""The exact arbitrary-precision backend.

Thin adapter over the sweep implementations in
:mod:`repro.propagation.engine`, :mod:`repro.core.impact` and
:mod:`repro.core.greedy_l` — index loops over the compiled view's cached
topological order (flat lists, interned ids), with native big integers,
so results are exact no matter how explosively path counts grow.

The aggregate queries use the bit-packed formulation: one reachability
sweep per graph (cached on the compiled view), then two sweeps per
evaluation (``T`` + ``W``) regardless of the source count.  Only
``node_receipts`` with per-source ``items_per_source`` weights still
sweeps one ``ψ`` lane per source, since the weights apply per item.

This backend is the semantic reference: every other backend must agree
with it bit-for-bit, and the fast backends delegate to it whenever their
representable range is at risk.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping
from typing import TYPE_CHECKING, Hashable

from repro.backends.sampled import SampledEvaluationMixin
from repro.exceptions import MissingSourceError
from repro.graphs.cgraph import CGraph
from repro.graphs.validation import validate_filter_set

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.propagation.model import PropagationModel

Node = Hashable

class PythonBackend(SampledEvaluationMixin):
    """Exact big-int propagation (the semantic reference).

    Filter sets are validated here (not in the exact sweeps, which other
    backends reuse for their fallback paths) so every backend rejects
    unknown filter nodes identically.
    """

    name = "python"

    def node_receipts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        items_per_source: int | Mapping[Node, int] = 1,
    ) -> dict[Node, int]:
        """Receipts per node (``Σ_s ψ_s(v)``, weighted) — exact big ints."""
        from repro.propagation.engine import node_receipts_exact

        validate_filter_set(graph, set(filters))
        if not isinstance(items_per_source, Mapping):
            # Uniform weights scale the aggregate totals directly:
            # one T sweep instead of one ψ sweep per source.  Per-source
            # mappings weight individual items and sweep per source.
            from repro.propagation.engine import (
                aggregate_receipts_ids,
                loose_filter_mask,
            )

            if not graph.sources:
                raise MissingSourceError("graph has no sources")
            weight = items_per_source
            compiled = graph.compiled()
            totals = aggregate_receipts_ids(
                compiled, loose_filter_mask(compiled, filters)
            )
            if weight <= 0:
                return dict.fromkeys(compiled.nodes, 0)
            return dict(
                zip(compiled.nodes, (weight * t for t in totals))
            )
        return node_receipts_exact(
            graph, filters, items_per_source=items_per_source
        )

    def total_receipts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        items_per_source: int | Mapping[Node, int] = 1,
    ) -> int:
        """``Φ(A, V)``: total received copies, summed exactly."""
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
        """``I(v | A) = max(ψ(v) − 1, 0) · W(v)`` summed over sources."""
        filter_set = set(filters)
        validate_filter_set(graph, filter_set)
        compiled = graph.compiled()
        gains = self.marginal_gains_ids(graph, compiled.to_ids(filter_set))
        # Keyed in graph.nodes() order — the cross-backend canonical
        # order, so serialized results match the numpy backend's byte
        # for byte.
        return dict(zip(compiled.nodes, gains))

    def marginal_gains_ids(
        self,
        graph: CGraph,
        filter_ids: Iterable[int] = (),
    ) -> list[int]:
        """``I(v | A)`` as a flat list over interned ids — index sweeps."""
        from repro.core.impact import marginal_gains_ids_exact

        return marginal_gains_ids_exact(graph, filter_ids)

    def simplified_impacts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
    ) -> dict[Node, int]:
        """``Greedy_L``'s ``I'(v) = Prefix(v) × dout(v)`` under ``A``."""
        filter_set = set(filters)
        validate_filter_set(graph, filter_set)
        compiled = graph.compiled()
        scores = self.simplified_impacts_ids(
            graph, compiled.to_ids(filter_set)
        )
        return dict(zip(compiled.nodes, scores))

    def simplified_impacts_ids(
        self,
        graph: CGraph,
        filter_ids: Iterable[int] = (),
    ) -> list[int]:
        """``I'(v)`` as a flat list over interned ids — index sweeps."""
        from repro.core.greedy_l import simplified_impacts_ids_exact

        return simplified_impacts_ids_exact(graph, filter_ids)

    # -- propagation-model axis -----------------------------------------
    # The per-trial reference implementations: one exact sweep per world
    # over the pruned adjacency of :mod:`repro.propagation.sampling`.
    # Every fast backend must agree bit-for-bit (and falls back here when
    # its representable range is at risk).  World evaluation shards
    # across a process pool when repro.propagation.parallel is armed
    # (``--workers``); the reduce is bit-identical to serial.

    def sampled_marginal_gains_ids(
        self,
        graph: CGraph,
        filter_ids: Iterable[int] = (),
        *,
        model: "PropagationModel | None" = None,
    ) -> list[int]:
        """``Σ_t I_t(v | A)`` over interned ids — exact big-int SAA."""
        if model is None:
            return self.marginal_gains_ids(graph, filter_ids)
        from repro.propagation.sampling import (
            sampled_marginal_gains_ids_exact,
        )

        return sampled_marginal_gains_ids_exact(
            graph, filter_ids, model=model
        )

    def sampled_simplified_impacts_ids(
        self,
        graph: CGraph,
        filter_ids: Iterable[int] = (),
        *,
        model: "PropagationModel | None" = None,
    ) -> list[int]:
        """``Σ_t ψ_t(v) · dout_t(v)`` over interned ids — exact SAA."""
        if model is None:
            return self.simplified_impacts_ids(graph, filter_ids)
        from repro.propagation.sampling import (
            sampled_simplified_impacts_ids_exact,
        )

        return sampled_simplified_impacts_ids_exact(
            graph, filter_ids, model=model
        )

    def sampled_total_receipts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        model: "PropagationModel | None" = None,
    ) -> int:
        """``Σ_t Φ_t(A, V)`` — exact integer, per-world sweeps."""
        if model is None:
            return self.total_receipts(graph, filters)
        from repro.propagation.sampling import sampled_total_receipts_exact

        return sampled_total_receipts_exact(graph, filters, model=model)

    # expected_total_receipts / expected_marginal_gains come from
    # SampledEvaluationMixin — one shared reporting boundary over this
    # backend's per-trial exact sweeps.

    def warm(self, graph: CGraph) -> None:
        """Build (and cache) the shared compiled view and the
        reachability counts.

        Reachability is the only per-graph preprocessing beyond the
        :class:`~repro.graphs.compiled.CompiledGraph` every other layer shares;
        warming it here keeps it out of timed solve regions (Figure 11) and
        request paths (service).  Counts come from the blocked out-of-core
        sweep (:func:`repro.propagation.reach.warm_reach_counts`) — block-size
        resident memory, bit-identical to the monolithic build — and land in
        the compiled graph's shared cache.
        """
        compiled = graph.compiled()
        if compiled.is_dag:
            from repro.propagation.reach import warm_reach_counts

            warm_reach_counts(compiled)
