"""The sample-average (SAA) reporting boundary shared by every backend.

Under a probabilistic model each backend sums its per-world integers
``Σ_t I_t(v | A)`` (see :mod:`repro.propagation.sampling` for why they
stay exact); the ``expected_*`` entry points here divide by ``trials``
at the reporting boundary.  One mixin serves both backends, so the
division cannot drift between them.
"""

from __future__ import annotations

from collections.abc import Collection
from typing import TYPE_CHECKING, Hashable

from repro.graphs.cgraph import CGraph
from repro.graphs.validation import validate_filter_set

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.propagation.model import PropagationModel

Node = Hashable


class SampledEvaluationMixin:
    """The backend-agnostic reporting boundary of the model axis.

    ``expected_*`` (mean at the boundary, node-keyed validating surface)
    contain no engine-specific code — they only divide by ``trials`` and
    dispatch back into the backend's own ``sampled_*`` / deterministic
    primitives — so both backends inherit the one copy here and the
    bit-identical-across-backends contract cannot be broken by the two
    halves drifting apart.
    """

    def expected_total_receipts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        model: "PropagationModel | None" = None,
    ) -> float:
        """SAA estimate of ``E[Φ(A, V)]`` (exact ``Φ`` when no model)."""
        if model is None:
            return float(self.total_receipts(graph, filters))
        return self.sampled_total_receipts(
            graph, filters, model=model
        ) / model.trials

    def expected_marginal_gains(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        model: "PropagationModel | None" = None,
    ) -> dict[Node, float]:
        """SAA estimate of ``E[I(v | A)]``, keyed in canonical order."""
        if model is None:
            return {
                v: float(g)
                for v, g in self.marginal_gains(graph, filters).items()
            }
        filter_set = set(filters)
        validate_filter_set(graph, filter_set)
        compiled = graph.compiled()
        summed = self.sampled_marginal_gains_ids(
            graph, compiled.to_ids(filter_set), model=model
        )
        trials = model.trials
        return dict(zip(compiled.nodes, (g / trials for g in summed)))
