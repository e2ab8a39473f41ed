"""``Greedy_All`` — Algorithm 1, the ``(1 − 1/e)``-approximation.

At every one of ``k`` iterations, recompute the impact ``I(v | A)`` of every
remaining node under the current filter set ``A`` and add the argmax.
Because ``F`` is non-negative, monotone and submodular, Nemhauser et al.'s
classic bound applies: the result is within a factor ``(1 − 1/e)`` of the
optimal budget-``k`` placement (Theorem 3), and it is *exactly* optimal for
``k = 1``.

:class:`GreedyAll` is the direct algorithm: each iteration gets every
marginal gain from one bit-packed two-sweep evaluation (the fast engine
of :mod:`repro.core.impact`), so lazy re-evaluation has nothing left to
save.  Gains come through the pluggable backend registry
(:mod:`repro.backends.registry`); pass ``backend=`` to pin one, or leave
it None to use the process default (the CLI's ``--backend`` flag).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Hashable

from repro.core.base import PlacementResult, PlacementStep, check_budget
from repro.core.impact import marginal_gains_ids
from repro.graphs.cgraph import CGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import PropagationBackend
    from repro.propagation.model import PropagationModel

Node = Hashable

class GreedyAll:
    """The paper's ``Greedy_All`` (Algorithm 1).

    ``early_stop`` (default True) ends the loop once every remaining
    marginal gain is zero — extra filters would be dead weight.  The
    paper's Algorithm 1 runs all ``k`` iterations regardless; pass
    ``early_stop=False`` to reproduce its cost profile (Figure 11).
    """

    name = "G_All"
    prefix_consistent = True

    def __init__(
        self,
        *,
        early_stop: bool = True,
        backend: "str | PropagationBackend | None" = None,
        model: "PropagationModel | None" = None,
    ) -> None:
        self.early_stop = early_stop
        self.backend = backend
        self.model = model
        if not early_stop:
            self.name = "G_All_paper"

    def place(
        self,
        graph: CGraph,
        k: int,
        *,
        rng: random.Random | None = None,
    ) -> PlacementResult:
        """One ``I(v | A)`` sweep per pick; argmax with rank tie-breaks.

        Runs entirely on the compiled view's interned ids — an id *is*
        the ``graph.nodes()`` rank, so the ascending scan with a strict
        ``>`` reproduces the canonical lowest-rank tie-break — and
        translates back to user nodes only at the result boundary.

        Under a probabilistic relaying model (``model`` pinned here or
        scoped via :func:`repro.propagation.model.use_model`) each sweep
        evaluates the summed-over-worlds SAA gains instead — same loop,
        same tie-breaks, exact integers either way.  With no model the
        deterministic path below is untouched, byte for byte.
        """
        from repro.propagation.model import resolve_model

        check_budget(graph, k)
        model = resolve_model(self.model)
        compiled = graph.compiled()
        chosen_ids: list[int] = []
        steps: list[PlacementStep] = []
        placed = bytearray(compiled.n)
        for _ in range(k):
            if model is None:
                gains = marginal_gains_ids(
                    graph, chosen_ids, backend=self.backend
                )
            else:
                from repro.backends.registry import resolve_backend

                gains = resolve_backend(
                    self.backend
                ).sampled_marginal_gains_ids(graph, chosen_ids, model=model)
            best = -1
            best_gain = 0
            for v, gain in enumerate(gains):
                if placed[v]:
                    continue
                if gain <= 0 and self.early_stop:
                    continue
                if best < 0 or gain > best_gain:
                    best = v
                    best_gain = gain
            if best < 0:
                break  # every remaining candidate is useless; stop early
            placed[best] = 1
            chosen_ids.append(best)
            steps.append(
                PlacementStep(
                    node=compiled.nodes[best],
                    gain=best_gain,
                    evaluations=(("marginal_gains", 1),),
                )
            )
        return PlacementResult(
            algorithm=self.name,
            filters=tuple(compiled.to_nodes(chosen_ids)),
            requested_k=k,
            steps=tuple(steps),
        )


def greedy_all(graph: CGraph, k: int) -> PlacementResult:
    """Functional convenience wrapper around :class:`GreedyAll`."""
    return GreedyAll().place(graph, k)
