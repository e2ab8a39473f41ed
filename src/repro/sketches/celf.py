"""``Greedy_All`` on sketch-estimated gains — the ``sketch`` strategy.

The execution strategy beside ``exact``: CELF-style selection driven by the
bottom-k gain estimates of :class:`repro.sketches.gains.SketchGainEngine`,
followed by an exact rescore of the winning prefix.  The contract, in
decreasing strength:

* **Exactness regime** (fewer sources than registers — every built-in
  dataset, the whole fuzz corpus): estimates are exact integers and the
  selection is *bit-identical* to ``exact`` ``Greedy_All``, including
  tie-breaks.  Steps are exact by construction (``rescored=True`` with no extra
  work).
* **Approximate regime, small graph** (``n ≤ rescore_limit``): selection
  is heuristic (estimated gains are only approximately submodular), but
  the returned step gains are exact — one exact gain sweep per step
  replays the chosen prefix and rescores each pick, feeding the
  estimator-error histogram.  ``rescored=True``; the estimates that
  drove selection survive in ``PlacementResult.estimated_gains``.
* **Approximate regime, large graph**: rescoring is skipped
  (``rescored=False``), steps carry the estimates, and exact objectives
  are left to the caller's scoring boundary (the bench score phase / the
  service serializer) — the rescore costs about one exact run, which is
  exactly what the sketch tier exists to avoid.

Staleness here is *global*: a placement can move any node's estimated gain, so
each selection bumps a version counter and the first stale pop of a round
triggers one full (two-sweep) re-estimate; further stale pops are O(1) reads of
the fresh vector.  ``k`` placements therefore cost ``k + 1`` two-sweep
evaluations — the float analog of eager ``Greedy_All``'s sweep count, at
float/NumPy speed instead of big-int speed.
"""

from __future__ import annotations

import heapq
import random
from typing import TYPE_CHECKING

from repro.core.base import PlacementResult, PlacementStep, check_budget
from repro.exceptions import MissingSourceError, ParameterError
from repro.graphs.cgraph import CGraph
from repro.sketches.bottomk import (
    DEFAULT_SKETCH_K,
    build_reach_sketches,
    epsilon_for_k,
    k_for_epsilon,
)
from repro.sketches.gains import SketchGainEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import PropagationBackend
    from repro.propagation.model import PropagationModel

#: Above this node count the exact prefix rescore is skipped; exact
#: objectives then come from the caller's scoring boundary instead.
#: The rescore replays the prefix with one exact gain sweep per step,
#: which costs roughly a full exact run — affordable only where exact
#: itself is affordable, so the guard sits where that is still
#: sub-second-ish, not at the scale tier's upper rungs.
DEFAULT_RESCORE_LIMIT = 5_000

#: Relative-error bucket edges for ``fp_sketch_relative_error``.
ERROR_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0
)


class SketchCelfGreedyAll:
    """``Greedy_All`` selection on bottom-k gain estimates.

    Parameters
    ----------
    sketch_k:
        Registers per node.  More registers, tighter estimates:
        the two-sigma relative error is ``2 / sqrt(k - 2)``.
    epsilon:
        Target relative error; overrides ``sketch_k`` via
        :func:`repro.sketches.bottomk.k_for_epsilon` when given.
    sketch_seed:
        Seed of the source-hash family.  Sketches (and hence placements)
        are byte-reproducible per ``(graph, sketch_k, sketch_seed)``.
    rescore_limit:
        Node-count guard on the exact prefix rescore.
    lanes:
        Pin the sketch/sweep implementation (``"numpy"``/``"python"``);
        None auto-selects.  Both lanes select identically.
    early_stop / backend / model:
        As for :class:`repro.core.greedy_all.GreedyAll`; ``backend`` runs the
        exact rescore.  ``model`` must resolve to the deterministic unit model
        — sketches estimate deterministic reachability, so probabilistic
        relaying is rejected rather than silently mis-estimated.
    name:
        Override the reported algorithm name (the strategy layer passes
        the base name, e.g. ``"G_All"``).
    """

    name = "G_All_sketch"
    prefix_consistent = True

    def __init__(
        self,
        *,
        early_stop: bool = True,
        backend: "str | PropagationBackend | None" = None,
        name: str | None = None,
        model: "PropagationModel | None" = None,
        sketch_k: int = DEFAULT_SKETCH_K,
        epsilon: float | None = None,
        sketch_seed: int = 0,
        rescore_limit: int = DEFAULT_RESCORE_LIMIT,
        lanes: str | None = None,
    ) -> None:
        if epsilon is not None:
            sketch_k = k_for_epsilon(epsilon)
        if not isinstance(sketch_k, int) or sketch_k < 4:
            raise ParameterError(
                f"sketch_k must be an int >= 4, got {sketch_k!r}"
            )
        self.early_stop = early_stop
        self.backend = backend
        self.model = model
        self.sketch_k = sketch_k
        self.sketch_seed = sketch_seed
        self.rescore_limit = rescore_limit
        self.lanes = lanes
        if name is not None:
            self.name = name

    @property
    def epsilon(self) -> float:
        """The two-sigma relative-error bound at the configured k."""
        return epsilon_for_k(self.sketch_k)

    def place(
        self,
        graph: CGraph,
        k: int,
        *,
        rng: random.Random | None = None,
    ) -> PlacementResult:
        """Sketch build → CELF on estimates → exact prefix rescore."""
        from repro.backends.registry import resolve_backend
        from repro.obs.metrics import REGISTRY
        from repro.obs.trace import span
        from repro.propagation.model import resolve_model

        check_budget(graph, k)
        if resolve_model(self.model) is not None:
            raise ParameterError(
                "the sketch strategy estimates deterministic reachability; "
                "probabilistic relaying models require strategy 'exact'"
            )
        if k == 0:
            return PlacementResult(
                algorithm=self.name,
                filters=(),
                requested_k=0,
                steps=(),
                rescored=True,
            )
        if not graph.sources:
            raise MissingSourceError("graph has no sources")
        compiled = graph.compiled()
        sketches = build_reach_sketches(
            compiled, k=self.sketch_k, seed=self.sketch_seed,
            lanes=self.lanes,
        )
        engine = SketchGainEngine(compiled, sketches, lanes=self.lanes)

        chosen_ids: list[int] = []
        steps: list[PlacementStep] = []
        estimates: list[float] = []
        version = 0
        gains_version = 0
        gains = engine.gains_ids(())
        heap = [
            (-g, v, 0)
            for v, g in enumerate(gains)
            if g > 0 or not self.early_stop
        ]
        heapq.heapify(heap)
        pops = 0
        refreshes = 0
        sweeps_at_step = engine.evaluations
        first_step = True
        with span(
            "sketch.select",
            k=k,
            sketch_k=self.sketch_k,
            lanes=engine.lanes,
            exact=engine.exact,
        ) as select_span:
            while len(chosen_ids) < k and heap:
                neg_gain, v, ver = heapq.heappop(heap)
                pops += 1
                if ver != version:
                    # Global staleness: the first stale pop of the round
                    # re-estimates the whole vector (two float sweeps);
                    # every later stale pop is an O(1) read.
                    if gains_version != version:
                        gains = engine.gains_ids(chosen_ids)
                        gains_version = version
                    g = gains[v]
                    refreshes += 1
                    if g > 0 or not self.early_stop:
                        heapq.heappush(heap, (-g, v, version))
                    continue
                gain = -neg_gain
                if gain <= 0 and self.early_stop:
                    break
                evaluations = [
                    ("sketch_gains", engine.evaluations - sweeps_at_step),
                ]
                if first_step:
                    evaluations.append(("sketch_build", 1))
                    first_step = False
                steps.append(
                    PlacementStep(
                        node=compiled.nodes[v],
                        gain=gain,
                        evaluations=tuple(
                            sorted((k_, c) for k_, c in evaluations if c)
                        ),
                    )
                )
                chosen_ids.append(v)
                estimates.append(gain)
                sweeps_at_step = engine.evaluations
                version += 1
            select_span.set("pops", pops)
            select_span.set("refreshes", refreshes)
            select_span.set("sweeps", engine.evaluations)
            select_span.set("placed", len(chosen_ids))

        rescored = engine.exact
        if not engine.exact and compiled.n <= self.rescore_limit:
            error_hist = REGISTRY.histogram(
                "fp_sketch_relative_error",
                "Relative error of sketch gain estimates vs the exact "
                "rescore, per selected step.",
                buckets=ERROR_BUCKETS,
            )
            backend = resolve_backend(self.backend)
            with span(
                "sketch.rescore", steps=len(chosen_ids),
                backend=backend.name,
            ):
                rescored_steps = []
                for i, (step, v, estimate) in enumerate(
                    zip(steps, chosen_ids, estimates)
                ):
                    exact_gain = backend.marginal_gains_ids(
                        graph, chosen_ids[:i]
                    )[v]
                    error_hist.observe(
                        abs(estimate - exact_gain) / max(exact_gain, 1)
                    )
                    rescored_steps.append(
                        PlacementStep(
                            node=step.node,
                            gain=exact_gain,
                            evaluations=tuple(
                                sorted(
                                    step.evaluations
                                    + (("sketch_rescore", 1),)
                                )
                            ),
                        )
                    )
                steps = rescored_steps
            rescored = True

        return PlacementResult(
            algorithm=self.name,
            filters=tuple(compiled.to_nodes(chosen_ids)),
            requested_k=k,
            steps=tuple(steps),
            estimated_gains=tuple(estimates),
            rescored=rescored,
        )


def sketch_greedy_all(
    graph: CGraph, k: int, **kwargs
) -> PlacementResult:
    """Functional convenience wrapper around :class:`SketchCelfGreedyAll`."""
    return SketchCelfGreedyAll(**kwargs).place(graph, k)
