"""Wall-clock and evaluation-count comparison of algorithms (Figure 11).

The paper measures seconds to place ten filters on the Twitter graph.
Absolute numbers are hardware- and engine-dependent (this library's impact
engine is asymptotically faster than the paper's plist bookkeeping, by
design); the reproduced claim is the *relative ordering*
``G_1 ≪ {G_L, G_Max} < G_All``.

Beyond the stopwatch, every measurement carries the propagation
evaluation counters (via :class:`repro.obs.instrument.InstrumentedBackend`)
— **total** and **per placement step**: ``Greedy_All`` charges one
``marginal_gains`` sweep to every step, the heuristics charge their
scoring sweeps to the steps that used them.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.registry import get_algorithm
from repro.exceptions import ParameterError
from repro.graphs.cgraph import CGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import PropagationBackend


@dataclass(frozen=True)
class RuntimeMeasurement:
    """Cost to place ``k`` filters with one algorithm.

    ``evaluations`` is the ground-truth counter ledger of one placement
    run (keys from :data:`repro.obs.instrument.EVALUATION_KINDS`).
    ``step_evaluations`` breaks the work down per placement step, from
    the algorithm's own :class:`~repro.core.base.PlacementStep` records —
    one dict per chosen filter, in selection order.
    """

    algorithm: str
    k: int
    seconds: float
    filters_found: int
    evaluations: dict[str, int] = field(default_factory=dict)
    step_evaluations: tuple[dict[str, int], ...] = ()

    def sweeps(self) -> int:
        """Full-graph propagation sweeps this run performed."""
        from repro.obs.instrument import sweep_count

        return sweep_count(self.evaluations)


def time_algorithm(
    graph: CGraph,
    algorithm_name: str,
    k: int,
    *,
    repeats: int = 1,
    backend: "str | PropagationBackend | None" = None,
) -> RuntimeMeasurement:
    """Best-of-``repeats`` wall-clock time of one placement run.

    ``backend`` scopes the propagation backend for the timed runs (None =
    the registry default), so Figure 11 can be produced per-engine.  The
    backend is wrapped in a counting shim (negligible overhead: one dict
    increment per evaluation) so the measurement also reports how many
    propagation evaluations of each kind the run needed, in total and
    per placement step.
    """
    if repeats <= 0:
        raise ParameterError("repeats must be positive")
    from repro.backends.registry import get_default_backend, use_backend
    from repro.obs.instrument import InstrumentedBackend

    algorithm = get_algorithm(algorithm_name)
    best = float("inf")
    result = None
    with use_backend(
        backend if backend is not None else get_default_backend()
    ) as active:
        # Warm per-graph preprocessing outside the timed region: fig11
        # compares algorithms, and one-time setup (levelization plans,
        # cached topological orders) would otherwise land on whichever
        # propagation-using algorithm happens to run first.
        active.warm(graph)
        counting = InstrumentedBackend(active)
        with use_backend(counting):
            for _ in range(repeats):
                counting.reset()
                start = time.perf_counter()
                result = algorithm.place(graph, k)
                elapsed = time.perf_counter() - start
                best = min(best, elapsed)
    assert result is not None  # repeats >= 1
    return RuntimeMeasurement(
        algorithm=algorithm_name,
        k=k,
        seconds=best,
        filters_found=len(result.filters),
        evaluations=dict(counting.counts),
        step_evaluations=tuple(
            step.evaluation_counts() for step in result.steps
        ),
    )


def runtime_comparison(
    graph: CGraph,
    algorithm_names: Sequence[str],
    k: int,
    *,
    repeats: int = 1,
    backend: "str | PropagationBackend | None" = None,
) -> list[RuntimeMeasurement]:
    """Figure 11's bar chart as a list of measurements, in given order."""
    return [
        time_algorithm(graph, name, k, repeats=repeats, backend=backend)
        for name in algorithm_names
    ]
