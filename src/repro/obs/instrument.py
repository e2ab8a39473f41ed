"""Backend instrumentation: evaluation counters, spans, and metrics.

Wall-clock alone can't tell *why* an algorithm got faster — fewer sweeps
and cheaper sweeps (a faster backend) look the same on a stopwatch.
:class:`InstrumentedBackend` wraps any propagation backend, forwards
every call unchanged, and tallies how many of each evaluation the
algorithm requested.  The bench harness installs it as the default
backend for the timed region and reports the counters next to the
seconds; the service wraps every placement's backend in one so
``GET /metrics`` can attribute work per backend and evaluation kind.

Every counted kind (:data:`EVALUATION_KINDS`) is one **full-graph
sweep** — ``node_receipts``, ``total_receipts``, ``marginal_gains``,
``simplified_impacts`` and the sketch strategy's own passes.
:func:`sweep_count` sums them; "propagation evaluations" in
``docs/benchmarks.md`` means exactly this sum.

Cost discipline (``BENCH.json`` timings run through this wrapper):

* The per-call path is one unlocked dict increment plus a single
  ``TRACER.enabled`` attribute read.  No locks, no metric objects.
* Spans and per-sweep latency histograms are recorded only while the
  tracer is enabled.
* Global metrics are **published in bulk**: :meth:`publish` flushes the
  local counter dict into :data:`~repro.obs.metrics.REGISTRY` as
  ``fp_backend_evaluations_total{kind,backend}`` increments.  Callers
  (the service, the bench harness) publish once per run, so the hot
  loop never touches a lock.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping
from time import perf_counter
from typing import Hashable

from repro.backends.base import PropagationBackend
from repro.graphs.cgraph import CGraph
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.trace import TRACER

Node = Hashable

#: Counter keys: one increment = one whole-graph pass.  The
#: ``sketch_*`` kinds are charged by the sketch strategy itself in its
#: step records: ``sketch_build`` is the one bottom-k merge pass and
#: ``sketch_gains`` one estimated two-sweep gain evaluation (both bypass
#: the backend protocol); ``sketch_rescore`` marks one exact gain sweep
#: of the prefix rescore, which a wrapped backend also counts as
#: ``marginal_gains``.
EVALUATION_KINDS: tuple[str, ...] = (
    "node_receipts",
    "total_receipts",
    "marginal_gains",
    "simplified_impacts",
    "sketch_build",
    "sketch_gains",
    "sketch_rescore",
)


def sweep_count(counts: Mapping[str, int]) -> int:
    """Full-graph propagation sweeps in an evaluation-counter mapping."""
    return sum(counts.get(kind, 0) for kind in EVALUATION_KINDS)


def evaluation_counter(registry: MetricsRegistry = REGISTRY):
    """The ``fp_backend_evaluations_total`` family in ``registry``."""
    return registry.counter(
        "fp_backend_evaluations_total",
        "Propagation evaluations forwarded by instrumented backends.",
        labels=("kind", "backend"),
    )


def evaluation_histogram(registry: MetricsRegistry = REGISTRY):
    """The ``fp_backend_evaluation_seconds`` family in ``registry``."""
    return registry.histogram(
        "fp_backend_evaluation_seconds",
        "Latency of sweep-class backend evaluations (traced runs only).",
        labels=("kind", "backend"),
    )


class InstrumentedBackend:
    """A pass-through :class:`PropagationBackend` that counts and traces.

    Keeps a local ``counts`` dict, emits a span and a latency-histogram
    observation per sweep while the tracer is enabled, and flushes the
    ledger to the global metrics registry on :meth:`publish`.
    """

    def __init__(self, inner: PropagationBackend) -> None:
        self.inner = inner
        self.name = f"counting({inner.name})"
        self.counts: dict[str, int] = dict.fromkeys(EVALUATION_KINDS, 0)
        self._published: dict[str, int] = dict.fromkeys(EVALUATION_KINDS, 0)

    def reset(self) -> None:
        """Zero all counters (the harness resets between repeats)."""
        self.counts = dict.fromkeys(EVALUATION_KINDS, 0)
        self._published = dict.fromkeys(EVALUATION_KINDS, 0)

    def total_evaluations(self) -> int:
        """All evaluations of any kind, summed."""
        return sum(self.counts.values())

    def publish(self, registry: MetricsRegistry = REGISTRY) -> None:
        """Flush counts gathered since the last publish into ``registry``.

        Bulk, idempotent-per-delta: only the increments since the last
        :meth:`publish` (or :meth:`reset`) are added, so callers may
        publish as often as they like without double counting.
        """
        counter = evaluation_counter(registry)
        backend = self.inner.name
        for kind in EVALUATION_KINDS:
            delta = self.counts[kind] - self._published[kind]
            if delta:
                counter.inc(delta, kind=kind, backend=backend)
                self._published[kind] = self.counts[kind]

    # -- internal: the counted-and-maybe-traced sweep forwarder -----------

    def _sweep(self, kind: str, method, *args, **kwargs):
        self.counts[kind] += 1
        if not TRACER.enabled:
            return method(*args, **kwargs)
        backend = self.inner.name
        start = perf_counter()
        with TRACER.span(f"backend.{kind}", backend=backend):
            result = method(*args, **kwargs)
        evaluation_histogram().observe(
            perf_counter() - start, kind=kind, backend=backend
        )
        return result

    # -- PropagationBackend ------------------------------------------------

    def node_receipts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        items_per_source: int | Mapping[Node, int] = 1,
    ) -> dict[Node, int]:
        """Forward ``node_receipts`` (``Σ_s ψ_s``), counting one sweep."""
        return self._sweep(
            "node_receipts",
            self.inner.node_receipts,
            graph,
            filters,
            items_per_source=items_per_source,
        )

    def total_receipts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        items_per_source: int | Mapping[Node, int] = 1,
    ) -> int:
        """Forward ``total_receipts`` (``Φ(A, V)``), counting one sweep."""
        return self._sweep(
            "total_receipts",
            self.inner.total_receipts,
            graph,
            filters,
            items_per_source=items_per_source,
        )

    def marginal_gains(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
    ) -> dict[Node, int]:
        """Forward ``marginal_gains`` (``I(v | A)``), counting one sweep."""
        return self._sweep(
            "marginal_gains", self.inner.marginal_gains, graph, filters
        )

    def marginal_gains_ids(
        self,
        graph: CGraph,
        filter_ids: Iterable[int] = (),
    ):
        """Forward the id fast path — the same whole-graph sweep, so it
        lands on the same ``marginal_gains`` counter."""
        return self._sweep(
            "marginal_gains", self.inner.marginal_gains_ids, graph, filter_ids
        )

    def simplified_impacts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
    ) -> dict[Node, int]:
        """Forward ``simplified_impacts`` (``I'(v)``), counting one sweep."""
        return self._sweep(
            "simplified_impacts",
            self.inner.simplified_impacts,
            graph,
            filters,
        )

    def simplified_impacts_ids(
        self,
        graph: CGraph,
        filter_ids: Iterable[int] = (),
    ):
        """Forward the id fast path, counted as ``simplified_impacts``."""
        return self._sweep(
            "simplified_impacts",
            self.inner.simplified_impacts_ids,
            graph,
            filter_ids,
        )

    # -- propagation-model axis -------------------------------------------
    # Sampled evaluations batch the model's worlds into one call; each
    # call is one (T-fold) whole-graph pass, so it lands on the same
    # counter as its deterministic counterpart.

    def sampled_marginal_gains_ids(
        self,
        graph: CGraph,
        filter_ids: Iterable[Node] = (),
        *,
        model=None,
    ):
        """Forward the sampled gains batch, counted as ``marginal_gains``."""
        return self._sweep(
            "marginal_gains",
            self.inner.sampled_marginal_gains_ids,
            graph,
            filter_ids,
            model=model,
        )

    def sampled_simplified_impacts_ids(
        self,
        graph: CGraph,
        filter_ids: Iterable[Node] = (),
        *,
        model=None,
    ):
        """Forward the sampled ``I'`` batch, counted as ``simplified_impacts``."""
        return self._sweep(
            "simplified_impacts",
            self.inner.sampled_simplified_impacts_ids,
            graph,
            filter_ids,
            model=model,
        )

    def sampled_total_receipts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        model=None,
    ) -> int:
        """Forward the sampled ``Φ`` batch, counted as ``total_receipts``."""
        return self._sweep(
            "total_receipts",
            self.inner.sampled_total_receipts,
            graph,
            filters,
            model=model,
        )

    def expected_total_receipts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        model=None,
    ) -> float:
        """Forward the SAA ``Φ`` estimate, counted as ``total_receipts``."""
        return self._sweep(
            "total_receipts",
            self.inner.expected_total_receipts,
            graph,
            filters,
            model=model,
        )

    def expected_marginal_gains(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        model=None,
    ):
        """Forward the SAA gain estimate, counted as ``marginal_gains``."""
        return self._sweep(
            "marginal_gains",
            self.inner.expected_marginal_gains,
            graph,
            filters,
            model=model,
        )

    def warm(self, graph: CGraph) -> None:
        """Forward warm-up uncounted — preprocessing, not an evaluation."""
        self.inner.warm(graph)
