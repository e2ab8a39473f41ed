"""Observability: tracing spans, metrics, and backend instrumentation.

Three zero-dependency modules, one per concern:

* :mod:`repro.obs.trace` — nested spans on monotonic clocks with a
  bounded ring buffer of finished traces; Chrome ``trace_event`` and
  tree-text exports; per-thread request-id context.
* :mod:`repro.obs.metrics` — counters / gauges / log-bucketed
  histograms behind a get-or-create registry; Prometheus text
  exposition via :meth:`~repro.obs.metrics.MetricsRegistry.render`.
* :mod:`repro.obs.instrument` — :class:`InstrumentedBackend`, the
  counting/tracing propagation-backend wrapper shared by the bench
  harness and the service.

Everything is near-zero-cost while tracing is disabled (the default):
:func:`span` is one attribute check returning a shared no-op object.
"""

from repro.obs.instrument import (
    EVALUATION_KINDS,
    InstrumentedBackend,
    sweep_count,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    TRACER,
    Span,
    Trace,
    Tracer,
    chrome_trace,
    current_request_id,
    format_trace,
    set_request_id,
    span,
)

__all__ = [
    "EVALUATION_KINDS",
    "InstrumentedBackend",
    "sweep_count",
    "DEFAULT_BUCKETS",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TRACER",
    "Span",
    "Trace",
    "Tracer",
    "chrome_trace",
    "current_request_id",
    "format_trace",
    "set_request_id",
    "span",
]
