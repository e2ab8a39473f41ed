"""Nested-span tracing on monotonic clocks — the stack's one stopwatch.

A *span* is one timed region with a name, optional attributes, and
children; a *trace* is a tree of spans under one ``trace_id``.  The
global :data:`TRACER` collects finished traces in a bounded in-memory
ring buffer, addressable by id — the service keys job traces by job id
so ``GET /traces/{job_id}`` can serve the solve's span tree after the
fact, and the CLI's ``--trace`` flag prints the tree of the run it just
timed.

Design constraints, in priority order:

* **Near-zero cost when disabled.**  Tracing is off by default; the
  module-level :func:`span` helper checks one attribute and returns a
  shared no-op context manager, so an instrumented call site costs a
  function call and an attribute read — it must never move a benchmark
  number or perturb deterministic results.
* **Monotonic clocks.**  Durations come from ``time.perf_counter``;
  wall-clock (``time.time``) is recorded once per trace purely for
  display, never for arithmetic.
* **Thread-local context.**  The active span stack lives in a
  ``threading.local`` — concurrent service requests and worker threads
  trace independently and never interleave each other's trees.  A trace
  opened in one thread does not leak into another; cross-thread
  correlation travels by *id* (the job id, the request id), not by
  shared mutable context.

Two export shapes per trace: a human-readable tree (:func:`format_trace`)
and Chrome ``trace_event`` JSON (:func:`chrome_trace`) loadable in
``chrome://tracing`` / Perfetto.

The module also owns the per-thread **request-id context**
(:func:`set_request_id` / :func:`current_request_id`): the HTTP layer
binds the ``X-Request-Id`` of the request being served, and everything
downstream — access logs, job records, trace attributes — reads it back
without plumbing an argument through every signature.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from typing import Any

#: Finished traces retained in the ring buffer (oldest evicted first).
DEFAULT_MAX_TRACES = 256


class Span:
    """One timed region: name, offsets, attributes, children."""

    __slots__ = (
        "name",
        "attrs",
        "children",
        "start_offset",
        "duration",
        "thread_id",
        "_start",
    )

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.start_offset = 0.0  # seconds since trace start
        self.duration = 0.0
        self.thread_id = threading.get_ident()
        self._start = 0.0  # perf_counter at entry

    def set(self, key: str, value: Any) -> None:
        """Attach an attribute to the span (e.g. a counter total)."""
        self.attrs[key] = value

    def to_dict(self) -> dict[str, Any]:
        """The span subtree as JSON-compatible nested dicts."""
        doc: dict[str, Any] = {
            "name": self.name,
            "start_offset_seconds": round(self.start_offset, 9),
            "duration_seconds": round(self.duration, 9),
        }
        if self.attrs:
            doc["attrs"] = dict(self.attrs)
        if self.children:
            doc["children"] = [c.to_dict() for c in self.children]
        return doc


class Trace:
    """A finished (or in-flight) tree of spans under one id."""

    __slots__ = (
        "trace_id",
        "attrs",
        "roots",
        "started_unix",
        "duration",
        "_start",
        "implicit",
    )

    def __init__(
        self,
        trace_id: str,
        attrs: dict[str, Any],
        *,
        implicit: bool = False,
    ) -> None:
        self.trace_id = trace_id
        self.attrs = attrs
        self.roots: list[Span] = []
        self.started_unix = time.time()
        self.duration = 0.0
        self._start = time.perf_counter()
        # Implicit traces are opened by a root-level span() with no
        # surrounding trace() and finalized when that span exits.
        self.implicit = implicit

    def to_dict(self) -> dict[str, Any]:
        """The whole trace as a JSON-compatible dict (the /traces shape)."""
        doc: dict[str, Any] = {
            "trace_id": self.trace_id,
            "started_unix": round(self.started_unix, 6),
            "duration_seconds": round(self.duration, 9),
            "spans": [root.to_dict() for root in self.roots],
        }
        if self.attrs:
            doc["attrs"] = dict(self.attrs)
        return doc


class _SpanContext:
    """Context manager entering one live span on the current thread."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, *exc_info: Any) -> None:
        self._tracer._pop(self._span)


class _NoopSpan:
    """The shared disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def set(self, key: str, value: Any) -> None:
        return None


_NOOP = _NoopSpan()

_trace_counter = itertools.count(1)


class _TraceContext:
    """Context manager opening an explicit trace on the current thread."""

    __slots__ = ("_tracer", "_trace_id", "_attrs", "_trace", "_prev")

    def __init__(
        self, tracer: "Tracer", trace_id: str | None, attrs: dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self._trace_id = trace_id
        self._attrs = attrs
        self._trace: Trace | None = None
        self._prev: tuple[Trace | None, list[Span]] | None = None

    def __enter__(self) -> Trace:
        state = self._tracer._state()
        self._prev = (state.trace, state.stack)
        trace_id = self._trace_id or f"trace-{next(_trace_counter):06d}"
        self._trace = Trace(trace_id, self._attrs)
        state.trace = self._trace
        state.stack = []
        return self._trace

    def __exit__(self, *exc_info: Any) -> None:
        assert self._trace is not None and self._prev is not None
        state = self._tracer._state()
        self._trace.duration = time.perf_counter() - self._trace._start
        state.trace, state.stack = self._prev
        self._tracer._store(self._trace)


class _ThreadState(threading.local):
    """Per-thread tracing context: the open trace and its span stack."""

    def __init__(self) -> None:
        self.trace: Trace | None = None
        self.stack: list[Span] = []


class Tracer:
    """Span collector with a bounded ring buffer of finished traces.

    Disabled by default: :meth:`enable` turns span collection on
    globally (the CLI's ``--trace``/``--profile`` flags and the service
    do this).  All public reads are safe whether or not tracing is
    enabled.
    """

    def __init__(self, *, max_traces: int = DEFAULT_MAX_TRACES) -> None:
        self.enabled = False
        self.max_traces = max_traces
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._finished: OrderedDict[str, Trace] = OrderedDict()

    # -- control -------------------------------------------------------

    def enable(self) -> None:
        """Start collecting spans (idempotent)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop collecting spans; already-finished traces remain readable."""
        self.enabled = False

    def clear(self) -> None:
        """Drop every finished trace (tests and long-lived services)."""
        with self._lock:
            self._finished.clear()

    # -- span / trace entry points -------------------------------------

    def span(self, name: str, **attrs: Any) -> "_SpanContext | _NoopSpan":
        """A context manager timing one region under the current trace.

        With tracing disabled this returns the shared no-op span.  With
        no surrounding :meth:`trace`, the span opens an *implicit* trace
        that is finalized (and stored) when this root span exits.
        """
        if not self.enabled:
            return _NOOP
        return _SpanContext(self, Span(name, attrs))

    def trace(
        self, trace_id: str | None = None, **attrs: Any
    ) -> "_TraceContext | _NoopSpan":
        """A context manager grouping spans under one stored trace."""
        if not self.enabled:
            return _NOOP
        return _TraceContext(self, trace_id, attrs)

    # -- reads ---------------------------------------------------------

    def get(self, trace_id: str) -> Trace | None:
        """The finished trace stored under ``trace_id``, or None."""
        with self._lock:
            return self._finished.get(trace_id)

    def last(self) -> Trace | None:
        """The most recently finished trace, or None."""
        with self._lock:
            if not self._finished:
                return None
            return next(reversed(self._finished.values()))

    def traces(self) -> list[Trace]:
        """All retained traces, oldest first."""
        with self._lock:
            return list(self._finished.values())

    # -- internals -----------------------------------------------------

    def _state(self) -> _ThreadState:
        return self._local

    def _push(self, span: Span) -> None:
        state = self._state()
        if state.trace is None:
            # Root-level span with no explicit trace: open an implicit
            # one so CLI runs need no trace() bookkeeping of their own.
            state.trace = Trace(
                f"trace-{next(_trace_counter):06d}", {}, implicit=True
            )
            state.stack = []
        span._start = time.perf_counter()
        span.start_offset = span._start - state.trace._start
        if state.stack:
            state.stack[-1].children.append(span)
        else:
            state.trace.roots.append(span)
        state.stack.append(span)

    def _pop(self, span: Span) -> None:
        span.duration = time.perf_counter() - span._start
        state = self._state()
        # Tolerate mismatched exits (an exception unwinding through
        # several spans): pop down to and including this span.
        while state.stack:
            top = state.stack.pop()
            if top is span:
                break
        if not state.stack and state.trace is not None and state.trace.implicit:
            trace = state.trace
            trace.duration = time.perf_counter() - trace._start
            state.trace = None
            self._store(trace)

    def _store(self, trace: Trace) -> None:
        with self._lock:
            self._finished[trace.trace_id] = trace
            self._finished.move_to_end(trace.trace_id)
            while len(self._finished) > self.max_traces:
                self._finished.popitem(last=False)


#: The process-global tracer every instrumented layer reports to.
TRACER = Tracer()


def span(name: str, **attrs: Any) -> "_SpanContext | _NoopSpan":
    """``TRACER.span`` with the module-level fast path.

    The one call sites should use: a single attribute check when tracing
    is disabled, so instrumentation can sit on warm paths without
    showing up in benchmarks.
    """
    tracer = TRACER
    if not tracer.enabled:
        return _NOOP
    return _SpanContext(tracer, Span(name, attrs))


# ----------------------------------------------------------------------
# Request-id context
# ----------------------------------------------------------------------

_request_local = threading.local()


def set_request_id(request_id: str | None) -> None:
    """Bind (or with None, clear) the current thread's request id."""
    _request_local.request_id = request_id


def current_request_id() -> str | None:
    """The request id bound to this thread, or None outside a request."""
    return getattr(_request_local, "request_id", None)


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------


def format_trace(trace: Trace) -> str:
    """The trace as a human-readable tree with millisecond durations."""
    lines = [f"trace {trace.trace_id}  ({trace.duration * 1e3:.2f} ms)"]
    for key, value in sorted(trace.attrs.items()):
        lines.append(f"  {key}: {value}")

    def walk(span: Span, prefix: str, is_last: bool) -> None:
        branch = "└─" if is_last else "├─"
        attrs = ""
        if span.attrs:
            attrs = "  " + " ".join(
                f"{k}={v}" for k, v in sorted(span.attrs.items())
            )
        lines.append(
            f"{prefix}{branch} {span.name:<24} "
            f"{span.duration * 1e3:10.3f} ms{attrs}"
        )
        child_prefix = prefix + ("   " if is_last else "│  ")
        for i, child in enumerate(span.children):
            walk(child, child_prefix, i == len(span.children) - 1)

    for i, root in enumerate(trace.roots):
        walk(root, "", i == len(trace.roots) - 1)
    return "\n".join(lines)


def chrome_trace(trace: Trace) -> dict[str, Any]:
    """The trace in Chrome ``trace_event`` JSON (complete ``"X"`` events).

    Load the dumped JSON in ``chrome://tracing`` or Perfetto;
    timestamps are microseconds relative to the trace start.
    """
    events: list[dict[str, Any]] = []

    def walk(span: Span) -> None:
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": round(span.start_offset * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1,
                "tid": span.thread_id,
                "args": dict(span.attrs),
            }
        )
        for child in span.children:
            walk(child)

    for root in trace.roots:
        walk(root)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {
            "trace_id": trace.trace_id,
            "started_unix": trace.started_unix,
            **trace.attrs,
        },
    }
