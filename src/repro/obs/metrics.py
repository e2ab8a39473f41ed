"""Counters, gauges, and log-bucketed histograms — the stack's one ledger.

A :class:`MetricsRegistry` holds named metric families; every layer of
the stack increments the same process-global :data:`REGISTRY` so one
``GET /metrics`` scrape (or one :meth:`MetricsRegistry.render` call)
shows backend sweeps, reachability warms, sampled-world builds, cache
hits, job states, and graph-store residency side by side.

Zero dependencies and deliberately small:

* **Counters** only go up.  ``inc()`` is the hot-path operation;
  ``set_total()`` exists for the *mirror-at-scrape* pattern, where a
  component already keeps its own monotonic tallies (the placement
  cache's hit/miss counts, the store's registration count) and the
  registry copies them at render time instead of double-counting live.
* **Gauges** go anywhere — residency, queue depths, uptime.
* **Histograms** use fixed log-scale buckets (half-decade steps from
  1 µs to ~31.6 s by default) so latency distributions need no
  per-metric tuning, and render in Prometheus cumulative
  ``_bucket``/``_sum``/``_count`` form.

Families are **get-or-create**: asking for an existing name with the
same type and label names returns the same object, so modules can
declare their metrics at import or call time without coordinating, and
multiple service apps in one process (tests!) share one ledger.  A name
re-used with a different type or label set raises — that is always a
bug.

:meth:`MetricsRegistry.render` emits the Prometheus text exposition
format, version 0.0.4: ``# HELP`` / ``# TYPE`` headers, one
``name{label="value"} value`` sample per line.  Only families with at
least one live sample are emitted — Prometheus treats an unobserved
family as nonexistent, not zero.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any

#: Half-decade log-scale bucket edges: 1e-6 .. 10**1.5 seconds (1 µs to
#: ~31.6 s), the span between "free" and "the request timed out".
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    10.0 ** (e / 2.0) for e in range(-12, 4)
)

_LABEL_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n"}
)

_HELP_ESCAPES = str.maketrans({"\\": "\\\\", "\n": "\\n"})


def _format_value(value: float) -> str:
    """A sample value in exposition form (integers without the ``.0``)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _format_labels(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{str(value).translate(_LABEL_ESCAPES)}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class _Metric:
    """Shared bookkeeping for one metric family (name, help, labels)."""

    kind = "untyped"

    def __init__(
        self, name: str, help_text: str, label_names: tuple[str, ...]
    ) -> None:
        self.name = name
        self.help_text = help_text
        self.label_names = label_names
        self._lock = threading.Lock()

    def _key(self, labels: dict[str, Any]) -> tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def header_lines(self) -> list[str]:
        lines = []
        if self.help_text:
            escaped = self.help_text.translate(_HELP_ESCAPES)
            lines.append(f"# HELP {self.name} {escaped}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class Counter(_Metric):
    """A monotonically increasing count, optionally labelled."""

    kind = "counter"

    def __init__(
        self, name: str, help_text: str, label_names: tuple[str, ...]
    ) -> None:
        super().__init__(name, help_text, label_names)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the labelled sample."""
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def set_total(self, value: float, **labels: Any) -> None:
        """Overwrite the labelled sample with an externally-kept total.

        For mirroring components that maintain their own monotonic
        counters (cache hits, store registrations) at scrape time.
        """
        key = self._key(labels)
        with self._lock:
            self._values[key] = value

    def value(self, **labels: Any) -> float:
        """The current labelled sample (0 if never incremented)."""
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0)

    def samples(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            f"{self.name}{_format_labels(self.label_names, key)}"
            f" {_format_value(value)}"
            for key, value in items
        ]


class Gauge(_Metric):
    """A value that can go up and down (residency, depth, uptime)."""

    kind = "gauge"

    def __init__(
        self, name: str, help_text: str, label_names: tuple[str, ...]
    ) -> None:
        super().__init__(name, help_text, label_names)
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = value

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0)

    def samples(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            f"{self.name}{_format_labels(self.label_names, key)}"
            f" {_format_value(value)}"
            for key, value in items
        ]


class Histogram(_Metric):
    """A distribution over fixed buckets (log-scale by default).

    Rendered in Prometheus cumulative form: one ``_bucket{le="..."}``
    sample per edge plus ``le="+Inf"``, then ``_sum`` and ``_count``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, label_names)
        edges = tuple(sorted(buckets))
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        self.buckets = edges
        # Per label-set: per-edge counts (+1 slot for > last edge),
        # running sum, total count.
        self._counts: dict[tuple[str, ...], list[int]] = {}
        self._sums: dict[tuple[str, ...], float] = {}
        self._totals: dict[tuple[str, ...], int] = {}

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation (``value <= edge`` lands in a bucket)."""
        key = self._key(labels)
        index = bisect_left(self.buckets, value)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * (len(self.buckets) + 1)
            counts[index] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: Any) -> int:
        """Total observations for the labelled sample."""
        key = self._key(labels)
        with self._lock:
            return self._totals.get(key, 0)

    def sum(self, **labels: Any) -> float:
        """Sum of all observed values for the labelled sample."""
        key = self._key(labels)
        with self._lock:
            return self._sums.get(key, 0.0)

    def bucket_counts(self, **labels: Any) -> dict[float, int]:
        """Cumulative per-edge counts (including ``inf``), for tests."""
        key = self._key(labels)
        with self._lock:
            counts = list(self._counts.get(key, []))
        if not counts:
            counts = [0] * (len(self.buckets) + 1)
        cumulative: dict[float, int] = {}
        running = 0
        for edge, n in zip(self.buckets, counts):
            running += n
            cumulative[edge] = running
        cumulative[math.inf] = running + counts[-1]
        return cumulative

    def samples(self) -> list[str]:
        with self._lock:
            keys = sorted(self._counts)
            snapshot = {
                key: (
                    list(self._counts[key]),
                    self._sums.get(key, 0.0),
                    self._totals.get(key, 0),
                )
                for key in keys
            }
        lines: list[str] = []
        bucket_label_names = self.label_names + ("le",)
        for key, (counts, total_sum, total) in snapshot.items():
            running = 0
            for edge, n in zip(self.buckets, counts):
                running += n
                labels = _format_labels(
                    bucket_label_names, key + (_format_value(edge),)
                )
                lines.append(f"{self.name}_bucket{labels} {running}")
            labels = _format_labels(bucket_label_names, key + ("+Inf",))
            lines.append(f"{self.name}_bucket{labels} {total}")
            plain = _format_labels(self.label_names, key)
            lines.append(f"{self.name}_sum{plain} {_format_value(total_sum)}")
            lines.append(f"{self.name}_count{plain} {total}")
        return lines


class MetricsRegistry:
    """A named collection of metric families with get-or-create access."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(
        self,
        cls: type,
        name: str,
        help_text: str,
        labels: tuple[str, ...],
        **kwargs: Any,
    ) -> Any:
        label_names = tuple(labels)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                if existing.label_names != label_names:
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.label_names}, not {label_names}"
                    )
                return existing
            metric = cls(name, help_text, label_names, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help_text: str = "", labels: tuple[str, ...] = ()
    ) -> Counter:
        """Get or create a :class:`Counter` family."""
        return self._get_or_create(Counter, name, help_text, labels)

    def gauge(
        self, name: str, help_text: str = "", labels: tuple[str, ...] = ()
    ) -> Gauge:
        """Get or create a :class:`Gauge` family."""
        return self._get_or_create(Gauge, name, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] | None = None,
    ) -> Histogram:
        """Get or create a :class:`Histogram` family."""
        return self._get_or_create(
            Histogram,
            name,
            help_text,
            labels,
            buckets=tuple(buckets) if buckets is not None else DEFAULT_BUCKETS,
        )

    def get(self, name: str) -> _Metric | None:
        """The family registered under ``name``, or None."""
        with self._lock:
            return self._metrics.get(name)

    def families(self) -> list[str]:
        """Registered family names, sorted."""
        with self._lock:
            return sorted(self._metrics)

    def render(self) -> str:
        """The Prometheus text exposition (version 0.0.4) of the ledger.

        Families with no live samples are omitted entirely.
        """
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: list[str] = []
        for metric in metrics:
            samples = metric.samples()
            if not samples:
                continue
            lines.extend(metric.header_lines())
            lines.extend(samples)
        return "\n".join(lines) + "\n" if lines else ""

    def reset(self) -> None:
        """Drop every family (tests only — live code never unregisters)."""
        with self._lock:
            self._metrics.clear()


#: The process-global registry every instrumented layer reports to.
REGISTRY = MetricsRegistry()
