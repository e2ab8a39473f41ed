"""Shared pieces of the benchmark: paths, spans, statistics, reports.

The benchmark measures the program from outside.  It calls the public
functions of each layer and, in a traced run, wraps those calls in the
spans recorded here.  Spans live in memory and are written out once, at
the end of the run; an untraced run gets a tracer whose ``span`` is a
shared no-op, so the end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: The default seed: the seed the stored references were made with.
DEFAULT_SEED = 0

#: Percentiles tried for a tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def use_source_tree() -> None:
    """Import the program from this checkout's ``src``, never from a
    compiled-bytecode cache: every run then pays the same import cost."""
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(OUT / "no-pycache")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "no-pycache")
    return env


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        stack = tracer._stack
        self._record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": stack[-1] if stack else None,
        }

    def __enter__(self):
        tracer = self._tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self._record)
        self._record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._record["end"] = time.perf_counter()
        self._tracer._stack.pop()


class Tracer:
    """In-memory spans (name, start, end, parent index) on one thread.

    Only the benchmark's main thread opens spans; the HTTP load threads
    record plain latencies instead.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name)

    def adopt(self, spans: list[dict]) -> None:
        """Append spans recorded in a child process, re-indexing parents."""
        base = len(self.spans)
        for record in spans:
            if record["parent"] is not None:
                record["parent"] += base
            self.spans.append(record)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}))


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def check_nesting(spans: list[dict]) -> list[str]:
    """Problems that would make self times not sum to their root's wall:
    a child outside its parent's interval or overlapping a sibling."""
    problems = []
    last_end: dict[int | None, float] = {}
    for i, s in enumerate(spans):
        p = s["parent"]
        if s["end"] < s["start"]:
            problems.append(f"span {s['name']} ends before it starts")
        if p is not None:
            parent = spans[p]
            if s["start"] < parent["start"] or s["end"] > parent["end"]:
                problems.append(f"span {s['name']} escapes {parent['name']}")
            if s["start"] < last_end.get(p, -math.inf):
                problems.append(f"span {s['name']} overlaps a sibling")
            last_end[p] = s["end"]
    return problems


class LayerSplit:
    """Per-layer self times over roots of one kind (iterations or set-up).

    ``roots`` are the indices of root spans.  For every root, the self
    times of its descendants, grouped by span name, plus the root's own
    self time (``unattributed``) sum to the root's wall.
    """

    def __init__(self, spans: list[dict], roots: list[int]) -> None:
        own = self_times(spans)
        root_of = list(range(len(spans)))
        for i, s in enumerate(spans):
            if s["parent"] is not None:
                root_of[i] = root_of[s["parent"]]
        self.roots = roots
        self.walls = [spans[r]["end"] - spans[r]["start"] for r in roots]
        self.unattributed = [own[r] for r in roots]
        self.self_by_layer: list[dict[str, float]] = []
        self.total_by_layer: list[dict[str, float]] = []
        self.calls_by_layer: list[dict[str, list[float]]] = []
        index = {r: j for j, r in enumerate(roots)}
        for _ in roots:
            self.self_by_layer.append({})
            self.total_by_layer.append({})
            self.calls_by_layer.append({})
        for i, s in enumerate(spans):
            j = index.get(root_of[i])
            if j is None or i == root_of[i]:
                continue
            name = s["name"]
            layers = self.self_by_layer[j]
            layers[name] = layers.get(name, 0.0) + own[i]
            totals = self.total_by_layer[j]
            totals[name] = totals.get(name, 0.0) + (s["end"] - s["start"])
            self.calls_by_layer[j].setdefault(name, []).append(
                s["end"] - s["start"]
            )

    def sum_errors(self) -> list[float]:
        """|Σ layer self times + unattributed − wall| for every root."""
        return [
            abs(sum(layers.values()) + un - wall)
            for layers, un, wall in zip(
                self.self_by_layer, self.unattributed, self.walls
            )
        ]

    def mean_self(self, name: str) -> float:
        return _mean([layers.get(name, 0.0) for layers in self.self_by_layer])

    def mean_total(self, name: str) -> float:
        return _mean([t.get(name, 0.0) for t in self.total_by_layer])

    def sum_self(self, name: str) -> float:
        return sum(layers.get(name, 0.0) for layers in self.self_by_layer)

    def calls(self, name: str) -> list[float]:
        return [d for c in self.calls_by_layer for d in c.get(name, [])]

    def count(self, name: str) -> int:
        return len(self.calls(name))


def roots_named(spans: list[dict], name: str) -> list[int]:
    return [
        i for i, s in enumerate(spans)
        if s["parent"] is None and s["name"] == name
    ]


# ----------------------------------------------------------------------
# The pass-through backend
# ----------------------------------------------------------------------

#: Backend methods that are not propagation evaluations.
_NOT_SWEEPS = frozenset({"warm", "plan_for"})


class TimedBackend:
    """Forwards every call to a propagation backend, timing evaluations.

    Installed with ``use_backend`` in traced runs only.  Every public
    method call except ``warm`` and ``plan_for`` opens a
    ``backends.sweep`` span, or a ``backends.sampled_sweep`` span for the
    sample-average ``sampled_*`` and ``expected_*`` entry points.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name: str):
        value = getattr(self._inner, name)
        if name.startswith("_") or name in _NOT_SWEEPS or not callable(value):
            return value
        sampled = name.startswith(("sampled_", "expected_"))
        layer = "backends.sampled_sweep" if sampled else "backends.sweep"
        tracer = self._tracer

        def timed(*args, **kwargs):
            with tracer.span(layer):
                return value(*args, **kwargs)

        return timed


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def median(values: list[float]) -> float:
    return statistics.median(values)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        beyond = n - max(1, math.ceil(p / 100.0 * n))
        if beyond >= 10:
            return f"p{p:g}", percentile(values, p)
    return None


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a live process, in MB (Linux ``/proc``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


class Report:
    """What one workload run measured and checked.

    ``metrics`` holds the figures the last output line carries: the
    end-to-end slots in an untraced run, the per-layer metrics in a
    traced one.  ``named`` holds every figure under the name it has in
    the benchmark's documentation, with its unit and sample count, for
    the table printed above that line.
    """

    def __init__(self, workload: str, seed: int, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.named: list[tuple[str, float, str, str]] = []
        self.end_to_end: dict[str, tuple[float, str]] = {}
        self.per_layer: dict[str, tuple[float, str]] = {}

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def name(self, name: str, value: float, unit: str, samples: str) -> None:
        self.named.append((name, value, unit, samples))

    def tail_of(self, stem: str, values: list[float], unit: str) -> None:
        """Name the median and the tail percentile of ``values``."""
        n = len(values)
        if not n:
            return
        self.name(f"{stem}_p50_{unit}", median(values), unit, f"n={n}")
        found = tail(values)
        if found is not None:
            label, value = found
            self.name(f"{stem}_{label}_{unit}", value, unit, f"n={n}")

    @property
    def correct(self) -> bool:
        return not self.problems

    def result(self) -> dict:
        source = self.per_layer if self.traced else self.end_to_end
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in source.items()
            },
        }

    def render(self) -> str:
        mode = "traced" if self.traced else "untraced"
        lines = [f"# {self.workload}  seed={self.seed}  ({mode})"]
        width = max([len(n) for n, *_ in self.named] + [8])
        for name, value, unit, samples in self.named:
            lines.append(f"  {name:<{width}}  {value:>14.6g} {unit:<6} {samples}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        for problem in self.problems:
            lines.append(f"  CHECK FAILED: {problem}")
        return "\n".join(lines)
