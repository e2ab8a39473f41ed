"""The observability layer: tracer, metrics registry, instrumentation.

Covers the :mod:`repro.obs` contract the rest of the stack leans on:
span nesting and timing, histogram bucket edges, exposition-format
validity, the disabled-path no-op guarantee, and the counter semantics
of ``InstrumentedBackend``.
"""

from __future__ import annotations

import json
import math
import re
import time

import pytest

from repro.backends.registry import get_backend
from repro.obs.instrument import (
    EVALUATION_KINDS,
    InstrumentedBackend,
    evaluation_counter,
    sweep_count,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    MetricsRegistry,
)
from repro.obs.trace import (
    TRACER,
    Tracer,
    chrome_trace,
    current_request_id,
    format_trace,
    set_request_id,
    span,
)


@pytest.fixture(autouse=True)
def _quiet_tracer():
    """Every test starts and ends with the tracer disabled and empty."""
    TRACER.disable()
    TRACER.clear()
    yield
    TRACER.disable()
    TRACER.clear()


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


def test_span_nesting_and_timing():
    TRACER.enable()
    with TRACER.trace(trace_id="t-nest") as trace:
        with span("outer", label="x") as outer:
            time.sleep(0.002)
            with span("inner.a"):
                time.sleep(0.002)
            with span("inner.b"):
                pass
    assert trace.trace_id == "t-nest"
    assert [s.name for s in trace.roots] == ["outer"]
    assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
    # Timing is monotonic: parents contain their children, offsets grow.
    a, b = outer.children
    assert outer.duration >= a.duration + b.duration
    assert a.start_offset >= outer.start_offset
    assert b.start_offset >= a.start_offset + a.duration
    assert trace.duration >= outer.duration
    assert TRACER.get("t-nest") is trace


def test_implicit_trace_from_root_span():
    TRACER.enable()
    with span("lonely"):
        pass
    trace = TRACER.last()
    assert trace is not None and trace.implicit
    assert [s.name for s in trace.roots] == ["lonely"]
    assert trace.duration >= trace.roots[0].duration


def test_span_attrs_and_exports():
    TRACER.enable()
    with TRACER.trace(trace_id="t-export", command="test") as trace:
        with span("work", k=3) as s:
            s.set("result", "ok")
    doc = trace.to_dict()
    assert doc["trace_id"] == "t-export"
    assert doc["spans"][0]["attrs"] == {"k": 3, "result": "ok"}

    tree = format_trace(trace)
    assert "t-export" in tree and "work" in tree and "k=3" in tree

    chrome = chrome_trace(trace)
    assert chrome["metadata"]["trace_id"] == "t-export"
    (event,) = chrome["traceEvents"]
    assert event["ph"] == "X" and event["name"] == "work"
    assert event["dur"] >= 0
    json.dumps(chrome)  # must be JSON-serializable as-is


def test_tracer_ring_buffer_evicts_oldest():
    tracer = Tracer(max_traces=2)
    tracer.enable()
    for i in range(3):
        with tracer.trace(trace_id=f"t-{i}"):
            pass
    assert tracer.get("t-0") is None
    assert [t.trace_id for t in tracer.traces()] == ["t-1", "t-2"]


def test_disabled_tracer_is_noop():
    assert not TRACER.enabled
    s1 = span("anything", big=1)
    s2 = span("else")
    assert s1 is s2  # the shared no-op object: no allocation per call
    with s1 as inside:
        inside.set("ignored", True)
    assert TRACER.last() is None


def test_exception_unwinds_spans():
    TRACER.enable()
    with pytest.raises(RuntimeError):
        with TRACER.trace(trace_id="t-boom") as trace:
            with span("outer"):
                with span("inner"):
                    raise RuntimeError("boom")
    assert TRACER.get("t-boom") is trace
    # A later trace still works — the thread state was restored.
    with TRACER.trace(trace_id="t-after") as after:
        with span("fine"):
            pass
    assert [s.name for s in after.roots] == ["fine"]


def test_request_id_context():
    assert current_request_id() is None
    set_request_id("req-1")
    assert current_request_id() == "req-1"
    set_request_id(None)
    assert current_request_id() is None


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def test_counter_semantics():
    reg = MetricsRegistry()
    c = reg.counter("t_total", "help", labels=("kind",))
    c.inc(kind="a")
    c.inc(2, kind="a")
    c.inc(kind="b")
    assert c.value(kind="a") == 3
    assert c.value(kind="b") == 1
    with pytest.raises(ValueError):
        c.inc(-1, kind="a")
    with pytest.raises(ValueError):
        c.inc(kind="a", extra="nope")
    c.set_total(10, kind="a")  # mirror-at-scrape overwrite
    assert c.value(kind="a") == 10


def test_histogram_bucket_edges():
    reg = MetricsRegistry()
    h = reg.histogram("t_seconds", "help", buckets=(0.1, 1.0, 10.0))
    # le is inclusive: a value exactly on an edge lands in that bucket.
    h.observe(0.1)
    h.observe(0.5)
    h.observe(1.0)
    h.observe(5.0)
    h.observe(100.0)  # beyond the last edge: +Inf only
    cumulative = h.bucket_counts()
    assert cumulative[0.1] == 1
    assert cumulative[1.0] == 3
    assert cumulative[10.0] == 4
    assert cumulative[math.inf] == 5
    assert h.count() == 5
    assert h.sum() == pytest.approx(106.6)


def test_default_buckets_cover_microseconds_to_seconds():
    assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
    assert DEFAULT_BUCKETS[-1] == pytest.approx(10 ** 1.5)
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


def test_registry_get_or_create_and_mismatch():
    reg = MetricsRegistry()
    c1 = reg.counter("t_total", "help", labels=("kind",))
    c2 = reg.counter("t_total", "other help", labels=("kind",))
    assert c1 is c2  # same family object, no coordination needed
    with pytest.raises(ValueError):
        reg.gauge("t_total")  # type mismatch
    with pytest.raises(ValueError):
        reg.counter("t_total", labels=("other",))  # label mismatch


EXPOSITION_LINE = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \S+)$"
)


def test_render_is_valid_exposition():
    reg = MetricsRegistry()
    reg.counter("t_total", "a counter", labels=("kind",)).inc(kind="x")
    reg.gauge("t_depth", "a gauge").set(7)
    reg.histogram("t_seconds", "a histogram", buckets=(1.0,)).observe(0.5)
    reg.counter("t_unused_total", "no samples: omitted entirely")
    text = reg.render()
    assert text.endswith("\n")
    for line in text.rstrip("\n").split("\n"):
        assert EXPOSITION_LINE.match(line), f"bad exposition line: {line!r}"
    assert '# TYPE t_total counter' in text
    assert 't_total{kind="x"} 1' in text
    assert "t_depth 7" in text
    # Histograms render cumulatively with the +Inf bucket == _count.
    assert 't_seconds_bucket{le="1"} 1' in text
    assert 't_seconds_bucket{le="+Inf"} 1' in text
    assert "t_seconds_sum 0.5" in text
    assert "t_seconds_count 1" in text
    assert "t_unused_total" not in text


def test_label_values_are_escaped():
    reg = MetricsRegistry()
    c = reg.counter("t_total", "", labels=("path",))
    c.inc(path='a"b\\c\nd')
    (sample,) = c.samples()
    assert sample == 't_total{path="a\\"b\\\\c\\nd"} 1'


# ----------------------------------------------------------------------
# InstrumentedBackend
# ----------------------------------------------------------------------


def test_instrumented_backend_counts_toy_run(fig1):
    backend = InstrumentedBackend(get_backend("python"))
    backend.marginal_gains(fig1)
    backend.marginal_gains_ids(fig1)  # id fast path: same counter
    backend.total_receipts(fig1)
    backend.warm(fig1)  # preprocessing: never counted
    assert backend.counts["marginal_gains"] == 2
    assert backend.counts["total_receipts"] == 1
    assert sweep_count(backend.counts) == 3
    assert backend.total_evaluations() == 3
    backend.reset()
    assert backend.total_evaluations() == 0


def test_instrumented_backend_matches_inner_results(fig1):
    inner = get_backend("python")
    wrapped = InstrumentedBackend(inner)
    assert wrapped.marginal_gains(fig1) == inner.marginal_gains(fig1)
    assert wrapped.total_receipts(fig1, ["z2"]) == inner.total_receipts(
        fig1, ["z2"]
    )


def test_publish_flushes_deltas_once(fig1):
    reg = MetricsRegistry()
    backend = InstrumentedBackend(get_backend("python"))
    backend.marginal_gains(fig1)
    backend.marginal_gains(fig1)
    backend.publish(reg)
    counter = evaluation_counter(reg)
    assert counter.value(kind="marginal_gains", backend="python") == 2
    backend.publish(reg)  # no new work: publish must not double count
    assert counter.value(kind="marginal_gains", backend="python") == 2
    backend.total_receipts(fig1)
    backend.publish(reg)
    assert counter.value(kind="total_receipts", backend="python") == 1


def test_no_spans_recorded_when_tracer_disabled(fig1):
    backend = InstrumentedBackend(get_backend("python"))
    backend.marginal_gains(fig1)
    assert TRACER.last() is None  # counted, but not traced
    TRACER.enable()
    with TRACER.trace(trace_id="t-sweeps") as trace:
        backend.marginal_gains(fig1)
        backend.total_receipts(fig1)
    names = [s.name for s in trace.roots]
    assert names == ["backend.marginal_gains", "backend.total_receipts"]


def test_toy_suite_counter_regression():
    """The bench counters that docs/benchmarks.md explains must hold."""
    from repro.bench.harness import run_suite
    from repro.bench.scenarios import get_suite

    records = run_suite(get_suite("toy", backends=("python",)))
    by_alg = {}
    for r in records:
        if r.scenario.dataset == "fig10":
            by_alg[r.scenario.algorithm] = r.evaluations
    # G_All: one marginal-gains sweep per placed filter and nothing else.
    assert sweep_count(by_alg["G_All"]) == 3
    assert by_alg["G_All"]["marginal_gains"] == 3
    assert set(by_alg["G_All"]) == set(EVALUATION_KINDS)


def test_sampling_world_cache_metrics():
    from repro.propagation.model import build_model
    from repro.propagation.sampling import get_worlds
    from tests.conftest import random_dag

    graph = random_dag(3)
    model = build_model("live-edge", edge_prob=0.5, trials=4, seed=11)
    counter = REGISTRY.counter(
        "fp_sampling_world_cache_total", labels=("outcome",)
    )
    miss0 = counter.value(outcome="miss")
    hit0 = counter.value(outcome="hit")
    get_worlds(graph, model)
    get_worlds(graph, model)  # second lookup hits the memo
    assert counter.value(outcome="miss") == miss0 + 1
    assert counter.value(outcome="hit") == hit0 + 1


# ----------------------------------------------------------------------
# CLI --trace / --profile
# ----------------------------------------------------------------------


def test_cli_place_trace_tree_sums_to_wall_clock(capsys):
    from repro.cli import main

    assert main([
        "place", "--dataset", "fig10", "-k", "3",
        "--backend", "python", "--trace",
    ]) == 0
    out = capsys.readouterr().out
    total = float(re.search(r"trace trace-\d+\s+\(([\d.]+) ms\)", out).group(1))
    phases = {
        name: float(ms)
        for name, ms in re.findall(r"─ (place\.\w+)\s+([\d.]+) ms", out)
    }
    assert set(phases) == {"place.load", "place.solve", "place.score"}
    assert sum(phases.values()) == pytest.approx(total, rel=0.10)


def test_cli_place_profile_writes_chrome_trace(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "run.trace.json"
    assert main([
        "place", "--dataset", "fig10", "-k", "2",
        "--backend", "python", "--profile", str(path),
    ]) == 0
    doc = json.loads(path.read_text())
    names = {event["name"] for event in doc["traceEvents"]}
    assert {"place.load", "place.solve", "place.score"} <= names
    assert all(event["ph"] == "X" for event in doc["traceEvents"])


def test_cli_trace_flag_does_not_leak_enabled_state(capsys):
    from repro.cli import main

    assert not TRACER.enabled
    main(["place", "--dataset", "fig10", "-k", "1",
          "--backend", "python", "--trace"])
    assert not TRACER.enabled


def test_metric_catalog_matches_registered_families():
    """docs/observability.md lists exactly the ``fp_*`` families in src/."""
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    registered = {
        name
        for path in (root / "src" / "repro").rglob("*.py")
        for name in re.findall(r'"(fp_[a-z0-9_]+)"', path.read_text())
    }
    catalog_text = (root / "docs" / "observability.md").read_text()
    cataloged = set(re.findall(r"^\| `(fp_[a-z0-9_]+)` \|", catalog_text, re.M))
    assert registered, "no fp_* families found under src/"
    assert cataloged == registered, (
        f"missing from the catalog: {sorted(registered - cataloged)}; "
        f"cataloged but never registered: {sorted(cataloged - registered)}"
    )
