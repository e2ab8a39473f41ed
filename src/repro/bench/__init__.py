"""Benchmark harness: scenario matrices, instrumentation, trajectory files.

The subsystem that keeps the performance story honest across PRs:

* :mod:`repro.bench.scenarios` — the scenario matrix
  (dataset × algorithm × k × backend) and the built-in suites
  (``toy``, ``default``, ``ablation``, ``service``, ...).
* :mod:`repro.bench.harness` — graph caching, wall-clock timing,
  placement scoring; evaluation counts come from
  :class:`repro.obs.instrument.InstrumentedBackend`.
* :mod:`repro.bench.results` — the versioned ``BENCH.json`` document
  (write + validate + load).
* :mod:`repro.bench.compare` — the regression comparator between two
  ``BENCH.json`` files (perf ratios and deterministic-result drift).

CLI entry point: ``filter-placement bench`` (see :mod:`repro.cli`).
"""

from repro.bench.compare import (
    ComparisonReport,
    compare_documents,
    format_comparison,
    summarize_speedups,
)
from repro.bench.harness import render_records, run_scenario, run_suite
from repro.bench.results import (
    SCHEMA_VERSION,
    BenchRecord,
    build_document,
    load_bench_json,
    validate_document,
    write_bench_json,
    write_document,
)
from repro.bench.scenarios import (
    SUITE_NAMES,
    BenchScenario,
    ablation_suite,
    default_suite,
    get_suite,
    toy_suite,
)

__all__ = [
    "BenchScenario",
    "BenchRecord",
    "ComparisonReport",
    "SCHEMA_VERSION",
    "SUITE_NAMES",
    "ablation_suite",
    "build_document",
    "compare_documents",
    "default_suite",
    "format_comparison",
    "get_suite",
    "load_bench_json",
    "render_records",
    "run_scenario",
    "run_suite",
    "summarize_speedups",
    "toy_suite",
    "validate_document",
    "write_bench_json",
    "write_document",
]
