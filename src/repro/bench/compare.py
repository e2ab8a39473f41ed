"""Regression comparison between two ``BENCH.json`` documents.

Cells are matched by scenario key.  Two kinds of drift are reported:

* **Performance** — the seconds ratio ``current / prior``.  A cell whose
  ratio exceeds the regression threshold is flagged; machine noise on
  sub-millisecond cells is ignored via ``min_seconds``.
* **Results** — for deterministic algorithms the chosen filter sequence
  must be identical run-to-run; any difference is flagged regardless of
  timing (a correctness, not a speed, signal).

Typical use::

    filter-placement bench --suite default --out BENCH.json \
        --compare BENCH.prior.json --fail-on-regression 1.5
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.core.registry import DETERMINISTIC_ALGORITHM_NAMES

#: Cells faster than this are too noisy to call a regression on.
DEFAULT_MIN_SECONDS = 1e-3


@dataclass(frozen=True)
class CellComparison:
    """One matched scenario cell, prior vs current."""

    key: str
    algorithm: str
    prior_seconds: float
    current_seconds: float
    filters_changed: bool

    @property
    def ratio(self) -> float:
        """``current / prior`` wall-clock ratio (inf when prior was 0)."""
        if self.prior_seconds <= 0:
            return float("inf") if self.current_seconds > 0 else 1.0
        return self.current_seconds / self.prior_seconds


@dataclass
class ComparisonReport:
    """Outcome of diffing a current document against a prior one."""

    cells: list[CellComparison] = field(default_factory=list)
    regressions: list[CellComparison] = field(default_factory=list)
    result_drift: list[CellComparison] = field(default_factory=list)
    only_in_prior: list[str] = field(default_factory=list)
    only_in_current: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing regressed and no deterministic result moved."""
        return not self.regressions and not self.result_drift


def compare_documents(
    prior: dict[str, Any],
    current: dict[str, Any],
    *,
    regression_ratio: float = 1.5,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> ComparisonReport:
    """Diff two validated bench documents."""
    prior_rows = {row["key"]: row for row in prior["results"]}
    current_rows = {row["key"]: row for row in current["results"]}
    report = ComparisonReport(
        only_in_prior=sorted(set(prior_rows) - set(current_rows)),
        only_in_current=sorted(set(current_rows) - set(prior_rows)),
    )
    for key in sorted(set(prior_rows) & set(current_rows)):
        p, c = prior_rows[key], current_rows[key]
        deterministic = c["algorithm"] in DETERMINISTIC_ALGORITHM_NAMES
        cell = CellComparison(
            key=key,
            algorithm=c["algorithm"],
            prior_seconds=float(p["seconds"]),
            current_seconds=float(c["seconds"]),
            filters_changed=deterministic
            and list(p["filters"]) != list(c["filters"]),
        )
        report.cells.append(cell)
        if cell.filters_changed:
            report.result_drift.append(cell)
        slow_enough = max(cell.prior_seconds, cell.current_seconds) >= min_seconds
        if slow_enough and cell.ratio > regression_ratio:
            report.regressions.append(cell)
    return report


def format_comparison(report: ComparisonReport) -> str:
    """Human-readable comparison summary (CLI output)."""
    from repro.analysis.report import format_table

    lines: list[str] = []
    if report.cells:
        rows = [
            [
                cell.key,
                f"{cell.prior_seconds * 1e3:.1f}",
                f"{cell.current_seconds * 1e3:.1f}",
                f"{cell.ratio:.2f}x",
                "CHANGED" if cell.filters_changed else "",
            ]
            for cell in report.cells
        ]
        lines.append(
            format_table(
                ["scenario", "prior ms", "current ms", "ratio", "filters"],
                rows,
            )
        )
    else:
        lines.append("(no overlapping scenarios)")
    if report.only_in_prior:
        lines.append(f"dropped cells: {', '.join(report.only_in_prior)}")
    if report.only_in_current:
        lines.append(f"new cells: {', '.join(report.only_in_current)}")
    if report.result_drift:
        lines.append(
            f"RESULT DRIFT in {len(report.result_drift)} deterministic "
            "cell(s) — filter sets changed"
        )
    if report.regressions:
        worst = max(report.regressions, key=lambda c: c.ratio)
        lines.append(
            f"PERF REGRESSION in {len(report.regressions)} cell(s); "
            f"worst {worst.ratio:.2f}x on {worst.key}"
        )
    if report.ok:
        lines.append("comparison OK: no regressions, no result drift")
    return "\n".join(lines)


def cache_speedup(
    records_or_rows: Sequence[Any],
) -> dict[str, float]:
    """Per-cell latency ratio cold-miss / cached-hit on service cells.

    Matches ``…/cold`` and ``…/hit`` key pairs produced by the
    ``service`` suite and divides their wall-clock seconds.  The
    acceptance bar is a ratio ≥ 50 on the default serving scenario —
    a cached placement must be at least 50× cheaper than computing one.

    Accepts :class:`~repro.bench.results.BenchRecord` objects or raw
    ``results`` rows; returns ``{hit-cell-key: ratio}``.
    """
    rows = [
        r.to_json_dict() if hasattr(r, "to_json_dict") else r
        for r in records_or_rows
    ]
    seconds = {row["key"]: float(row["seconds"]) for row in rows}
    ratios: dict[str, float] = {}
    for key, hit_seconds in seconds.items():
        if not key.endswith("/hit"):
            continue
        cold_key = key[: -len("/hit")] + "/cold"
        if cold_key not in seconds:
            continue
        ratios[key] = (
            float("inf")
            if hit_seconds == 0
            else seconds[cold_key] / hit_seconds
        )
    return ratios


def mc_speedup(
    records_or_rows: Sequence[Any],
    *,
    baseline: str = "python",
) -> dict[str, float]:
    """Per-cell Monte-Carlo speedup: per-trial python loop vs batched numpy.

    Restricted to probabilistic cells (``model != "deterministic"``) and
    matched across the backend axis only — dataset, algorithm, ``k``,
    model, ``edge_prob`` and ``trials`` all identical.  The ratio is
    ``baseline_seconds / other_seconds`` for each non-baseline backend:
    how many times faster the batched sample-axis sweeps evaluate the
    same worlds than the per-trial pure-Python loop.  The acceptance bar
    is ≥ 10 on the ``n≈2000 / 64 samples`` cell of the ``probabilistic``
    suite (recorded in the committed ``BENCH.json``).

    Accepts :class:`~repro.bench.results.BenchRecord` objects or raw
    ``results`` rows; returns ``{non-baseline-cell-key: ratio}``.
    """
    rows = [
        r.to_json_dict() if hasattr(r, "to_json_dict") else r
        for r in records_or_rows
    ]
    prob_rows = [
        row for row in rows
        if row.get("model", "deterministic") != "deterministic"
    ]
    # Probabilistic keys look like …/k10/<backend>/<model-pP-tT>: strip
    # the backend component (second-to-last) to get the match stem.
    base: dict[str, float] = {}
    others: dict[str, tuple[str, float]] = {}
    for row in prob_rows:
        head, _, model_part = row["key"].rpartition("/")
        stem_head, _, backend = head.rpartition("/")
        stem = f"{stem_head}/{model_part}"
        if backend == baseline:
            base[stem] = float(row["seconds"])
        else:
            others[row["key"]] = (stem, float(row["seconds"]))
    speedups: dict[str, float] = {}
    for key, (stem, seconds) in others.items():
        if stem in base and seconds > 0:
            speedups[key] = base[stem] / seconds
    return speedups


def sketch_speedup(
    records_or_rows: Sequence[Any],
    *,
    exact: str = "G_All",
    sketch: str = "G_All_sketch",
) -> dict[str, float]:
    """Per-cell end-to-end speedup of the sketch strategy over exact.

    Matches sketch cells against the exact cell that differs only on the
    algorithm axis and divides end-to-end cost — ``plan_seconds +
    seconds``, the time to an answer on a fresh graph.  Solve-only
    seconds would flatter exact: its one-time plan/warm lives in the
    ``plan_seconds`` column, which the ``scale`` suite's exact cells
    carry themselves via ``fresh_backend``.  Historically the warm was
    superquadratic in n and this ratio cleared 100× at n=3·10^4; the
    blocked reachability sweep flattened it, so on rungs exact can run
    the ratio now hovers near (or below) 1 — the sketch's remaining
    case is the n=10^6 rung, where one exact Φ sweep is the cost the
    estimator exists to avoid and exact has no cell at all.

    Accepts :class:`~repro.bench.results.BenchRecord` objects or raw
    ``results`` rows; returns ``{sketch-cell-key: ratio}``.
    """
    rows = [
        r.to_json_dict() if hasattr(r, "to_json_dict") else r
        for r in records_or_rows
    ]
    cost = {
        row["key"]: float(row["seconds"]) + float(row.get("plan_seconds", 0.0))
        for row in rows
    }
    ratios: dict[str, float] = {}
    for row in rows:
        if row["algorithm"] != sketch:
            continue
        key = row["key"]
        exact_key = key.replace(f"/{sketch}/", f"/{exact}/")
        if exact_key not in cost or exact_key == key:
            continue
        sketch_cost = cost[key]
        ratios[key] = (
            float("inf")
            if sketch_cost == 0
            else cost[exact_key] / sketch_cost
        )
    return ratios


def sketch_error(
    records_or_rows: Sequence[Any],
    *,
    exact: str = "G_All",
    sketch: str = "G_All_sketch",
) -> dict[str, float]:
    """Per-cell objective ratio ``F(sketch prefix) / F(exact prefix)``.

    Both objectives come from the harness's exact score phase, so the
    ratio measures *selection* quality — how much objective the
    estimator-driven prefix gives up against exact greedy — not
    estimator noise.  Cells without an exact twin (the rungs exact
    cannot run) and estimator-scored cells (``/est`` keys, whose
    recorded objective is itself an estimate) are skipped: this
    comparator only ever compares exactly-scored numbers.  The
    acceptance bar for the ``scale`` suite is a ratio ≥ ``1 − ε`` at
    the default sketch resolution on every cell where exact is
    available.

    Accepts :class:`~repro.bench.results.BenchRecord` objects or raw
    ``results`` rows; returns ``{sketch-cell-key: ratio}``.
    """
    rows = [
        r.to_json_dict() if hasattr(r, "to_json_dict") else r
        for r in records_or_rows
    ]
    objectives = {row["key"]: row["objective"] for row in rows}
    ratios: dict[str, float] = {}
    for row in rows:
        if row["algorithm"] != sketch or "/est" in row["key"]:
            continue
        key = row["key"]
        exact_key = key.replace(f"/{sketch}/", f"/{exact}/")
        if exact_key not in objectives or exact_key == key:
            continue
        exact_objective = objectives[exact_key]
        if exact_objective <= 0:
            continue
        ratios[key] = objectives[key] / exact_objective
    return ratios


def warm_speedup(
    prior: Any,
    current: Any,
    *,
    min_plan_seconds: float = DEFAULT_MIN_SECONDS,
) -> dict[str, float]:
    """Per-cell plan-cost ratio ``prior / current`` across two runs.

    Unlike the single-document comparators above, this one matches cells
    *between* a prior and a current document (each a ``BENCH.json`` dict
    or a sequence of records/rows) by scenario key and divides their
    ``plan_seconds`` — the column carrying the one-time warm cost the
    ``warm`` and ``scale`` suites attribute via ``fresh_backend``.  A
    ratio ≫ 1 means the warm got cheaper; the blocked reachability
    sweep's acceptance bar is ≥ 10 on the ``scale-dag`` n=5·10^4 cell
    against the pre-blocked baseline.  Cells whose prior plan cost is
    below ``min_plan_seconds`` are skipped — there is no warm wall to
    measure a cut of.

    Returns ``{cell-key: prior_plan_seconds / current_plan_seconds}``.
    """

    def _plans(doc: Any) -> dict[str, float]:
        rows = doc["results"] if isinstance(doc, dict) else [
            r.to_json_dict() if hasattr(r, "to_json_dict") else r
            for r in doc
        ]
        return {
            row["key"]: float(row.get("plan_seconds", 0.0)) for row in rows
        }

    prior_plans = _plans(prior)
    current_plans = _plans(current)
    ratios: dict[str, float] = {}
    for key in sorted(set(prior_plans) & set(current_plans)):
        before = prior_plans[key]
        if before < min_plan_seconds:
            continue
        after = current_plans[key]
        ratios[key] = float("inf") if after == 0 else before / after
    return ratios


def summarize_speedups(
    records_or_rows: Sequence[Any],
    *,
    baseline: str = "python",
) -> dict[str, float]:
    """Per-cell speedup of every non-baseline backend vs ``baseline``.

    Accepts either :class:`~repro.bench.results.BenchRecord` objects or
    raw ``results`` rows; returns ``{cell-key-sans-backend: speedup}``.
    """
    rows = [
        r.to_json_dict() if hasattr(r, "to_json_dict") else r
        for r in records_or_rows
    ]
    base: dict[str, float] = {}
    others: dict[str, float] = {}
    for row in rows:
        stem, _, backend = row["key"].rpartition("/")
        if backend == baseline:
            base[stem] = float(row["seconds"])
        else:
            others[f"{stem}/{backend}"] = float(row["seconds"])
    speedups: dict[str, float] = {}
    for key, seconds in others.items():
        stem = key.rpartition("/")[0]
        if stem in base and seconds > 0:
            speedups[key] = base[stem] / seconds
    return speedups
