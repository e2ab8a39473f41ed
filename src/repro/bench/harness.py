"""The benchmark runner: scenarios in, timed records out.

For every scenario the harness

1. generates (and memoizes) the dataset graph,
2. wraps the requested propagation backend in a
   :class:`~repro.obs.instrument.InstrumentedBackend` and installs it as the
   process default for the timed region — the algorithms resolve it through
   the registry, so no algorithm needs bench-specific code,
3. times ``algorithm.place(graph, k)`` best-of-``repeats``
   (``time.perf_counter``), and
4. scores the placement (``F(A)``, Filter Ratio) *outside* the timed
   region, on the same backend.

Records go to :mod:`repro.bench.results` for ``BENCH.json`` serialization
and to :mod:`repro.bench.compare` for regression checks.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from repro.backends.registry import get_backend, use_backend
from repro.bench.results import BenchRecord
from repro.bench.scenarios import BenchScenario
from repro.core.objective import max_objective, objective_value, phi
from repro.core.registry import get_algorithm
from repro.datasets.registry import get_dataset
from repro.exceptions import ParameterError
from repro.graphs.cgraph import CGraph
from repro.obs.instrument import InstrumentedBackend, sweep_count
from repro.obs.trace import span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.largescale import StreamedGraph


def _load_graph(scenario: BenchScenario) -> "CGraph | StreamedGraph":
    kwargs: dict[str, object] = {"seed": scenario.seed}
    if scenario.scale is not None:
        kwargs["scale"] = scenario.scale
    if scenario.streamed:
        # The scale tier's ingestion path: generator → int32 CSR without
        # a materialized edge list.  Returns a StreamedGraph — the
        # source-axis rewrite below needs a CGraph, so the two axes are
        # mutually exclusive by construction.
        if scenario.sources:
            raise ParameterError(
                "streamed cells cannot re-designate sources"
            )
        kwargs["streamed"] = True
    graph = get_dataset(scenario.dataset, **kwargs)
    if scenario.sources:
        # Widen the source axis (the paper datasets carry one source):
        # re-designate the first N nodes, clamped to the graph's size.
        graph = graph.with_sources(graph.nodes()[: scenario.sources])
    return graph


def _is_sketch_cell(scenario: BenchScenario) -> bool:
    """Whether the cell's algorithm is the sketch-strategy execution."""
    from repro.core.registry import get_algorithm
    from repro.sketches.celf import SketchCelfGreedyAll

    return isinstance(get_algorithm(scenario.algorithm), SketchCelfGreedyAll)


def _scenario_backend(scenario: BenchScenario):
    """The cell's backend: the registry singleton, or a cell-private one.

    ``fresh_backend`` cells get their own instance so the one-time warm
    cost lands in *their* ``plan_seconds`` — with the singleton, the
    first toucher of a graph (often the suite's Φ-constant computation)
    silently pays for everyone.
    """
    if not scenario.fresh_backend:
        return get_backend(scenario.backend)
    from repro.backends.registry import build_backend

    return build_backend(scenario.backend)


def _scenario_model(scenario: BenchScenario):
    """The scenario's resolved PropagationModel (None = deterministic)."""
    if scenario.model == "deterministic":
        return None
    from repro.propagation.model import build_model

    return build_model(
        scenario.model,
        edge_prob=scenario.edge_prob,
        trials=scenario.trials,
        seed=scenario.seed,
    )


def run_compile_scenario(
    scenario: BenchScenario,
    *,
    graph: CGraph | None = None,
    repeats: int = 1,
) -> BenchRecord:
    """Measure one ``compile`` cell: plan build time + compiled bytes.

    Each repeat rebuilds the :class:`CGraph` from its edge/node/source
    data *outside* the timed region (the compiled view is cached on the
    immutable graph, so a fresh instance is the only way to time a cold
    build) and times exactly one ``graph.compiled()`` call.

    Streamed cells time the whole ingestion instead — generation,
    interning and CSR assembly are one fused pass with no edge list to
    set up untimed, which is precisely the property the cell measures —
    and additionally record the compiled tables' ``mapped_bytes``
    (0 for in-memory builds; nonzero once the graph is reopened from a
    ``.fpc`` file).
    """
    if repeats <= 0:
        raise ParameterError("repeats must be positive")
    if scenario.streamed:
        best = float("inf")
        total = 0.0
        fresh = None
        for _ in range(repeats):
            start = time.perf_counter()
            fresh = _load_graph(scenario)
            fresh.compiled()
            elapsed = time.perf_counter() - start
            total += elapsed
            best = min(best, elapsed)
        assert fresh is not None  # repeats >= 1
        split = fresh.compiled().nbytes_split()
        phases = {"plan": best}
        if repeats > 1:
            phases["repeat_overhead"] = total - best
        return BenchRecord(
            scenario=scenario,
            nodes=fresh.number_of_nodes(),
            edges=fresh.number_of_edges(),
            seconds=best,
            repeats=repeats,
            plan_seconds=best,
            phases=phases,
            wall_seconds=total,
            evaluations={
                "compiled_bytes": split["resident"],
                "mapped_bytes": split["mapped"],
            },
            filters=(),
            filters_found=0,
            objective=0,
            filter_ratio=0.0,
        )
    if graph is None:
        graph = _load_graph(scenario)
    edges = list(graph.edges())
    nodes = graph.nodes()
    sources = graph.sources

    best = float("inf")
    total = 0.0
    compiled = None
    for _ in range(repeats):
        fresh = CGraph(edges, nodes=nodes, sources=sources)
        start = time.perf_counter()
        compiled = fresh.compiled()
        elapsed = time.perf_counter() - start
        total += elapsed
        best = min(best, elapsed)
    assert compiled is not None  # repeats >= 1

    # The graph rebuilds between repeats are deliberately untimed, so
    # the cell's wall-clock is the sum of the timed builds only.
    phases = {"plan": best}
    if repeats > 1:
        phases["repeat_overhead"] = total - best
    return BenchRecord(
        scenario=scenario,
        nodes=graph.number_of_nodes(),
        edges=graph.number_of_edges(),
        seconds=best,
        repeats=repeats,
        plan_seconds=best,
        phases=phases,
        wall_seconds=total,
        evaluations={"compiled_bytes": compiled.nbytes()},
        filters=(),
        filters_found=0,
        objective=0,
        filter_ratio=0.0,
    )


def run_scenario(
    scenario: BenchScenario,
    *,
    graph: CGraph | None = None,
    repeats: int = 1,
    phi_constants: tuple[int, int] | None = None,
    compile_seconds: float | None = None,
) -> BenchRecord:
    """Measure one scenario cell.

    ``phi_constants`` is an optional pre-computed ``(Φ(∅), F(V))`` pair for
    ``graph`` — backend-independent, so :func:`run_suite` computes it once
    per graph instead of twice per cell.  ``compile_seconds`` is the
    graph's measured one-time compile cost (again per graph, from
    :func:`run_suite`); standalone calls measure it inline.  Either way
    the plan work lands in the record's ``plan_seconds``, never in
    ``seconds``.
    """
    if repeats <= 0:
        raise ParameterError("repeats must be positive")
    if scenario.mode == "compile":
        return run_compile_scenario(scenario, graph=graph, repeats=repeats)
    if scenario.mode != "algorithm":
        # Service cells time the request path, not the bare algorithm.
        from repro.bench.service import run_service_scenario

        return run_service_scenario(
            scenario,
            graph=graph,
            repeats=repeats,
            phi_constants=phi_constants,
            compile_seconds=compile_seconds,
        )
    if graph is None:
        graph = _load_graph(scenario)
    backend = _scenario_backend(scenario)
    model = _scenario_model(scenario)
    if scenario.workers:
        from repro.propagation.parallel import use_world_workers

        workers_scope = use_world_workers(scenario.workers)
    else:
        from contextlib import nullcontext

        workers_scope = nullcontext()
    # Plan work happens outside the timed region — the shared compiled
    # view plus the backend's adapter over it — and is *measured* so
    # BENCH.json reports the split instead of hiding the cost.  On a
    # pre-compiled graph (the run_suite path) the first term is ~0 and
    # ``compile_seconds`` carries the real number.  For probabilistic
    # cells one untimed evaluation additionally samples the worlds and
    # builds the backend's live-mask adapters — the model's one-time
    # cost, amortized by every timed evaluation exactly as in a real run.
    with workers_scope:
        wall_start = time.perf_counter()
        with span("bench.plan", cell=scenario.key()):
            graph.compiled()
            # Sketch-strategy cells never drive the exact backend during
            # the solve (the sketch engine builds its own float lanes),
            # so warming it here would charge them the exact adapter
            # build they exist to avoid — their exact score, if any,
            # warms lazily in the untimed score phase instead.
            if scenario.exact_score and not _is_sketch_cell(scenario):
                backend.warm(graph)
            if model is not None:
                backend.sampled_marginal_gains_ids(graph, (), model=model)
        plan_phase = time.perf_counter() - wall_start
        plan_seconds = plan_phase
        if compile_seconds is not None:
            plan_seconds += compile_seconds
        counting = InstrumentedBackend(backend)
        algorithm = get_algorithm(scenario.algorithm, model=model)

        best = float("inf")
        repeat_total = 0.0
        result = None
        with use_backend(counting):
            with span("bench.solve", cell=scenario.key(), repeats=repeats):
                for _ in range(repeats):
                    counting.reset()
                    start = time.perf_counter()
                    result = algorithm.place(graph, scenario.k)
                    elapsed = time.perf_counter() - start
                    repeat_total += elapsed
                    best = min(best, elapsed)
        counting.publish()
        assert result is not None  # repeats >= 1

        score_start = time.perf_counter()
        with span("bench.score", cell=scenario.key()):
            result, objective, fr = _score_placement(
                scenario, graph, backend, model, result, phi_constants
            )
        score_seconds = time.perf_counter() - score_start
        wall_seconds = time.perf_counter() - wall_start

    # ``phases`` decomposes the cell's in-harness wall-clock exactly:
    # plan (in-cell share only — the amortized compile lives in
    # ``plan_seconds``), solve (best repeat, == seconds),
    # repeat_overhead (the non-best repeats; the former timing skew
    # where ``repeats > 1`` left them unaccounted), score.
    phases = {"plan": plan_phase, "solve": best, "score": score_seconds}
    if repeats > 1:
        phases["repeat_overhead"] = repeat_total - best

    # The sketch strategy bypasses the propagation backend for its
    # estimates, so the counting wrapper never sees its work; the
    # per-step evaluation markers carry it instead.  Other step markers
    # (and the sketch rescore's exact sweeps) mirror backend calls the
    # counter already saw — merging those would double-count — so only
    # the sketch-native estimate kinds join.
    evaluations = dict(counting.counts)
    for step in result.steps:
        for kind, count in step.evaluations:
            if kind in ("sketch_build", "sketch_gains"):
                evaluations[kind] = evaluations.get(kind, 0) + count

    return BenchRecord(
        scenario=scenario,
        nodes=graph.number_of_nodes(),
        edges=graph.number_of_edges(),
        seconds=best,
        repeats=repeats,
        plan_seconds=plan_seconds,
        phases=phases,
        wall_seconds=wall_seconds,
        evaluations=evaluations,
        filters=tuple(repr(v) for v in result.filters),
        filters_found=len(result.filters),
        objective=objective,
        filter_ratio=fr,
    )


def _score_placement(
    scenario: BenchScenario,
    graph: CGraph,
    backend,
    model,
    result,
    phi_constants: tuple[int, int] | None,
):
    """Score a placement (objective + FR) outside the timed region."""
    if not scenario.exact_score:
        # Estimator-scored rung: one exact Φ sweep at the n = 10^6 rung
        # is the cost the sketch strategy exists to avoid, which is the
        # regime the cell documents.  The recorded step gains sum to
        # the algorithm's own
        # objective claim — exact F(A) for exact strategies, the
        # bottom-k estimate for an unrescored sketch run — and the
        # filter ratio is left at 0.0 rather than faked.
        objective = float(sum(step.gain for step in result.steps))
        return result, objective, 0.0
    if model is not None:
        # SAA scoring: every estimate averages the cell's shared
        # worlds, so objective and FR are mutually consistent floats.
        from repro.core.objective import expected_phi

        phi_empty_x = expected_phi(
            graph, (), model=model, backend=backend
        )
        f_max_x = phi_empty_x - expected_phi(
            graph, graph.nodes(), model=model, backend=backend
        )
        objective = phi_empty_x - expected_phi(
            graph, result.filters, model=model, backend=backend
        )
        fr = 1.0 if f_max_x == 0 else objective / f_max_x
    else:
        # Score with at most three sweeps: Φ(∅) and Φ(V)
        # (amortizable via phi_constants) plus Φ(A), each once.
        if phi_constants is None:
            phi_empty = phi(graph, (), backend=backend)
            f_max = max_objective(
                graph, phi_empty=phi_empty, backend=backend
            )
        else:
            phi_empty, f_max = phi_constants
        objective = objective_value(
            graph, result.filters, phi_empty=phi_empty, backend=backend
        )
        fr = 1.0 if f_max == 0 else objective / f_max
    return result, objective, fr


def run_suite(
    scenarios: Sequence[BenchScenario],
    *,
    repeats: int = 1,
    progress: Callable[[str], None] | None = None,
) -> list[BenchRecord]:
    """Measure every scenario, reusing one graph per dataset cell.

    ``progress`` (e.g. ``print``) receives one line per finished cell.
    """
    graphs: dict[tuple, CGraph] = {}
    constants: dict[tuple, tuple[int, int]] = {}
    compile_seconds: dict[tuple, float] = {}
    records: list[BenchRecord] = []
    for scenario in scenarios:
        gkey = scenario.graph_key()
        if gkey not in graphs:
            graph = _load_graph(scenario)
            graphs[gkey] = graph
            # Time the one-shot compile immediately after generation —
            # before any Φ constant or warm call builds it as a side
            # effect — so every cell of this graph can report the true
            # plan cost it amortizes.  No is_dag() pre-check: compiling
            # handles cyclic graphs, and the legacy dict-path check
            # would pollute the measurement with non-plan work.
            start = time.perf_counter()
            graph.compiled()
            compile_seconds[gkey] = time.perf_counter() - start
        graph = graphs[gkey]
        if (
            gkey not in constants
            and scenario.mode != "compile"
            and scenario.exact_score
        ):
            # Estimator-scored cells never compute Φ constants: the
            # sweeps are exactly the cost their rung cannot pay.
            phi_empty = phi(graph, ())
            constants[gkey] = (
                phi_empty,
                max_objective(graph, phi_empty=phi_empty),
            )
        record = run_scenario(
            scenario,
            graph=graph,
            repeats=repeats,
            phi_constants=constants.get(gkey),
            compile_seconds=compile_seconds[gkey],
        )
        records.append(record)
        if progress is not None:
            progress(
                f"{scenario.key():<55} {record.seconds * 1e3:9.1f} ms  "
                f"FR={record.filter_ratio:.4f}"
            )
    return records


def render_records(records: Sequence[BenchRecord]) -> str:
    """The records as an aligned text table (CLI output).

    ``sweeps`` counts full-graph propagation evaluations (``Greedy_All`` shows
    ``k``).  ``plan ms`` is the one-time plan/compile cost the timed ``ms``
    column excludes (``compile`` cells time exactly that, so there the columns
    coincide).
    """
    from repro.analysis.report import format_table

    headers = [
        "dataset", "alg", "k", "backend", "model", "nodes", "edges",
        "ms", "plan ms", "sweeps", "FR",
    ]
    rows = []
    for r in records:
        s = r.scenario
        algorithm = s.algorithm
        if s.mode == "service_cold":
            algorithm += ":cold"
        elif s.mode == "service_hit":
            algorithm += ":hit"
        if s.model == "deterministic":
            model = "-"
        else:
            model = f"{s.model} p{s.edge_prob:g} t{s.trials}"
        rows.append([
            s.dataset if s.scale is None else f"{s.dataset}@{s.scale:g}",
            algorithm,
            str(s.k),
            s.backend,
            model,
            str(r.nodes),
            str(r.edges),
            f"{r.seconds * 1e3:.1f}",
            f"{r.plan_seconds * 1e3:.1f}",
            str(sweep_count(r.evaluations)),
            f"{r.filter_ratio:.4f}",
        ])
    return format_table(headers, rows)
