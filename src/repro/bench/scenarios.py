"""The benchmark scenario matrix: dataset × algorithm × k × backend.

A :class:`BenchScenario` is one fully-specified measurement; a *suite* is a
named list of them.  Suites are plain functions so new matrices are one
function away, and every suite crosses the propagation backends available
in the environment unless the caller pins a subset.

Built-in suites
---------------
``toy``
    Seconds-long smoke matrix over the paper's figure graphs — what CI
    runs to keep the perf plumbing honest.
``default``
    The trajectory matrix: the paper-scale datasets × the greedy family
    × both backends, plus service, compile, probabilistic, many-source
    and world-shard cells.  ``BENCH.json`` files written from this suite
    are comparable across PRs.
``ablation``
    ``Greedy_All`` across backends — the engine ablation: the gap
    between the python and numpy cells is a direct read on how much of
    ``G_All``'s cost the vectorized sweeps remove.
``service``
    The serving axis: the same placement request through
    :mod:`repro.service` against a cold vs a warm placement cache, where
    the acceptance bar is a ≥50× cold/hit latency ratio
    (:func:`repro.bench.compare.cache_speedup`).
``compile``
    The compile-once micro axis: time to build the shared
    :class:`~repro.graphs.compiled.CompiledGraph` plus its memory
    footprint (``evaluations["compiled_bytes"]``) per dataset scale.
    One plan feeds every backend, so these cells carry no backend axis
    beyond the placeholder ``python``.
``probabilistic``
    The propagation-model axis: ``Greedy_All`` under the live-edge model,
    scored by the seeded sample average over 64 worlds.  The python/numpy cell
    pairs feed :func:`repro.bench.compare.mc_speedup`, whose acceptance bar is
    a ≥10× batched-vs-per-trial ratio at n≈2000.
``parallel``
    The world-shard axis: the probabilistic n≈2000 cell with the
    evaluation pinned to 1 vs 4 process-pool workers.  Placements are
    bit-identical by contract (``tests/test_parallel_worlds.py``); the
    cells track what the wall-clock does.
``scale``
    The million-node scale tier on ``scale-dag`` rungs: both
    execution strategies where exact is cheap (n=3·10^3), the
    exact-vs-sketch comparison pair at n=3·10^4
    (:func:`repro.bench.compare.sketch_speedup` /
    :func:`repro.bench.compare.sketch_error` — since the blocked
    reachability warm the sketch's wall-clock win lives at n=10^6,
    the rung exact's Φ sweep cannot afford), streamed exact cells at
    n=5·10^4 and n=10^5 (feasible since the blocked reachability warm),
    sketch estimator-scored cells at n=10^5 and n=10^6
    (``/streamed/est`` keys) — plus a streamed ingestion cell recording
    the resident/mapped byte split.
``warm``
    The warm-cost axis: fresh-backend exact ``G_All`` cells at the
    ``scale-dag`` rungs whose ``plan_seconds`` column *is* the one-time
    adapter warm — the blocked reachability sweep under measurement.
    Cross-run, :func:`repro.bench.compare.warm_speedup` divides prior
    vs current plan cost on the overlapping keys (acceptance bar: ≥10×
    at n=5·10^4 against the pre-blocked baseline).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.exceptions import ParameterError


#: Measurement modes: ``algorithm`` times ``algorithm.place`` directly;
#: the ``service_*`` modes time the serving path of :mod:`repro.service`
#: (cold cache miss vs cached hit) for the same request; ``compile``
#: times only the shared :class:`~repro.graphs.compiled.CompiledGraph`
#: build (and records its memory footprint).
SCENARIO_MODES: tuple[str, ...] = (
    "algorithm",
    "service_cold",
    "service_hit",
    "compile",
)


@dataclass(frozen=True)
class BenchScenario:
    """One benchmark cell: run ``algorithm`` on ``dataset`` with ``backend``.

    ``scale``/``seed`` parameterize the dataset generator (None means the
    generator's default scale).  ``mode`` selects what is timed — the bare
    algorithm, or the service's cold-miss / cached-hit request path for
    the identical placement.  ``model``/``edge_prob``/``trials`` put the
    cell on the propagation-model axis: a non-deterministic model scores
    every evaluation as the seeded sample average over ``trials``
    live-edge worlds at the given uniform edge probability (the cell's
    ``seed`` also seeds the world sampler, so records stay reproducible).
    ``key()`` identifies the cell across runs — the regression comparator
    matches prior and current records by it.
    """

    dataset: str
    algorithm: str
    k: int
    backend: str
    scale: float | None = None
    seed: int = 0
    mode: str = "algorithm"
    model: str = "deterministic"
    edge_prob: float = 1.0
    trials: int = 0
    #: Re-designate the first N nodes as sources (0 = the dataset's own
    #: sources).  The many-source cells use this: the real datasets
    #: carry a single source, which hides how the sweeps scale with the
    #: source count.
    sources: int = 0
    #: World-shard worker count for probabilistic cells (0 = inherit the
    #: ambient :func:`repro.propagation.parallel.active_workers` value;
    #: >0 pins the cell, 1 meaning explicitly serial).
    workers: int = 0
    #: Build the graph through the streamed loader
    #: (``get_dataset(..., streamed=True)`` →
    #: :class:`repro.graphs.largescale.StreamedGraph`) instead of
    #: materializing a :class:`~repro.graphs.cgraph.CGraph`.  The graph
    #: is identical either way; what changes is the construction path —
    #: which is exactly what a streamed ``compile`` cell times.
    streamed: bool = False
    #: Whether the score phase computes the exact objective (Φ sweeps).
    #: The scale tier's estimator cells turn this off: one exact Φ
    #: sweep at the n = 10^6 rung is the cost the sketch strategy
    #: exists to avoid.  Unscored cells record the sum of the
    #: recorded step gains (the estimator objective for an unrescored
    #: sketch run) and a filter ratio of 0.0.
    exact_score: bool = True
    #: Build this cell's backend fresh instead of resolving the process
    #: singleton, so the backend's one-time warm cost lands in the
    #: cell's ``plan_seconds`` rather than being amortized invisibly
    #: across the suite.  The scale and warm tiers' exact cells use
    #: this: the one-time blocked reachability warm *is* the cost under
    #: measurement, while the warmed sweeps are milliseconds.
    #: Key-silent — attribution, not identity.
    fresh_backend: bool = False

    def key(self) -> str:
        """``dataset@scale/seedN/algorithm/kK/backend[/…]``.

        ``compile`` cells use ``compile`` on the algorithm axis (with
        ``k=0``), so their keys need no extra suffix.  Non-default axes
        append suffixes — ``/srcN`` (re-designated sources),
        ``/model-pP-tT`` (probabilistic model), ``/wN`` (pinned world workers),
        ``/streamed`` (streamed graph construction), ``/est``
        (estimator-scored, no exact objective) — while default-valued
        axes add nothing, so prior ``BENCH.json`` baselines keep
        matching.
        """
        scale = "default" if self.scale is None else f"{self.scale:g}"
        base = (
            f"{self.dataset}@{scale}/seed{self.seed}"
            f"/{self.algorithm}/k{self.k}/{self.backend}"
        )
        if self.sources:
            base += f"/src{self.sources}"
        if self.model != "deterministic":
            base += f"/{self.model}-p{self.edge_prob:g}-t{self.trials}"
        if self.workers:
            base += f"/w{self.workers}"
        if self.streamed:
            base += "/streamed"
        if not self.exact_score:
            base += "/est"
        if self.mode == "service_cold":
            return f"{base}/cold"
        if self.mode == "service_hit":
            return f"{base}/hit"
        return base

    def graph_key(self) -> tuple[str, float | None, int, int, bool]:
        """Cache key for the generated graph (shared across cells)."""
        return (
            self.dataset, self.scale, self.seed, self.sources,
            self.streamed,
        )


def _cross(
    cells: Sequence[tuple[str, float | None]],
    algorithms: Sequence[str],
    k: int,
    backends: Sequence[str],
    seed: int,
) -> list[BenchScenario]:
    return [
        BenchScenario(
            dataset=dataset,
            algorithm=algorithm,
            k=k,
            backend=backend,
            scale=scale,
            seed=seed,
        )
        for dataset, scale in cells
        for algorithm in algorithms
        for backend in backends
    ]


def toy_suite(
    *, backends: Sequence[str] | None = None, seed: int = 0
) -> list[BenchScenario]:
    """Seconds-long smoke matrix over the figure graphs."""
    backends = _resolve_backends(backends)
    return _cross(
        [("fig1", None), ("fig10", None)],
        ("G_All", "G_Max", "G_1", "G_L"),
        3,
        backends,
        seed,
    )


def default_suite(
    *, backends: Sequence[str] | None = None, seed: int = 0
) -> list[BenchScenario]:
    """The cross-PR trajectory matrix at paper scale.

    Includes the service cells (cold-miss vs cached-hit on the default
    serving scenario) so the committed ``BENCH.json`` tracks serving
    latency alongside raw algorithm cost.
    """
    backends = _resolve_backends(backends)
    cells: list[tuple[str, float | None]] = [
        ("synthetic-sparse", 2.0),  # n ≥ 2000: the backend speedup gate
        ("synthetic-dense", 1.0),
        ("quote", 1.0),
        ("citation", 1.0),
    ]
    scenarios = _cross(
        cells, ("G_All", "G_Max", "G_1", "G_L"), 10, backends, seed
    )
    scenarios.extend(
        _service_cells([("synthetic-sparse", 2.0)], backends, seed)
    )
    # One compile cell per dataset so the trajectory file also tracks the
    # one-time plan cost the solve cells amortize.
    scenarios.extend(_compile_cells(cells, seed))
    # Probabilistic cells at the n≈2000 gate scale: the python-vs-numpy
    # pair behind the ≥10× batched-sampler acceptance bar
    # (:func:`repro.bench.compare.mc_speedup`).
    scenarios.extend(
        _probabilistic_cells([("quote", 2.2)], backends, seed)
    )
    # Many-source cells: the sweeps' cost must stay flat in the source
    # count.
    scenarios.extend(
        _many_source_cells(
            [("synthetic-sparse", 2.0), ("citation", 1.0)], backends, seed
        )
    )
    # World-shard cells: the probabilistic python cell pinned to 1 vs 4
    # pool workers (bit-identical placements, tracked wall-clock).
    scenarios.extend(_parallel_cells([("quote", 2.2)], seed))
    return scenarios


def _service_cells(
    cells: Sequence[tuple[str, float | None]],
    backends: Sequence[str],
    seed: int,
) -> list[BenchScenario]:
    return [
        BenchScenario(
            dataset=dataset,
            algorithm="G_All",
            k=10,
            backend=backend,
            scale=scale,
            seed=seed,
            mode=mode,
        )
        for dataset, scale in cells
        for backend in backends
        for mode in ("service_cold", "service_hit")
    ]


def _compile_cells(
    cells: Sequence[tuple[str, float | None]], seed: int
) -> list[BenchScenario]:
    return [
        BenchScenario(
            dataset=dataset,
            algorithm="compile",
            k=0,
            backend="python",
            scale=scale,
            seed=seed,
            mode="compile",
        )
        for dataset, scale in cells
    ]


#: Default model parameters of the ``probabilistic`` suite cells: the
#: acceptance bar ("batched NumPy sampler ≥10× the per-trial Python loop
#: at n≈2000 with 64 samples") pins the trial count; 0.9 models the
#: mostly-reliable links of an information network (the per-trial loop's
#: cost scales with live edges, the batched sampler's does not — the
#: ratio is honest at any p, this one just reflects realistic traffic).
PROBABILISTIC_EDGE_PROB = 0.9
PROBABILISTIC_TRIALS = 64


def _probabilistic_cells(
    cells: Sequence[tuple[str, float | None]],
    backends: Sequence[str],
    seed: int,
    algorithms: Sequence[str] = ("G_All",),
) -> list[BenchScenario]:
    return [
        BenchScenario(
            dataset=dataset,
            algorithm=algorithm,
            k=10,
            backend=backend,
            scale=scale,
            seed=seed,
            model="live-edge",
            edge_prob=PROBABILISTIC_EDGE_PROB,
            trials=PROBABILISTIC_TRIALS,
        )
        for dataset, scale in cells
        for algorithm in algorithms
        for backend in backends
    ]


def probabilistic_suite(
    *, backends: Sequence[str] | None = None, seed: int = 0
) -> list[BenchScenario]:
    """The propagation-model axis: SAA ``Greedy_All`` across backends.

    Each cell runs ``G_All`` with the live-edge model at ``p =``
    :data:`PROBABILISTIC_EDGE_PROB` and :data:`PROBABILISTIC_TRIALS` sampled
    worlds; the cell's record carries ``model``/``trials`` so the comparator
    can match the python/numpy pairs.  The acceptance bar —
    :func:`repro.bench.compare.mc_speedup` ≥ 10 on the n≈2000 cell — is the
    batched-sampler-vs-per-trial-loop headline.
    """
    backends = _resolve_backends(backends)
    return _probabilistic_cells(
        [("fig10", None), ("quote", 2.2)], backends, seed
    )


#: Sources re-designated by the many-source cells.  The paper datasets
#: carry one source each, so these cells widen the source axis to a
#: multi-word width (256 sources = 4 uint64 words) where the aggregated
#: formulation's source-count independence actually shows.
MANY_SOURCES = 256

#: Worker counts the ``parallel`` suite pins its cells to.
PARALLEL_WORKERS: tuple[int, ...] = (1, 4)


def _many_source_cells(
    cells: Sequence[tuple[str, float | None]],
    backends: Sequence[str],
    seed: int,
) -> list[BenchScenario]:
    return [
        BenchScenario(
            dataset=dataset,
            algorithm="G_All",
            k=10,
            backend=backend,
            scale=scale,
            seed=seed,
            sources=MANY_SOURCES,
        )
        for dataset, scale in cells
        for backend in backends
    ]


def _parallel_cells(
    cells: Sequence[tuple[str, float | None]],
    seed: int,
) -> list[BenchScenario]:
    return [
        BenchScenario(
            dataset=dataset,
            algorithm="G_All",
            k=10,
            backend="python",
            scale=scale,
            seed=seed,
            model="live-edge",
            edge_prob=PROBABILISTIC_EDGE_PROB,
            trials=PROBABILISTIC_TRIALS,
            workers=workers,
        )
        for dataset, scale in cells
        for workers in PARALLEL_WORKERS
    ]


def parallel_suite(
    *, backends: Sequence[str] | None = None, seed: int = 0
) -> list[BenchScenario]:
    """The world-shard axis: serial vs process-pool sampled evaluation.

    The per-trial python loop on the probabilistic n≈2000 cell, pinned
    to each worker count in :data:`PARALLEL_WORKERS`.  The determinism
    contract (bit-identical placements/objectives for every worker
    count) is enforced by ``tests/test_parallel_worlds.py``; these cells
    track the wall-clock of the same evaluation.
    """
    del backends  # the shard axis is a python-loop property
    return _parallel_cells([("quote", 2.2)], seed)


#: The ``scale`` suite's dataset rungs, as ``scale-dag`` scale factors:
#: 0.03 → n=3·10^3 (every strategy, exact-scored), 0.3 → n=3·10^4 (the
#: ≥10× sketch-vs-exact gate), 0.5 → n=5·10^4 and 1.0 → n=10^5 (exact
#: climbs here too since the blocked reachability warm replaced the
#: superquadratic monolithic build — the rungs the old warm could not
#: finish), 10.0 → n=10^6 (streamed, sketch-only, estimator-scored: one
#: exact Φ sweep at matrix scale is the cost the sketch strategy
#: exists to avoid).
SCALE_RUNGS: tuple[float, ...] = (0.03, 0.3, 0.5, 1.0, 10.0)

#: The ``warm`` suite's rungs: ``(scale, streamed)`` pairs.  The two
#: trajectory rungs keep the in-memory construction so their keys match
#: the committed ``BENCH.scale.json`` cells (that overlap is what
#: :func:`repro.bench.compare.warm_speedup` divides against); the upper
#: rungs ride the streamed loader — at n ≥ 5·10^4 a materialized python
#: edge list is pure overhead the scale tier never pays.
WARM_RUNGS: tuple[tuple[float, bool], ...] = (
    (0.03, False),
    (0.3, False),
    (0.5, True),
    (1.0, True),
)


def scale_suite(
    *, backends: Sequence[str] | None = None, seed: int = 0
) -> list[BenchScenario]:
    """The scale tier: the sketch strategy climbing the ``scale-dag`` rungs.

    One backend carries the axis (numpy when available — the tier's
    intended lane; the suite is about strategy scaling, not the backend
    cross).  Cells:

    * ``@0.03`` — ``G_All``/``G_All_sketch``, exact-scored;
      the sketch cell still pays its exact prefix rescore here (n below
      the rescore guard), so its recorded gains are exact.
    * ``@0.3`` — ``G_All`` vs selection-only ``G_All_sketch``, both
      exact-scored in the score phase: the
      :func:`repro.bench.compare.sketch_speedup` and
      :func:`repro.bench.compare.sketch_error` (objective within
      ``1−ε``) comparison pair.  The exact cells carry
      ``fresh_backend`` so their one-time adapter warm is attributed to
      their own ``plan_seconds`` — since the blocked reachability sweep
      flattened that warm, exact wins this rung outright and the
      sketch's speedup case rests on the n=10^6 rung exact cannot run.
    * ``@0.5`` / ``@1.0`` — streamed exact ``G_All``: the rungs the old
      monolithic reach-mask warm could not finish, now minutes→seconds
      under the blocked out-of-core sweep (``fresh_backend`` keeps that
      warm in their ``plan_seconds``).
    * ``@1.0`` / ``@10.0`` — streamed ingestion, sketch,
      ``exact_score=False``: the estimator lane.  The n=10^6 cell is
      the honest million-node measurement.
    * a streamed ``compile`` cell at ``@1.0`` timing generator→CSR
      ingestion (no materialized edge list) and recording the
      resident/mapped compiled-byte split.
    """
    backends = _resolve_backends(backends)
    backend = "numpy" if "numpy" in backends else backends[0]
    scenarios = [
        BenchScenario(
            dataset="scale-dag",
            algorithm=algorithm,
            k=10,
            backend=backend,
            scale=0.03,
            seed=seed,
            fresh_backend=algorithm != "G_All_sketch",
        )
        for algorithm in ("G_All", "G_All_sketch")
    ]
    scenarios.extend(
        BenchScenario(
            dataset="scale-dag",
            algorithm=algorithm,
            k=10,
            backend=backend,
            scale=0.3,
            seed=seed,
            fresh_backend=algorithm != "G_All_sketch",
        )
        for algorithm in ("G_All", "G_All_sketch")
    )
    # The rungs the monolithic warm could never finish: exact ``G_All``
    # at n=5·10^4 and n=10^5 on streamed graphs, fresh-backend so the
    # blocked reachability warm is attributed to their ``plan_seconds``.
    scenarios.extend(
        BenchScenario(
            dataset="scale-dag",
            algorithm="G_All",
            k=10,
            backend=backend,
            scale=scale,
            seed=seed,
            streamed=True,
            fresh_backend=True,
        )
        for scale in (0.5, 1.0)
    )
    scenarios.extend(
        BenchScenario(
            dataset="scale-dag",
            algorithm="G_All_sketch",
            k=10,
            backend=backend,
            scale=scale,
            seed=seed,
            streamed=True,
            exact_score=False,
        )
        for scale in (1.0, 10.0)
    )
    scenarios.append(
        BenchScenario(
            dataset="scale-dag",
            algorithm="compile",
            k=0,
            backend="python",
            scale=1.0,
            seed=seed,
            mode="compile",
            streamed=True,
        )
    )
    return scenarios


def warm_suite(
    *, backends: Sequence[str] | None = None, seed: int = 0
) -> list[BenchScenario]:
    """The warm-cost axis: fresh-backend exact cells at the scale rungs.

    Every cell is the same exact ``G_All`` ``k=10`` measurement on a
    ``scale-dag`` rung with ``fresh_backend`` set, so the cell's
    ``plan_seconds`` *is* the one-time warm cost under measurement —
    dominated by the blocked reachability sweep
    (:func:`repro.propagation.reach.warm_reach_counts`), which is the
    quantity this suite tracks across PRs.  The solve itself is
    milliseconds at every rung; the suite exists for the plan column.

    Rungs come from :data:`WARM_RUNGS` — the two trajectory rungs keep
    in-memory construction so their keys overlap the committed
    ``BENCH.scale.json`` (the baseline
    :func:`repro.bench.compare.warm_speedup` divides against; ≥10× at
    n=5·10^4 is the acceptance bar), the upper rungs stream.
    """
    backends = _resolve_backends(backends)
    backend = "numpy" if "numpy" in backends else backends[0]
    return [
        BenchScenario(
            dataset="scale-dag",
            algorithm="G_All",
            k=10,
            backend=backend,
            scale=scale,
            seed=seed,
            streamed=streamed,
            fresh_backend=True,
        )
        for scale, streamed in WARM_RUNGS
    ]


def apply_model(
    scenarios: Sequence[BenchScenario],
    *,
    model: str,
    edge_prob: float,
    trials: int,
) -> list[BenchScenario]:
    """Re-parameterize a suite's algorithm cells onto a relaying model.

    The CLI's ``bench --model`` flag: every ``algorithm``-mode cell gets
    the model axis applied (service/compile cells measure serving and
    plan cost, which the model does not change, and pass through
    untouched).  ``model="deterministic"`` — or unit probabilities,
    which *are* deterministic relaying and would otherwise label
    exact-path cells as probabilistic — returns the suite as-is,
    matching the normalization ``place`` and the service apply.
    """
    from dataclasses import replace

    if model == "deterministic" or edge_prob >= 1.0:
        return list(scenarios)
    return [
        replace(s, model=model, edge_prob=edge_prob, trials=trials)
        if s.mode == "algorithm"
        else s
        for s in scenarios
    ]


def compile_suite(
    *, backends: Sequence[str] | None = None, seed: int = 0
) -> list[BenchScenario]:
    """The compile-once micro axis: plan build time + bytes per dataset.

    Each cell rebuilds the graph fresh and times only
    ``CGraph.compiled()`` — the one-time cost that the solve suites pay
    outside their timed regions — and records the compiled tables'
    memory via ``evaluations["compiled_bytes"]``.  ``backends`` is
    accepted for signature uniformity but ignored: the compiled plan is
    backend-independent by construction.
    """
    del backends  # one shared plan; there is no backend axis to cross
    cells: list[tuple[str, float | None]] = [
        ("fig10", None),
        ("quote", 1.0),
        ("citation", 1.0),
        ("synthetic-sparse", 1.0),
        ("synthetic-sparse", 2.0),
        ("synthetic-dense", 1.0),
    ]
    return _compile_cells(cells, seed)


def service_suite(
    *, backends: Sequence[str] | None = None, seed: int = 0
) -> list[BenchScenario]:
    """The serving axis: cold-miss latency vs cached-hit latency.

    For each (dataset, backend) the pair of cells measures the same
    ``G_All`` ``k=10`` request through :mod:`repro.service` — first
    against an empty placement cache (job submission + full computation +
    payload build), then against a warm one (pure lookup).  The
    acceptance bar is a cold/hit ratio ≥ 50 on the default scenario
    (``synthetic-sparse@2.0``), checked by
    :func:`repro.bench.compare.cache_speedup`.
    """
    backends = _resolve_backends(backends)
    cells: list[tuple[str, float | None]] = [
        ("synthetic-sparse", 2.0),
        ("quote", 1.0),
    ]
    return _service_cells(cells, backends, seed)


def ablation_suite(
    *, backends: Sequence[str] | None = None, seed: int = 0
) -> list[BenchScenario]:
    """``Greedy_All`` across propagation backends — the engine ablation.

    The same placements on every backend, so the wall-clock gap per
    cell measures how much of ``G_All``'s cost the vectorized sweeps
    remove.
    """
    backends = _resolve_backends(backends)
    return _cross(
        [("fig10", None), ("synthetic-sparse", 1.0)],
        ("G_All",),
        8,
        backends,
        seed,
    )


_SUITES = {
    "toy": toy_suite,
    "default": default_suite,
    "ablation": ablation_suite,
    "service": service_suite,
    "compile": compile_suite,
    "probabilistic": probabilistic_suite,
    "parallel": parallel_suite,
    "scale": scale_suite,
    "warm": warm_suite,
}

#: Every built-in suite name, in presentation order.
SUITE_NAMES: tuple[str, ...] = tuple(_SUITES)


def _resolve_backends(backends: Sequence[str] | None) -> tuple[str, ...]:
    if backends is None:
        from repro.backends.registry import available_backends

        return available_backends()
    return tuple(backends)


def get_suite(
    name: str,
    *,
    backends: Sequence[str] | None = None,
    seed: int = 0,
) -> list[BenchScenario]:
    """The scenarios of the suite registered under ``name``."""
    try:
        factory = _SUITES[name]
    except KeyError:
        known = ", ".join(SUITE_NAMES)
        raise ParameterError(
            f"unknown bench suite {name!r}; known suites: {known}"
        ) from None
    return factory(backends=backends, seed=seed)
