"""paper-sweep: the paper's own experiment, in one process.

Set-up generates, compiles and warms every graph and makes the first
sampled evaluation of each (graph, model).  The measured loop then
runs rounds until the measuring time is up; a round is always
completed.  A round holds one deterministic pass (G_All, G_Max, G_1, G_L
at every k on every graph, each placement scored to its objective) and
one live-edge SAA pass, with the SAA cells spread evenly among the
deterministic ones.

This is a batch workload, so its figures are work done per second of
measuring: a pass's time is the mean over the run's rounds.  The host
the baseline was taken on switches between two speeds every few
seconds.  Interleaving the cells lets both passes sample the whole
run, and a mean moves with the share of time spent at each speed,
where a median of a few passes jumps between them.
"""

from __future__ import annotations

import time

from lib import (
    DEFAULT_SEED,
    LayerSplit,
    Report,
    TimedBackend,
    Tracer,
    peak_rss_mb,
    roots_named,
)

#: (dataset, scale) of the deterministic cells; None is the default scale.
GRAPHS = (
    ("quote", None),
    ("twitter", None),
    ("citation", None),
    ("synthetic-sparse", 2.0),
    ("synthetic-dense", None),
)
ALGORITHMS = ("G_All", "G_Max", "G_1", "G_L")
KS = (1, 5, 10, 20)

#: The SAA cells: live-edge relaying, p = 0.9, 64 sampled worlds.
SAA_GRAPHS = (("quote", 2.2), ("synthetic-sparse", 2.0))
#: Instances of each SAA graph per run, with graph seeds
#: ``SAA_INSTANCES * seed + j``.  An SAA sweep's cost follows the
#: instance's structure by up to 15%; two instances halve that spread
#: between seeds.
SAA_INSTANCES = 2
SAA_ALGORITHMS = ("G_All", "G_Max", "G_L")
SAA_K = 10
EDGE_PROB = 0.9
TRIALS = 64

#: The SAA graph small enough to re-run on the python backend every run
#: (its first instance).
SAA_PYTHON_CHECKED = ("quote", 2.2)


def graph_label(name: str, scale: float | None) -> str:
    return name if scale is None else f"{name}@{scale:g}"


def saa_specs(seed: int) -> list[tuple[str, str, float, int]]:
    """``(label, dataset, scale, graph seed)`` of every SAA graph."""
    return [
        (f"{graph_label(name, scale)}/seed{graph_seed}", name, scale, graph_seed)
        for name, scale in SAA_GRAPHS
        for graph_seed in range(SAA_INSTANCES * seed, SAA_INSTANCES * (seed + 1))
    ]


def _graph(name, scale, seed):
    from repro.datasets.registry import get_dataset

    kwargs = {"seed": seed}
    if scale is not None:
        kwargs["scale"] = scale
    return get_dataset(name, **kwargs)


def model_for(seed: int):
    from repro.propagation.model import build_model

    return build_model("live-edge", edge_prob=EDGE_PROB, trials=TRIALS, seed=seed)


class Sweep:
    """The graphs, constants and backend of one set-up."""

    def __init__(self, seed: int, tracer: Tracer) -> None:
        from repro.backends import get_backend
        from repro.core import max_objective, phi
        from repro.core.objective import expected_phi
        from repro.obs import REGISTRY
        from repro.propagation import reach

        self.tracer = tracer
        numpy_backend = get_backend("numpy")
        self.backend = (
            TimedBackend(numpy_backend, tracer) if tracer.enabled else numpy_backend
        )
        self.model = model_for(seed)
        self.graphs = {}
        self.constants = {}
        self.saa_graphs = {}
        self.saa_phi_empty = {}
        #: Seconds each graph's generation took, by label.
        self.generate_s = {}
        blocks = REGISTRY.counter(
            "fp_warm_reach_blocks_total",
            "Source blocks swept by the blocked reachability warm.",
        )
        before = blocks.value()
        specs = [(graph_label(n, sc), n, sc, seed) for n, sc in GRAPHS]
        made = {}
        with tracer.span("setup"):
            for label, name, scale, graph_seed in specs + saa_specs(seed):
                graph = made.get((name, scale, graph_seed))
                if graph is None:
                    started = time.perf_counter()
                    with tracer.span("datasets.generate"):
                        graph = _graph(name, scale, graph_seed)
                    self.generate_s[label] = time.perf_counter() - started
                    with tracer.span("graphs.compile"):
                        compiled = graph.compiled()
                    with tracer.span("propagation.reach.warm"):
                        reach.warm_reach_counts(compiled)
                    with tracer.span("backends.warm"):
                        numpy_backend.warm(graph)
                    made[(name, scale, graph_seed)] = graph
                self.graphs[label] = graph
            for label, *_ in specs:
                graph = self.graphs[label]
                with tracer.span("core.objective.score"):
                    phi_empty = phi(graph, (), backend=self.backend)
                    self.constants[label] = (
                        phi_empty,
                        max_objective(graph, phi_empty=phi_empty, backend=self.backend),
                    )
            for label, *_ in saa_specs(seed):
                graph = self.graphs[label]
                with tracer.span("propagation.sampling.worlds"):
                    numpy_backend.sampled_marginal_gains_ids(graph, (), model=self.model)
                with tracer.span("core.objective.score"):
                    self.saa_phi_empty[label] = expected_phi(
                        graph, (), model=self.model, backend=self.backend
                    )
                self.saa_graphs[label] = graph
        self.blocks = blocks.value() - before

    def _deterministic_cells(self) -> list:
        from repro.core import get_algorithm, objective_value

        tracer = self.tracer
        cells = []
        for label, graph in self.graphs.items():
            if label not in self.constants:
                continue
            phi_empty, f_max = self.constants[label]
            for alg in ALGORITHMS:
                for k in KS:
                    def run(graph=graph, alg=alg, k=k, phi_empty=phi_empty, f_max=f_max):
                        with tracer.span("core.solve"):
                            result = get_algorithm(alg).place(graph, k)
                        with tracer.span("core.objective.score"):
                            objective = objective_value(
                                graph, result.filters, phi_empty=phi_empty
                            )
                        return (
                            [repr(v) for v in result.filters],
                            objective,
                            1.0 if f_max == 0 else objective / f_max,
                        )

                    cells.append(("det", (label, alg, k), run))
        return cells

    def _saa_cells(self) -> list:
        from repro.core import get_algorithm
        from repro.core.objective import expected_phi

        tracer = self.tracer
        cells = []
        for label, graph in self.saa_graphs.items():
            phi_empty = self.saa_phi_empty[label]
            for alg in SAA_ALGORITHMS:
                def run(graph=graph, alg=alg, phi_empty=phi_empty):
                    with tracer.span("core.solve"):
                        result = get_algorithm(alg, model=self.model).place(graph, SAA_K)
                    with tracer.span("core.objective.score"):
                        objective = phi_empty - expected_phi(
                            graph, result.filters, model=self.model
                        )
                    return [repr(v) for v in result.filters], objective

                cells.append(("saa", (label, alg, SAA_K), run))
        return cells

    def schedule(self) -> list:
        """One round: every deterministic cell in order, with the SAA
        cells spread evenly among them, as ``(kind, key, run)``."""
        det, saa = self._deterministic_cells(), self._saa_cells()
        cells, pending = [], iter(saa)
        for i, cell in enumerate(det):
            cells.append(cell)
            due = (i + 1) * len(saa) // len(det) - i * len(saa) // len(det)
            cells.extend(next(pending) for _ in range(due))
        return cells

    def round(self, cells: list) -> tuple[dict, dict, float, float]:
        """Run every cell once.  Returns the deterministic and SAA results
        and the seconds spent on each kind."""
        from repro.backends import use_backend

        out = {"det": {}, "saa": {}}
        spent = {"det": 0.0, "saa": 0.0}
        with self.tracer.span("round"), use_backend(self.backend):
            for kind, key, run in cells:
                started = time.perf_counter()
                out[kind][key] = run()
                spent[kind] += time.perf_counter() - started
        return out["det"], out["saa"], spent["det"], spent["saa"]


def run(seed: int, seconds: float, tracer: Tracer, refs: dict) -> Report:
    report = Report("paper-sweep", seed, tracer.enabled)
    start = time.perf_counter()
    sweep = Sweep(seed, tracer)
    setup_s = time.perf_counter() - start

    cells = sweep.schedule()
    det_spent, saa_spent = [], []
    det_first = saa_first = None
    start = time.perf_counter()
    while not det_spent or time.perf_counter() - start < seconds:
        det, saa, det_s, saa_s = sweep.round(cells)
        det_spent.append(det_s)
        saa_spent.append(saa_s)
        report.attempted += len(det) + len(saa)
        if det_first is None:
            det_first, saa_first = det, saa
        report.check(det == det_first, "a deterministic pass differs from the first")
        report.check(saa == saa_first, "an SAA pass differs from the first")
    rss = peak_rss_mb()

    _check(report, seed, sweep, det_first, saa_first, refs)

    n_det, n_saa = len(det_first), len(saa_first)
    det_pass_s = sum(det_spent) / len(det_spent)
    saa_pass_s = sum(saa_spent) / len(saa_spent)
    placements_per_s = n_det / det_pass_s
    saa_placements_per_s = n_saa / saa_pass_s
    ops_per_s = (
        (n_det * len(det_spent) + n_saa * len(saa_spent))
        / (sum(det_spent) + sum(saa_spent))
    )
    report.name("setup_s", setup_s, "s", "one set-up")
    report.name("placements_per_s", placements_per_s, "1/s",
                f"{n_det} cells per pass, over {len(det_spent)} rounds")
    report.name("saa_placements_per_s", saa_placements_per_s, "1/s",
                f"{n_saa} cells per pass, over {len(saa_spent)} rounds")
    report.name("deterministic_pass_ms", det_pass_s * 1e3, "ms",
                f"mean of {len(det_spent)}")
    report.name("saa_pass_ms", saa_pass_s * 1e3, "ms",
                f"mean of {len(saa_spent)}")
    report.name("peak_rss_mb", rss, "MB", "VmHWM of the benchmark process")
    for label, seconds in sweep.generate_s.items():
        report.name(f"generate_s[{label}]", seconds, "s", "set-up, one graph")
    report.end_to_end = {
        "setup_s": (setup_s, "s"),
        "main_ms": (det_pass_s * 1e3, "ms"),
        "alt_ms": (saa_pass_s * 1e3, "ms"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    if tracer.enabled:
        _layers(report, tracer, sweep)
    return report


def _check(report, seed, sweep, det, saa, refs) -> None:
    """numpy against python on every seed; against references on the
    default seed."""
    from repro.backends import get_backend, use_backend
    from repro.core import get_algorithm, objective_value
    from repro.core.objective import expected_phi

    python = get_backend("python")
    with use_backend(python):
        for label, graph in sweep.graphs.items():
            if label not in sweep.constants:
                continue
            phi_empty, _ = sweep.constants[label]
            for alg in ALGORITHMS:
                longest = get_algorithm(alg).place(graph, max(KS))
                for k in KS:
                    if longest.prefix_consistent:
                        filters = longest.filters[:k]
                    else:
                        filters = get_algorithm(alg).place(graph, k).filters
                    objective = objective_value(graph, filters, phi_empty=phi_empty)
                    got = det[(label, alg, k)]
                    report.check(
                        got[0] == [repr(v) for v in filters] and got[1] == objective,
                        f"numpy and python differ on {label} {alg} k={k}",
                    )
        label = next(
            spec[0] for spec in saa_specs(seed) if spec[1:3] == SAA_PYTHON_CHECKED
        )
        graph = sweep.saa_graphs[label]
        phi_empty = expected_phi(graph, (), model=sweep.model)
        for alg in SAA_ALGORITHMS:
            result = get_algorithm(alg, model=sweep.model).place(graph, SAA_K)
            objective = phi_empty - expected_phi(graph, result.filters, model=sweep.model)
            got = saa[(label, alg, SAA_K)]
            report.check(
                got == ([repr(v) for v in result.filters], objective),
                f"numpy and python differ on SAA {label} {alg}",
            )
    if seed == DEFAULT_SEED:
        ref = refs["paper-sweep"]
        for key, (filters, objective, _) in det.items():
            want = ref["deterministic"][" ".join(map(str, key))]
            report.check(
                [filters, objective] == want,
                f"{' '.join(map(str, key))} differs from the reference",
            )
        for key, got in saa.items():
            want = ref["saa"][" ".join(map(str, key))]
            report.check(
                list(got) == want,
                f"SAA {' '.join(map(str, key))} differs from the reference",
            )


def _layers(report: Report, tracer: Tracer, sweep: Sweep) -> None:
    spans = tracer.spans
    passes = roots_named(spans, "round")
    split = LayerSplit(spans, passes)
    setup = LayerSplit(spans, roots_named(spans, "setup"))
    layer = report.per_layer
    layer["datasets.generate_s"] = (setup.sum_self("datasets.generate"), "s")
    layer["graphs.compile_s"] = (setup.sum_self("graphs.compile"), "s")
    layer["propagation.reach.warm_s"] = (setup.sum_self("propagation.reach.warm"), "s")
    layer["propagation.reach.blocks"] = (float(sweep.blocks), "count")
    layer["backends.warm_s"] = (setup.sum_self("backends.warm"), "s")
    layer["propagation.sampling.worlds_s"] = (
        setup.sum_self("propagation.sampling.worlds"), "s"
    )
    layer["core.solve_s"] = (split.mean_total("core.solve"), "s")
    layer["core.select_s"] = (split.mean_self("core.solve"), "s")
    layer["backends.sweep_s"] = (split.mean_self("backends.sweep"), "s")
    layer["backends.sweeps"] = (split.count("backends.sweep") / len(passes), "count")
    layer["backends.sampled_sweep_s"] = (split.mean_self("backends.sampled_sweep"), "s")
    layer["backends.sampled_sweeps"] = (
        split.count("backends.sampled_sweep") / len(passes), "count"
    )
    layer["core.objective.score_s"] = (split.mean_self("core.objective.score"), "s")
    layer["unattributed_s"] = (sum(split.unattributed) / len(passes), "s")
    report.layer_split = split
    report.notes.append(
        "set-up layers are totals over the one set-up; the others are "
        "means per measured round (one deterministic and one SAA pass)"
    )
