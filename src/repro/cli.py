"""Command-line interface: ``filter-placement`` / ``python -m repro``.

Subcommands
-----------
``place``
    Run a placement algorithm on a dataset (built-in or edge-list file)
    and print the chosen filters with their Filter Ratio.  ``--json``
    emits the machine-readable payload instead — the *same* payload the
    HTTP service returns, produced by the shared serializer
    (:mod:`repro.service.serialize`).
``stats``
    Structural summary of a dataset (``--json`` for machine-readable).
``experiment``
    Run paper-figure experiments (thin wrapper over
    :mod:`repro.experiments.runner`).
``generate``
    Write a built-in dataset to an edge-list file.  The header records
    the generating spec (dataset, seed, scale) and the structural
    directives that make the file a lossless round-trip — re-registering
    the generated file yields the same content digest.
``serve``
    Boot the placement service (:mod:`repro.service`): a graph store,
    placement cache and worker pool behind a stdlib HTTP JSON API.

``--backend {python,numpy,auto}`` selects the propagation backend
(``auto``, the default, uses NumPy when available); every backend returns
identical results.

``--strategy {exact,sketch}`` (on ``place`` and ``experiment``)
selects the execution strategy: ``exact`` runs the direct
implementations and ``sketch`` runs sketch-capable algorithms on bottom-k
reachability estimates (:mod:`repro.sketches`), the million-node scale
tier.  ``--sketch-k`` / ``--epsilon`` /
``--sketch-seed`` (on ``place``) tune the estimator; ``--streamed``
builds ``--dataset scale-dag`` through the streaming compiler
(:mod:`repro.graphs.largescale`) instead of materializing a python
edge list, which is how ``--scale 10`` (n = 10^6) stays feasible.

``--trace`` / ``--profile PATH`` (on ``place`` and ``experiment``)
record the run's spans via :mod:`repro.obs` and print the
timing tree / write Chrome ``trace_event`` JSON.  ``serve`` grows
``--log-format {text,json}`` for the access log and traces every job so
``GET /traces/{job_id}`` serves the solve's span tree (``--no-trace``
opts out).

``--model {deterministic,live-edge,per-copy}`` with ``--edge-prob`` and
``--trials`` (on ``place`` and ``experiment``) selects the
propagation model: ``deterministic`` (the default, and anything with
edge probability 1) takes the exact integer fast path unchanged, while
the probabilistic models score every model-aware evaluation as a seeded
sample average over live-edge worlds (the run's ``--seed`` seeds the
sampler).

Examples
--------
::

    filter-placement place --dataset quote --algorithm G_All -k 4
    filter-placement place --edges my_graph.txt --algorithm G_Max -k 10
    filter-placement place --dataset citation -k 10 --backend numpy
    filter-placement place --dataset citation -k 10 --json
    filter-placement place --dataset scale-dag --scale 1.0 --streamed \
        -k 10 --strategy sketch --sketch-k 64
    filter-placement place --dataset quote -k 8 --model live-edge \
        --edge-prob 0.7 --trials 64
    filter-placement stats --dataset citation --scale 0.1 --json
    filter-placement experiment fig7 --fast
    filter-placement generate --dataset twitter --scale 0.05 --seed 7 -o t.txt
    filter-placement serve --port 8080 --workers 8
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from collections.abc import Sequence

from repro.analysis.metrics import describe
from repro.analysis.report import format_stats_table, format_table
from repro.backends.registry import BACKEND_NAMES, use_backend
from repro.core.objective import filter_ratio, max_objective, phi
from repro.core.registry import (
    ALGORITHM_NAMES,
    STRATEGY_NAMES,
    get_algorithm,
)
from repro.datasets.loaders import load_real_dataset
from repro.datasets.registry import DATASET_NAMES, get_dataset
from repro.exceptions import ReproError
from repro.graphs.cgraph import CGraph
from repro.graphs.io import write_edge_list


def _load_graph(args: argparse.Namespace) -> CGraph:
    if args.edges is not None:
        return load_real_dataset(args.edges, initiator=args.initiator)
    kwargs: dict[str, object] = {"seed": args.seed}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if getattr(args, "streamed", False):
        if args.dataset != "scale-dag":
            from repro.exceptions import ParameterError

            raise ParameterError(
                "--streamed applies to --dataset scale-dag only; the "
                "other datasets materialize python edge lists by design"
            )
        kwargs["streamed"] = True
    return get_dataset(args.dataset, **kwargs)


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--dataset",
        choices=DATASET_NAMES,
        help="built-in dataset name",
    )
    group.add_argument("--edges", help="edge-list file (one 'u v' per line)")
    parser.add_argument(
        "--initiator",
        default=None,
        help="source node for edge-list input (default: auto-detect)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=None)


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="auto",
        help="propagation backend (default: auto = numpy when available)",
    )


def _add_strategy_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strategy",
        choices=STRATEGY_NAMES,
        default="exact",
        help="execution strategy: exact = direct implementations, "
        "sketch = CELF on bottom-k reachability estimates "
        "(the scale tier; default: exact)",
    )


def _add_sketch_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.sketches.bottomk import DEFAULT_SKETCH_K

    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--sketch-k",
        type=int,
        default=None,
        metavar="K",
        help="bottom-k sketch registers per node under --strategy sketch "
        f"(default: {DEFAULT_SKETCH_K}; more registers, tighter estimates)",
    )
    group.add_argument(
        "--epsilon",
        type=float,
        default=None,
        metavar="EPS",
        help="target relative estimator error under --strategy sketch; "
        "chooses the register count k(EPS) instead of --sketch-k",
    )
    parser.add_argument(
        "--sketch-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="seed of the sketch's source hashes (default: 0; any fixed "
        "seed gives byte-reproducible sketches)",
    )
    parser.add_argument(
        "--streamed",
        action="store_true",
        help="build --dataset scale-dag through the streaming compiler "
        "(no python edge list; required for --scale 10, n = 10^6)",
    )


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.propagation.model import DEFAULT_TRIALS, MODEL_NAMES

    parser.add_argument(
        "--model",
        choices=MODEL_NAMES,
        default="deterministic",
        help="propagation model: deterministic = every edge always "
        "relays (exact integers, the default), live-edge / per-copy = "
        "probabilistic relaying scored by a seeded sample average over "
        "live-edge worlds",
    )
    parser.add_argument(
        "--edge-prob",
        type=float,
        default=1.0,
        metavar="P",
        help="uniform edge relay probability for probabilistic models "
        "(default: 1.0, which is deterministic relaying)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=DEFAULT_TRIALS,
        help="Monte-Carlo worlds the sample-average objective uses "
        f"(default: {DEFAULT_TRIALS}; the run's --seed seeds the sampler)",
    )


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record spans for the run and print the timing tree",
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="write the run's spans as Chrome trace_event JSON to PATH "
        "(load in chrome://tracing or Perfetto)",
    )


def _add_warm_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.graphs.compiled import DEFAULT_REACH_BLOCK

    parser.add_argument(
        "--reach-block",
        type=int,
        default=None,
        metavar="B",
        help="source-block size of the blocked reachability warm "
        f"(default: {DEFAULT_REACH_BLOCK} lanes; one sweep holds "
        "O(n·B/8) bytes)",
    )
    parser.add_argument(
        "--warm-workers",
        type=int,
        default=None,
        metavar="W",
        help="process-pool workers sharding the reachability warm over "
        "source ranges (default: 1 = in-process sweep; results are "
        "bit-identical for every worker count)",
    )


@contextlib.contextmanager
def _warm_scoped(args: argparse.Namespace):
    """Scope the blocked-warm knobs around a command.

    ``--reach-block`` / ``--warm-workers`` bind the thread-scoped
    defaults in :mod:`repro.propagation.reach` for the command's
    duration; unset flags leave the process defaults untouched.
    """
    from repro.propagation.reach import use_reach_block, use_warm_workers

    with contextlib.ExitStack() as stack:
        if getattr(args, "reach_block", None) is not None:
            stack.enter_context(use_reach_block(args.reach_block))
        if getattr(args, "warm_workers", None) is not None:
            stack.enter_context(use_warm_workers(args.warm_workers))
        yield


@contextlib.contextmanager
def _observed(args: argparse.Namespace):
    """Enable tracing around a command when ``--trace``/``--profile`` ask.

    The command's spans collect under one explicit trace; on exit the
    tree is printed (``--trace``) and/or dumped as Chrome ``trace_event``
    JSON (``--profile PATH``).  Without either flag this is a no-op and
    the instrumentation stays on its disabled fast path.
    """
    trace_flag = getattr(args, "trace", False)
    profile_path = getattr(args, "profile", None)
    if not trace_flag and profile_path is None:
        yield
        return
    from repro.obs.trace import TRACER, chrome_trace, format_trace

    was_enabled = TRACER.enabled
    TRACER.enable()
    try:
        with TRACER.trace(command=args.command) as trace:
            yield
    finally:
        if not was_enabled:
            TRACER.disable()
    if trace_flag:
        print()
        print(format_trace(trace))
    if profile_path is not None:
        with open(profile_path, "w", encoding="utf-8") as fh:
            json.dump(chrome_trace(trace), fh, indent=2, sort_keys=True)
        print(f"wrote Chrome trace to {profile_path}")


def _build_cli_model(args: argparse.Namespace):
    """The resolved PropagationModel of a command line (None = exact)."""
    from repro.propagation.model import build_model

    return build_model(
        args.model,
        edge_prob=args.edge_prob,
        trials=args.trials,
        seed=args.seed,
    )


def _cmd_place(args: argparse.Namespace) -> int:
    # Scoped, not set_default_backend: main() is also a library entry
    # point and must not leak a changed process default to its caller.
    with use_backend(args.backend):
        # _warm_scoped outside _observed: its first-use import of the
        # reach module must not bill milliseconds to the trace that the
        # place.* phase spans cannot account for.
        with _warm_scoped(args), _observed(args):
            return _run_place(args)


def _run_place(args: argparse.Namespace) -> int:
    from repro.obs.trace import span

    with span("place.load", seed=args.seed):
        graph = _load_graph(args)
        model = _build_cli_model(args)
        algorithm = get_algorithm(
            args.algorithm,
            strategy=args.strategy,
            model=model,
            sketch_k=args.sketch_k,
            epsilon=args.epsilon,
            sketch_seed=args.sketch_seed,
        )
    with span("place.solve", algorithm=args.algorithm, k=args.k):
        result = algorithm.place(graph, args.k)
    with span("place.score"):
        return _report_place(args, graph, model, result)


def _report_place(args, graph, model, result) -> int:
    if args.json:
        from repro.service.serialize import placement_payload

        print(json.dumps(placement_payload(graph, result, model=model),
                         indent=2, sort_keys=True))
        return 0
    rows = [[str(i + 1), repr(v)] for i, v in enumerate(result.filters)]
    print(format_table(["#", "filter node"], rows))
    print()
    print(f"algorithm      : {result.algorithm}")
    print(f"requested k    : {args.k}")
    print(f"filters chosen : {len(result.filters)}")
    if result.rescored is not None:
        status = "exactly rescored" if result.rescored else "estimate only"
        print(f"sketch gains   : {status}")
    if result.rescored is False:
        # The graph sits beyond the sketch tier's exact-rescore guard;
        # two more full sweeps just to print Φ would defeat the tier.
        estimate = float(sum(result.estimated_gains))
        print(f"F(A) estimate  : {estimate:g}  (bottom-k estimator)")
        return 0
    if model is not None:
        # SAA estimates over the model's sampled worlds — floats, and
        # mutually consistent because every value shares the worlds.
        from repro.core.objective import expected_phi

        phi_empty_x = expected_phi(graph, (), model=model)
        phi_a_x = expected_phi(graph, result.filters, model=model)
        f_max_x = phi_empty_x - expected_phi(
            graph, graph.nodes(), model=model
        )
        objective_x = phi_empty_x - phi_a_x
        fr_x = 1.0 if f_max_x == 0 else objective_x / f_max_x
        print(f"model          : {model.mechanism} "
              f"(edge prob {args.edge_prob:g}, {model.trials} trials, "
              f"seed {model.seed})")
        print(f"E[Phi(empty)]  : {phi_empty_x:.3f}")
        print(f"E[Phi(A)]      : {phi_a_x:.3f}")
        print(f"E[F(A)]        : {objective_x:.3f}")
        print(f"Filter Ratio   : {fr_x:.4f}  (sample average)")
        return 0
    phi_empty = phi(graph, ())
    f_max = max_objective(graph, phi_empty=phi_empty)
    fr = filter_ratio(
        graph, result.filters, phi_empty=phi_empty, f_max=f_max
    )
    print(f"Phi(empty)     : {phi_empty}")
    print(f"Phi(A)         : {phi(graph, result.filters)}")
    print(f"F(A)           : {phi_empty - phi(graph, result.filters)}")
    print(f"Filter Ratio   : {fr:.4f}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    name = args.dataset or str(args.edges)
    if args.json:
        from repro.service.serialize import stats_payload

        print(json.dumps(stats_payload(name, describe(graph)), indent=2,
                         sort_keys=True))
        return 0
    print(format_stats_table({name: describe(graph)}))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    # Record the generating spec so the workload documents its own
    # provenance; a fixed --seed makes the file byte-reproducible.
    meta: dict[str, object] = {"seed": args.seed}
    if args.dataset is not None:
        meta["dataset"] = args.dataset
    else:
        meta["edges"] = str(args.edges)
    if args.scale is not None:
        meta["scale"] = args.scale
    write_edge_list(graph, args.output, meta=meta)
    print(
        f"wrote {graph.number_of_nodes()} nodes / "
        f"{graph.number_of_edges()} edges to {args.output}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging

    from repro.obs.trace import TRACER
    from repro.service.app import ServiceApp
    from repro.service.http import make_server

    # Access logs (repro.service at INFO) need a handler to be seen;
    # json lines stay unadorned so each stderr line is one JSON object.
    logger = logging.getLogger("repro.service")
    if not logger.handlers:
        handler = logging.StreamHandler()
        if args.log_format == "text":
            handler.setFormatter(
                logging.Formatter("%(asctime)s %(levelname)s %(message)s")
            )
        logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    # Jobs trace their solves under the job id so GET /traces/{job_id}
    # can serve the span tree; --no-trace opts the service out.
    if args.no_trace:
        TRACER.disable()
    else:
        TRACER.enable()
    # Warm knobs bind process-wide here (not thread-scoped): jobs warm
    # graphs from pool threads, which would never see a scoped override
    # made on the boot thread.
    if args.reach_block is not None or args.warm_workers is not None:
        from repro.propagation.reach import (
            set_reach_block,
            set_warm_workers,
        )

        if args.reach_block is not None:
            set_reach_block(args.reach_block)
        if args.warm_workers is not None:
            set_warm_workers(args.warm_workers)
    app = ServiceApp(
        workers=args.workers,
        pool=args.pool,
        cache_entries=args.cache_entries,
        cache_bytes=args.cache_bytes,
        max_graphs=args.max_graphs,
        world_workers=args.world_workers,
        persist_dir=args.persist_dir,
    )
    for spec in args.preload:
        entry, _ = app.store.register_dataset(spec)
        print(f"preloaded {entry.name} as {entry.digest[:12]}")
    server = make_server(
        app,
        args.host,
        args.port,
        verbose=args.verbose,
        log_format=args.log_format,
    )
    # Ephemeral binds (--port 0) print the real port; scripts parse this.
    print(
        f"filter-placement service listening on "
        f"http://{args.host}:{server.port}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.shutdown()
        server.server_close()
        app.close()
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.runner import main as runner_main

    forwarded = list(args.names)
    if args.fast:
        forwarded.append("--fast")
    if args.scale is not None:
        forwarded.extend(["--scale", str(args.scale)])
    forwarded.extend(["--seed", str(args.seed)])
    forwarded.extend(["--backend", args.backend])
    forwarded.extend(["--strategy", args.strategy])
    forwarded.extend(["--model", args.model])
    forwarded.extend(["--edge-prob", str(args.edge_prob)])
    # The runner's own --trials is the experiments' repetition knob, so
    # the Monte-Carlo sample count travels under a distinct name.
    forwarded.extend(["--mc-trials", str(args.trials)])
    with _observed(args):
        return runner_main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filter-placement",
        description="Filter placement for minimizing information multiplicity "
        "(VLDB 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    place = sub.add_parser("place", help="choose filter nodes")
    _add_graph_arguments(place)
    place.add_argument(
        "--algorithm",
        default="G_All",
        choices=ALGORITHM_NAMES,
    )
    place.add_argument("-k", type=int, required=True, help="filter budget")
    _add_backend_argument(place)
    _add_strategy_argument(place)
    _add_sketch_arguments(place)
    _add_model_arguments(place)
    place.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable payload (identical to the "
        "service's POST /placements result)",
    )
    _add_observability_arguments(place)
    _add_warm_arguments(place)
    place.set_defaults(func=_cmd_place)

    stats = sub.add_parser("stats", help="dataset structural summary")
    _add_graph_arguments(stats)
    stats.add_argument(
        "--json", action="store_true", help="emit machine-readable stats"
    )
    stats.set_defaults(func=_cmd_stats)

    generate = sub.add_parser("generate", help="write dataset edge list")
    _add_graph_arguments(generate)
    generate.add_argument("-o", "--output", required=True)
    generate.set_defaults(func=_cmd_generate)

    experiment = sub.add_parser("experiment", help="run paper experiments")
    experiment.add_argument("names", nargs="+")
    experiment.add_argument("--fast", action="store_true")
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--scale", type=float, default=None)
    _add_backend_argument(experiment)
    _add_strategy_argument(experiment)
    _add_model_arguments(experiment)
    _add_observability_arguments(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    from repro.service.jobs import POOL_KINDS
    from repro.service.store import DEFAULT_MAX_GRAPHS

    serve = sub.add_parser(
        "serve", help="run the placement service (HTTP JSON API)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port (0 = ephemeral; the bound port is printed)",
    )
    serve.add_argument(
        "--workers", type=int, default=4, help="placement worker pool size"
    )
    serve.add_argument(
        "--world-workers",
        type=int,
        default=1,
        help="process-pool workers sharding Monte-Carlo worlds inside "
        "each placement job (1 = serial evaluation)",
    )
    serve.add_argument(
        "--pool",
        choices=POOL_KINDS,
        default="thread",
        help="worker pool kind: thread shares the resident graphs, "
        "process isolates long big-int exact runs (default: thread)",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=1024,
        help="placement cache entry bound (default: 1024)",
    )
    serve.add_argument(
        "--cache-bytes",
        type=int,
        default=32 * 1024 * 1024,
        help="placement cache size bound in bytes (default: 32 MiB)",
    )
    serve.add_argument(
        "--max-graphs",
        type=int,
        default=DEFAULT_MAX_GRAPHS,
        help=f"LRU bound on resident graphs (default: {DEFAULT_MAX_GRAPHS})",
    )
    serve.add_argument(
        "--preload",
        nargs="*",
        default=[],
        metavar="DATASET",
        help="built-in datasets to register at boot",
    )
    serve.add_argument(
        "--persist-dir",
        default=None,
        metavar="DIR",
        help="directory of .fpc plan snapshots: DAG registrations are "
        "persisted there (compiled tables + warmed reach counts) and "
        "memory-mapped back at the next boot",
    )
    _add_warm_arguments(serve)
    from repro.service.http import LOG_FORMATS

    serve.add_argument(
        "--log-format",
        choices=LOG_FORMATS,
        default="text",
        help="access-log rendering: text = human-readable lines, "
        "json = one JSON object per line (default: text)",
    )
    serve.add_argument(
        "--no-trace",
        action="store_true",
        help="disable job tracing (GET /traces/{job_id} will 404)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
