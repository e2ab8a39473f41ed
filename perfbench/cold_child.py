"""One cold placement in a fresh interpreter (the cold-place child).

Run by ``cold_place.py``, one child at a time, never by hand:

    python3 perfbench/cold_child.py KIND SEED TRACE

``KIND`` is ``import`` (start and import only, the set-up probe),
``exact``, ``sketch`` or ``rescore`` (the python-backend check of an
exact objective; reads ``FILTERS`` as JSON from standard input).  The
child prints one JSON object on standard output.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from lib import Tracer, use_source_tree

use_source_tree()

#: scale-dag at scale 1: n = 10^5, m ≈ 2·10^5, about 3.2·10^4 sources.
SCALE = 1.0
K = 10


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def exact(seed: int, tracer: Tracer) -> dict:
    from repro.backends import get_backend, use_backend
    from repro.core import get_algorithm, max_objective, phi
    from repro.graphs.largescale import scale_dag
    from repro.obs import REGISTRY
    from repro.propagation import reach
    from repro.service.serialize import canonical_dumps, placement_payload

    from lib import TimedBackend

    blocks = REGISTRY.counter(
        "fp_warm_reach_blocks_total",
        "Source blocks swept by the blocked reachability warm.",
    )
    numpy_backend = get_backend("numpy")
    backend = TimedBackend(numpy_backend, tracer) if tracer.enabled else (
        numpy_backend
    )
    with tracer.span("cold.exact"):
        start = time.perf_counter()
        with tracer.span("graphs.ingest"):
            graph = scale_dag(SCALE, seed=seed)
            compiled = graph.compiled()
        # Coldness guard: an exact Φ evaluation fills the reach counts, so
        # counts that exist before the timed warm mean something (the Φ
        # constants, say) ran first; a full warm sweeps ⌈S/block⌉ blocks.
        reach_before = getattr(compiled, "_reach_counts", None)
        blocks_before = blocks.value()
        with tracer.span("propagation.reach.warm"):
            reach.warm_reach_counts(compiled)
        swept = blocks.value() - blocks_before
        with tracer.span("backends.warm"):
            numpy_backend.warm(graph)
        with use_backend(backend):
            with tracer.span("core.solve"):
                result = get_algorithm("G_All").place(graph, K)
            with tracer.span("core.objective.score"):
                phi_empty = phi(graph, ())
                constants = (phi_empty, max_objective(graph, phi_empty=phi_empty))
                payload = placement_payload(
                    graph, result, phi_empty=constants[0], f_max=constants[1]
                )
        with tracer.span("service.serialize"):
            text = canonical_dumps(payload)
        wall = time.perf_counter() - start
    return {
        "kind": "exact",
        "wall_s": wall,
        "rss_mb": _rss_mb(),
        "sources": len(compiled.source_ids),
        "block": reach.active_reach_block(),
        "blocks_swept": swept,
        "reach_before": reach_before is not None,
        "filters": payload["filters"],
        "objective": payload["objective"],
        "filter_ratio": payload["filter_ratio"],
        "payload": text,
    }


def sketch(seed: int, tracer: Tracer) -> dict:
    from repro.core import get_algorithm
    from repro.graphs.largescale import scale_dag
    from repro.service.serialize import canonical_dumps, placement_payload

    with tracer.span("cold.sketch"):
        start = time.perf_counter()
        with tracer.span("graphs.ingest"):
            graph = scale_dag(SCALE, seed=seed)
            graph.compiled()
        with tracer.span("sketches.place"):
            result = get_algorithm("G_All", strategy="sketch").place(graph, K)
        with tracer.span("core.objective.score"):
            payload = placement_payload(graph, result)
        with tracer.span("service.serialize"):
            text = canonical_dumps(payload)
        wall = time.perf_counter() - start
    return {
        "kind": "sketch",
        "wall_s": wall,
        "rss_mb": _rss_mb(),
        "filters": payload["filters"],
        "payload": text,
    }


def rescore(seed: int, filters: list) -> dict:
    """Φ(∅) − Φ(A) on the exact python backend."""
    from repro.core import phi
    from repro.graphs.largescale import scale_dag

    graph = scale_dag(SCALE, seed=seed)
    nodes = [int(f) for f in filters]
    objective = phi(graph, (), backend="python") - phi(
        graph, nodes, backend="python"
    )
    return {"kind": "rescore", "objective": objective}


def main(argv: list[str]) -> int:
    kind, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    tracer = Tracer(traced)
    if kind == "import":
        import repro.core  # noqa: F401
        import repro.graphs.largescale  # noqa: F401
        import repro.propagation.reach  # noqa: F401
        import repro.service.serialize  # noqa: F401

        out = {"kind": "import"}
    elif kind == "exact":
        out = exact(seed, tracer)
    elif kind == "sketch":
        out = sketch(seed, tracer)
    elif kind == "rescore":
        out = rescore(seed, json.loads(sys.stdin.read()))
    else:
        raise SystemExit(f"unknown child kind {kind!r}")
    out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
