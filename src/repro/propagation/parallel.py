"""Process-parallel sampled-world evaluation (split-by-world-range).

Worlds are an independent, common-random-number sample axis: trial ``t``
of a :class:`~repro.propagation.sampling.SampledWorlds` depends only on
``(graph, probabilities, trials, seed)`` — never on any other trial.
Splitting ``range(trials)`` into per-worker sub-ranges and summing the
shard results is therefore embarrassingly parallel, and because every
shard sum is an exact Python integer, the reduce is associative and
commutative: **any** shard ordering produces the bit-identical total the
serial loop produces.  That is the determinism contract
``tests/test_parallel_worlds.py`` locks down.

Sharding protocol
-----------------
Workers cannot share the parent's graph (compiled views hold weakrefs
and are deliberately unpicklable), so each shard ships a *picklable
spec* — ``(edges, nodes, sources)`` — and the worker rebuilds and
caches the graph per process.  Worlds are then **re-sampled in full**
inside the worker (one seeded pure-Python pass — cheap next to the
sweeps) and only the shard's ``[lo, hi)`` trial range is evaluated, so
every worker sees exactly the worlds the serial path sees.

The pool is armed per thread via :func:`use_world_workers` (or process-
wide via :func:`set_world_workers`, the CLI ``--workers`` wiring); the
sampling functions consult :func:`active_workers` and fall back to the
serial loop whenever the pool is off, the world count is below
:data:`MIN_WORLDS_FOR_POOL`, or they are already evaluating an explicit
shard (which is also what makes worker-side re-dispatch impossible under
``fork`` start methods).

Worker failures surface as :class:`WorldShardError` — a clean exception
in the caller, never a hang; the ``__crash__`` payload kind is the
regression seam the crash test injects through (monkeypatching module
attributes does not survive the spawn/forkserver start methods).
"""

from __future__ import annotations

import atexit
import threading
from collections import OrderedDict
from collections.abc import Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any

from repro.exceptions import ParameterError, ReproError
from repro.scoping import ScopedDefault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.cgraph import CGraph
    from repro.propagation.model import PropagationModel

#: Below this many worlds the pool is never engaged: process dispatch
#: and world re-sampling overhead would dominate the sweeps saved.
MIN_WORLDS_FOR_POOL = 8

#: Payload kinds :func:`_shard_worker` evaluates.  ``__crash__`` is the
#: crash-path regression seam: it raises inside the worker process so
#: tests can assert the parent surfaces a clean error without hanging.
SHARD_KINDS: tuple[str, ...] = (
    "marginal_gains",
    "simplified_impacts",
    "total_receipts",
    "__crash__",
)


class WorldShardError(ReproError):
    """A worker shard failed; carries the original failure's text."""


# Per-thread scoping, like the backend/model defaults: the service's
# concurrent jobs must not inherit each other's worker counts.
_workers: ScopedDefault[int] = ScopedDefault(1)

# Diagnostics the threshold-skip test reads: how many evaluations went
# to the pool since process start (or the last reset).
_pool_dispatches = 0


def pool_dispatches() -> int:
    """Evaluations dispatched to the process pool so far."""
    return _pool_dispatches


def active_workers() -> int:
    """The effective world-worker count for the calling thread."""
    return _workers.get()


def _check_workers(workers: int) -> int:
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ParameterError("workers must be an integer")
    if workers < 1:
        raise ParameterError("workers must be positive")
    return workers


def set_world_workers(workers: int) -> None:
    """Set the process-wide world-worker count (1 = serial)."""
    _workers.set_global(_check_workers(workers))


@contextmanager
def use_world_workers(workers: int) -> Iterator[int]:
    """Scope the world-worker count for a ``with`` block (this thread)."""
    with _workers.scoped(_check_workers(workers)) as value:
        yield value


def shard_ranges(trials: int, workers: int) -> list[tuple[int, int]]:
    """Split ``range(trials)`` into ≤ ``workers`` contiguous sub-ranges.

    Remainder trials go to the leading shards, so shard sizes differ by
    at most one and no shard is ever empty.
    """
    workers = min(workers, trials)
    base, extra = divmod(trials, workers)
    ranges: list[tuple[int, int]] = []
    lo = 0
    for i in range(workers):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def graph_spec(graph: "CGraph") -> tuple:
    """The picklable identity a worker rebuilds the graph from."""
    return (
        tuple(graph.edges()),
        graph.nodes(),
        tuple(graph.sources) if graph.sources_explicit else None,
    )


# ----------------------------------------------------------------------
# Worker side (module-level: must pickle by qualified name)
# ----------------------------------------------------------------------

#: Graphs rebuilt in this worker process, LRU-bounded.  Keyed by the
#: spec itself (hashable tuples), so repeated shards of one placement
#: run rebuild — and re-sample worlds for — each graph exactly once.
_worker_graphs: "OrderedDict[tuple, CGraph]" = OrderedDict()

_MAX_WORKER_GRAPHS = 4


def _rebuild_graph(spec: tuple) -> "CGraph":
    from repro.graphs.cgraph import CGraph

    cached = _worker_graphs.get(spec)
    if cached is not None:
        _worker_graphs.move_to_end(spec)
        return cached
    edges, nodes, sources = spec
    graph = CGraph(edges, nodes=nodes, sources=sources)
    if graph.nodes() != tuple(nodes):
        # CGraph interns nodes in edge-endpoint first-appearance order,
        # which need not survive a round-trip through ``edges()``.  Node
        # order drives ``edges()`` iteration and therefore the world
        # sampler's RNG consumption — the determinism anchor of the
        # whole sharding contract — so restore the parent's order
        # verbatim before any derived state (topo order, compiled view,
        # sampled worlds) is built off it.
        graph._nodes = tuple(nodes)
    _worker_graphs[spec] = graph
    while len(_worker_graphs) > _MAX_WORKER_GRAPHS:
        _worker_graphs.popitem(last=False)
    return graph


def _shard_worker(payload: tuple) -> Any:
    """Evaluate one world shard in a worker process.

    ``payload`` is ``(kind, spec, filter_ids, model, lo, hi)``.
    The explicit ``trial_range`` keeps the worker on the serial path —
    even when a ``fork``-started child inherits a process-wide worker
    count, it can never re-dispatch to a nested pool.
    """
    kind = payload[0]
    if kind == "__crash__":
        raise RuntimeError("injected crash (test seam)")
    kind, spec, filter_ids, model, lo, hi = payload
    graph = _rebuild_graph(spec)
    from repro.propagation import sampling

    if kind == "marginal_gains":
        return sampling.sampled_marginal_gains_ids_exact(
            graph, filter_ids, model=model, trial_range=(lo, hi)
        )
    if kind == "simplified_impacts":
        return sampling.sampled_simplified_impacts_ids_exact(
            graph, filter_ids, model=model, trial_range=(lo, hi)
        )
    if kind == "total_receipts":
        compiled = graph.compiled()
        return sampling.sampled_total_receipts_exact(
            graph,
            compiled.to_nodes(filter_ids),
            model=model,
            trial_range=(lo, hi),
        )
    raise ParameterError(f"unknown shard kind {kind!r}")


# ----------------------------------------------------------------------
# Parent side: pool cache + sharded evaluation
# ----------------------------------------------------------------------

_pools: dict[int, Any] = {}
_pools_lock = threading.Lock()


def _get_pool(workers: int):
    from concurrent.futures import ProcessPoolExecutor

    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=workers)
            _pools[workers] = pool
        return pool


def _drop_pool(workers: int) -> None:
    """Forget a (possibly broken) pool so the next call starts fresh."""
    with _pools_lock:
        pool = _pools.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


@atexit.register
def _shutdown_pools() -> None:  # pragma: no cover - interpreter teardown
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


def should_shard(trials: int, trial_range: "tuple[int, int] | None") -> bool:
    """True when the calling evaluation should go to the pool."""
    return (
        trial_range is None
        and active_workers() > 1
        and trials >= MIN_WORLDS_FOR_POOL
    )


def evaluate_sharded(
    kind: str,
    graph: "CGraph",
    filter_ids: list[int],
    model: "PropagationModel",
    *,
    workers: int | None = None,
    order: str = "forward",
) -> Any:
    """Evaluate ``kind`` over all of ``model``'s worlds on the pool.

    Returns exactly what the serial function returns: shard results are
    integers (or lists of integers), and integer addition is associative
    and commutative, so the reduce is bit-identical to the serial loop
    for *any* ``order`` ("forward"/"reverse" submit-and-reduce order —
    both are exercised by the determinism tests).

    Any worker failure — an exception inside the shard or a died worker
    process — is re-raised here as :class:`WorldShardError`; the pool is
    dropped when broken so later calls recover with a fresh one.
    """
    global _pool_dispatches
    if kind not in SHARD_KINDS:
        raise ParameterError(f"unknown shard kind {kind!r}")
    if order not in ("forward", "reverse"):
        raise ParameterError(f"unknown shard order {order!r}")
    workers = _check_workers(
        active_workers() if workers is None else workers
    )
    spec = graph_spec(graph)
    ranges = shard_ranges(model.trials, workers)
    if order == "reverse":
        ranges = ranges[::-1]
    payloads = [
        (kind, spec, list(filter_ids), model, lo, hi)
        for lo, hi in ranges
    ]
    pool = _get_pool(workers)
    _pool_dispatches += 1
    try:
        futures = [pool.submit(_shard_worker, p) for p in payloads]
        shard_results = [f.result() for f in futures]
    except WorldShardError:
        raise
    except Exception as exc:
        # BrokenProcessPool (a worker process died) poisons the pool;
        # plain worker exceptions do not, but dropping is always safe.
        _drop_pool(workers)
        raise WorldShardError(
            f"world shard failed ({kind}, {workers} workers): "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    first = shard_results[0]
    if isinstance(first, int):
        return sum(shard_results)
    total = list(first)
    for shard in shard_results[1:]:
        for v, value in enumerate(shard):
            if value:
                total[v] += value
    return total
