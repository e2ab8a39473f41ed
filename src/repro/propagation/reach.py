"""The blocked out-of-core reachability warm (the ``nreach`` builder).

``nreach[v] = #{s : ψ_s(v) > 0}`` is the per-graph constant every
aggregate gain formula consumes (see
:func:`repro.propagation.engine.aggregate_receipts_ids`).  PR 7/8 built
it by materializing the full n×S source-reachability bitset matrix —
O(n·S/8) bytes resident, which at S ≈ 0.3n is the superquadratic warm
wall the scale tier hit (3.4s at n=10^4 → 265s at 5·10^4,
non-terminating at 10^5).

This module replaces that with a **blocked sweep**: sources are iterated
in blocks of B lanes, each block runs the level-synchronous OR
recurrence ``B(v) = own(v) | OR_{p ∈ pred(v)} B(p)`` restricted to its
own lanes, popcounts into an int64 accumulator, and drops its lanes
before the next block starts.  Resident memory is O(n·B/8) — block
size, not source count — and because the blocks partition the source
set, the popcount sums are *exact integer addition*: the result is
bit-identical to the monolithic build for every block size, worker
count, and reduce order.

Two sweep engines, one contract:

* **NumPy plane** — a ``(B/64, n)`` uint64 plane swept with
  ``np.bitwise_or.reduceat`` over per-level in-CSR gathers (built once
  per call, shared by every block).  The fast path whenever NumPy is
  importable.
* **Pure python** — :func:`repro.graphs.compiled.blocked_reach_counts`:
  the same windows as B-bit python ints, dependency-free.

Independent blocks also shard over the cached ProcessPoolExecutor from
:mod:`repro.propagation.parallel`: each worker sweeps one contiguous
source range and returns raw popcount sums, the parent adds the int64
vectors elementwise and applies the source-mark correction once.  The
reduce is associative-commutative integer addition, so any worker count
or completion order produces the identical counts.

Knobs ride the same :class:`~repro.scoping.ScopedDefault` pattern as the
world-worker count — one process-wide default, thread-scoped overrides —
wired to the CLI's ``--reach-block`` / ``--warm-workers`` flags.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any

from repro.exceptions import ParameterError, ReproError
from repro.graphs.compiled import DEFAULT_REACH_BLOCK, blocked_reach_counts
from repro.scoping import ScopedDefault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.compiled import CompiledGraph

#: Below this many sources the process pool is never engaged: worker
#: dispatch ships the in-CSR tables, and a sweep this small finishes
#: before the payloads would even unpickle.
MIN_SOURCES_FOR_POOL = 512


class ReachShardError(ReproError):
    """A blocked-warm worker shard failed; carries the failure's text."""


# Per-thread scoping, like the backend/model/world-worker defaults: the
# service's concurrent jobs must not inherit each other's knobs.
_block: ScopedDefault[int] = ScopedDefault(DEFAULT_REACH_BLOCK)
_warm_workers: ScopedDefault[int] = ScopedDefault(1)


def _check_block(block: int) -> int:
    if not isinstance(block, int) or isinstance(block, bool):
        raise ParameterError("reach block size must be an integer")
    if block < 1:
        raise ParameterError("reach block size must be positive")
    return block


def _check_workers(workers: int) -> int:
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ParameterError("warm workers must be an integer")
    if workers < 1:
        raise ParameterError("warm workers must be positive")
    return workers


def active_reach_block() -> int:
    """The effective source-block size for the calling thread."""
    return _block.get()


def active_warm_workers() -> int:
    """The effective warm-worker count for the calling thread."""
    return _warm_workers.get()


def set_reach_block(block: int) -> None:
    """Set the process-wide blocked-sweep source block size."""
    _block.set_global(_check_block(block))


def set_warm_workers(workers: int) -> None:
    """Set the process-wide warm-worker count (1 = serial)."""
    _warm_workers.set_global(_check_workers(workers))


@contextmanager
def use_reach_block(block: int) -> Iterator[int]:
    """Scope the source block size for a ``with`` block (this thread)."""
    with _block.scoped(_check_block(block)) as value:
        yield value


@contextmanager
def use_warm_workers(workers: int) -> Iterator[int]:
    """Scope the warm-worker count for a ``with`` block (this thread)."""
    with _warm_workers.scoped(_check_workers(workers)) as value:
        yield value


def _numpy_or_none():
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is present in CI
        return None
    return np


def warm_reach_counts(
    compiled: "CompiledGraph",
    *,
    block: int | None = None,
    workers: int | None = None,
) -> list:
    """Build (and cache) ``compiled``'s reach counts via the blocked sweep.

    The single entry point both backends' ``warm()`` paths, the NumPy
    ``_nreach`` build, and the service GraphStore route through.  Cached
    on the compiled graph — the same slot ``.fpc`` persistence
    (:func:`repro.graphs.largescale.save_compiled` /
    ``load_compiled``) round-trips, so a memory-mapped restart skips the
    sweep entirely.

    ``block``/``workers`` default to the thread's scoped knobs
    (:func:`use_reach_block` / :func:`use_warm_workers`).  Results are
    bit-identical across every (engine, block, workers) combination.
    """
    cached = compiled._reach_counts
    if cached is not None:
        return cached
    block = _check_block(active_reach_block() if block is None else block)
    workers = _check_workers(
        active_warm_workers() if workers is None else workers
    )
    from repro.obs.metrics import REGISTRY
    from repro.obs.trace import span

    num_sources = len(compiled.source_ids)
    started = time.perf_counter()
    with span(
        "warm.reach",
        n=compiled.n,
        sources=num_sources,
        block=block,
        workers=workers,
    ):
        np = _numpy_or_none()
        if np is None:
            counts = blocked_reach_counts(compiled, block)
        elif (
            workers > 1
            and num_sources >= MIN_SOURCES_FOR_POOL
            and num_sources > block
        ):
            counts = _sharded_reach_counts(np, compiled, block, workers)
        else:
            raw = _plane_sweep_counts(
                np,
                compiled.n,
                _as_int64(np, compiled.in_offsets),
                _as_int64(np, compiled.in_sources),
                _as_int64(np, compiled.topo_order),
                list(compiled.level_offsets),
                _as_int64(np, compiled.source_ids),
                block,
            )
            counts = _subtract_mark(np, raw, compiled).tolist()
    REGISTRY.counter(
        "fp_warm_reach_blocks_total",
        "Source blocks swept by the blocked reachability warm.",
    ).inc(max(1, -(-num_sources // block)) if num_sources else 0)
    REGISTRY.histogram(
        "fp_warm_seconds",
        "Seconds spent warming per-graph reachability counts.",
    ).observe(time.perf_counter() - started)
    compiled._reach_counts = counts
    return counts


def _as_int64(np, table) -> Any:
    """One contiguous int64 view/copy of a CSR table (list or ndarray)."""
    return np.ascontiguousarray(np.asarray(table, dtype=np.int64))


def _subtract_mark(np, counts, compiled: "CompiledGraph"):
    """Remove each source's own lane bit (``ψ_s(s) = 0`` in a DAG)."""
    if compiled.source_ids:
        counts[np.asarray(compiled.source_ids, dtype=np.intp)] -= 1
    return counts


def _multi_arange(np, starts, lengths):
    """Concatenate ``arange(start, start+length)`` runs, vectorized."""
    keep = lengths > 0
    starts, lengths = starts[keep], lengths[keep]
    if starts.size == 0:
        return np.empty(0, dtype=np.intp)
    steps = np.ones(int(lengths.sum()), dtype=np.intp)
    steps[0] = starts[0]
    run_ends = np.cumsum(lengths)[:-1]
    steps[run_ends] = starts[1:] - (starts[:-1] + lengths[:-1]) + 1
    return np.cumsum(steps)


def _level_gathers(np, n, in_offsets, in_sources, topo, level_offsets):
    """Per-level in-CSR gather tables, built once and shared by blocks.

    For each level L ≥ 1: the level's nodes, the concatenated
    predecessors of those nodes (in-CSR order), and the ``reduceat``
    segment starts.  Every level-L≥1 node has in-degree ≥ 1 (its depth
    is a longest path), so segments are non-empty — ``reduceat``-safe —
    but zero-degree nodes are filtered defensively anyway.
    """
    gathers = []
    for lvl in range(1, len(level_offsets) - 1):
        nodes = topo[level_offsets[lvl]:level_offsets[lvl + 1]]
        counts = in_offsets[nodes + 1] - in_offsets[nodes]
        has = counts > 0
        if not has.all():
            nodes, counts = nodes[has], counts[has]
        if not nodes.size:
            continue
        parents = in_sources[_multi_arange(np, in_offsets[nodes], counts)]
        seg_starts = np.concatenate(
            ([0], np.cumsum(counts)[:-1])
        ).astype(np.intp)
        gathers.append((nodes.astype(np.intp), parents.astype(np.intp),
                        seg_starts))
    return gathers


def _popcount_columns(np, packed):
    """Per-column popcount totals of a ``(lanes, n)`` uint64 plane."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(packed).sum(axis=0, dtype=np.int64)
    bits = np.unpackbits(packed.view(np.uint8), axis=1)
    return bits.reshape(packed.shape[0], -1, 64).sum(
        axis=(0, 2), dtype=np.int64
    )


def _plane_sweep_counts(
    np,
    n: int,
    in_offsets,
    in_sources,
    topo,
    level_offsets,
    sources,
    block: int,
):
    """Raw blocked popcount sums (source mark **not** subtracted).

    The engine both the serial path and the shard workers run: one
    ``(lanes, n)`` uint64 plane per source block, swept level by level
    with ``bitwise_or.reduceat`` over the shared in-CSR gathers, then
    popcounted into the int64 accumulator and dropped.
    """
    counts = np.zeros(n, dtype=np.int64)
    num_sources = int(sources.size)
    if not num_sources or not n:
        return counts
    gathers = _level_gathers(
        np, n, in_offsets, in_sources, topo, level_offsets
    )
    src = sources.astype(np.intp)
    for start in range(0, num_sources, block):
        chunk = src[start:start + block]
        width = int(chunk.size)
        lanes = (width + 63) // 64
        plane = np.zeros((lanes, n), dtype=np.uint64)
        rows = np.arange(width, dtype=np.uint64)
        plane[(rows >> np.uint64(6)).astype(np.intp), chunk] = (
            np.uint64(1) << (rows & np.uint64(63))
        )
        for nodes, parents, seg_starts in gathers:
            plane[:, nodes] |= np.bitwise_or.reduceat(
                plane[:, parents], seg_starts, axis=1
            )
        counts += _popcount_columns(np, plane)
    return counts


# ----------------------------------------------------------------------
# Process-parallel sharding (contiguous source ranges, exact reduce)
# ----------------------------------------------------------------------


def _reach_shard_worker(payload: tuple) -> bytes:
    """Sweep one contiguous source range in a worker process.

    ``payload`` ships the raw in-CSR and topo tables as native-endian
    int64 bytes — *not* a :func:`~repro.propagation.parallel.graph_spec`,
    which would materialize every edge as a python tuple and defeat the
    streamed tiers.  Returns the shard's raw popcount sums as int64
    bytes; the parent owns the source-mark correction.
    """
    (n, in_off_b, in_src_b, topo_b, level_offsets, src_b, lo, hi,
     block) = payload
    import numpy as np

    in_offsets = np.frombuffer(in_off_b, dtype=np.int64)
    in_sources = np.frombuffer(in_src_b, dtype=np.int64)
    topo = np.frombuffer(topo_b, dtype=np.int64)
    sources = np.frombuffer(src_b, dtype=np.int64)[lo:hi]
    counts = _plane_sweep_counts(
        np, n, in_offsets, in_sources, topo, level_offsets, sources, block
    )
    return counts.tobytes()


def _sharded_reach_counts(
    np, compiled: "CompiledGraph", block: int, workers: int
) -> list:
    """Shard contiguous source ranges over the cached process pool.

    Each worker returns an independent int64 popcount vector; the parent
    sums them elementwise (exact integer addition — any worker count or
    completion order yields bit-identical totals) and subtracts the
    source mark exactly once.
    """
    from repro.propagation.parallel import (
        _drop_pool,
        _get_pool,
        shard_ranges,
    )

    n = compiled.n
    src = _as_int64(np, compiled.source_ids)
    tables = (
        n,
        _as_int64(np, compiled.in_offsets).tobytes(),
        _as_int64(np, compiled.in_sources).tobytes(),
        _as_int64(np, compiled.topo_order).tobytes(),
        list(compiled.level_offsets),
        src.tobytes(),
    )
    ranges = shard_ranges(len(compiled.source_ids), workers)
    payloads = [tables + (lo, hi, block) for lo, hi in ranges]
    pool = _get_pool(workers)
    try:
        futures = [pool.submit(_reach_shard_worker, p) for p in payloads]
        shards = [f.result() for f in futures]
    except Exception as exc:
        # BrokenProcessPool (a died worker) poisons the pool; plain
        # worker exceptions do not, but dropping is always safe.
        _drop_pool(workers)
        raise ReachShardError(
            f"blocked warm shard failed ({workers} workers): "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    counts = np.zeros(n, dtype=np.int64)
    for shard in shards:
        counts += np.frombuffer(shard, dtype=np.int64)
    return _subtract_mark(np, counts, compiled).tolist()
