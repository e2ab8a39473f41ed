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

* **NumPy node-major plane** — :func:`_node_major_counts`.  One
  ``(N + 1, B/64)`` uint64 plane whose rows are the *live* nodes,
  relabelled level by level, so each level writes one contiguous row
  slice and each parent gather reads one contiguous ``8·B/64``-byte
  row.  Before the first block, a reduction pass shrinks the sweep
  without changing a single count:

  - **contraction** — a non-source node with one in-neighbour ``p``
    has ``B(v) = B(p)``, so it leaves the plane and copies the count at
    the end: ``nreach(v) = nreach(p) + [p ∈ sources]``;
  - **reach-bound pruning** — one ``maximum`` sweep gives ``hi(v)``,
    the highest source rank reaching ``v``; each level is ordered by
    descending ``hi``, so the rows block ``[b0, b0+B)`` can touch are
    a prefix of the level and everything past it is provably zero.

  Each level ORs in its j-th in-neighbours one column at a time (a
  gather while the column is at least half full, a gather/scatter
  below that, one ``bitwise_or.reduce`` per hub row past the thin
  columns), so the work per block is O(edges·B/64) whatever the
  maximum in-degree.  The fast path whenever NumPy is importable.
* **Pure python** — :func:`repro.graphs.compiled.blocked_reach_counts`:
  the same windows as B-bit python ints, dependency-free, and the
  reference the NumPy engine is fuzzed against.

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

    The single entry point both backends' ``warm()`` paths,
    :meth:`~repro.graphs.compiled.CompiledGraph.reach_counts`, the NumPy
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
            raw = _node_major_counts(
                np, *_compiled_tables(np, compiled), block
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


def _compiled_tables(np, compiled: "CompiledGraph") -> tuple:
    """``(n, in_offsets, in_sources, topo, level_offsets, sources)``: the
    leading arguments of :func:`_node_major_counts`, as int64 arrays."""
    return (
        compiled.n,
        _as_int64(np, compiled.in_offsets),
        _as_int64(np, compiled.in_sources),
        _as_int64(np, compiled.topo_order),
        list(compiled.level_offsets),
        _as_int64(np, compiled.source_ids),
    )


def _subtract_mark(np, counts, compiled: "CompiledGraph"):
    """Remove each source's own lane bit (``ψ_s(s) = 0`` in a DAG)."""
    if compiled.source_ids:
        counts[np.asarray(compiled.source_ids, dtype=np.intp)] -= 1
    return counts


def _popcount_rows(np, rows):
    """Per-row popcount totals of a ``(rows, words)`` uint64 slice."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
    bits = np.unpackbits(rows.view(np.uint8), axis=1)
    return bits.sum(axis=1, dtype=np.int64)


#: A level's j-th in-neighbour column is ORed in as one vectorized
#: gather/scatter only while at least this many of its rows have a j-th
#: in-neighbour; the few rows left past that column (hubs) each fold
#: their remaining in-neighbours with one ``bitwise_or.reduce``.  Per
#: level that is about ``edges/_MIN_COLUMN + _MIN_COLUMN`` numpy calls,
#: so a single hub can neither pad the level nor multiply the calls.
_MIN_COLUMN = 16


class _Level:
    """One level's rows ``[start, stop)`` and its in-neighbour columns.

    ``dense`` holds one parent-row array per column, padded over the
    whole level with the zero row; a column is dense only while at
    least half the level has a j-th in-neighbour, so padding at most
    doubles its work.  ``sparse`` columns are ``(targets, parents)``
    pairs in ascending target row; ``hubs`` are ``(row, parents)``.
    """

    __slots__ = ("start", "stop", "dense", "sparse", "hubs")

    def __init__(self, start: int, stop: int) -> None:
        self.start = start
        self.stop = stop
        self.dense: list[Any] = []
        self.sparse: list[tuple[Any, Any]] = []
        self.hubs: list[tuple[int, Any]] = []


class _SweepLayout:
    """The reduced, relabelled graph every source block sweeps.

    Built once per call (O(m log m)), shared by every block:

    * ``hi[v]`` — the highest source rank that reaches ``v`` (its own
      rank for a source; -1 when no source does), by one level-ordered
      ``maximum`` sweep.  Block ``[b0, b0+B)`` can only set bits in
      nodes with ``hi ≥ b0``.
    * **Contraction** — a non-source node with a single in-neighbour
      ``p`` carries exactly ``p``'s lanes, so it leaves the sweep and
      copies the raw popcount of ``rep[v]`` (the first non-contracted
      ancestor up its in-degree-1 chain) at the end.  Sources keep
      their rows: their own bit must survive.
    * **Rows** — the live nodes (non-contracted, ``hi ≥ 0``) relabelled
      level by level and, inside a level, by descending ``hi``: each
      level is one contiguous row slice and the rows a block can touch
      are a prefix of it.  Row ``live`` (one past the last) stays zero;
      edges from nodes no source reaches are dropped.
    """

    def __init__(self, np, n, in_offsets, in_sources, topo, level_offsets,
                 sources):
        intp = np.intp
        num_sources = int(sources.size)
        num_levels = len(level_offsets) - 1
        indeg = np.diff(in_offsets).astype(intp, copy=False)
        dst = np.repeat(np.arange(n, dtype=intp), indeg)
        par = in_sources.astype(intp, copy=False)
        level = np.empty(n, dtype=intp)
        level[topo.astype(intp, copy=False)] = np.repeat(
            np.arange(num_levels, dtype=intp), np.diff(level_offsets)
        )
        rank = np.full(n, -1, dtype=np.int64)
        rank[sources.astype(intp, copy=False)] = np.arange(
            num_sources, dtype=np.int64
        )

        # hi: one maximum sweep over the edges, grouped by target level.
        hi = rank.copy()
        by_level = np.argsort(level[dst], kind="stable")
        bounds = np.searchsorted(
            level[dst][by_level], np.arange(num_levels + 1)
        ).tolist()
        for lvl in range(1, num_levels):
            sel = by_level[bounds[lvl]:bounds[lvl + 1]]
            if sel.size:
                np.maximum.at(hi, dst[sel], hi[par[sel]])

        # Contraction: pointer-jump every in-degree-1 chain to its head.
        rep = np.arange(n, dtype=intp)
        contracted = (indeg == 1) & (rank < 0)
        rep[contracted] = par[in_offsets[:-1][contracted]]
        while True:
            jumped = rep[rep]
            if np.array_equal(jumped, rep):
                break
            rep = jumped
        self.contracted = np.flatnonzero(contracted)
        self.rep = rep[self.contracted]

        # Rows: live nodes by (level, descending hi).
        live_nodes = np.flatnonzero(~contracted & (hi >= 0))
        live_nodes = live_nodes[
            np.lexsort((-hi[live_nodes], level[live_nodes]))
        ]
        live = int(live_nodes.size)
        row = np.full(n, -1, dtype=intp)
        row[live_nodes] = np.arange(live, dtype=intp)
        row_level = level[live_nodes]
        self.live = live
        self.live_nodes = live_nodes
        # Level-major key, ascending: row r of level L is reached by
        # block b0 iff key[r] ≤ L·S + (S-1-b0), i.e. hi[r] ≥ b0.
        self.row_key = row_level.astype(np.int64) * num_sources + (
            num_sources - 1 - hi[live_nodes]
        )
        self.num_sources = num_sources
        self.level_base = np.arange(num_levels, dtype=np.int64) * num_sources
        starts = np.searchsorted(row_level, np.arange(num_levels + 1))
        self.levels = {
            lvl: _Level(int(starts[lvl]), int(starts[lvl + 1]))
            for lvl in range(num_levels)
            if starts[lvl + 1] > starts[lvl]
        }

        # Edges between live rows, redirected through contracted chains
        # and deduplicated (OR is idempotent), sorted by (target, parent).
        keep = row[dst] >= 0
        tgt = row[dst[keep]]
        src = row[rep[par[keep]]]
        keep = src >= 0
        pair = np.sort(tgt[keep].astype(np.int64) * (live + 1) + src[keep])
        if pair.size:
            pair = pair[np.concatenate(([True], pair[1:] != pair[:-1]))]
        tgt = (pair // (live + 1)).astype(intp, copy=False)
        src = (pair % (live + 1)).astype(intp, copy=False)
        deg = np.bincount(tgt, minlength=live)
        col = np.arange(tgt.size, dtype=intp) - (np.cumsum(deg) - deg)[tgt]

        # Group by (level, column); a stable sort keeps the target rows
        # ascending inside a group.
        columns = int(deg.max(initial=0)) + 1
        group = row_level[tgt].astype(np.int64) * columns + col
        order = np.argsort(group, kind="stable")
        tgt, src, col = tgt[order], src[order], col[order]
        tgt_level = row_level[tgt]
        cut = (np.flatnonzero(
            (tgt_level[1:] != tgt_level[:-1]) | (col[1:] != col[:-1])
        ) + 1).tolist()
        hub_levels: set[int] = set()
        hub_edges: list[Any] = []
        for a, b in zip([0] + cut, cut + [int(tgt.size)]):
            if a == b:
                continue  # no edges at all
            index = int(tgt_level[a])
            if index in hub_levels:
                continue  # folded with the level's first thin column
            lvl = self.levels[index]
            width = lvl.stop - lvl.start
            first = not (lvl.dense or lvl.sparse)
            if (
                not lvl.sparse
                and 2 * (b - a) >= width
                and (first or b - a >= _MIN_COLUMN)
            ):
                padded = np.full(width, live, dtype=intp)
                padded[tgt[a:b] - lvl.start] = src[a:b]
                lvl.dense.append(padded)
            elif b - a >= _MIN_COLUMN:
                lvl.sparse.append((tgt[a:b], src[a:b]))
            else:
                # The level's first thin column: every remaining
                # in-neighbour folds into its row one row at a time.
                hub_levels.add(index)
                z = int(np.searchsorted(tgt_level, index, "right"))
                hub_edges.append(np.arange(a, z))
        if hub_edges:
            pick = np.concatenate(hub_edges)
            h_order = np.argsort(tgt[pick], kind="stable")
            h_tgt, h_src = tgt[pick][h_order], src[pick][h_order]
            bounds = np.flatnonzero(h_tgt[1:] != h_tgt[:-1]) + 1
            starts = [0] + bounds.tolist()
            for a, b in zip(starts, starts[1:] + [int(h_tgt.size)]):
                r = int(h_tgt[a])
                self.levels[int(row_level[r])].hubs.append((r, h_src[a:b]))

        # Sources by rank: their rows and levels.
        self.source_rows = row[sources.astype(intp, copy=False)]
        self.source_levels = row_level[self.source_rows]

    def level_ends(self, np, b0: int) -> list[int]:
        """Per level: one past the last row block ``b0`` can touch."""
        return np.searchsorted(
            self.row_key, self.level_base + (self.num_sources - 1 - b0),
            side="right",
        ).tolist()


def _own_bits(np, lay: _SweepLayout, b0: int, b1: int) -> dict:
    """Block ``[b0, b1)``'s own lane bits as (rows, words, bits) per level."""
    lane = np.arange(b1 - b0, dtype=np.uint64)
    words = (lane >> np.uint64(6)).astype(np.intp)
    bits = np.uint64(1) << (lane & np.uint64(63))
    rows = lay.source_rows[b0:b1]
    levels = lay.source_levels[b0:b1]
    order = np.argsort(levels, kind="stable")
    cut = np.flatnonzero(np.diff(levels[order]) != 0) + 1
    return {
        int(levels[part[0]]): (rows[part], words[part], bits[part])
        for part in np.split(order, cut)
    }


def _node_major_counts(
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

    The engine both the serial path and the shard workers run.  One
    ``(live + 1, B/64)`` uint64 node-major plane is reused by every
    source block of B lanes.  Level by level, each level's rows (one
    contiguous slice) are refilled from their first in-neighbour's rows,
    ORed with the j-th in-neighbour column by column, given their own
    lane bits, and popcounted into a per-row accumulator.  Block
    ``[b0, b0+B)`` only sweeps each level's ``hi ≥ b0`` prefix; rows
    that leave a prefix are zeroed once, so every row outside the
    prefixes reads as zero.
    """
    counts = np.zeros(n, dtype=np.int64)
    num_sources = int(sources.size)
    if not num_sources or not n:
        return counts
    lay = _SweepLayout(
        np, n, in_offsets, in_sources, topo, level_offsets, sources
    )
    words = (min(block, num_sources) + 63) // 64
    plane = np.zeros((lay.live + 1, words), dtype=np.uint64)
    row_counts = np.zeros(lay.live, dtype=np.int64)
    widest = max(lvl.stop - lvl.start for lvl in lay.levels.values())
    buf = np.empty((widest, words), dtype=np.uint64)
    prev_ends = lay.level_ends(np, 0)  # every live row: hi ≥ 0
    for b0 in range(0, num_sources, block):
        ends = lay.level_ends(np, b0)
        own = _own_bits(np, lay, b0, min(b0 + block, num_sources))
        for index, lvl in lay.levels.items():
            a, e = lvl.start, ends[index]
            if prev_ends[index] > e:
                plane[e:prev_ends[index]] = 0
            if e == a:
                continue
            k = e - a
            rows = plane[a:e]
            if lvl.dense:
                gathered = buf[:k]
                np.take(plane, lvl.dense[0][:k], 0, gathered, "clip")
                rows[...] = gathered
                for parents in lvl.dense[1:]:
                    np.take(plane, parents[:k], 0, gathered, "clip")
                    rows |= gathered
            else:
                rows[...] = 0
            for targets, parents in lvl.sparse:
                stop = int(np.searchsorted(targets, e))
                if stop:
                    plane[targets[:stop]] |= plane[parents[:stop]]
            for r, parents in lvl.hubs:
                if r < e:
                    plane[r] |= np.bitwise_or.reduce(plane[parents], axis=0)
            if index in own:
                src_rows, src_words, src_bits = own[index]
                plane[src_rows, src_words] |= src_bits
            row_counts[a:e] += _popcount_rows(np, rows)
        prev_ends = ends
    counts[lay.live_nodes] = row_counts
    counts[lay.contracted] = counts[lay.rep]
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
    counts = _node_major_counts(
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

    n, in_offsets, in_sources, topo, level_offsets, src = (
        _compiled_tables(np, compiled)
    )
    tables = (
        n,
        in_offsets.tobytes(),
        in_sources.tobytes(),
        topo.tobytes(),
        level_offsets,
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
