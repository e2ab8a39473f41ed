"""The million-node scale tier: streamed ingestion and on-disk graphs.

The :class:`~repro.graphs.cgraph.CGraph` pipeline materializes a python
edge list, per-node tuple adjacency and a dict index — hundreds of bytes
per edge, which caps it around matrix scale.  This module grows the
graph layer past that in three pieces:

* :func:`compile_edge_stream` — compile straight from an edge
  *iterator* into :meth:`CompiledGraph.from_tables
  <repro.graphs.compiled.CompiledGraph.from_tables>`: node ids are
  interned to ``int32`` on the fly (or taken as-is via ``num_nodes``,
  the identity fast path the generators use), edges accumulate in two
  flat ``array('i')`` buffers, and the CSR is built by NumPy stable
  sorts (a pure-python counting build mirrors it bit-for-bit without
  NumPy).  No python edge list ever exists.
* :func:`scale_dag` / :func:`scale_dag_edges` — a seeded SNAP-style
  layered-DAG generator whose edge stream is a pure function of
  ``(scale, seed)``: ``scale=1.0`` is ``n = 10^5``, ``scale=10.0`` is
  ``n = 10^6``.  Edges always point from lower to higher node id, so
  the stream is acyclic by construction and never needs buffering.
* :func:`save_compiled` / :func:`load_compiled` — a ``.fpc`` on-disk
  layout (one directory: ``meta.json`` + raw little-endian arrays) that
  persists the CSR, the topo levelization and the cached reach counts,
  and loads back as ``np.memmap`` views so a million-node graph opens
  in milliseconds and its tables live in the page cache, not the heap.
  :meth:`CompiledGraph.nbytes_split` reports those tables under
  ``"mapped"``.

:class:`StreamedGraph` is the thin graph-protocol face over a
table-built :class:`~repro.graphs.compiled.CompiledGraph` — enough of
the :class:`CGraph` surface (``sources``, ``number_of_nodes``,
``compiled()``, adjacency accessors) for the placement algorithms and
backends to consume it unchanged.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from array import array
from collections.abc import Iterable, Iterator
from math import sqrt
from pathlib import Path
from typing import Hashable

from repro.exceptions import (
    GraphStructureError,
    MissingNodeError,
    ParameterError,
)
from repro.graphs.compiled import CompiledGraph
from repro.graphs.io import EdgeListStream
from repro.sketches.hashing import hash_stream

try:  # CSR sort fast path; every entry point works without it.
    import numpy as _np
except Exception:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

Node = Hashable

#: ``.fpc`` directory format identifier (bump on layout changes).
FPC_FORMAT = "fpc-1"

#: Maximum interned node count of the int32 tier.
_INT32_NODES = 2**31 - 1


class StreamedGraph:
    """A graph that exists only as compiled tables.

    Produced by :func:`compile_edge_stream`, :func:`scale_dag` and
    :func:`load_compiled`; holds no edge list, no adjacency dicts and
    (for identity-interned graphs) not even a node list.  Exposes the
    slice of the :class:`~repro.graphs.cgraph.CGraph` protocol the
    placement stack actually touches; everything routes through the
    compiled tables.  Like ``CGraph``, instances are immutable.
    """

    __slots__ = ("_compiled", "_sources_cache", "__weakref__")

    def __init__(self) -> None:
        self._compiled: CompiledGraph | None = None
        self._sources_cache: frozenset | None = None

    def compiled(self) -> CompiledGraph:
        """The backing :class:`CompiledGraph` (no compile step: it *is*
        the graph)."""
        return self._compiled

    @property
    def sources(self) -> frozenset:
        """The item-generating nodes, as user nodes."""
        if self._sources_cache is None:
            compiled = self._compiled
            nodes = compiled.nodes
            self._sources_cache = frozenset(
                nodes[s] for s in compiled.source_ids
            )
        return self._sources_cache

    @property
    def sources_explicit(self) -> bool:
        """Table-built graphs always carry a pinned source set."""
        return True

    def number_of_nodes(self) -> int:
        return self._compiled.n

    def number_of_edges(self) -> int:
        return self._compiled.m

    def nodes(self):
        """All user nodes in interned-id order (a ``range`` when the
        graph is identity-interned)."""
        return self._compiled.nodes

    def edges(self) -> Iterator[tuple[Node, Node]]:
        """Yield edges in CSR order without materializing them."""
        compiled = self._compiled
        nodes = compiled.nodes
        offsets = compiled.out_offsets
        targets = compiled.out_targets
        for u in range(compiled.n):
            u_node = nodes[u]
            for e in range(offsets[u], offsets[u + 1]):
                yield (u_node, nodes[int(targets[e])])

    def successors(self, node: Node) -> tuple:
        compiled = self._compiled
        i = compiled.to_id(node)
        offsets, targets = compiled.out_offsets, compiled.out_targets
        nodes = compiled.nodes
        return tuple(
            nodes[int(targets[e])]
            for e in range(offsets[i], offsets[i + 1])
        )

    def predecessors(self, node: Node) -> tuple:
        compiled = self._compiled
        i = compiled.to_id(node)
        offsets, sources = compiled.in_offsets, compiled.in_sources
        nodes = compiled.nodes
        return tuple(
            nodes[int(sources[e])]
            for e in range(offsets[i], offsets[i + 1])
        )

    def out_degree(self, node: Node) -> int:
        compiled = self._compiled
        return int(compiled.out_degree[compiled.to_id(node)])

    def in_degree(self, node: Node) -> int:
        compiled = self._compiled
        return int(compiled.in_degree[compiled.to_id(node)])

    def merge_nodes(self) -> tuple:
        """Nodes with in-degree > 1 and at least one outgoing edge."""
        compiled = self._compiled
        nodes = compiled.nodes
        return tuple(nodes[i] for i in compiled.merge_ids)

    def is_dag(self) -> bool:
        return self._compiled.is_dag

    def __contains__(self, node: Node) -> bool:
        try:
            self._compiled.to_id(node)
        except MissingNodeError:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = self._compiled
        return (
            f"StreamedGraph(n={c.n}, m={c.m}, "
            f"sources={len(c.source_ids)}, dag={c.is_dag})"
        )


def _wrap_tables(
    *,
    n: int,
    out_offsets,
    out_targets,
    in_offsets,
    in_sources,
    source_ids,
    nodes=None,
    levels=None,
    mapped=None,
) -> StreamedGraph:
    """Build the StreamedGraph ↔ CompiledGraph pair (weakly linked)."""
    graph = StreamedGraph()
    compiled = CompiledGraph.from_tables(
        n=n,
        out_offsets=out_offsets,
        out_targets=out_targets,
        in_offsets=in_offsets,
        in_sources=in_sources,
        source_ids=source_ids,
        nodes=nodes,
        graph=graph,
        levels=levels,
        mapped=mapped,
    )
    graph._compiled = compiled
    return graph


# ----------------------------------------------------------------------
# Streamed compilation
# ----------------------------------------------------------------------


def compile_edge_stream(
    edges: Iterable[tuple[Node, Node]],
    *,
    sources: Iterable[Node] | None = None,
    isolated: Iterable[Node] = (),
    num_nodes: int | None = None,
) -> StreamedGraph:
    """Compile an edge iterator without materializing an edge list.

    Edges stream once into two flat ``int32`` buffers; node ids are
    interned in first-seen ``(u, v)`` order — exactly
    :class:`~repro.graphs.cgraph.CGraph`'s node order, so compiling the
    same edges here or through ``CGraph(...).compiled()`` yields
    identical tables.  ``num_nodes`` switches to the identity fast
    path: node ids must already be ints in ``[0, num_nodes)`` and are
    used as-is (``nodes`` becomes a memory-free ``range``) — the
    generators' and ``.fpc`` files' case.

    ``sources`` pins the source set (defaulting to the in-degree-zero
    nodes, like ``CGraph``); ``isolated`` adds edge-free nodes.
    Self-loops and duplicate edges raise
    :class:`~repro.exceptions.GraphStructureError`, unknown sources
    :class:`~repro.exceptions.MissingNodeError` — the same contracts as
    the materialized path.
    """
    us = array("i")
    vs = array("i")

    if num_nodes is not None:
        n = int(num_nodes)
        if n < 0 or n > _INT32_NODES:
            raise ParameterError(
                f"num_nodes={num_nodes!r} outside the int32 tier [0, 2^31)"
            )
        for u, v in edges:
            if not (isinstance(u, int) and 0 <= u < n):
                raise MissingNodeError(u)
            if not (isinstance(v, int) and 0 <= v < n):
                raise MissingNodeError(v)
            if u == v:
                raise GraphStructureError(
                    f"self-loop {u!r} -> {v!r} is not allowed in a c-graph"
                )
            us.append(u)
            vs.append(v)
        nodes = None
        node_list = range(n)
    else:
        index: dict[Node, int] = {}
        node_list = []
        append_node = node_list.append
        get_id = index.get
        for u, v in edges:
            iu = get_id(u)
            if iu is None:
                iu = index[u] = len(node_list)
                append_node(u)
            iv = get_id(v)
            if iv is None:
                iv = index[v] = len(node_list)
                append_node(v)
            if iu == iv:
                raise GraphStructureError(
                    f"self-loop {u!r} -> {v!r} is not allowed in a c-graph"
                )
            us.append(iu)
            vs.append(iv)
        for node in isolated:
            if node not in index:
                index[node] = len(node_list)
                append_node(node)
        n = len(node_list)
        if n > _INT32_NODES:  # pragma: no cover - 2^31 nodes
            raise ParameterError("graph exceeds the int32 interning tier")
        nodes = node_list

    m = len(us)
    if _np is not None:
        tables = _csr_from_buffers_numpy(n, m, us, vs, node_list)
    else:
        tables = _csr_from_buffers_python(n, m, us, vs, node_list)
    out_offsets, out_targets, in_offsets, in_sources = tables

    if sources is None:
        if _np is not None:
            indeg = in_offsets[1:] - in_offsets[:-1]
            source_ids = tuple(int(i) for i in (indeg == 0).nonzero()[0])
        else:
            source_ids = tuple(
                i
                for i in range(n)
                if in_offsets[i + 1] == in_offsets[i]
            )
    else:
        if num_nodes is not None:
            ids = set()
            for s in sources:
                if not (isinstance(s, int) and 0 <= s < n):
                    raise MissingNodeError(s)
                ids.add(s)
        else:
            ids = set()
            for s in sources:
                i = index.get(s)
                if i is None:
                    raise MissingNodeError(s)
                ids.add(i)
        source_ids = tuple(sorted(ids))

    return _wrap_tables(
        n=n,
        out_offsets=out_offsets,
        out_targets=out_targets,
        in_offsets=in_offsets,
        in_sources=in_sources,
        source_ids=source_ids,
        nodes=nodes,
    )


def _csr_from_buffers_numpy(n: int, m: int, us: array, vs: array, nodes):
    """Forward + reverse CSR by stable sorts.

    Ordering contract (must match ``CompiledGraph.__init__``): forward
    adjacency groups by ``u`` ascending, keeping input edge order
    within a ``u``; reverse adjacency lists each node's parents by
    ascending interned id.  A stable sort on ``u`` gives the first; a
    stable re-sort of that array on ``v`` gives the second, because
    within one ``v`` the u-sorted order *is* ascending-``u`` order.
    """
    np = _np
    if m == 0:
        empty_off = np.zeros(n + 1, dtype=np.int64)
        empty = np.empty(0, dtype=np.int32)
        return empty_off, empty, empty_off.copy(), empty
    us_a = np.frombuffer(us, dtype=np.int32)
    vs_a = np.frombuffer(vs, dtype=np.int32)
    loops = us_a == vs_a
    if loops.any():
        u = nodes[int(us_a[int(loops.nonzero()[0][0])])]
        raise GraphStructureError(
            f"self-loop {u!r} -> {u!r} is not allowed in a c-graph"
        )
    key = us_a.astype(np.int64) * n + vs_a
    key.sort()
    dup = (key[1:] == key[:-1]).nonzero()[0]
    if len(dup):
        k = int(key[int(dup[0])])
        raise GraphStructureError(
            f"duplicate edge {nodes[k // n]!r} -> {nodes[k % n]!r}"
        )
    order_u = np.argsort(us_a, kind="stable")
    out_targets = np.ascontiguousarray(vs_a[order_u])
    sorted_us = us_a[order_u]
    out_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(us_a, minlength=n), out=out_offsets[1:])
    order_v = np.argsort(out_targets, kind="stable")
    in_sources = np.ascontiguousarray(sorted_us[order_v])
    in_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(vs_a, minlength=n), out=in_offsets[1:])
    return out_offsets, out_targets, in_offsets, in_sources


def _csr_from_buffers_python(n: int, m: int, us: array, vs: array, nodes):
    """The NumPy-free CSR build: counting sort, same ordering contract."""
    out_counts = [0] * n
    in_counts = [0] * n
    seen: set[int] = set()
    for e in range(m):
        u = us[e]
        v = vs[e]
        k = u * n + v
        if k in seen:
            raise GraphStructureError(
                f"duplicate edge {nodes[u]!r} -> {nodes[v]!r}"
            )
        seen.add(k)
        out_counts[u] += 1
        in_counts[v] += 1
    del seen
    out_offsets = [0] * (n + 1)
    in_offsets = [0] * (n + 1)
    for i in range(n):
        out_offsets[i + 1] = out_offsets[i] + out_counts[i]
        in_offsets[i + 1] = in_offsets[i] + in_counts[i]
    # Forward CSR: group by u (stable, so input order survives within u).
    fill = list(out_offsets[:-1])
    out_targets = array("i", bytes(4 * m))
    for e in range(m):
        u = us[e]
        out_targets[fill[u]] = vs[e]
        fill[u] += 1
    # Reverse CSR: walk the forward CSR in ascending u, appending to each
    # target's slot — parents come out ascending by id, exactly like
    # ``CompiledGraph.__init__``'s pred pass.
    fill = list(in_offsets[:-1])
    in_sources = array("i", bytes(4 * m))
    for u in range(n):
        for e in range(out_offsets[u], out_offsets[u + 1]):
            v = out_targets[e]
            in_sources[fill[v]] = u
            fill[v] += 1
    return out_offsets, out_targets, in_offsets, in_sources


def compile_edge_list(
    path: str | Path,
    *,
    sources: Iterable[Node] | None = None,
) -> StreamedGraph:
    """Stream an edge-list file (text or ``.gz``) into compiled tables.

    The chunked reader honors every header directive: ``# sources:``
    pins the source set (unless ``sources`` overrides it) and
    ``# isolated:`` restores edge-free nodes — the same round-trip
    :func:`repro.graphs.io.read_edge_list` guarantees, without the
    intermediate :class:`CGraph`.
    """
    stream = EdgeListStream(path)
    us = array("i")
    vs = array("i")
    index: dict[Node, int] = {}
    node_list: list[Node] = []

    def intern(x: Node) -> int:
        i = index.get(x)
        if i is None:
            i = index[x] = len(node_list)
            node_list.append(x)
        return i

    for u, v in stream.edges():
        iu = intern(u)
        iv = intern(v)
        if iu == iv:
            raise GraphStructureError(
                f"self-loop {u!r} -> {v!r} is not allowed in a c-graph"
            )
        us.append(iu)
        vs.append(iv)
    # Directives are complete once the stream is exhausted.
    for node in stream.isolated:
        intern(node)
    n = len(node_list)
    m = len(us)
    if _np is not None:
        tables = _csr_from_buffers_numpy(n, m, us, vs, node_list)
    else:
        tables = _csr_from_buffers_python(n, m, us, vs, node_list)
    out_offsets, out_targets, in_offsets, in_sources = tables
    if sources is None and stream.sources:
        sources = stream.sources
    if sources is None:
        source_ids = tuple(
            i for i in range(n) if in_offsets[i + 1] == in_offsets[i]
        )
    else:
        ids = set()
        for s in sources:
            i = index.get(s)
            if i is None:
                raise MissingNodeError(s)
            ids.add(i)
        source_ids = tuple(sorted(ids))
    return _wrap_tables(
        n=n,
        out_offsets=out_offsets,
        out_targets=out_targets,
        in_offsets=in_offsets,
        in_sources=in_sources,
        source_ids=source_ids,
        nodes=node_list,
    )


# ----------------------------------------------------------------------
# The scale-dag generator
# ----------------------------------------------------------------------


def scale_dag_size(scale: float) -> int:
    """Node count of the scale-dag at ``scale`` (``1.0`` → ``10^5``)."""
    if scale <= 0:
        raise ParameterError(f"scale must be positive, got {scale!r}")
    return max(10, int(round(100_000 * scale)))


#: Second splitmix stream for parent draws (decorrelated from routing).
_PARENT_STREAM = 0x632BE59BD9B4E019


def scale_dag_edges(
    scale: float = 1.0,
    seed: int = 7,
) -> Iterator[tuple[int, int]]:
    """The scale-dag's edge stream: seeded, layered, id-ascending.

    Nodes ``0..n-1`` partition into ``Θ(√scale)`` contiguous levels.
    Level 0 is parentless; in later levels ~30% of nodes are
    *spontaneous* (new roots — keeping the source count a constant
    fraction of ``n``, the regime the paper's trace datasets show) and
    the rest draw 1–5 distinct parents from a nearby earlier level.
    Every edge satisfies ``u < v``, so the stream is acyclic by
    construction and compiles without buffering.  The stream is a pure
    function of ``(scale, seed)`` — byte-reproducible across runs,
    platforms and NumPy availability.
    """
    n = scale_dag_size(scale)
    levels = max(8, int(round(40.0 * sqrt(scale))))
    per = max(1, n // levels)
    parent_seed = seed ^ _PARENT_STREAM
    for v in range(per, n):
        level = min(v // per, levels - 1)
        h = hash_stream(seed, v)
        if h % 1000 < 300:
            continue  # spontaneous: a fresh root
        hp = h >> 10
        degree = 1 + hp % 5
        back = (hp >> 3) % 4
        j = level - 1 - back
        if j < 0:
            j = 0
        lo = j * per
        width = (j + 1) * per - lo  # level j is per wide for j < levels-1
        # Parents come from a narrow window of the parent level rather
        # than the whole of it: nearby nodes share windows, so parent
        # sets overlap and paths re-converge — the information
        # multiplicity the filter-placement objective actually measures.
        window = width if width < 48 else 48
        base = lo + (hp >> 6) % (width - window + 1)
        picked: list[int] = []
        for t in range(degree):
            u = base + hash_stream(parent_seed, (v << 3) | t) % window
            if u in picked:
                continue  # duplicate draw; degree shrinks by one
            picked.append(u)
            yield (u, v)


def scale_dag(scale: float = 1.0, seed: int = 7) -> StreamedGraph:
    """Compile the scale-dag at ``scale`` via the streamed path.

    ``scale=1.0`` is the 10^5-node tier, ``scale=10.0`` the 10^6 one;
    memory stays at the compiled-table footprint (a few int32 words per
    edge) regardless of scale.  Sources default to the in-degree-zero
    nodes: all of level 0 plus every spontaneous node.
    """
    return compile_edge_stream(
        scale_dag_edges(scale, seed), num_nodes=scale_dag_size(scale)
    )


# ----------------------------------------------------------------------
# The .fpc on-disk layout
# ----------------------------------------------------------------------

#: Array-name → (dtype tag, element size) of the fpc layout.
_DTYPE_CODES = {"int32": ("i", 4), "int64": ("q", 8)}


def _write_array(path: Path, values, typecode: str) -> int:
    """Persist one table as raw native-endian words; returns its length."""
    if _np is not None and type(values).__module__.startswith("numpy"):
        dtype = {"i": _np.int32, "q": _np.int64}[typecode]
        arr = _np.ascontiguousarray(values, dtype=dtype)
        with open(path, "wb") as handle:
            handle.write(arr.tobytes())
        return int(arr.shape[0])
    arr = array(typecode, (int(x) for x in values))
    with open(path, "wb") as handle:
        handle.write(arr.tobytes())
    return len(arr)


def save_compiled(
    graph,
    path: str | Path,
    *,
    include_reach: bool = True,
) -> Path:
    """Persist a compiled graph as a ``.fpc`` directory.

    ``graph`` may be a :class:`StreamedGraph`, a
    :class:`~repro.graphs.cgraph.CGraph` or a raw
    :class:`~repro.graphs.compiled.CompiledGraph`.  The directory holds
    ``meta.json`` plus one raw little-endian binary file per table:
    both CSR directions, the source ids, the full topo levelization,
    and — with ``include_reach`` (default) — the cached per-node reach
    counts when the graph has them, so a reloaded graph skips that
    sweep too.  Index arrays are ``int32`` whenever ``n < 2^31``.

    The snapshot is written into a sibling temporary directory and
    renamed into place only once complete, so a save that fails midway
    leaves any previous snapshot at ``path`` untouched.  An existing
    ``path`` must be an empty directory or a previous ``.fpc`` snapshot
    (which is replaced whole); anything else is refused.

    Node identity: identity-interned graphs (``nodes == range(n)``)
    need no node table; int/str node lists persist as ``nodes.json``;
    anything else (tuple-noded derived graphs) is rejected — those
    belong in the JSON graph format.
    """
    compiled = graph if isinstance(graph, CompiledGraph) else graph.compiled()
    target = Path(path)
    if target.exists() and not (
        target.is_dir()
        and ((target / "meta.json").exists() or not any(target.iterdir()))
    ):
        raise ParameterError(
            f"{target}: exists and is not a .fpc snapshot; refusing to "
            "replace it"
        )
    n = compiled.n
    index_code = "i" if n <= _INT32_NODES else "q"

    nodes_payload = None
    nodes = compiled.nodes
    if not (isinstance(nodes, range) and nodes == range(n)):
        node_list = list(nodes)
        if node_list == list(range(n)):
            nodes_payload = None
        else:
            for node in node_list:
                if not isinstance(node, (int, str)):
                    raise ParameterError(
                        ".fpc supports int/str node ids, got "
                        f"{node!r}; use the JSON graph format"
                    )
            nodes_payload = node_list

    target.parent.mkdir(parents=True, exist_ok=True)
    staging = _sibling(target, "tmp")
    staging.mkdir()
    try:
        _write_snapshot(staging, compiled, index_code, nodes_payload,
                        include_reach)
        _swap_into_place(staging, target)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return target


def _sibling(target: Path, tag: str) -> Path:
    """A fresh hidden path next to ``target`` (same filesystem)."""
    return target.with_name(f".{target.name}.{os.urandom(8).hex()}.{tag}")


def _swap_into_place(staging: Path, target: Path) -> None:
    """Rename a finished snapshot directory onto ``target``.

    ``os.replace`` renames onto a missing or empty directory in one
    step.  A previous snapshot is first renamed aside and deleted only
    once the new one is in place; a crash between those two renames
    leaves the previous snapshot in the hidden ``.old`` sibling.
    """
    try:
        os.replace(staging, target)
        return
    except OSError:
        if not target.is_dir():
            raise
    retired = _sibling(target, "old")
    os.replace(target, retired)
    os.replace(staging, target)
    shutil.rmtree(retired, ignore_errors=True)


def _write_snapshot(
    target: Path,
    compiled: CompiledGraph,
    index_code: str,
    nodes_payload,
    include_reach: bool,
) -> None:
    """Write every table, ``meta.json`` and ``nodes.json`` into ``target``."""
    n = compiled.n
    index_dtype = "int32" if index_code == "i" else "int64"
    arrays: dict[str, dict] = {}

    def persist(name: str, values, typecode: str) -> None:
        length = _write_array(target / f"{name}.bin", values, typecode)
        arrays[name] = {
            "dtype": "int32" if typecode == "i" else "int64",
            "len": length,
        }

    persist("out_offsets", compiled.out_offsets, "q")
    persist("out_targets", compiled.out_targets, index_code)
    persist("in_offsets", compiled.in_offsets, "q")
    persist("in_sources", compiled.in_sources, index_code)
    persist("source_ids", compiled.source_ids, index_code)
    if compiled.is_dag:
        persist("topo_order", compiled.topo_order, index_code)
        persist("topo_index", compiled.topo_index, index_code)
        persist("depth", compiled.depth, index_code)
        persist("level_offsets", compiled.level_offsets, "q")
    if include_reach and compiled._reach_counts is not None:
        persist("reach_counts", compiled._reach_counts, "q")

    meta = {
        "format": FPC_FORMAT,
        "byteorder": sys.byteorder,
        "n": n,
        "m": compiled.m,
        "is_dag": compiled.is_dag,
        "num_levels": compiled.num_levels,
        "index_dtype": index_dtype,
        "arrays": arrays,
    }
    with open(target / "meta.json", "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=1, sort_keys=True)
    if nodes_payload is not None:
        with open(target / "nodes.json", "w", encoding="utf-8") as handle:
            json.dump(nodes_payload, handle)


def load_compiled(path: str | Path) -> StreamedGraph:
    """Open a ``.fpc`` directory as a memory-mapped compiled graph.

    With NumPy, every table comes back as a read-only ``np.memmap`` —
    the open is O(1) in the graph size, pages fault in on demand, and
    :meth:`~repro.graphs.compiled.CompiledGraph.nbytes_split` charges
    the tables to the ``"mapped"`` pool.  Without NumPy the arrays load
    resident (``array.array``) — correct, just not lazy.
    """
    source = Path(path)
    meta_path = source / "meta.json"
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
    except FileNotFoundError:
        raise ParameterError(f"{source}: not a .fpc directory") from None
    if meta.get("format") != FPC_FORMAT:
        raise ParameterError(
            f"{source}: unsupported format {meta.get('format')!r} "
            f"(expected {FPC_FORMAT!r})"
        )
    if meta.get("byteorder") != sys.byteorder:
        raise ParameterError(
            f"{source}: written on a {meta.get('byteorder')}-endian "
            f"machine, this one is {sys.byteorder}-endian"
        )
    n = int(meta["n"])
    arrays = meta["arrays"]
    loaded: dict[str, object] = {}
    mapped: dict[str, int] = {}
    for name, spec in arrays.items():
        file_path = source / f"{name}.bin"
        dtype = spec["dtype"]
        typecode, width = _DTYPE_CODES[dtype]
        expected = int(spec["len"]) * width
        actual = file_path.stat().st_size
        if actual != expected:
            raise ParameterError(
                f"{file_path}: expected {expected} bytes "
                f"({spec['len']} × {dtype}), found {actual}"
            )
        if _np is not None:
            np_dtype = _np.int32 if dtype == "int32" else _np.int64
            if expected:
                table = _np.memmap(
                    file_path, dtype=np_dtype, mode="r"
                )
            else:
                table = _np.empty(0, dtype=np_dtype)
            mapped[name] = expected
        else:
            table = array(typecode)
            if expected:
                with open(file_path, "rb") as handle:
                    table.frombytes(handle.read())
        loaded[name] = table

    nodes = None
    nodes_path = source / "nodes.json"
    if nodes_path.exists():
        with open(nodes_path, "r", encoding="utf-8") as handle:
            nodes = json.load(handle)

    levels = None
    if meta["is_dag"] and "topo_order" in loaded:
        levels = (
            loaded["topo_order"],
            loaded["topo_index"],
            loaded["depth"],
            [int(x) for x in loaded["level_offsets"]],
        )
        # Materialized on load (small); don't double-charge as mapped.
        mapped.pop("level_offsets", None)
    mapped.pop("source_ids", None)  # from_tables copies it to a tuple

    graph = _wrap_tables(
        n=n,
        out_offsets=loaded["out_offsets"],
        out_targets=loaded["out_targets"],
        in_offsets=loaded["in_offsets"],
        in_sources=loaded["in_sources"],
        source_ids=[int(s) for s in loaded["source_ids"]],
        nodes=nodes,
        levels=levels,
        mapped=mapped or None,
    )
    compiled = graph.compiled()
    if "reach_counts" in loaded:
        counts = loaded["reach_counts"]
        if len(counts) != n:
            raise ParameterError(
                f"{source / 'reach_counts.bin'}: {len(counts)} reach "
                f"counts for a graph of {n} nodes"
            )
        # Materialize: the exact sweeps index it per node, and an int
        # list is both faster and honestly charged as resident.
        compiled._reach_counts = [int(c) for c in counts]
        compiled._mapped.pop("reach_counts", None)
    return graph
