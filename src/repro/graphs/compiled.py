"""The compile-once graph core: interned node ids + shared CSR plans.

Every quantity the placement layers compute — ``Φ`` evaluations, marginal
gains, plists — is a topological sweep over the same c-graph, yet
historically each layer re-derived its own view of it: the exact engine
walked dict-of-tuples adjacency, the NumPy backend built a private CSR
plan, and the service warmed one plan per backend.  :class:`CompiledGraph`
replaces all of that with **one** frozen, integer-interned view, built in
a single pass and cached on the immutable :class:`~repro.graphs.cgraph.CGraph`
(:meth:`~repro.graphs.cgraph.CGraph.compiled`).

Layout
------
Nodes are *interned*: node ``i`` is ``nodes[i]`` and ``index[node] = i``,
with ``i`` running in ``graph.nodes()`` insertion order — the canonical
cross-backend order every tie-break and serialization already uses, so an
index compare *is* a rank compare.  On top of the tables sit:

* ``succ_ids`` / ``pred_ids`` — adjacency as tuples of int tuples, the
  pure-python sweeps' hot-path representation (no hashing, no dict
  traffic);
* ``out_offsets``/``out_targets`` and ``in_offsets``/``in_sources`` —
  the same adjacency as forward and reverse CSR arrays (plain lists), the
  zero-ceremony substrate the NumPy backend's plan adapts;
* ``out_degree`` / ``in_degree`` — degree arrays;
* ``source_ids`` / ``sink_ids`` / ``merge_ids`` — the derived node
  families as ascending index tuples;
* ``topo_order`` / ``topo_index`` / ``depth`` / ``level_offsets`` — a
  cached topological order **partitioned into levels**: ``depth[i]`` is
  the longest-path distance from any root, ``topo_order`` lists node ids
  sorted by ``(depth, id)``, and level ``L`` occupies
  ``topo_order[level_offsets[L]:level_offsets[L + 1]]``.  Every edge
  crosses strictly upward in depth, which is exactly the property the
  levelized vectorized sweeps and the dirty-column wavefronts need.

Cyclic graphs still compile — the structural tables (CSR, degrees,
sources) are well-defined and cheap — but ``is_dag`` is False and the
topological accessors raise :class:`~repro.exceptions.CyclicGraphError`,
mirroring :meth:`CGraph.topological_order`.

The module is dependency-free (plain lists, tuples and dicts) so the
exact python path works — and is tested — in environments without NumPy.
"""

from __future__ import annotations

import sys
import weakref
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Hashable

from repro.exceptions import (
    CyclicGraphError,
    MissingEdgeError,
    MissingNodeError,
    ParameterError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Mapping

    from repro.graphs.cgraph import CGraph

Node = Hashable


class EdgeProbabilities:
    """Relay probabilities aligned to one compiled graph's CSR arrays.

    The probabilistic layer's compiled substrate: ``out_probs[e]`` is the
    relay probability of the edge at forward-CSR position ``e`` (the edge
    ``u → out_targets[e]`` with ``u`` given by the offsets), and
    ``in_probs[f]`` the same probabilities in reverse-CSR order.  Built
    once per probability spec and cached on the :class:`CompiledGraph`
    (:meth:`CompiledGraph.edge_probabilities`), so Monte-Carlo samplers
    never re-derive per-edge lookups trial by trial.

    ``unit`` is True when every probability is exactly 1 — the
    deterministic fast path, which the model layer collapses before any
    sampling happens.
    """

    __slots__ = ("out_probs", "in_probs", "unit", "uniform")

    def __init__(
        self,
        out_probs: list[float],
        in_probs: list[float],
        *,
        uniform: float | None,
    ) -> None:
        self.out_probs = out_probs
        self.in_probs = in_probs
        self.uniform = uniform
        self.unit = all(p >= 1.0 for p in out_probs)

    def nbytes(self) -> int:
        """Shallow container memory of the probability tables, in bytes."""
        return sys.getsizeof(self.out_probs) + sys.getsizeof(self.in_probs)


class CompiledGraph:
    """A frozen, integer-interned view of one :class:`CGraph`.

    Instances are built once per graph by :meth:`CGraph.compiled` and
    shared by every consumer — the propagation engines, both backends,
    the placement algorithms and the service's resident-graph store.  All attributes are set at
    construction and must never be mutated; the arrays are plain lists
    only because CPython indexes them fastest.
    """

    __slots__ = (
        "_graph_ref",
        "n",
        "m",
        "nodes",
        "_index",
        "_succ_ids",
        "_pred_ids",
        "_mapped",
        "out_offsets",
        "out_targets",
        "in_offsets",
        "in_sources",
        "out_degree",
        "in_degree",
        "source_ids",
        "sink_ids",
        "merge_ids",
        "is_dag",
        "num_levels",
        "_topo_order",
        "_topo_index",
        "_depth",
        "_level_offsets",
        "_in_pos_of_out",
        "_edge_prob_cache",
        "_source_mark",
        "_reach_masks",
        "_reach_counts",
    )

    def __init__(self, graph: "CGraph") -> None:
        nodes = graph.nodes()
        n = len(nodes)
        index = {v: i for i, v in enumerate(nodes)}

        succ_ids: tuple[tuple[int, ...], ...] = tuple(
            tuple(index[c] for c in graph.successors(v)) for v in nodes
        )
        pred_lists: list[list[int]] = [[] for _ in range(n)]
        for u, children in enumerate(succ_ids):
            for c in children:
                pred_lists[c].append(u)
        pred_ids: tuple[tuple[int, ...], ...] = tuple(
            tuple(ps) for ps in pred_lists
        )
        out_degree = [len(s) for s in succ_ids]
        in_degree = [len(p) for p in pred_ids]

        out_offsets = [0] * (n + 1)
        for i in range(n):
            out_offsets[i + 1] = out_offsets[i] + out_degree[i]
        out_targets = [c for children in succ_ids for c in children]
        in_offsets = [0] * (n + 1)
        for i in range(n):
            in_offsets[i + 1] = in_offsets[i] + in_degree[i]
        in_sources = [u for parents in pred_ids for u in parents]

        # Weak back-reference only: the graph's _compiled_cache already
        # holds this object strongly, and a strong .graph would turn that
        # into a refcount cycle reclaimable only by the cyclic GC —
        # delaying eviction of large service-resident graphs.
        self._graph_ref = weakref.ref(graph)
        self.n = n
        self.m = len(out_targets)
        self.nodes = nodes
        self._index = index
        self._succ_ids = succ_ids
        self._pred_ids = pred_ids
        self._mapped = {}
        self.out_offsets = out_offsets
        self.out_targets = out_targets
        self.in_offsets = in_offsets
        self.in_sources = in_sources
        self.out_degree = out_degree
        self.in_degree = in_degree
        self._in_pos_of_out = None
        self._edge_prob_cache = None
        self._source_mark = None
        self._reach_masks = None
        self._reach_counts = None
        self.source_ids = tuple(sorted(index[s] for s in graph.sources))
        self.sink_ids = tuple(i for i in range(n) if not out_degree[i])
        self.merge_ids = tuple(
            i for i in range(n) if in_degree[i] > 1 and out_degree[i]
        )

        # Kahn by wavefronts: a node becomes ready in the round equal to
        # its longest-path distance from any root, so one pass levelizes
        # and cycle-checks simultaneously.  Levels are sorted by id so the
        # resulting topological order is deterministic and id-monotone
        # within a level.
        indeg = in_degree[:]
        depth = [0] * n
        frontier = [i for i in range(n) if not indeg[i]]
        levels: list[list[int]] = []
        processed = 0
        level = 0
        while frontier:
            frontier.sort()
            levels.append(frontier)
            processed += len(frontier)
            ready: list[int] = []
            for v in frontier:
                depth[v] = level
                for child in succ_ids[v]:
                    indeg[child] -= 1
                    if not indeg[child]:
                        ready.append(child)
            frontier = ready
            level += 1

        self.is_dag = processed == n
        if self.is_dag:
            topo_order: list[int] = []
            level_offsets = [0]
            for members in levels:
                topo_order.extend(members)
                level_offsets.append(len(topo_order))
            topo_index = [0] * n
            for pos, v in enumerate(topo_order):
                topo_index[v] = pos
            self.num_levels = len(levels)
            self._topo_order = tuple(topo_order)
            self._topo_index = topo_index
            self._depth = depth
            self._level_offsets = level_offsets
        else:
            self.num_levels = 0
            self._topo_order = None
            self._topo_index = None
            self._depth = None
            self._level_offsets = None

    @property
    def graph(self) -> "CGraph | None":
        """The source graph (weakly referenced; None once it is gone)."""
        return self._graph_ref()

    # ------------------------------------------------------------------
    # Lazily materialized python-object views
    #
    # The dict index and the tuple-of-tuples adjacency are the pure
    # python sweeps' hot representations, but at the scale tier's node
    # counts they cost hundreds of MB of boxed objects — so table-built
    # graphs (:meth:`from_tables`) defer them until something actually
    # walks the python path.  Graphs compiled from a :class:`CGraph`
    # still build them eagerly in ``__init__`` (unchanged behavior).
    # ------------------------------------------------------------------

    @property
    def index(self) -> dict:
        """``index[node] = id`` — the interning map."""
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.nodes)}
        return self._index

    @property
    def succ_ids(self) -> tuple:
        """Adjacency as tuples of int tuples (successor direction)."""
        if self._succ_ids is None:
            off, tgt = self.out_offsets, self.out_targets
            self._succ_ids = tuple(
                tuple(int(c) for c in tgt[off[i]:off[i + 1]])
                for i in range(self.n)
            )
        return self._succ_ids

    @property
    def pred_ids(self) -> tuple:
        """Adjacency as tuples of int tuples (predecessor direction)."""
        if self._pred_ids is None:
            off, src = self.in_offsets, self.in_sources
            self._pred_ids = tuple(
                tuple(int(p) for p in src[off[i]:off[i + 1]])
                for i in range(self.n)
            )
        return self._pred_ids

    # ------------------------------------------------------------------
    # Table-direct construction (the scale tier's entry point)
    # ------------------------------------------------------------------

    @classmethod
    def from_tables(
        cls,
        *,
        n: int,
        out_offsets,
        out_targets,
        in_offsets,
        in_sources,
        source_ids,
        nodes=None,
        graph=None,
        levels=None,
        mapped=None,
    ) -> "CompiledGraph":
        """Build a compiled graph directly from CSR tables.

        The streamed loaders and the ``.fpc`` on-disk format construct
        graphs here without ever materializing a :class:`CGraph` (or any
        python edge list).  The tables may be any integer sequences —
        plain lists, ``array`` arrays, NumPy arrays, or ``np.memmap``
        views; the python-object views (:attr:`index`,
        :attr:`succ_ids`, :attr:`pred_ids`) materialize lazily.

        ``nodes`` defaults to ``range(n)`` (interned ids are their own
        user nodes).  ``levels`` optionally supplies a precomputed
        ``(topo_order, topo_index, depth, level_offsets)`` tuple;
        otherwise :func:`levelize_csr` runs here.  ``mapped`` names
        memory-mapped tables (``{attr: nbytes}``) so :meth:`nbytes`
        charges them to the mapped pool, not the resident one.
        """
        self = object.__new__(cls)
        self._graph_ref = (
            weakref.ref(graph) if graph is not None else _no_graph
        )
        self.n = n
        self.m = len(out_targets)
        self.nodes = range(n) if nodes is None else nodes
        self._index = None
        self._succ_ids = None
        self._pred_ids = None
        self._mapped = dict(mapped) if mapped else {}
        self.out_offsets = out_offsets
        self.out_targets = out_targets
        self.in_offsets = in_offsets
        self.in_sources = in_sources
        out_degree, in_degree = _csr_degrees(
            n, out_offsets, in_offsets
        )
        self.out_degree = out_degree
        self.in_degree = in_degree
        self._in_pos_of_out = None
        self._edge_prob_cache = None
        self._source_mark = None
        self._reach_masks = None
        self._reach_counts = None
        self.source_ids = tuple(int(s) for s in source_ids)
        if type(out_degree).__module__.startswith("numpy"):
            self.sink_ids = tuple(
                int(i) for i in (out_degree == 0).nonzero()[0]
            )
            self.merge_ids = tuple(
                int(i)
                for i in ((in_degree > 1) & (out_degree > 0)).nonzero()[0]
            )
        else:
            self.sink_ids = tuple(
                i for i in range(n) if not out_degree[i]
            )
            self.merge_ids = tuple(
                i
                for i in range(n)
                if in_degree[i] > 1 and out_degree[i]
            )
        if levels is None:
            levels = levelize_csr(n, out_offsets, out_targets, in_degree)
        if levels is None:
            self.is_dag = False
            self.num_levels = 0
            self._topo_order = None
            self._topo_index = None
            self._depth = None
            self._level_offsets = None
        else:
            topo_order, topo_index, depth, level_offsets = levels
            self.is_dag = True
            self.num_levels = len(level_offsets) - 1
            self._topo_order = topo_order
            self._topo_index = topo_index
            self._depth = depth
            self._level_offsets = level_offsets
        return self

    # ------------------------------------------------------------------
    # Topological accessors (DAG-only)
    # ------------------------------------------------------------------

    def _require_dag(self) -> None:
        if not self.is_dag:
            raise CyclicGraphError("graph contains a directed cycle")

    @property
    def topo_order(self) -> tuple[int, ...]:
        """Node ids sorted by ``(depth, id)`` — a topological order."""
        self._require_dag()
        return self._topo_order

    @property
    def topo_index(self) -> list[int]:
        """``topo_index[i]``: position of node ``i`` in :attr:`topo_order`."""
        self._require_dag()
        return self._topo_index

    @property
    def depth(self) -> list[int]:
        """``depth[i]``: longest-path distance of node ``i`` from any root."""
        self._require_dag()
        return self._depth

    @property
    def level_offsets(self) -> list[int]:
        """Level partition of :attr:`topo_order` (``num_levels + 1`` entries)."""
        self._require_dag()
        return self._level_offsets

    def level_members(self, level: int) -> Sequence[int]:
        """The node ids of one level, ascending."""
        offsets = self.level_offsets
        return self._topo_order[offsets[level]:offsets[level + 1]]

    # ------------------------------------------------------------------
    # Id ↔ node translation (the compiled/user boundary)
    # ------------------------------------------------------------------

    def to_id(self, node: Node) -> int:
        """The interned id of ``node``; raises :class:`MissingNodeError`."""
        try:
            return self.index[node]
        except (KeyError, TypeError):
            raise MissingNodeError(node) from None

    def to_node(self, node_id: int) -> Node:
        """The user node behind an interned id."""
        return self.nodes[node_id]

    def to_ids(self, nodes: Iterable[Node]) -> list[int]:
        """Intern a collection of user nodes (validating membership)."""
        return [self.to_id(v) for v in nodes]

    def to_nodes(self, ids: Iterable[int]) -> list[Node]:
        """Translate interned ids back to user nodes."""
        nodes = self.nodes
        return [nodes[i] for i in ids]

    def filter_mask(self, filter_ids: Iterable[int]) -> bytearray:
        """A dense 0/1 membership mask over node ids (``bytearray`` for
        the fastest pure-python indexing).

        Ids are range-checked: a negative id would otherwise wrap to the
        end of the mask (Python indexing) and silently filter the wrong
        node.
        """
        n = self.n
        mask = bytearray(n)
        for i in filter_ids:
            if not 0 <= i < n:
                raise MissingNodeError(i)
            mask[i] = 1
        return mask

    # ------------------------------------------------------------------
    # Bit-packed source reachability (the aggregate-sweep substrate)
    # ------------------------------------------------------------------

    def source_mark(self) -> bytearray:
        """A dense 0/1 mask over ids marking the designated sources.

        Cached: the aggregate sweeps read it per node per evaluation
        (the ``bonus`` term of the totals recurrence), so a bytearray
        index beats a set probe on the hot path.
        """
        if self._source_mark is None:
            mark = bytearray(self.n)
            for s in self.source_ids:
                mark[s] = 1
            self._source_mark = mark
        return self._source_mark

    def reach_masks(self) -> list[int]:
        """Per-node source-reachability bitsets (cached; DAG-only).

        See :func:`packed_reach_masks` for the lane layout.  Cached on
        the compiled graph because reachability is filter-independent:
        every deterministic aggregate evaluation on this graph reuses
        the same masks regardless of the filter set.
        """
        if self._reach_masks is None:
            self._reach_masks = packed_reach_masks(self)
        return self._reach_masks

    def reach_counts(self) -> list[int]:
        """``nreach[v]``: sources with a ≥1-edge path to ``v`` (cached).

        Exactly ``#{s : ψ_s(v) > 0}``: reachability is independent of
        the filter set (a filter always forwards at least one copy of
        anything it receives), so this is a per-graph constant the
        aggregate gain formulas consume.

        Derived by the blocked warm
        (:func:`repro.propagation.reach.warm_reach_counts`, the one
        entry point: the NumPy engine when NumPy is importable,
        :func:`blocked_reach_counts` otherwise), which caches its result
        here.  Counting never pins the O(n·S/8) mask list resident; only
        callers of :meth:`reach_masks` pay for masks.
        """
        if self._reach_counts is None:
            from repro.propagation.reach import warm_reach_counts

            warm_reach_counts(self)
        return self._reach_counts

    # ------------------------------------------------------------------
    # Edge probabilities (the probabilistic-model substrate)
    # ------------------------------------------------------------------

    def in_pos_of_out(self) -> list[int]:
        """Map each forward-CSR edge position to its reverse-CSR position.

        Both CSR directions were built by one ascending scan over
        ``succ_ids``, so the mapping is a single replay of that scan.
        Cached: the Monte-Carlo samplers use it to translate live-edge
        masks (sampled in canonical forward order) to the reverse
        direction the ``W`` sweeps walk.
        """
        if self._in_pos_of_out is None:
            fill = list(self.in_offsets[:-1])
            mapping = [0] * self.m
            pos = 0
            for children in self.succ_ids:
                for c in children:
                    mapping[pos] = fill[c]
                    fill[c] += 1
                    pos += 1
            self._in_pos_of_out = mapping
        return self._in_pos_of_out

    def edge_probabilities(
        self,
        probabilities: "float | Mapping[tuple[Node, Node], float]" = 1.0,
        *,
        key: "object | None" = None,
    ) -> EdgeProbabilities:
        """Relay probabilities compiled to CSR-aligned arrays (cached).

        ``probabilities`` is a single float or an edge-keyed mapping
        (missing edges default to 1).  Mapping entries are validated
        here — the first point where the spec meets a graph: an edge the
        graph does not contain raises :class:`MissingEdgeError`, a value
        outside ``[0, 1]`` raises ParameterError.

        ``key`` is an optional hashable cache key for the spec (the model
        layer passes
        :meth:`repro.propagation.model.PropagationModel.probabilities_key`);
        uniform floats are self-keying.  Cached arrays are charged to
        :meth:`nbytes`.
        """
        from collections.abc import Mapping as _Mapping

        if key is None:
            if isinstance(probabilities, _Mapping):
                key = (
                    "map",
                    tuple(
                        sorted(
                            ((repr(u), repr(v)), float(p))
                            for (u, v), p in probabilities.items()
                        )
                    ),
                )
            else:
                key = ("uniform", float(probabilities))
        cache = self._edge_prob_cache
        if cache is None:
            cache = self._edge_prob_cache = {}
        cached = cache.get(key)
        if cached is not None:
            return cached

        m = self.m
        if isinstance(probabilities, _Mapping):
            index = self.index
            succ = self.succ_ids
            out_probs = [1.0] * m
            offsets = self.out_offsets
            for (u, v), p in probabilities.items():
                p = float(p)
                if not 0.0 <= p <= 1.0:
                    raise ParameterError(
                        f"edge probability {p!r} outside [0, 1]"
                    )
                ui = index.get(u)
                vi = index.get(v)
                if ui is None or vi is None or vi not in succ[ui]:
                    raise MissingEdgeError((u, v))
                out_probs[offsets[ui] + succ[ui].index(vi)] = p
            uniform = None
        else:
            p = float(probabilities)
            if not 0.0 <= p <= 1.0:
                raise ParameterError(f"edge probability {p!r} outside [0, 1]")
            out_probs = [p] * m
            uniform = p
        in_probs = [1.0] * m
        for out_pos, in_pos in enumerate(self.in_pos_of_out()):
            in_probs[in_pos] = out_probs[out_pos]
        probs = EdgeProbabilities(out_probs, in_probs, uniform=uniform)
        cache[key] = probs
        return probs

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def nbytes(self) -> int:
        """Resident container memory of the compiled tables, in bytes.

        Memory-mapped tables (a ``.fpc``-loaded graph's CSR and topo
        arrays) are *excluded* — they are backed by the page cache, not
        this process's heap, and charging them here made
        ``/graphs/{digest}/stats`` overstate memory by the on-disk graph size.  Use
        :meth:`mapped_nbytes` / :meth:`nbytes_split` for the full
        picture.  Lazily materialized views (:attr:`succ_ids`, …) are
        charged only once built.
        """
        return self.nbytes_split()["resident"]

    def mapped_nbytes(self) -> int:
        """Bytes of memory-mapped (on-disk backed) tables."""
        return sum(self._mapped.values())

    def nbytes_split(self) -> dict[str, int]:
        """Memory accounting as ``{"resident": ..., "mapped": ...}``.

        Resident sums ``sys.getsizeof`` over python containers and
        ``.nbytes`` over in-heap NumPy arrays (including the per-node
        adjacency tuples and the cached extras); the interned ints
        themselves are shared objects and deliberately not charged.
        Tables registered as mapped at :meth:`from_tables` time are
        charged to the mapped pool at their on-disk size instead.
        """
        mapped_names = self._mapped
        resident = 0
        for name in (
            "nodes",
            "out_offsets",
            "out_targets",
            "in_offsets",
            "in_sources",
            "out_degree",
            "in_degree",
        ):
            if name not in mapped_names:
                resident += _table_nbytes(getattr(self, name))
        resident += _table_nbytes(self.source_ids)
        resident += _table_nbytes(self.sink_ids)
        resident += _table_nbytes(self.merge_ids)
        if self._index is not None:
            resident += sys.getsizeof(self._index)
        if self._succ_ids is not None:
            resident += sys.getsizeof(self._succ_ids)
            resident += sum(sys.getsizeof(t) for t in self._succ_ids)
        if self._pred_ids is not None:
            resident += sys.getsizeof(self._pred_ids)
            resident += sum(sys.getsizeof(t) for t in self._pred_ids)
        if self._in_pos_of_out is not None:
            resident += _table_nbytes(self._in_pos_of_out)
        if self._source_mark is not None:
            resident += sys.getsizeof(self._source_mark)
        if self._reach_masks is not None:
            resident += sys.getsizeof(self._reach_masks)
            resident += sum(sys.getsizeof(m) for m in self._reach_masks)
        if self._reach_counts is not None:
            resident += _table_nbytes(self._reach_counts)
        if self._edge_prob_cache:
            resident += sum(
                probs.nbytes() for probs in self._edge_prob_cache.values()
            )
        if self.is_dag:
            for name in (
                "_topo_order",
                "_topo_index",
                "_depth",
                "_level_offsets",
            ):
                if name.lstrip("_") not in mapped_names:
                    resident += _table_nbytes(getattr(self, name))
        return {"resident": resident, "mapped": self.mapped_nbytes()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledGraph(n={self.n}, m={self.m}, "
            f"sources={len(self.source_ids)}, dag={self.is_dag})"
        )


def _no_graph() -> None:
    """Stand-in weakref for table-built graphs with no source object."""
    return None


def _table_nbytes(obj) -> int:
    """Bytes of one table: ``.nbytes`` for array-likes, else getsizeof."""
    if obj is None:
        return 0
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    return sys.getsizeof(obj)


def _csr_degrees(n: int, out_offsets, in_offsets):
    """Degree arrays from CSR offsets — vectorized when they are NumPy."""
    if type(out_offsets).__module__.startswith("numpy"):
        return (
            out_offsets[1:] - out_offsets[:-1],
            in_offsets[1:] - in_offsets[:-1],
        )
    return (
        [out_offsets[i + 1] - out_offsets[i] for i in range(n)],
        [in_offsets[i + 1] - in_offsets[i] for i in range(n)],
    )


def levelize_csr(n: int, out_offsets, out_targets, in_degree):
    """Kahn-by-wavefronts over CSR arrays: the levelization
    :class:`CompiledGraph` computes in ``__init__``, for table-built
    graphs.

    Returns ``(topo_order, topo_index, depth, level_offsets)`` with the
    identical contract — levels sorted ascending by id, ``depth`` the
    longest-path distance — or None when the graph is cyclic.  Runs a
    per-level vectorized pass when the tables are NumPy arrays (the
    streamed loaders' case) and a plain python sweep otherwise.
    """
    numpy_tables = type(out_targets).__module__.startswith("numpy")
    if numpy_tables:
        try:
            import numpy as np
        except Exception:  # pragma: no cover - numpy arrays imply numpy
            numpy_tables = False
    if numpy_tables:
        indeg = np.asarray(in_degree, dtype=np.int64).copy()
        off = np.asarray(out_offsets, dtype=np.int64)
        tgt = np.asarray(out_targets, dtype=np.int64)
        depth = np.zeros(n, dtype=np.int64)
        topo_parts = []
        level_offsets = [0]
        frontier = np.nonzero(indeg == 0)[0]
        indeg[frontier] = -1
        processed = 0
        level = 0
        while len(frontier):
            topo_parts.append(frontier)
            processed += len(frontier)
            depth[frontier] = level
            level_offsets.append(processed)
            lens = off[frontier + 1] - off[frontier]
            total = int(lens.sum())
            if total:
                ends = np.cumsum(lens)
                pos = (
                    np.arange(total, dtype=np.int64)
                    - np.repeat(ends - lens, lens)
                    + np.repeat(off[frontier], lens)
                )
                children = tgt[pos]
                hits = np.bincount(children, minlength=n)
                indeg -= hits
                frontier = np.nonzero(indeg == 0)[0]
                indeg[frontier] = -1
            else:
                frontier = frontier[:0]
            level += 1
        if processed != n:
            return None
        topo_order = (
            np.concatenate(topo_parts)
            if topo_parts
            else np.empty(0, dtype=np.int64)
        )
        topo_index = np.empty(n, dtype=np.int64)
        topo_index[topo_order] = np.arange(n, dtype=np.int64)
        return topo_order, topo_index, depth, level_offsets

    indeg = [int(d) for d in in_degree]
    depth = [0] * n
    frontier = [i for i in range(n) if not indeg[i]]
    topo_order: list[int] = []
    level_offsets = [0]
    processed = 0
    level = 0
    while frontier:
        frontier.sort()
        topo_order.extend(frontier)
        processed += len(frontier)
        level_offsets.append(processed)
        ready: list[int] = []
        for v in frontier:
            depth[v] = level
            for e in range(out_offsets[v], out_offsets[v + 1]):
                c = int(out_targets[e])
                indeg[c] -= 1
                if not indeg[c]:
                    ready.append(c)
        frontier = ready
        level += 1
    if processed != n:
        return None
    topo_index = [0] * n
    for pos, v in enumerate(topo_order):
        topo_index[v] = pos
    return tuple(topo_order), topo_index, depth, level_offsets


def packed_reach_masks(
    compiled: CompiledGraph,
    pred: "Sequence[Sequence[int]] | None" = None,
) -> list[int]:
    """One bit-packed sweep: which sources reach each node?

    Lane layout: bit ``j`` of ``masks[v]`` is set iff source
    ``source_ids[j]`` (ascending id order) either *is* ``v`` or has a
    path of ≥1 edge to ``v``.  The masks are plain Python ints — an
    unbounded bitset, so any source count works and the sweep stays
    dependency-free; 64-source graphs fit one machine word and the OR
    per edge is a single uint64 operation under the hood.

    The recurrence is ``B(v) = own(v) | OR_{p ∈ pred(v)} B(p)`` over the
    topological order, where ``own(v)`` holds ``v``'s own lane bit.  In
    a DAG a source never reaches itself, so the own bit re-entering
    through a parent is impossible and ``popcount(B(v))`` decomposes as
    ``nreach(v) + [v is a source]`` exactly.

    ``pred`` overrides the predecessor lists (the Monte-Carlo samplers
    pass a live-edge world's pruned adjacency); the default is the
    graph's full ``pred_ids``.  Duplicate parents (multi-edges) are
    harmless: OR is idempotent.
    """
    if pred is None:
        pred = compiled.pred_ids
    own = [0] * compiled.n
    for j, s in enumerate(compiled.source_ids):
        own[s] = 1 << j
    masks = [0] * compiled.n
    for v in compiled.topo_order:
        acc = own[v]
        for p in pred[v]:
            acc |= masks[p]
        masks[v] = acc
    return masks


def packed_reach_counts(
    compiled: CompiledGraph,
    pred: "Sequence[Sequence[int]] | None" = None,
) -> list[int]:
    """``nreach[v]`` — sources with a ≥1-edge path to ``v`` — via one
    bit-packed sweep and a popcount gather.

    The aggregate-formulation primitive: reachability is independent of
    the filter set, so the gain formulas reduce per-source ψ sweeps to
    this count plus one totals sweep (see
    :func:`repro.propagation.engine.aggregate_receipts_ids`).
    """
    mark = compiled.source_mark()
    return [
        m.bit_count() - mark[v]
        for v, m in enumerate(packed_reach_masks(compiled, pred))
    ]


#: Source lanes one blocked-sweep window holds resident.  2048 lanes is
#: 256 bytes of bitset per swept row: the NumPy engine's node-major
#: plane is ~22 MB at n = 10^5 (scale-dag: ~86k rows survive the
#: in-degree-1 contraction) and at most 256 MB at n = 10^6.  Measured
#: on scale-dag@1 (2 cores): the cold warm takes 0.30–0.34 s at 2048
#: against 0.37–0.43 s at 1024 (4096 is no faster), and the exact
#: placement's peak RSS (set by scoring, not by the warm) is ~100 MB at
#: both.
DEFAULT_REACH_BLOCK = 2048


def blocked_reach_counts(
    compiled: CompiledGraph,
    block: int = DEFAULT_REACH_BLOCK,
    source_start: int = 0,
    source_stop: "int | None" = None,
    subtract_mark: bool = True,
) -> list[int]:
    """``nreach`` via a blocked sweep that never holds all masks.

    Sources are swept in windows of ``block`` lanes: each window runs
    the :func:`packed_reach_masks` recurrence restricted to its own
    lanes, popcounts the finished window into an int accumulator, and
    drops the window's masks before the next one starts.  Resident
    memory is O(n·block/8) bits instead of O(n·S/8), and because source
    sets of different windows are disjoint the popcount sums are *exact*
    integer addition — the result is bit-identical to the monolithic
    path for every block size.

    ``source_start``/``source_stop`` restrict the sweep to a slice of
    ``source_ids`` (the process-parallel shards each take one contiguous
    slice and the parent sums the returned count vectors elementwise).
    ``subtract_mark=False`` returns the raw per-window popcount sums —
    shard workers use it so the source-mark correction is applied
    exactly once, by the parent.
    """
    if block < 1:
        raise ParameterError("reach block size must be at least 1")
    sources = compiled.source_ids[source_start:source_stop]
    n = compiled.n
    order = compiled.topo_order
    pred = compiled.pred_ids
    counts = [0] * n
    for start in range(0, len(sources), block):
        window = sources[start:start + block]
        own = [0] * n
        for j, s in enumerate(window):
            own[s] = 1 << j
        masks = [0] * n
        for v in order:
            acc = own[v]
            for p in pred[v]:
                acc |= masks[p]
            masks[v] = acc
        for v, m in enumerate(masks):
            if m:
                counts[v] += m.bit_count()
    if not subtract_mark:
        return counts
    mark = compiled.source_mark()
    return [c - mark[v] for v, c in enumerate(counts)]
