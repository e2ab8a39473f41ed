"""The GraphStore: resident graphs under content-addressed digests.

Registering a graph is where the service pays its one-time costs — build
the immutable :class:`~repro.graphs.cgraph.CGraph`, warm its **one**
shared compiled plan (:meth:`CGraph.compiled`: interned ids, CSR both
ways, cached topological order and level partition — the view every
backend and algorithm consumes), and compute the per-graph
objective constants ``Φ(∅)`` and ``F(V)``.  Every subsequent placement
request — on any backend, under any strategy — reuses all of it; there
is exactly one compiled plan per digest, not one per backend.

Content addressing makes registration idempotent: the digest is a SHA-256
over the sorted ``repr`` of nodes, edges and sources, so the same graph —
whether regenerated from a dataset spec, re-uploaded as an edge list, or
round-tripped through ``filter-placement generate`` — lands on the same
entry, and a cache keyed by digest survives re-registration.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Hashable

from repro.analysis.metrics import GraphStats, describe
from repro.core.objective import max_objective, phi
from repro.datasets.registry import DATASET_NAMES, get_dataset
from repro.exceptions import ParameterError
from repro.graphs.cgraph import CGraph
from repro.graphs.io import read_edge_list_text

Node = Hashable

#: Shortest digest prefix accepted by :meth:`GraphStore.get`.
MIN_DIGEST_PREFIX = 8

#: Default LRU bound on resident graphs (``GraphStore``, ``ServiceApp``
#: and ``serve --max-graphs``).  A resident 400-node upload costs ~0.4 MB,
#: so an unbounded store grows with the upload rate; pass ``None`` for
#: an unbounded store.
DEFAULT_MAX_GRAPHS = 32

logger = logging.getLogger("repro.service")


def graph_digest(
    graph: CGraph,
    probabilities: "float | dict | None" = None,
) -> str:
    """SHA-256 content digest of a c-graph.

    Hashes the *content* — nodes, edges, sources, each as sorted ``repr``
    lines — not the construction order, so two graphs with identical
    structure digest identically no matter how they were built.  ``repr``
    keeps the int/string node distinction (``1`` vs ``'1'``) that plain
    string formatting would collapse.

    ``probabilities`` are registered edge relay probabilities (a uniform
    float or an edge-keyed mapping).  Non-unit probabilities join the
    digest as sorted ``p`` lines: the same structure under different
    relay behaviour is a different resident graph.  ``None`` and unit
    probabilities hash identically to the probability-free form, so
    every pre-existing digest is unchanged.
    """
    h = hashlib.sha256()
    for node in sorted(map(repr, graph.nodes())):
        h.update(b"n ")
        h.update(node.encode("utf-8"))
        h.update(b"\n")
    for u, v in sorted((repr(u), repr(v)) for u, v in graph.edges()):
        h.update(b"e ")
        h.update(u.encode("utf-8"))
        h.update(b" ")
        h.update(v.encode("utf-8"))
        h.update(b"\n")
    for source in sorted(map(repr, graph.sources)):
        h.update(b"s ")
        h.update(source.encode("utf-8"))
        h.update(b"\n")
    for line in _probability_lines(probabilities):
        h.update(line.encode("utf-8"))
    return h.hexdigest()


def _probability_lines(probabilities: "float | dict | None") -> list[str]:
    """Canonical digest lines of a probability spec ([] when unit/None)."""
    if probabilities is None:
        return []
    if isinstance(probabilities, dict):
        lines = [
            f"p {u!r} {v!r} {float(p)!r}\n"
            for (u, v), p in probabilities.items()
            if float(p) < 1.0
        ]
        return sorted(lines)
    p = float(probabilities)
    if p >= 1.0:
        return []
    return [f"p * {p!r}\n"]


def build_graph_from_spec(spec: dict[str, Any]) -> CGraph:
    """Rebuild a graph from a :class:`GraphEntry` spec.

    Module-level and driven purely by picklable data so process-pool
    workers (which cannot share the resident graph) can reconstruct it.
    """
    kind = spec.get("kind")
    if kind == "dataset":
        kwargs: dict[str, Any] = {"seed": spec.get("seed", 0)}
        if spec.get("scale") is not None:
            kwargs["scale"] = spec["scale"]
        return get_dataset(spec["dataset"], **kwargs)
    if kind == "edges":
        graph = read_edge_list_text(
            spec["text"], sources=spec.get("sources")
        )
        if spec.get("prepare"):
            from repro.datasets.loaders import prepare_cgraph

            graph = prepare_cgraph(graph, initiator=spec.get("initiator"))
        return graph
    if kind == "fpc":
        from repro.graphs.largescale import load_compiled

        return load_compiled(spec["path"])
    raise ParameterError(f"unknown graph spec kind {kind!r}")


class GraphEntry:
    """One resident graph plus its lazily-computed derived data."""

    __slots__ = (
        "digest",
        "graph",
        "name",
        "spec",
        "probabilities",
        "registered_unix",
        "_lock",
        "_phi_constants",
        "_stats",
    )

    def __init__(
        self,
        digest: str,
        graph: CGraph,
        name: str,
        spec: dict[str, Any],
        probabilities: "float | dict | None" = None,
    ) -> None:
        self.digest = digest
        self.graph = graph
        self.name = name
        self.spec = spec
        # Registered edge relay probabilities (uniform float or an
        # edge-keyed dict); None = deterministic relaying.  Part of the
        # digest, validated against the graph at registration.
        self.probabilities = probabilities
        self.registered_unix = time.time()
        self._lock = threading.Lock()
        self._phi_constants: tuple[int, int] | None = None
        self._stats: GraphStats | None = None

    def stats(self) -> GraphStats:
        """The graph's structural summary (computed once)."""
        with self._lock:
            if self._stats is None:
                self._stats = describe(self.graph)
            return self._stats

    def phi_constants(self) -> tuple[int, int]:
        """``(Φ(∅), F(V))`` — exact ints, backend-independent.

        Computed on first use with the default backend and shared by every
        placement request against this graph, saving two full propagation
        sweeps per request.
        """
        with self._lock:
            if self._phi_constants is None:
                phi_empty = phi(self.graph)
                self._phi_constants = (
                    phi_empty,
                    max_objective(self.graph, phi_empty=phi_empty),
                )
            return self._phi_constants

    def prime_phi_constants(self, constants: tuple[int, int]) -> None:
        """Seed ``(Φ(∅), F(V))`` with an externally computed pair.

        The bench harness computes the constants once per graph and
        shares them with its throwaway service apps so setup cost never
        leaks into a timed region.
        """
        with self._lock:
            if self._phi_constants is None:
                self._phi_constants = constants

    def describe_payload(self) -> dict[str, Any]:
        """The entry's JSON form for listings and registration responses."""
        public_spec = {
            k: v for k, v in self.spec.items() if k != "text"
        }
        if isinstance(self.probabilities, dict):
            edge_prob: Any = f"per-edge({len(self.probabilities)})"
        elif self.probabilities is not None:
            edge_prob = float(self.probabilities)
        else:
            edge_prob = None
        return {
            "digest": self.digest,
            "name": self.name,
            "spec": public_spec,
            "nodes": self.graph.number_of_nodes(),
            "edges": self.graph.number_of_edges(),
            "edge_prob": edge_prob,
            "is_dag": self.graph.is_dag(),
            "registered_unix": round(self.registered_unix, 3),
        }


class GraphStore:
    """Thread-safe registry of resident graphs, addressed by digest.

    Parameters
    ----------
    max_graphs:
        LRU bound on resident graphs (default
        :data:`DEFAULT_MAX_GRAPHS`; None = unbounded).  Every lookup
        refreshes a graph's LRU position, so hot graphs stay.  The
        placement cache keys by digest, so evicting a graph never serves a
        wrong answer — a re-registration restores the same digest and the
        cached placements still apply.
    warm_backends:
        At registration, build the graph's single shared compiled plan
        and each available backend's thin adapter over it (skipped
        automatically for cyclic graphs, whose topological accessors
        the consumers reject).  Since the compile-once refactor the
        structure itself exists exactly once; what each backend warms
        is only its derived view (the NumPy backend's level groupings
        and overflow probe).  Warming routes the reachability counts
        through the blocked out-of-core sweep
        (:func:`repro.propagation.reach.warm_reach_counts`), so even
        10^5-node registrations stay block-size resident.
    persist_dir:
        Optional directory of ``.fpc`` plan snapshots.  Every DAG
        registration (without edge probabilities, which ``.fpc`` does
        not carry) is persisted there as ``<digest>.fpc`` via
        :func:`~repro.graphs.largescale.save_compiled` — compiled
        tables *and* warmed reach counts — and a restarted store
        memory-maps the whole set back with
        :func:`~repro.graphs.largescale.load_compiled`, skipping both
        the compile and the reachability sweep.  A snapshot that fails
        to load is renamed aside to ``<digest>.fpc.corrupt`` with a
        warning, and the store boots with the rest.
    """

    def __init__(
        self,
        *,
        max_graphs: int | None = DEFAULT_MAX_GRAPHS,
        warm_backends: bool = True,
        persist_dir: "str | Path | None" = None,
    ) -> None:
        if max_graphs is not None and max_graphs < 1:
            raise ParameterError("max_graphs must be positive or None")
        self._entries: OrderedDict[str, GraphEntry] = OrderedDict()
        self._lock = threading.RLock()
        self._max_graphs = max_graphs
        self._warm_backends = warm_backends
        self._persist_dir = None if persist_dir is None else Path(persist_dir)
        #: Lifetime counters (guarded by the same lock as the entries, so
        #: ``stats()`` snapshots counters and residency consistently).
        self.registrations = 0
        self.evictions = 0
        #: Plans written to / restored from ``persist_dir`` this lifetime.
        self.persisted = 0
        self.restored = 0
        #: Snapshots that failed to load and were renamed aside.
        self.quarantined = 0
        if self._persist_dir is not None:
            self._restore_persisted()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def digests(self) -> tuple[str, ...]:
        """All resident digests, least- to most-recently used."""
        with self._lock:
            return tuple(self._entries)

    def entries(self) -> tuple[GraphEntry, ...]:
        """All resident entries, least- to most-recently used."""
        with self._lock:
            return tuple(self._entries.values())

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register_graph(
        self,
        graph: CGraph,
        *,
        name: str,
        spec: dict[str, Any],
        probabilities: "float | dict | None" = None,
    ) -> tuple[GraphEntry, bool]:
        """Register an already-built graph; returns ``(entry, created)``.

        Idempotent: a graph whose digest is already resident returns the
        existing entry untouched (``created=False``).

        ``probabilities`` registers edge relay probabilities alongside
        the structure: they are validated here (unknown edges raise
        :class:`~repro.exceptions.MissingEdgeError`, out-of-range values
        ParameterError), join the content digest, and become the default
        probability spec of every probabilistic placement on this entry.
        Unit probabilities are normalized away — they *are* deterministic
        relaying, and must not fork the digest.
        """
        if probabilities is not None:
            # Bind to the compiled view now: validates every mapping edge
            # and caches the CSR-aligned arrays every sampler will use.
            probs = graph.compiled().edge_probabilities(probabilities)
            if probs.unit:
                probabilities = None
        digest = graph_digest(graph, probabilities)
        with self._lock:
            existing = self._entries.get(digest)
            if existing is not None:
                self._entries.move_to_end(digest)
                return existing, False
            entry = GraphEntry(digest, graph, name, spec, probabilities)
            self._entries[digest] = entry
            self.registrations += 1
            while (
                self._max_graphs is not None
                and len(self._entries) > self._max_graphs
            ):
                self._entries.popitem(last=False)
                self.evictions += 1
        if self._warm_backends and graph.is_dag():
            # Pay the one-time costs at registration, outside any
            # request's timing: the single shared compiled plan, plus
            # each available backend's thin adapter over it (for the
            # NumPy backend that includes its overflow probe — genuinely
            # backend-private, but derived from the same structure, not
            # a second copy of it).  Each warm routes the reachability
            # counts through the blocked out-of-core sweep.
            graph.compiled()
            from repro.backends.registry import (
                available_backends,
                get_backend,
            )

            for backend_name in available_backends():
                get_backend(backend_name).warm(graph)
        self._persist_entry(entry)
        return entry, True

    def register_fpc(
        self,
        path: "str | Path",
        *,
        name: str | None = None,
        probabilities: "float | dict | None" = None,
    ) -> tuple[GraphEntry, bool]:
        """Register a ``.fpc`` compiled-plan directory from disk.

        The graph arrives as a memory-mapped
        :class:`~repro.graphs.largescale.StreamedGraph` — no edge-list
        JSON ever crosses the wire, which is how million-node graphs
        reach the job API.  Persisted reach counts ride along, so a
        pre-warmed ``.fpc`` registers without re-running the sweep.
        """
        from repro.graphs.largescale import load_compiled

        fpc = Path(path)
        spec: dict[str, Any] = {"kind": "fpc", "path": str(fpc)}
        graph = build_graph_from_spec(spec)
        return self.register_graph(
            graph,
            name=fpc.stem if name is None else name,
            spec=spec,
            probabilities=probabilities,
        )

    # ------------------------------------------------------------------
    # Plan persistence (persist_dir)
    # ------------------------------------------------------------------

    def _persist_entry(self, entry: GraphEntry) -> None:
        """Snapshot a freshly registered plan into ``persist_dir``.

        Best-effort and content-addressed: the target is
        ``<digest>.fpc``, so re-registrations are no-ops.  Skipped for
        cyclic graphs (no topo tables to persist), probabilistic
        registrations (``.fpc`` carries structure only) and graphs whose
        node ids the format rejects (tuple-noded derivations).
        """
        target_dir = self._persist_dir
        if (
            target_dir is None
            or entry.probabilities is not None
            or not entry.graph.is_dag()
        ):
            return
        target = target_dir / f"{entry.digest}.fpc"
        if (target / "meta.json").exists():
            return
        from repro.graphs.largescale import save_compiled

        try:
            save_compiled(entry.graph, target)
        except ParameterError:
            return
        with open(target / "store.json", "w", encoding="utf-8") as handle:
            json.dump(
                {"digest": entry.digest, "name": entry.name}, handle
            )
        self.persisted += 1

    def _restore_persisted(self) -> None:
        """Memory-map the newest ``<digest>.fpc`` snapshots back in at startup.

        Restored entries reuse the digest recorded at persist time (the
        snapshots are content-addressed by this store, so recomputing it
        would only re-walk tables we already trust) and come back with
        their reach counts materialized from the ``.fpc`` reach table —
        the restart pays neither the compile nor the warm sweep.

        The boot honours ``max_graphs``: only the newest ``max_graphs``
        snapshots by ``store.json`` mtime are loaded, and the rest stay
        on disk untouched (a later registration of the same graph finds
        its snapshot already written).  Entries land in the LRU oldest
        first, so the newest is the last to be evicted.

        One unreadable snapshot (bad JSON, a truncated table) must not
        keep the store from booting: it is quarantined by
        :meth:`_quarantine` and the loop moves on.
        """
        from repro.graphs.largescale import load_compiled

        self._persist_dir.mkdir(parents=True, exist_ok=True)
        markers = sorted(
            self._persist_dir.glob("*.fpc/store.json"),
            key=lambda marker: (marker.stat().st_mtime, marker.parent.name),
            reverse=True,
        )
        restored: list[GraphEntry] = []
        for marker in markers[: self._max_graphs]:
            target = marker.parent
            try:
                with open(marker, "r", encoding="utf-8") as handle:
                    info = json.load(handle)
                digest = str(info["digest"])
                graph = load_compiled(target)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                self._quarantine(target, exc)
                continue
            restored.append(
                GraphEntry(
                    digest,
                    graph,
                    str(info.get("name", target.stem)),
                    {"kind": "fpc", "path": str(target)},
                )
            )
        with self._lock:
            for entry in reversed(restored):
                self._entries[entry.digest] = entry
            self.restored += len(restored)

    def _quarantine(self, target: Path, exc: Exception) -> None:
        """Rename a snapshot that failed to load to ``<name>.corrupt``.

        The ``.fpc`` glob no longer matches it, so the next boot skips
        it, while the files stay on disk for inspection.  A numeric
        suffix keeps an earlier quarantine of the same digest intact.
        """
        aside = target.with_name(target.name + ".corrupt")
        suffix = 1
        while aside.exists():
            aside = target.with_name(f"{target.name}.corrupt.{suffix}")
            suffix += 1
        try:
            target.rename(aside)
        except OSError as rename_exc:
            logger.warning(
                "corrupt plan snapshot %s left in place (%s): %s",
                target, rename_exc, exc,
            )
        else:
            logger.warning(
                "quarantined corrupt plan snapshot %s as %s: %s",
                target, aside.name, exc,
            )
        self.quarantined += 1

    def register_dataset(
        self,
        dataset: str,
        *,
        seed: int = 0,
        scale: float | None = None,
        probabilities: "float | dict | None" = None,
    ) -> tuple[GraphEntry, bool]:
        """Generate and register a built-in dataset."""
        if dataset not in DATASET_NAMES:
            known = ", ".join(DATASET_NAMES)
            raise ParameterError(
                f"unknown dataset {dataset!r}; known datasets: {known}"
            )
        spec: dict[str, Any] = {
            "kind": "dataset",
            "dataset": dataset,
            "seed": seed,
            "scale": scale,
        }
        graph = build_graph_from_spec(spec)
        scale_txt = "default" if scale is None else f"{scale:g}"
        name = f"{dataset}@{scale_txt}/seed{seed}"
        return self.register_graph(
            graph, name=name, spec=spec, probabilities=probabilities
        )

    def register_edges(
        self,
        text: str,
        *,
        name: str = "upload",
        sources: list[Node] | None = None,
        prepare: bool = False,
        initiator: Node | None = None,
        probabilities: "float | dict | None" = None,
    ) -> tuple[GraphEntry, bool]:
        """Parse and register an uploaded edge list.

        ``prepare=True`` additionally runs the paper's Section 5 pipeline
        (reachability restriction + ``Acyclic``) — the same path the CLI's
        ``--edges`` flag takes.  The default is the verbatim graph, so
        ``register → generate → re-register`` is digest-stable.
        """
        spec: dict[str, Any] = {
            "kind": "edges",
            "text": text,
            "sources": sources,
            "prepare": prepare,
            "initiator": initiator,
        }
        graph = build_graph_from_spec(spec)
        return self.register_graph(
            graph, name=name, spec=spec, probabilities=probabilities
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """One consistent snapshot of residency and lifetime counters.

        Taken entirely under the store lock, so a concurrent
        registration can never produce a torn read (e.g. the new entry
        counted in ``graphs`` but not yet in ``nodes``) — ``/healthz``
        and ``/metrics`` both report from this.  ``compiled_bytes`` sums
        the *resident* half of the compiled plans that exist
        (registration warms them for DAGs, so for a warmed store this is
        the real heap cost); ``compiled_mapped_bytes`` is the
        memory-mapped half — ``.fpc``-backed plans whose tables live in
        the page cache, not on the heap.
        """
        with self._lock:
            nodes = 0
            edges = 0
            compiled_bytes = 0
            mapped_bytes = 0
            for entry in self._entries.values():
                nodes += entry.graph.number_of_nodes()
                edges += entry.graph.number_of_edges()
                # CGraph caches its plan in ``_compiled_cache``; streamed
                # graphs (registered programmatically) in ``_compiled``.
                compiled = getattr(
                    entry.graph, "_compiled_cache", None
                ) or getattr(entry.graph, "_compiled", None)
                if compiled is not None:
                    split = compiled.nbytes_split()
                    compiled_bytes += split["resident"]
                    mapped_bytes += split["mapped"]
            return {
                "graphs": len(self._entries),
                "registrations": self.registrations,
                "evictions": self.evictions,
                "nodes": nodes,
                "edges": edges,
                "compiled_bytes": compiled_bytes,
                "compiled_mapped_bytes": mapped_bytes,
                "persisted_plans": self.persisted,
                "restored_plans": self.restored,
                "quarantined_snapshots": self.quarantined,
            }

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, digest: str) -> GraphEntry:
        """The entry under ``digest`` (full, or a unique prefix ≥ 8 chars).

        Raises :class:`~repro.exceptions.ParameterError` for unknown or
        ambiguous digests.
        """
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None and len(digest) >= MIN_DIGEST_PREFIX:
                matches = [
                    d for d in self._entries if d.startswith(digest)
                ]
                if len(matches) > 1:
                    raise ParameterError(
                        f"digest prefix {digest!r} is ambiguous "
                        f"({len(matches)} matches)"
                    )
                if matches:
                    entry = self._entries[matches[0]]
            if entry is None:
                raise ParameterError(f"unknown graph digest {digest!r}")
            self._entries.move_to_end(entry.digest)
            return entry
