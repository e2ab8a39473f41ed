"""The transport-free service core: request dicts in, (status, dict) out.

:class:`ServiceApp` wires the three stateful layers together — GraphStore,
PlacementCache, JobManager — and implements every endpoint as a plain
method taking and returning JSON-compatible dicts.  The HTTP layer
(:mod:`repro.service.http`) is a thin route table over these methods, and
the tests exercise them directly without sockets.

Placement flow, the heart of the service::

    request ── key = (digest, algorithm, strategy, backend*, k, rng_seed,
        │             model*, trials*, mc_seed*, sketch_k*, sketch_seed*)
        │            (*resolved: never "auto"; the model triple collapses
        │             to ("deterministic", 0, 0) whenever the request is
        │             deterministic relaying in disguise, and the sketch
        │             pair to (0, 0) for exact strategies)
        ├─ exact cache hit ───────────────► 200, cached payload (free)
        ├─ prefix hit (k' ≤ cached k) ────► 200, sliced + rescored payload
        │                                   (one sweep; re-cached at k')
        └─ miss ─► JobManager (deduped) ──► 202 + job id, or 200 after
                                            blocking when "wait" was set

Every computed payload is produced by :mod:`repro.service.serialize` —
the same module the CLI's ``--json`` mode uses — so API responses are
bit-identical to ``filter-placement place --json`` for the same request.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Hashable

from repro.backends.registry import (
    BACKEND_NAMES,
    available_backends,
    get_backend,
    use_backend,
)
from repro.core.base import check_budget
from repro.core.registry import (
    STRATEGY_NAMES,
    algorithm_catalog,
    get_algorithm,
)
from repro.exceptions import ReproError
from repro.graphs.cgraph import CGraph
from repro.service.cache import PlacementCache, PlacementKey
from repro.service.jobs import JobManager
from repro.service.serialize import (
    parse_filters,
    placement_payload,
    stats_payload,
)
from repro.service.store import (
    DEFAULT_MAX_GRAPHS,
    GraphStore,
    build_graph_from_spec,
)

Node = Hashable

#: Default ceiling on ``"wait": true`` blocking, seconds.
DEFAULT_WAIT_TIMEOUT = 300.0

#: Largest accepted Monte-Carlo sample count per placement request.
#: ``trials`` scales every evaluation's work and the sampled-world
#: memory linearly, and it is client-controlled — an unbounded value
#: would let one request monopolize a worker and the world caches.
MAX_TRIALS = 4096

#: Largest accepted bottom-k sketch resolution per placement request.
#: Register files cost ``n × k × 8`` bytes and every merge pass scales
#: with ``k``; like ``trials``, the value is client-controlled.
MAX_SKETCH_K = 4096


class RequestError(ReproError):
    """A request the service must answer with a 4xx status."""

    def __init__(self, message: str, *, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _build_request_model(
    model: str,
    trials: int,
    mc_seed: int,
    probabilities: "float | dict | None",
):
    """The resolved :class:`PropagationModel` of a request (None = exact)."""
    if model == "deterministic" or probabilities is None:
        return None
    from repro.propagation.model import build_model

    return build_model(
        model, edge_prob=probabilities, trials=trials, seed=mc_seed
    )


def execute_placement(
    graph: CGraph,
    algorithm: str,
    strategy: str,
    backend: str,
    k: int,
    rng_seed: int,
    phi_constants: tuple[int, int] | None = None,
    model: str = "deterministic",
    trials: int = 0,
    mc_seed: int = 0,
    probabilities: "float | dict | None" = None,
    world_workers: int = 1,
    sketch_k: int = 0,
    sketch_seed: int = 0,
) -> dict[str, Any]:
    """Run one fully-specified placement and serialize it.

    The single execution path behind cold misses in both pool modes: the
    thread pool calls it on the resident graph, the process pool calls
    :func:`execute_placement_from_spec` which rebuilds the graph first.
    The ``use_backend`` scope (thread-local) covers algorithms that
    resolve the backend internally rather than via their ``backend``
    attribute.

    ``model``/``trials``/``mc_seed`` are the propagation-model axis of
    the request; ``probabilities`` the graph's registered edge relay
    probabilities.  Deterministic requests (the default triple) take the
    byte-identical pre-existing path.  ``sketch_k``/``sketch_seed`` are
    the sketch-strategy axis (``0`` = strategy defaults / not a sketch
    request); they only reach algorithms that expose the attributes.

    Every execution runs through an
    :class:`~repro.obs.instrument.InstrumentedBackend` (a pure
    forwarder — results are unchanged) so per-kind evaluation counts
    land on the metrics ledger, and the solve/serialize split is
    recorded as spans when tracing is on (the serializer never sees the
    wrapper's name, so payloads stay bit-identical to the CLI's).
    """
    from repro.obs.instrument import InstrumentedBackend
    from repro.obs.trace import span
    from repro.propagation.parallel import use_world_workers

    resolved = _build_request_model(model, trials, mc_seed, probabilities)
    with span("service.plan", algorithm=algorithm, backend=backend, k=k):
        instrumented = InstrumentedBackend(get_backend(backend))
        instance = get_algorithm(
            algorithm,
            strategy=strategy,
            backend=instrumented,
            model=resolved,
            sketch_k=sketch_k or None,
            sketch_seed=sketch_seed or None,
        )
    try:
        # The world-worker scope is thread-local, so it must be entered
        # here — on the pool thread running the job — not at app startup.
        with use_backend(instrumented), use_world_workers(world_workers):
            with span("service.solve", algorithm=algorithm, k=k):
                result = instance.place(
                    graph, k, rng=random.Random(rng_seed)
                )
            if resolved is not None:
                with span("service.serialize"):
                    return placement_payload(
                        graph, result, backend=instrumented, model=resolved
                    )
        phi_empty, f_max = phi_constants if phi_constants else (None, None)
        with span("service.serialize"):
            return placement_payload(
                graph,
                result,
                phi_empty=phi_empty,
                f_max=f_max,
                backend=instrumented,
            )
    finally:
        instrumented.publish()


def execute_placement_from_spec(
    spec: dict[str, Any],
    algorithm: str,
    strategy: str,
    backend: str,
    k: int,
    rng_seed: int,
    model: str = "deterministic",
    trials: int = 0,
    mc_seed: int = 0,
    probabilities: "float | dict | None" = None,
    world_workers: int = 1,
    sketch_k: int = 0,
    sketch_seed: int = 0,
) -> dict[str, Any]:
    """Process-pool entry point: rebuild the graph, then place.

    Module-level and driven by plain data so it pickles; the rebuilt
    graph is discarded with the worker's memory once the payload returns.
    """
    graph = build_graph_from_spec(spec)
    return execute_placement(
        graph,
        algorithm,
        strategy,
        backend,
        k,
        rng_seed,
        model=model,
        trials=trials,
        mc_seed=mc_seed,
        probabilities=probabilities,
        world_workers=world_workers,
        sketch_k=sketch_k,
        sketch_seed=sketch_seed,
    )


class ServiceApp:
    """The placement service: graph store + result cache + worker pool."""

    def __init__(
        self,
        *,
        workers: int = 4,
        pool: str = "thread",
        cache_entries: int = 1024,
        cache_bytes: int = 32 * 1024 * 1024,
        max_graphs: int | None = DEFAULT_MAX_GRAPHS,
        warm_backends: bool = True,
        wait_timeout: float = DEFAULT_WAIT_TIMEOUT,
        world_workers: int = 1,
        persist_dir: "str | None" = None,
    ) -> None:
        from repro.propagation.parallel import _check_workers

        #: World-shard workers each placement job evaluates sampled
        #: worlds with (1 = serial); scoped per job thread, so concurrent
        #: jobs cannot leak the setting into each other.  Checked before
        #: any pool starts, so a bad count leaves nothing running.
        self.world_workers = _check_workers(world_workers)
        self.store = GraphStore(
            max_graphs=max_graphs,
            warm_backends=warm_backends,
            persist_dir=persist_dir,
        )
        self.cache = PlacementCache(
            max_entries=cache_entries, max_bytes=cache_bytes
        )
        self.jobs = JobManager(workers=workers, pool=pool)
        self.started_unix = time.time()
        self.wait_timeout = wait_timeout
        self._requests = 0
        self._lock = threading.Lock()

    def close(self) -> None:
        """Shut the worker pools down (idempotent)."""
        self.jobs.shutdown(wait=False)

    def _count_request(self) -> None:
        with self._lock:
            self._requests += 1

    # ------------------------------------------------------------------
    # Graphs
    # ------------------------------------------------------------------

    def handle_register_graph(
        self, body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        """``POST /graphs`` — register a dataset, edge list, or spec.

        Body shapes (exactly one of ``dataset`` / ``edges`` /
        ``fpc_path``):

        * ``{"dataset": "citation", "seed": 0, "scale": 0.1}``
        * ``{"edges": "u v\\n...", "sources": [...], "prepare": false,
          "initiator": ..., "name": "my-upload"}``
        * ``{"fpc_path": "/data/plans/web.fpc", "name": "web"}`` — a
          compiled-plan directory already on the server's filesystem,
          memory-mapped in place (the streamed route: million-node
          graphs register without a JSON edge list ever existing).

        Responds 201 on first registration, 200 when the digest was
        already resident (registration is idempotent).
        """
        self._count_request()
        if not isinstance(body, dict):
            raise RequestError("request body must be a JSON object")
        has_dataset = "dataset" in body
        has_edges = "edges" in body
        has_fpc = "fpc_path" in body
        if has_dataset + has_edges + has_fpc != 1:
            raise RequestError(
                "provide exactly one of 'dataset', 'edges' or 'fpc_path'"
            )
        probabilities = _parse_probabilities(body)
        try:
            if has_fpc:
                if not isinstance(body["fpc_path"], str):
                    raise RequestError(
                        "'fpc_path' must be a filesystem path string"
                    )
                name = body.get("name")
                entry, created = self.store.register_fpc(
                    body["fpc_path"],
                    name=None if name is None else str(name),
                    probabilities=probabilities,
                )
            elif has_dataset:
                seed = _require_int(body.get("seed", 0), "seed")
                scale = body.get("scale")
                if scale is not None and not isinstance(scale, (int, float)):
                    raise RequestError("'scale' must be a number")
                entry, created = self.store.register_dataset(
                    body["dataset"],
                    seed=seed,
                    scale=None if scale is None else float(scale),
                    probabilities=probabilities,
                )
            else:
                if not isinstance(body["edges"], str):
                    raise RequestError("'edges' must be an edge-list string")
                sources = body.get("sources")
                if sources is not None and not isinstance(sources, list):
                    raise RequestError("'sources' must be a list of node ids")
                entry, created = self.store.register_edges(
                    body["edges"],
                    name=str(body.get("name", "upload")),
                    sources=sources,
                    prepare=bool(body.get("prepare", False)),
                    initiator=body.get("initiator"),
                    probabilities=probabilities,
                )
        except RequestError:
            raise
        except (ReproError, OSError) as exc:
            # Unknown dataset names, malformed edge lists, bad graph
            # structure, unreadable .fpc directories — all client
            # errors, not server faults.
            raise RequestError(str(exc)) from None
        payload = entry.describe_payload()
        payload["created"] = created
        return (201 if created else 200), payload

    def handle_list_graphs(self) -> tuple[int, dict[str, Any]]:
        """``GET /graphs`` — every resident graph, LRU order."""
        self._count_request()
        return 200, {
            "graphs": [e.describe_payload() for e in self.store.entries()]
        }

    def handle_graph_stats(self, digest: str) -> tuple[int, dict[str, Any]]:
        """``GET /graphs/{digest}/stats`` — structural summary."""
        self._count_request()
        entry = self._get_entry(digest)
        payload = stats_payload(entry.name, entry.stats())
        payload["digest"] = entry.digest
        compiled = getattr(entry.graph, "_compiled_cache", None) or getattr(
            entry.graph, "_compiled", None
        )
        if compiled is not None:
            payload["compiled_bytes"] = compiled.nbytes_split()
        return 200, payload

    def _get_entry(self, digest: str):
        try:
            return self.store.get(digest)
        except ReproError as exc:
            raise RequestError(str(exc), status=404) from None

    # ------------------------------------------------------------------
    # Placements
    # ------------------------------------------------------------------

    def _placement_key(
        self, body: dict[str, Any]
    ) -> tuple[PlacementKey, Any]:
        if not isinstance(body, dict):
            raise RequestError("request body must be a JSON object")
        digest = body.get("graph")
        if not isinstance(digest, str):
            raise RequestError("'graph' must be a graph digest string")
        entry = self._get_entry(digest)
        algorithm = body.get("algorithm", "G_All")
        strategy = body.get("strategy", "exact")
        backend = body.get("backend", "auto")
        if strategy not in STRATEGY_NAMES:
            known = ", ".join(STRATEGY_NAMES)
            raise RequestError(
                f"unknown strategy {strategy!r}; known strategies: {known}"
            )
        if backend not in BACKEND_NAMES:
            known = ", ".join(BACKEND_NAMES)
            raise RequestError(
                f"unknown backend {backend!r}; known backends: {known}"
            )
        model = body.get("model", "deterministic")
        from repro.propagation.model import DEFAULT_TRIALS, MODEL_NAMES

        if model not in MODEL_NAMES:
            known = ", ".join(MODEL_NAMES)
            raise RequestError(
                f"unknown model {model!r}; known models: {known}"
            )
        trials = _require_int(body.get("trials", DEFAULT_TRIALS), "trials")
        if trials <= 0:
            raise RequestError("'trials' must be a positive integer")
        if trials > MAX_TRIALS:
            raise RequestError(
                f"'trials' must not exceed {MAX_TRIALS}"
            )
        mc_seed = _require_int(body.get("mc_seed", 0), "mc_seed")
        # Resolve the model axis the way the cache needs it: a
        # probabilistic request on a graph with no (non-unit) registered
        # probabilities *is* deterministic relaying, and must land on the
        # deterministic cache cell rather than fork it.
        if model == "deterministic" or entry.probabilities is None:
            model, trials, mc_seed = "deterministic", 0, 0
        sketch_k, sketch_seed = self._sketch_axis(body, strategy, model)
        try:
            # Validates the name and availability; resolves "auto" to the
            # concrete backend so the cache never forks on spelling.
            resolved = get_backend(backend).name
            get_algorithm(algorithm, strategy=strategy)
            k = _require_int(body.get("k"), "k")
            check_budget(entry.graph, k)
        except ReproError as exc:
            raise RequestError(str(exc)) from None
        rng_seed = _require_int(body.get("rng_seed", 0), "rng_seed")
        key = PlacementKey(
            digest=entry.digest,
            algorithm=algorithm,
            strategy=strategy,
            backend=resolved,
            k=k,
            rng_seed=rng_seed,
            model=model,
            trials=trials,
            mc_seed=mc_seed,
            sketch_k=sketch_k,
            sketch_seed=sketch_seed,
        )
        return key, entry

    @staticmethod
    def _sketch_axis(
        body: dict[str, Any], strategy: str, model: str
    ) -> tuple[int, int]:
        """Resolve ``(sketch_k, sketch_seed)`` the way the cache needs it.

        Exact strategies normalize to ``(0, 0)`` no matter how the request
        spelled the parameters, so exact cells never fork.  Sketch
        requests accept at most one of ``sketch_k`` / ``epsilon``
        (``epsilon`` converts via ``k_for_epsilon``, so two spellings of
        the same resolution land on one cell) and reject the
        probabilistic-model axis up front — the algorithm would refuse it
        anyway, but after queueing a job the client was told about.
        """
        if strategy != "sketch":
            return 0, 0
        if model != "deterministic":
            raise RequestError(
                "the 'sketch' strategy estimates deterministic relaying "
                "only; drop 'model' or use strategy 'exact'"
            )
        from repro.sketches.bottomk import DEFAULT_SKETCH_K, k_for_epsilon

        raw_k = body.get("sketch_k")
        epsilon = body.get("epsilon")
        if raw_k is not None and epsilon is not None:
            raise RequestError(
                "provide at most one of 'sketch_k' and 'epsilon'"
            )
        if epsilon is not None:
            if isinstance(epsilon, bool) or not isinstance(
                epsilon, (int, float)
            ) or not epsilon > 0:
                raise RequestError("'epsilon' must be a positive number")
            sketch_k = k_for_epsilon(float(epsilon))
        elif raw_k is not None:
            sketch_k = _require_int(raw_k, "sketch_k")
            if sketch_k < 4:
                raise RequestError("'sketch_k' must be at least 4")
        else:
            sketch_k = DEFAULT_SKETCH_K
        if sketch_k > MAX_SKETCH_K:
            raise RequestError(
                f"'sketch_k' must not exceed {MAX_SKETCH_K}"
            )
        return sketch_k, _require_int(body.get("sketch_seed", 0), "sketch_seed")

    @staticmethod
    def _request_doc(key: PlacementKey) -> dict[str, Any]:
        doc = {
            "graph": key.digest,
            "algorithm": key.algorithm,
            "strategy": key.strategy,
            "backend": key.backend,
            "k": key.k,
            "rng_seed": key.rng_seed,
        }
        if key.model != "deterministic":
            doc["model"] = key.model
            doc["trials"] = key.trials
            doc["mc_seed"] = key.mc_seed
        if key.sketch_k:
            doc["sketch_k"] = key.sketch_k
            doc["sketch_seed"] = key.sketch_seed
        return doc

    def handle_placement(
        self, body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        """``POST /placements`` — cached answers inline, misses as jobs.

        Responds 200 with the payload on an exact or prefix cache hit;
        otherwise 202 with a job id (or 200 after blocking, when the body
        sets ``"wait": true``).
        """
        self._count_request()
        key, entry = self._placement_key(body)
        request_doc = self._request_doc(key)

        cached = self.cache.get(key)
        if cached is not None:
            return 200, {
                "request": request_doc,
                "cache": {"hit": True, "kind": "exact"},
                "result": cached,
            }

        donor = self.cache.find_prefix_donor(key)
        if donor is not None:
            derived = self._derive_prefix(key, entry, donor[1])
            return 200, {
                "request": request_doc,
                "cache": {"hit": True, "kind": "prefix"},
                "result": derived,
            }

        # Validate the wait timeout before submitting: rejecting the
        # request after the job is queued would run work the client was
        # never told about.
        timeout = body.get("timeout", self.wait_timeout)
        if body.get("wait") and (
            not isinstance(timeout, (int, float))
            or isinstance(timeout, bool)
            or timeout <= 0
        ):
            raise RequestError("'timeout' must be a positive number")
        from repro.obs.trace import current_request_id

        job, created = self.jobs.submit(
            str(key),
            self._job_fn(key, entry),
            request_id=current_request_id(),
        )
        if body.get("wait"):
            if not job.wait(float(timeout)):
                return 202, {
                    "request": request_doc,
                    "cache": {"hit": False},
                    "job": job.describe(),
                    "timed_out": True,
                }
            return self._job_response(job, request_doc)
        return 202, {
            "request": request_doc,
            "cache": {"hit": False},
            "job": job.describe(),
            "deduplicated": not created,
        }

    def _job_fn(self, key: PlacementKey, entry):
        """The closure a cache miss runs on the worker pool."""

        def compute() -> dict[str, Any]:
            if self.jobs.pool_kind == "process":
                payload = self.jobs.dispatch(
                    execute_placement_from_spec,
                    entry.spec,
                    key.algorithm,
                    key.strategy,
                    key.backend,
                    key.k,
                    key.rng_seed,
                    key.model,
                    key.trials,
                    key.mc_seed,
                    entry.probabilities,
                    self.world_workers,
                    key.sketch_k,
                    key.sketch_seed,
                )
            else:
                payload = execute_placement(
                    entry.graph,
                    key.algorithm,
                    key.strategy,
                    key.backend,
                    key.k,
                    key.rng_seed,
                    phi_constants=entry.phi_constants(),
                    model=key.model,
                    trials=key.trials,
                    mc_seed=key.mc_seed,
                    probabilities=entry.probabilities,
                    world_workers=self.world_workers,
                    sketch_k=key.sketch_k,
                    sketch_seed=key.sketch_seed,
                )
            # Estimate-only sketch payloads (``scored: false``) carry no
            # phi family, so they cannot seed prefix derivations.
            self.cache.put(
                key, payload,
                prefix_consistent=(
                    bool(payload["prefix_consistent"]) and "phi" in payload
                ),
            )
            return payload

        return compute

    def _derive_prefix(
        self, key: PlacementKey, entry, donor_payload: dict[str, Any]
    ) -> dict[str, Any]:
        """Slice a cached larger-k payload down to ``key.k`` and rescore.

        Greedy prefix consistency guarantees the sliced filter sequence is
        exactly what a fresh ``k``-run would select; only the objective
        numbers for the shorter prefix need one scoring sweep.  The
        derived payload is cached under its own key, so repeats are pure
        lookups.
        """
        filters = parse_filters(donor_payload["filters"][: key.k])
        payload = dict(donor_payload)
        payload["requested_k"] = key.k
        payload["filters"] = donor_payload["filters"][: key.k]
        payload["filters_found"] = len(filters)
        payload["steps"] = donor_payload["steps"][: len(filters)]
        if "sketch" in payload:
            # The estimator audit trail is per-step; slice it with them.
            block = dict(payload["sketch"])
            block["estimated_gains"] = block["estimated_gains"][: len(filters)]
            payload["sketch"] = block
        if key.model != "deterministic":
            # SAA scoring: the donor's phi_empty/f_max already average
            # the request's worlds (same (model, trials, mc_seed) cell),
            # so only Φ̂(A) needs one sampled evaluation.
            from repro.core.objective import expected_phi

            resolved = _build_request_model(
                key.model, key.trials, key.mc_seed, entry.probabilities
            )
            phi_empty = payload["phi_empty"]
            f_max = payload["f_max"]
            phi_a: Any = expected_phi(
                entry.graph, filters, model=resolved, backend=key.backend
            )
        else:
            phi_empty, f_max = entry.phi_constants()
            from repro.core.objective import phi as phi_fn

            phi_a = phi_fn(entry.graph, filters, backend=key.backend)
        payload["phi_empty"] = phi_empty
        payload["phi"] = phi_a
        payload["objective"] = phi_empty - phi_a
        payload["f_max"] = f_max
        payload["filter_ratio"] = (
            1.0 if f_max == 0 else (phi_empty - phi_a) / f_max
        )
        self.cache.put(key, payload, prefix_consistent=True)
        return payload

    def _job_response(
        self, job, request_doc: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        doc: dict[str, Any] = {"job": job.describe()}
        if request_doc is not None:
            doc["request"] = request_doc
        if job.state == "done":
            doc["cache"] = {"hit": False, "kind": "computed"}
            doc["result"] = job.payload
            return 200, doc
        if job.state == "failed":
            return 500, doc
        return 202, doc

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------

    def handle_job(self, job_id: str) -> tuple[int, dict[str, Any]]:
        """``GET /jobs/{id}`` — state, plus the result once done."""
        self._count_request()
        try:
            job = self.jobs.get(job_id)
        except ReproError as exc:
            raise RequestError(str(exc), status=404) from None
        return self._job_response(job)

    def handle_cancel_job(self, job_id: str) -> tuple[int, dict[str, Any]]:
        """``DELETE /jobs/{id}`` — cancel a still-queued job."""
        self._count_request()
        try:
            job = self.jobs.get(job_id)
        except ReproError as exc:
            raise RequestError(str(exc), status=404) from None
        cancelled = self.jobs.cancel(job_id)
        return 200, {"job": job.describe(), "cancelled": cancelled}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def handle_algorithms(self) -> tuple[int, dict[str, Any]]:
        """``GET /algorithms`` — the registry, with per-name capabilities."""
        from repro.propagation.model import MODEL_NAMES

        self._count_request()
        return 200, {
            "algorithms": algorithm_catalog(),
            "strategies": list(STRATEGY_NAMES),
            "backends": list(available_backends()),
            "models": list(MODEL_NAMES),
        }

    def handle_healthz(self) -> tuple[int, dict[str, Any]]:
        """``GET /healthz`` — liveness plus the numbers an operator wants.

        Store and cache figures come from each component's own
        lock-guarded ``stats()`` snapshot, so a concurrent registration
        can never produce a torn view (e.g. a ``graphs`` count that
        disagrees with the resident node/edge totals it arrived with).
        """
        store_stats = self.store.stats()
        return 200, {
            "status": "ok",
            "uptime_seconds": round(time.time() - self.started_unix, 3),
            "requests": self._requests,
            "graphs": store_stats["graphs"],
            "store": store_stats,
            "cache": self.cache.stats(),
            "jobs": self.jobs.counts(),
            "pool": {
                "kind": self.jobs.pool_kind,
                "workers": self.jobs.workers,
                "world_workers": self.world_workers,
            },
            "backends": list(available_backends()),
        }

    def handle_metrics(self) -> tuple[int, str]:
        """``GET /metrics`` — the ledger in Prometheus text exposition.

        Live-updated families (backend evaluations, warm and sketch counters,
        job durations, HTTP timings) render as-is; component-owned counters
        (cache, store, jobs, request totals) are *mirrored at scrape time* from
        each component's lock-guarded ``stats()``/``counts()`` snapshot, so the
        scrape is consistent and live code never pays a registry lock per cache
        lookup.
        """
        from repro.obs.metrics import REGISTRY

        self._count_request()
        cache = self.cache.stats()
        cache_requests = REGISTRY.counter(
            "fp_cache_requests_total",
            "Placement-cache lookups by outcome.",
            labels=("outcome",),
        )
        cache_requests.set_total(cache["hits"], outcome="hit")
        cache_requests.set_total(cache["prefix_hits"], outcome="prefix_hit")
        cache_requests.set_total(cache["misses"], outcome="miss")
        REGISTRY.counter(
            "fp_cache_evictions_total", "Placement-cache evictions."
        ).set_total(cache["evictions"])
        REGISTRY.gauge(
            "fp_cache_entries", "Resident placement-cache entries."
        ).set(cache["entries"])
        REGISTRY.gauge(
            "fp_cache_bytes", "Resident placement-cache payload bytes."
        ).set(cache["bytes"])

        store = self.store.stats()
        REGISTRY.gauge(
            "fp_store_graphs", "Graphs resident in the store."
        ).set(store["graphs"])
        REGISTRY.counter(
            "fp_store_registrations_total", "Graph registrations accepted."
        ).set_total(store["registrations"])
        REGISTRY.counter(
            "fp_store_evictions_total", "Graphs evicted by the LRU bound."
        ).set_total(store["evictions"])
        REGISTRY.gauge(
            "fp_store_resident_nodes", "Nodes across resident graphs."
        ).set(store["nodes"])
        REGISTRY.gauge(
            "fp_store_resident_edges", "Edges across resident graphs."
        ).set(store["edges"])
        REGISTRY.gauge(
            "fp_store_compiled_bytes",
            "Bytes held by resident compiled graph plans.",
        ).set(store["compiled_bytes"])
        REGISTRY.gauge(
            "fp_store_compiled_mapped_bytes",
            "Bytes of compiled graph tables backed by memory-mapped files.",
        ).set(store["compiled_mapped_bytes"])
        REGISTRY.counter(
            "fp_store_snapshots_quarantined_total",
            "Plan snapshots that failed to load at boot and were renamed "
            "aside.",
        ).set_total(store["quarantined_snapshots"])

        jobs = self.jobs.counts()
        job_gauge = REGISTRY.gauge(
            "fp_jobs", "Known jobs by lifecycle state.", labels=("state",)
        )
        for state in ("queued", "running", "done", "failed", "cancelled"):
            job_gauge.set(jobs[state], state=state)
        REGISTRY.counter(
            "fp_jobs_submitted_total", "Jobs submitted to the pool."
        ).set_total(jobs["submitted"])
        REGISTRY.counter(
            "fp_jobs_deduplicated_total",
            "Placement requests answered by an in-flight identical job.",
        ).set_total(jobs["deduplicated"])

        with self._lock:
            requests = self._requests
        REGISTRY.counter(
            "fp_service_requests_total", "Requests handled by the app."
        ).set_total(requests)
        REGISTRY.gauge(
            "fp_service_uptime_seconds", "Seconds since app construction."
        ).set(round(time.time() - self.started_unix, 3))

        # Stable catalog: families whose natural first increment may not
        # have happened yet (no probabilistic request, no sweep on this
        # instance) are seeded with explicit zero samples, so scrapers
        # and dashboards see the full schema from the first scrape.
        from repro.obs.instrument import evaluation_counter

        evaluation_counter().inc(0, kind="marginal_gains", backend="python")
        world_cache = REGISTRY.counter(
            "fp_sampling_world_cache_total",
            "Sampled-world cache lookups by outcome.",
            labels=("outcome",),
        )
        world_cache.inc(0, outcome="hit")
        world_cache.inc(0, outcome="miss")
        REGISTRY.counter(
            "fp_sampling_worlds_built_total",
            "Sampled world sets constructed (cache misses that built).",
        ).inc(0)
        return 200, REGISTRY.render()

    def handle_trace(self, job_id: str) -> tuple[int, dict[str, Any]]:
        """``GET /traces/{job_id}`` — the recorded span tree of a solve.

        404s when the job is unknown *or* its trace is gone (tracing
        disabled, job not finished, or the ring buffer already evicted
        it); the error message distinguishes the cases.
        """
        from repro.obs.trace import TRACER, format_trace

        self._count_request()
        try:
            job = self.jobs.get(job_id)
        except ReproError as exc:
            raise RequestError(str(exc), status=404) from None
        trace = TRACER.get(job_id)
        if trace is None:
            detail = (
                "tracing is disabled on this server"
                if not TRACER.enabled
                else "no trace recorded (job not finished, or evicted)"
            )
            raise RequestError(
                f"no trace for job {job_id!r}: {detail}", status=404
            )
        return 200, {
            "job": job.describe(),
            "trace": trace.to_dict(),
            "tree": format_trace(trace),
        }

    # ------------------------------------------------------------------
    # Convenience (tests)
    # ------------------------------------------------------------------

    def place_sync(self, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        """``handle_placement`` with ``wait=True`` forced — test sugar."""
        return self.handle_placement({**body, "wait": True})


def _require_int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"'{name}' must be an integer")
    return value


def _parse_probabilities(body: dict[str, Any]) -> "float | dict | None":
    """Extract registered edge probabilities from a ``POST /graphs`` body.

    Exactly one of two shapes: ``"edge_prob": 0.5`` (one probability for
    every edge) or ``"edge_probs": [[u, v, p], ...]`` (per-edge values;
    unlisted edges relay deterministically, matching the mapping
    convention everywhere else in the library).  Node values must match
    the graph's nodes as uploaded (ints stay ints, strings stay
    strings).  Edge membership and probability ranges are validated by
    the store at registration.
    """
    uniform = body.get("edge_prob")
    per_edge = body.get("edge_probs")
    if uniform is None and per_edge is None:
        return None
    if uniform is not None and per_edge is not None:
        raise RequestError(
            "provide at most one of 'edge_prob' and 'edge_probs'"
        )
    if per_edge is None:
        if isinstance(uniform, bool) or not isinstance(uniform, (int, float)):
            raise RequestError("'edge_prob' must be a number in [0, 1]")
        return float(uniform)
    if not isinstance(per_edge, list):
        raise RequestError(
            "'edge_probs' must be a list of [u, v, probability] triples"
        )
    mapping: dict = {}
    for item in per_edge:
        if not (isinstance(item, list) and len(item) == 3):
            raise RequestError(
                "'edge_probs' entries must be [u, v, probability] triples"
            )
        u, v, p = item
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise RequestError("edge probability must be a number in [0, 1]")
        try:
            mapping[(u, v)] = float(p)
        except TypeError:
            # Unhashable node values (nested JSON arrays/objects) are a
            # malformed request, not a server fault.
            raise RequestError(
                "'edge_probs' node values must be node ids "
                "(strings or numbers)"
            ) from None
    return mapping
