"""Service subsystem: GraphStore, PlacementCache, JobManager, ServiceApp."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ParameterError
from repro.graphs.cgraph import CGraph
from repro.service.app import RequestError, ServiceApp
from repro.service.cache import PlacementCache, PlacementKey
from repro.service.jobs import JobManager
from repro.service.store import DEFAULT_MAX_GRAPHS, GraphStore, graph_digest


def small_app(**kwargs) -> ServiceApp:
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("warm_backends", False)
    return ServiceApp(**kwargs)


@pytest.fixture
def app():
    instance = small_app()
    yield instance
    instance.close()


def register_fig1(app: ServiceApp) -> str:
    entry, _ = app.store.register_dataset("fig1")
    return entry.digest


# ----------------------------------------------------------------------
# GraphStore
# ----------------------------------------------------------------------


def test_digest_is_content_addressed():
    a = CGraph([("s", "x"), ("s", "y")])
    b = CGraph([("s", "y"), ("s", "x")])  # same content, other order
    c = CGraph([("s", "x"), ("s", "y"), ("x", "y")])
    assert graph_digest(a) == graph_digest(b)
    assert graph_digest(a) != graph_digest(c)
    # int vs string node ids must not collide
    assert graph_digest(CGraph([(1, 2)])) != graph_digest(CGraph([("1", "2")]))


def test_store_registration_is_idempotent():
    store = GraphStore(warm_backends=False)
    e1, created1 = store.register_dataset("fig1")
    e2, created2 = store.register_dataset("fig1")
    assert created1 and not created2
    assert e1 is e2
    assert len(store) == 1


def test_store_prefix_lookup_and_unknown():
    store = GraphStore(warm_backends=False)
    entry, _ = store.register_dataset("fig1")
    assert store.get(entry.digest) is entry
    assert store.get(entry.digest[:12]) is entry
    with pytest.raises(ParameterError):
        store.get("0" * 64)
    with pytest.raises(ParameterError):
        store.get("abc")  # shorter than the minimum prefix


def test_store_lru_eviction():
    store = GraphStore(max_graphs=2, warm_backends=False)
    d1 = store.register_dataset("fig1")[0].digest
    d2 = store.register_dataset("fig2")[0].digest
    store.get(d1)  # touch fig1 so fig2 is the LRU victim
    d3 = store.register_dataset("fig3")[0].digest
    assert set(store.digests()) == {d1, d3}
    with pytest.raises(ParameterError):
        store.get(d2)


def upload_text(i: int) -> str:
    return f"# sources: s\ns a{i}\ns b{i}\na{i} c\nb{i} c\n"


def scrape_evictions(app: ServiceApp) -> float:
    _, exposition = app.handle_metrics()
    for line in exposition.splitlines():
        if line.startswith("fp_store_evictions_total "):
            return float(line.split()[1])
    raise AssertionError("fp_store_evictions_total missing from /metrics")


def test_default_store_bound_keeps_the_hot_graph(app):
    """A default app bounds residency at DEFAULT_MAX_GRAPHS, evicts the
    oldest idle uploads, keeps the graph placements touch, and answers
    an evicted digest with 4xx until it is registered again."""
    uploads = DEFAULT_MAX_GRAPHS + 5

    def upload(i: int) -> str:
        status, doc = app.handle_register_graph({"edges": upload_text(i)})
        assert status == 201 and doc["created"]
        return doc["digest"]

    hot_body = {"graph": upload(0), "algorithm": "G_All", "k": 1}
    status, hot = app.handle_placement({**hot_body, "wait": True})
    assert status == 200
    first_idle = upload(1)
    idle_body = {"graph": first_idle, "algorithm": "G_All", "k": 2}
    status, idle = app.handle_placement({**idle_body, "wait": True})
    assert status == 200
    evictions_before = scrape_evictions(app)
    digests = [hot_body["graph"], first_idle]
    for i in range(2, uploads):
        status, doc = app.handle_placement(hot_body)
        assert status == 200 and doc["result"] == hot["result"]
        digests.append(upload(i))

    resident = set(app.store.digests())
    assert hot_body["graph"] in resident
    assert resident.isdisjoint(digests[1:6])
    assert resident == {digests[0], *digests[6:]}
    assert scrape_evictions(app) - evictions_before == 5
    assert app.handle_healthz()[1]["store"]["graphs"] == DEFAULT_MAX_GRAPHS

    with pytest.raises(RequestError) as err:
        app.handle_placement(idle_body)
    assert 400 <= err.value.status < 500

    # The digest is content-addressed, so re-registering restores it and
    # the placement cached before the eviction is an exact hit again.
    assert upload(1) == first_idle
    status, again = app.handle_placement(idle_body)
    assert status == 200
    assert again["cache"] == {"hit": True, "kind": "exact"}
    assert again["result"] == idle["result"]


def test_store_register_edges_roundtrip_digest(tmp_path):
    from repro.graphs.io import write_edge_list

    store = GraphStore(warm_backends=False)
    entry, _ = store.register_dataset("quote", scale=0.1)
    path = tmp_path / "quote.txt"
    write_edge_list(entry.graph, path)
    re_entry, created = store.register_edges(path.read_text())
    assert not created
    assert re_entry.digest == entry.digest


# ----------------------------------------------------------------------
# PlacementCache
# ----------------------------------------------------------------------


def key_for(k: int, *, algorithm: str = "G_All") -> PlacementKey:
    return PlacementKey(
        digest="d" * 64,
        algorithm=algorithm,
        strategy="exact",
        backend="python",
        k=k,
    )


def payload_for(k: int) -> dict:
    filters = [repr(f"n{i}") for i in range(k)]
    return {
        "filters": filters,
        "steps": [{"node": f, "gain": 1} for f in filters],
        "prefix_consistent": True,
    }


def test_cache_exact_hit_and_miss_counters():
    cache = PlacementCache()
    key = key_for(3)
    assert cache.get(key) is None
    cache.put(key, payload_for(3), prefix_consistent=True)
    assert cache.get(key)["filters"] == payload_for(3)["filters"]
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1


def test_cache_prefix_donor_semantics():
    cache = PlacementCache()
    cache.put(key_for(8), payload_for(8), prefix_consistent=True)
    cache.put(key_for(5), payload_for(5), prefix_consistent=True)
    # smallest sufficient donor wins
    donor_key, payload = cache.find_prefix_donor(key_for(4))
    assert donor_key.k == 5 and len(payload["filters"]) == 5
    # larger than anything cached: no donor
    assert cache.find_prefix_donor(key_for(9)) is None
    # different cell: no donor
    assert cache.find_prefix_donor(key_for(2, algorithm="G_Max")) is None
    # non-prefix-consistent entries never donate
    cache.put(
        key_for(6, algorithm="Rand_K"),
        {**payload_for(6), "prefix_consistent": False},
        prefix_consistent=False,
    )
    assert cache.find_prefix_donor(key_for(2, algorithm="Rand_K")) is None


def test_cache_lru_eviction_by_entries():
    cache = PlacementCache(max_entries=2)
    cache.put(key_for(1), payload_for(1), prefix_consistent=True)
    cache.put(key_for(2), payload_for(2), prefix_consistent=True)
    cache.get(key_for(1))  # make k=2 the LRU victim
    cache.put(key_for(3), payload_for(3), prefix_consistent=True)
    assert cache.get(key_for(1)) is not None
    assert cache.get(key_for(2)) is None
    assert cache.stats()["evictions"] == 1


def test_cache_eviction_by_bytes():
    probe = PlacementCache()
    probe.put(key_for(1), payload_for(1), prefix_consistent=True)
    one_entry = probe.total_bytes
    cache = PlacementCache(max_bytes=int(one_entry * 2.5))
    for k in (1, 2, 3, 4):
        cache.put(key_for(k), payload_for(k), prefix_consistent=True)
    assert cache.stats()["evictions"] >= 1
    assert cache.total_bytes <= int(one_entry * 2.5)
    # the most recent insert always survives, even over budget
    tiny = PlacementCache(max_bytes=1)
    tiny.put(key_for(9), payload_for(9), prefix_consistent=True)
    assert len(tiny) == 1


# ----------------------------------------------------------------------
# JobManager
# ----------------------------------------------------------------------


def test_jobs_dedupe_in_flight():
    manager = JobManager(workers=1)
    release = threading.Event()

    def blocked():
        release.wait(5)
        return {"ok": True}

    j1, created1 = manager.submit("same-key", blocked)
    j2, created2 = manager.submit("same-key", blocked)
    assert created1 and not created2
    assert j1 is j2
    assert manager.counts()["deduplicated"] == 1
    release.set()
    assert j1.wait(5)
    assert j1.state == "done" and j1.payload == {"ok": True}
    # finished jobs do not dedupe: a fresh submission runs again
    j3, created3 = manager.submit("same-key", lambda: {"ok": 2})
    assert created3 and j3 is not j1
    assert j3.wait(5)
    manager.shutdown()


def test_jobs_failure_and_cancellation():
    manager = JobManager(workers=1)
    release = threading.Event()

    def blocked():
        release.wait(5)
        return {}

    def boom():
        raise ValueError("nope")

    running, _ = manager.submit("running", blocked)
    queued, _ = manager.submit("queued", boom)
    # the queued job can be cancelled, the running one cannot
    assert manager.cancel(queued.id) is True
    assert queued.state == "cancelled"
    assert manager.cancel(running.id) is False
    release.set()
    assert running.wait(5)
    failing, _ = manager.submit("fails", boom)
    assert failing.wait(5)
    assert failing.state == "failed"
    assert "ValueError" in failing.error
    with pytest.raises(ParameterError):
        manager.get("job-999999")
    manager.shutdown()


# ----------------------------------------------------------------------
# ServiceApp
# ----------------------------------------------------------------------


def test_app_register_and_stats(app):
    status, doc = app.handle_register_graph({"dataset": "fig1"})
    assert status == 201 and doc["created"]
    status, again = app.handle_register_graph({"dataset": "fig1"})
    assert status == 200 and not again["created"]
    assert again["digest"] == doc["digest"]
    status, stats = app.handle_graph_stats(doc["digest"][:16])
    assert status == 200
    assert stats["nodes"] == 7 and stats["is_dag"] is True
    status, listing = app.handle_list_graphs()
    assert status == 200 and len(listing["graphs"]) == 1


def test_app_validation_errors(app):
    from repro.service.app import RequestError

    digest = register_fig1(app)
    cases = [
        {"graph": digest, "algorithm": "nope", "k": 1},
        {"graph": digest, "algorithm": "G_All", "k": "one"},
        {"graph": digest, "algorithm": "G_All", "k": 99},  # > n
        {"graph": digest, "algorithm": "G_All", "k": 1, "strategy": "x"},
        {"graph": digest, "algorithm": "G_All", "k": 1, "backend": "x"},
        {"algorithm": "G_All", "k": 1},  # no graph
    ]
    for body in cases:
        with pytest.raises(RequestError) as err:
            app.handle_placement(body)
        assert err.value.status == 400
    with pytest.raises(RequestError) as err:
        app.handle_placement({"graph": "f" * 64, "k": 1})
    assert err.value.status == 404
    with pytest.raises(RequestError) as err:
        app.handle_job("job-999999")
    assert err.value.status == 404


def test_app_bad_wait_timeout_rejected_before_submit(app):
    from repro.service.app import RequestError

    digest = register_fig1(app)
    for bad_timeout in (-1, 0, "soon", True):
        with pytest.raises(RequestError):
            app.handle_placement({
                "graph": digest, "algorithm": "G_All", "k": 2,
                "wait": True, "timeout": bad_timeout,
            })
    # no job may have been queued for a rejected request
    assert app.jobs.counts()["submitted"] == 0


def test_app_miss_then_hit_cycle(app):
    digest = register_fig1(app)
    body = {"graph": digest, "algorithm": "G_All", "k": 2}
    status, doc = app.handle_placement(body)
    assert status == 202 and doc["cache"]["hit"] is False
    job_id = doc["job"]["id"]
    assert app.jobs.get(job_id).wait(10)
    status, polled = app.handle_job(job_id)
    assert status == 200
    assert polled["job"]["state"] == "done"
    assert polled["cache"] == {"hit": False, "kind": "computed"}
    # G_All early-stops after z2 (the only non-sink merge node of fig1)
    assert polled["result"]["filters"] == ["'z2'"]
    # identical request now hits the cache, with identical filters
    status, hit = app.handle_placement(body)
    assert status == 200
    assert hit["cache"] == {"hit": True, "kind": "exact"}
    assert hit["result"] == polled["result"]
    # "auto" resolves to the same concrete backend: still a hit
    status, auto_hit = app.handle_placement({**body, "backend": "auto"})
    assert status == 200 and auto_hit["cache"]["hit"] is True


def test_app_prefix_reuse_matches_direct_run(app):
    digest = register_fig1(app)
    status, _ = app.place_sync(
        {"graph": digest, "algorithm": "G_All", "k": 4}
    )
    assert status == 200
    status, prefix = app.handle_placement(
        {"graph": digest, "algorithm": "G_All", "k": 2}
    )
    assert status == 200
    assert prefix["cache"] == {"hit": True, "kind": "prefix"}
    # bit-identical to computing k=2 from scratch on a fresh service
    fresh = small_app()
    try:
        fresh_digest = register_fig1(fresh)
        assert fresh_digest == digest
        status, direct = fresh.place_sync(
            {"graph": digest, "algorithm": "G_All", "k": 2}
        )
        assert status == 200
        assert prefix["result"] == direct["result"]
    finally:
        fresh.close()
    # the derived entry was cached: the repeat is an exact hit
    status, repeat = app.handle_placement(
        {"graph": digest, "algorithm": "G_All", "k": 2}
    )
    assert repeat["cache"] == {"hit": True, "kind": "exact"}
    assert repeat["result"] == prefix["result"]


def test_app_randomized_results_never_prefix_reuse(app):
    digest = register_fig1(app)
    status, _ = app.place_sync(
        {"graph": digest, "algorithm": "Rand_K", "k": 4}
    )
    assert status == 200
    status, doc = app.handle_placement(
        {"graph": digest, "algorithm": "Rand_K", "k": 2}
    )
    # k=2 must be computed fresh (202/queued or 200/wait), never sliced
    assert doc["cache"]["hit"] is False or doc["cache"]["kind"] == "computed"


def test_app_concurrent_identical_requests_share_one_job():
    app = small_app(workers=1)
    try:
        slow_entry, _ = app.store.register_dataset(
            "synthetic-sparse", scale=1.0
        )
        fig1_digest = register_fig1(app)
        # Occupy the single worker so the next submissions stay queued.
        status, first = app.handle_placement(
            {"graph": slow_entry.digest, "algorithm": "G_All", "k": 10,
             "backend": "python"}
        )
        assert status == 202
        target = {"graph": fig1_digest, "algorithm": "G_All", "k": 2}
        status_a, a = app.handle_placement(target)
        status_b, b = app.handle_placement(target)
        assert status_a == status_b == 202
        assert a["job"]["id"] == b["job"]["id"]
        assert b["deduplicated"] is True
        job = app.jobs.get(a["job"]["id"])
        assert job.wait(30)
        assert job.state == "done"
        # exactly one job ran for the two identical requests
        assert app.jobs.counts()["deduplicated"] >= 1
    finally:
        app.close()


def test_app_cancel_queued_job():
    app = small_app(workers=1)
    try:
        slow_entry, _ = app.store.register_dataset(
            "synthetic-sparse", scale=1.0
        )
        digest = register_fig1(app)
        app.handle_placement(
            {"graph": slow_entry.digest, "algorithm": "G_All", "k": 10,
             "backend": "python"}
        )
        status, queued = app.handle_placement(
            {"graph": digest, "algorithm": "G_All", "k": 2}
        )
        job_id = queued["job"]["id"]
        status, doc = app.handle_cancel_job(job_id)
        assert status == 200
        if doc["cancelled"]:  # the worker may already have grabbed it
            assert doc["job"]["state"] == "cancelled"
            status, polled = app.handle_job(job_id)
            assert status == 202 and polled["job"]["state"] == "cancelled"
    finally:
        app.close()


def test_app_healthz_and_algorithms(app):
    digest = register_fig1(app)
    app.place_sync({"graph": digest, "algorithm": "G_All", "k": 2})
    status, health = app.handle_healthz()
    assert status == 200 and health["status"] == "ok"
    assert health["graphs"] == 1
    assert health["cache"]["entries"] == 1
    assert health["jobs"]["done"] == 1
    status, catalog = app.handle_algorithms()
    assert status == 200
    names = {row["name"] for row in catalog["algorithms"]}
    assert {"G_All", "G_Max", "Rand_K"} <= names
    g_all = next(r for r in catalog["algorithms"] if r["name"] == "G_All")
    assert g_all["sketch_capable"] and g_all["deterministic"]
    # Only the randomized baselines need an rng_seed to be reproducible.
    assert {
        row["name"] for row in catalog["algorithms"]
        if not row["deterministic"]
    } == {"Rand_K", "Rand_I", "Rand_W"}


def test_app_process_pool_matches_thread_pool():
    thread_app = small_app()
    process_app = small_app(pool="process", workers=1)
    try:
        body = {"algorithm": "G_All", "k": 3, "backend": "python"}
        d1 = thread_app.store.register_dataset("fig10")[0].digest
        d2 = process_app.store.register_dataset("fig10")[0].digest
        assert d1 == d2
        status1, doc1 = thread_app.place_sync({**body, "graph": d1})
        status2, doc2 = process_app.place_sync({**body, "graph": d2})
        assert status1 == status2 == 200
        assert doc1["result"] == doc2["result"]
        # the process-pool answer was cached identically
        status3, doc3 = process_app.handle_placement({**body, "graph": d2})
        assert doc3["cache"]["hit"] is True
        assert doc3["result"] == doc1["result"]
    finally:
        thread_app.close()
        process_app.close()


def test_service_bench_scenarios_run(app):
    """A cold miss and the cache hit that follows return one result."""
    digest = app.store.register_dataset("fig10")[0].digest
    body = {"graph": digest, "algorithm": "G_All", "k": 3, "backend": "python"}
    status, cold = app.place_sync(body)
    assert status == 200 and cold["cache"]["hit"] is False
    status, hit = app.handle_placement(body)
    assert status == 200 and hit["cache"]["hit"] is True
    assert hit["result"] == cold["result"]
    assert cold["result"]["filters"]


@pytest.mark.parametrize("world_workers", (0, -1))
def test_app_rejects_nonpositive_world_workers(world_workers):
    with pytest.raises(ParameterError, match="positive"):
        ServiceApp(world_workers=world_workers, warm_backends=False)


def test_serve_cli_rejects_nonpositive_world_workers():
    # A child process: ``serve`` sets process-wide tracing and logging
    # before it builds the app.
    import os
    import subprocess
    import sys

    from conftest import SRC

    done = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--world-workers", "0"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert "workers must be positive" in done.stderr


# ----------------------------------------------------------------------
# Propagation-model axis
# ----------------------------------------------------------------------


def test_probabilistic_registration_forks_the_digest(app):
    _, det = app.handle_register_graph({"dataset": "fig1"})
    _, prob = app.handle_register_graph({"dataset": "fig1", "edge_prob": 0.5})
    assert prob["digest"] != det["digest"]
    assert prob["edge_prob"] == 0.5 and det["edge_prob"] is None
    # Unit probabilities *are* deterministic relaying: same digest.
    _, unit = app.handle_register_graph({"dataset": "fig1", "edge_prob": 1.0})
    assert unit["digest"] == det["digest"]
    # Per-edge form registers, validates membership, and is digest-stable.
    _, mapped = app.handle_register_graph(
        {"dataset": "fig1", "edge_probs": [["s", "x", 0.5]]}
    )
    _, mapped_again = app.handle_register_graph(
        {"dataset": "fig1", "edge_probs": [["s", "x", 0.5]]}
    )
    assert mapped["digest"] == mapped_again["digest"]
    assert mapped["digest"] not in (det["digest"], prob["digest"])


def test_probabilistic_registration_validation(app):
    from repro.service.app import RequestError

    cases = [
        {"dataset": "fig1", "edge_prob": "half"},
        {"dataset": "fig1", "edge_prob": 1.5},
        {"dataset": "fig1", "edge_probs": [["s", "nope", 0.5]]},
        {"dataset": "fig1", "edge_probs": [["s", "x"]]},
        {"dataset": "fig1", "edge_prob": 0.5, "edge_probs": []},
        # Unhashable node values are a client error, never a 500.
        {"dataset": "fig1", "edge_probs": [[["s"], "x", 0.5]]},
    ]
    for body in cases:
        with pytest.raises(RequestError):
            app.handle_register_graph(body)


def test_placement_key_carries_model_axis(app):
    _, reg = app.handle_register_graph({"dataset": "fig1", "edge_prob": 0.6})
    digest = reg["digest"]
    base = {"graph": digest, "algorithm": "G_All", "k": 2, "wait": True}
    status, det = app.place_sync(base)
    assert status == 200 and "model" not in det["result"]
    status, prob = app.place_sync(
        {**base, "model": "live-edge", "trials": 12, "mc_seed": 1}
    )
    assert status == 200
    assert prob["result"]["model"] == {
        "name": "live-edge",
        "edge_prob": 0.6,
        "trials": 12,
        "seed": 1,
    }
    assert prob["request"]["model"] == "live-edge"
    # The two requests occupy distinct cache cells.
    status, prob_again = app.place_sync(
        {**base, "model": "live-edge", "trials": 12, "mc_seed": 1}
    )
    assert prob_again["cache"]["hit"] is True
    assert prob_again["result"] == prob["result"]
    status, other_seed = app.place_sync(
        {**base, "model": "live-edge", "trials": 12, "mc_seed": 2}
    )
    assert other_seed["cache"]["hit"] is False


def test_probabilistic_request_on_deterministic_graph_shares_cell(app):
    digest = register_fig1(app)
    base = {"graph": digest, "algorithm": "G_All", "k": 2, "wait": True}
    status, det = app.place_sync(base)
    assert status == 200
    # No registered probabilities ⇒ the model resolves to deterministic
    # and must hit the deterministic cache cell, not fork it.
    status, prob = app.place_sync({**base, "model": "live-edge"})
    assert prob["cache"]["hit"] is True
    assert prob["result"] == det["result"]
    assert "model" not in prob["request"]


def test_probabilistic_prefix_reuse_rescores_with_the_model(app):
    _, reg = app.handle_register_graph(
        {"dataset": "fig10", "edge_prob": 0.7}
    )
    digest = reg["digest"]
    body = {
        "graph": digest,
        "algorithm": "G_All",
        "k": 4,
        "model": "live-edge",
        "trials": 8,
        "mc_seed": 3,
        "wait": True,
    }
    status, full = app.place_sync(body)
    assert status == 200
    status, sliced = app.place_sync({**body, "k": 1})
    assert sliced["cache"]["hit"] and sliced["cache"]["kind"] == "prefix"
    status, direct_app = app.place_sync({**body, "k": 1})
    # Derived entry was re-cached under its own probabilistic key.
    assert direct_app["cache"]["kind"] == "exact"
    # And the derived numbers equal a from-scratch k=1 run.
    fresh = ServiceApp(workers=1, warm_backends=False)
    try:
        fresh.handle_register_graph({"dataset": "fig10", "edge_prob": 0.7})
        status, direct = fresh.place_sync({**body, "k": 1})
    finally:
        fresh.close()
    assert sliced["result"]["filters"] == direct["result"]["filters"]
    assert sliced["result"]["phi"] == direct["result"]["phi"]
    assert (
        sliced["result"]["filter_ratio"] == direct["result"]["filter_ratio"]
    )


def test_trials_capped_per_request(app):
    from repro.service.app import MAX_TRIALS, RequestError

    _, reg = app.handle_register_graph({"dataset": "fig1", "edge_prob": 0.5})
    body = {
        "graph": reg["digest"], "algorithm": "G_All", "k": 1,
        "model": "live-edge", "trials": MAX_TRIALS + 1,
    }
    with pytest.raises(RequestError):
        app.handle_placement(body)


def test_world_caches_are_bounded():
    from repro.propagation.model import build_model
    from repro.propagation.sampling import (
        MAX_WORLD_SETS_PER_GRAPH,
        _worlds_cache,
        get_worlds,
    )

    graph = CGraph([("s", "a"), ("s", "b"), ("a", "c"), ("b", "c")])
    for seed in range(MAX_WORLD_SETS_PER_GRAPH + 5):
        get_worlds(
            graph, build_model("live-edge", edge_prob=0.5, seed=seed, trials=2)
        )
    assert len(_worlds_cache[graph]) == MAX_WORLD_SETS_PER_GRAPH
    # Eviction is results-neutral: a rebuilt world set is bit-identical.
    model = build_model("live-edge", edge_prob=0.5, seed=0, trials=2)
    masks = [bytes(m) for m in get_worlds(graph, model).masks]
    for seed in range(1, MAX_WORLD_SETS_PER_GRAPH + 5):
        get_worlds(
            graph, build_model("live-edge", edge_prob=0.5, seed=seed, trials=2)
        )
    assert [bytes(m) for m in get_worlds(graph, model).masks] == masks


def test_algorithms_endpoint_reports_models(app):
    _, doc = app.handle_algorithms()
    assert doc["models"] == ["deterministic", "live-edge", "per-copy"]
    by_name = {row["name"]: row for row in doc["algorithms"]}
    assert by_name["G_All"]["model_aware"] is True
    assert by_name["Rand_K"]["model_aware"] is False


# ----------------------------------------------------------------------
# .fpc ingestion and plan persistence (the streamed registration route)
# ----------------------------------------------------------------------


def test_register_fpc_roundtrip(tmp_path):
    from repro.graphs.largescale import save_compiled, scale_dag

    graph = scale_dag(0.001, seed=3)
    graph.compiled().reach_counts()  # persist the warmed counts too
    fpc = save_compiled(graph, tmp_path / "tiny.fpc")

    app = small_app()
    try:
        status, doc = app.handle_register_graph(
            {"fpc_path": str(fpc), "name": "tiny"}
        )
        assert status == 201 and doc["created"]
        assert doc["name"] == "tiny"
        assert doc["nodes"] == graph.number_of_nodes()
        assert doc["is_dag"] is True
        # Idempotent: the same .fpc lands on the same digest.
        status, again = app.handle_register_graph({"fpc_path": str(fpc)})
        assert status == 200 and not again["created"]
        assert again["digest"] == doc["digest"]
        # The restored counts rode along: no re-warm needed.
        entry = app.store.get(doc["digest"])
        assert entry.graph.compiled()._reach_counts is not None
        # And the entry serves placements like any other.
        status, result = app.place_sync(
            {"graph": doc["digest"], "algorithm": "G_All", "k": 2}
        )
        assert status == 200
        assert len(result["result"]["filters"]) == 2
    finally:
        app.close()


def test_register_graph_body_exclusivity(tmp_path, app):
    from repro.service.app import RequestError

    for body in (
        {},
        {"dataset": "fig1", "fpc_path": "x"},
        {"edges": "a b", "fpc_path": "x"},
        {"fpc_path": 7},
        {"fpc_path": str(tmp_path / "missing.fpc")},
    ):
        with pytest.raises(RequestError) as err:
            app.handle_register_graph(body)
        assert err.value.status == 400


def test_store_persist_dir_roundtrip(tmp_path):
    persist = tmp_path / "plans"
    store = GraphStore(persist_dir=persist)
    entry, created = store.register_dataset("fig1")
    assert created and store.persisted == 1
    snapshot = persist / f"{entry.digest}.fpc"
    assert (snapshot / "meta.json").is_file()
    assert (snapshot / "store.json").is_file()
    # Warming at registration persisted the reach counts with the plan.
    assert (snapshot / "reach_counts.bin").is_file()
    # Re-registration is a no-op on disk.
    store.register_dataset("fig1")
    assert store.persisted == 1

    restored = GraphStore(persist_dir=persist)
    assert restored.restored == 1 and len(restored) == 1
    back = restored.get(entry.digest)
    assert back.name == entry.name
    assert back.graph.number_of_nodes() == entry.graph.number_of_nodes()
    assert back.graph.compiled()._reach_counts is not None
    assert sorted(map(repr, back.graph.edges())) == sorted(
        map(repr, entry.graph.edges())
    )
    stats = restored.stats()
    assert stats["restored_plans"] == 1


@pytest.mark.parametrize(
    "damage", ["truncated_store_json", "truncated_table"]
)
def test_store_boots_past_a_corrupt_snapshot(tmp_path, caplog, damage):
    persist = tmp_path / "plans"
    store = GraphStore(persist_dir=persist)
    bad, _ = store.register_dataset("quote")
    good, _ = store.register_dataset("fig1")
    snapshot = persist / f"{bad.digest}.fpc"
    if damage == "truncated_store_json":
        (snapshot / "store.json").write_text("{not json")
    else:
        table = snapshot / "out_targets.bin"
        table.write_bytes(table.read_bytes()[:-4])

    with caplog.at_level("WARNING", logger="repro.service"):
        app = ServiceApp(
            workers=1, warm_backends=False, persist_dir=str(persist)
        )
    try:
        # The healthy snapshot still boots; the damaged one is moved
        # aside, logged, and counted on /metrics.
        assert app.store.digests() == (good.digest,)
        assert app.store.stats()["quarantined_snapshots"] == 1
        status, exposition = app.handle_metrics()
        assert status == 200
        assert "fp_store_snapshots_quarantined_total 1" in exposition
    finally:
        app.close()
    assert not snapshot.exists()
    assert (persist / f"{bad.digest}.fpc.corrupt").is_dir()
    assert "quarantined corrupt plan snapshot" in caplog.text
    # The next boot skips the quarantined copy without counting it again,
    # and re-registering the graph persists a fresh snapshot.
    again = GraphStore(persist_dir=persist)
    assert again.stats()["quarantined_snapshots"] == 0
    again.register_dataset("quote")
    assert (snapshot / "meta.json").is_file()


def test_store_restore_honours_the_bound(tmp_path):
    """A persist dir holding more snapshots than ``max_graphs`` boots the
    newest ones by ``store.json`` mtime and leaves the rest on disk."""
    import os

    persist = tmp_path / "plans"
    store = GraphStore(persist_dir=persist, warm_backends=False)
    digests = [
        store.register_edges(upload_text(i))[0].digest for i in range(4)
    ]
    assert store.persisted == 4
    # Age the snapshots explicitly: register order, oldest first.
    for age, digest in enumerate(reversed(digests)):
        stamp = 1_700_000_000 - 60 * age
        os.utime(persist / f"{digest}.fpc" / "store.json", (stamp, stamp))

    restored = GraphStore(max_graphs=2, persist_dir=persist)
    assert restored.restored == 2
    assert restored.digests() == tuple(digests[2:])
    assert restored.stats()["quarantined_snapshots"] == 0
    assert sorted(p.name for p in persist.iterdir()) == sorted(
        f"{digest}.fpc" for digest in digests
    )


def test_persist_dir_skips_probabilistic_and_cyclic(tmp_path):
    persist = tmp_path / "plans"
    store = GraphStore(persist_dir=persist, warm_backends=False)
    store.register_dataset("fig1", probabilities=0.5)
    cyclic = CGraph([("a", "b"), ("b", "a")], sources=["a"])
    store.register_graph(cyclic, name="loop", spec={"kind": "edges"})
    assert store.persisted == 0
    assert not list(persist.glob("*.fpc"))
