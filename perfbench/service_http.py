"""service-http: the placement service over real sockets.

The server is ``python -m repro serve --port 0 --workers 2 --no-trace``
in a child process.  Set-up boots it, registers four graphs and primes
the cache with every key the hits will ask for.  The load is a closed
loop of two client threads, each on one keep-alive HTTP/1.1 connection,
walking one seeded request sequence: in every block of 50 requests, 45
cache hits, 4 misses on quote (a fresh ``rng_seed`` each, ``wait:
true``) and 1 upload of a fresh edge list.

A traced run also replays the start of the same sequence on an
in-process ``ServiceApp``, so the time the application spends on a hit
can be told apart from the time the request spends on the wire.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import selectors
import signal
import subprocess
import sys
import threading
import time

from lib import (
    LayerSplit,
    Report,
    Tracer,
    child_env,
    median,
    peak_rss_mb,
    roots_named,
)

#: (dataset, scale) of the graphs registered in set-up.
GRAPHS = (
    ("quote", None),
    ("twitter", None),
    ("synthetic-sparse", 2.0),
    ("scale-dag", 0.3),
)
HIT_ALGORITHMS = ("G_All", "G_L")
K = 10

#: Cells the misses alternate between: both solvers on the smallest
#: graph, so a miss times the job path (queue, worker, cache insert, wait)
#: more than the solver.  Their costs are close, so the miss median draws
#: on every miss; cells of distinct costs would leave it to the few
#: misses of whichever cell sits in the middle.
MISS_CELLS = (
    ("quote", "G_All"),
    ("quote", "G_L"),
)

BLOCK = 50
BLOCK_MIX = (("hit", 45), ("miss", 4), ("register", 1))

#: Nodes of each uploaded edge list.
UPLOAD_NODES = 400

CLIENTS = 2
SETUP_REPEATS = 3

#: Longest prefix of the sequence the traced run replays in-process.
REPLAY_CAP = 500

BOOT_TIMEOUT_S = 60
REQUEST_TIMEOUT_S = 120


def graph_label(name: str, scale: float | None) -> str:
    return name if scale is None else f"{name}@{scale:g}"


def register_body(name: str, scale: float | None, seed: int) -> dict:
    body = {"dataset": name, "seed": seed}
    if scale is not None:
        body["scale"] = scale
    return body


def upload_edges(seed: int, index: int) -> str:
    """A fresh random DAG: every node draws 1-3 parents among the 40
    nodes before it."""
    rng = random.Random(f"{seed}:upload:{index}")
    lines = []
    for v in range(1, UPLOAD_NODES):
        parents = rng.sample(range(max(0, v - 40), v), min(v, rng.randint(1, 3)))
        lines.extend(f"{p} {v}" for p in parents)
    return "\n".join(lines) + "\n"


class Plan:
    """The seeded request sequence; request ``i`` is a pure function of
    ``(seed, i)``."""

    def __init__(self, seed: int, digests: dict[str, str]) -> None:
        self.seed = seed
        self.digests = digests
        self.hit_keys = [
            (label, alg) for label in digests for alg in HIT_ALGORITHMS
        ]
        self._blocks: dict[int, list[str]] = {}

    def kind(self, i: int) -> str:
        block = i // BLOCK
        kinds = self._blocks.get(block)
        if kinds is None:
            kinds = [k for k, count in BLOCK_MIX for _ in range(count)]
            random.Random(f"{self.seed}:block:{block}").shuffle(kinds)
            self._blocks[block] = kinds
        return kinds[i % BLOCK]

    def request(self, i: int) -> tuple[str, str, dict, tuple | None]:
        """``(kind, path, body, cell)`` of request ``i``; ``cell`` is the
        primed key whose result the response must carry."""
        kind = self.kind(i)
        block = i // BLOCK
        within = self._blocks[block][: i % BLOCK]
        if kind == "register":
            index = block
            return kind, "/graphs", {
                "edges": upload_edges(self.seed, index),
                "name": f"upload-{index}",
            }, None
        if kind == "miss":
            index = block * 4 + within.count("miss")
            label, alg = MISS_CELLS[index % len(MISS_CELLS)]
            body = {
                "graph": self.digests[label], "algorithm": alg, "k": K,
                "rng_seed": 1 + index, "wait": True,
            }
            return kind, "/placements", body, (label, alg)
        rng = random.Random(f"{self.seed}:hit:{i}")
        label, alg = rng.choice(self.hit_keys)
        body = {"graph": self.digests[label], "algorithm": alg, "k": K}
        return kind, "/placements", body, (label, alg)


def outcome(kind: str, status: int, payload: dict) -> str | None:
    """The class the server's answer puts a response in."""
    if kind == "register":
        return "register" if status == 201 and payload.get("created") else None
    cache = payload.get("cache") or {}
    if status == 200 and cache.get("hit") and cache.get("kind") == "exact":
        return "hit"
    if status == 200 and cache.get("kind") == "computed":
        return "miss"
    return None


class Server:
    """One ``repro serve`` child on an ephemeral port."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--no-trace"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=child_env(),
            text=True,
        )
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = re.search(r"listening on http://[^:]+:(\d+)", line)
                if match:
                    return int(match.group(1))
        raise RuntimeError("the placement server did not report its port")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
        )

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def post(conn, path: str, body: dict) -> tuple[int, dict]:
    conn.request("POST", path, body=json.dumps(body).encode(),
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def set_up(seed: int) -> tuple[Server, dict, dict]:
    """Boot, register, prime.  Returns the server, the digests and the
    primed results."""
    server = Server()
    try:
        conn = server.connect()
        digests = {}
        for name, scale in GRAPHS:
            status, payload = post(conn, "/graphs", register_body(name, scale, seed))
            if status != 201:
                raise RuntimeError(f"registering {name} answered {status}")
            digests[graph_label(name, scale)] = payload["digest"]
        primed = {}
        for label, alg in Plan(seed, digests).hit_keys:
            status, payload = post(conn, "/placements", {
                "graph": digests[label], "algorithm": alg, "k": K, "wait": True,
            })
            if status != 200:
                raise RuntimeError(f"priming {label} {alg} answered {status}")
            primed[(label, alg)] = payload["result"]
        conn.close()
    except BaseException:
        server.stop()
        raise
    return server, digests, primed


def drive(server: Server, plan: Plan, seconds: float) -> tuple[list, float]:
    """The closed loop; returns ``(records, wall)``.  A record is
    ``(i, kind, status, latency_s, payload_or_error)``."""
    lock = threading.Lock()
    state = {"next": 0}
    records: list[list] = [[] for _ in range(CLIENTS)]
    start = time.perf_counter()
    deadline = start + seconds

    def client(out: list) -> None:
        conn = server.connect()
        try:
            while True:
                with lock:
                    if time.perf_counter() >= deadline:
                        return
                    i = state["next"]
                    state["next"] += 1
                kind, path, body, _ = plan.request(i)
                data = json.dumps(body).encode()
                t0 = time.perf_counter()
                try:
                    conn.request("POST", path, body=data,
                                 headers={"Content-Type": "application/json"})
                    response = conn.getresponse()
                    raw = response.read()
                except (OSError, http.client.HTTPException) as exc:
                    out.append((i, kind, 0, time.perf_counter() - t0, repr(exc)))
                    conn.close()
                    conn = server.connect()
                    continue
                out.append((i, kind, response.status, time.perf_counter() - t0, raw))
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(records[c],))
               for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=seconds + 2 * REQUEST_TIMEOUT_S)
        if t.is_alive():
            raise RuntimeError("a load client did not finish")
    wall = time.perf_counter() - start
    merged = sorted((r for rs in records for r in rs), key=lambda r: r[0])
    return merged, wall


def scrape(server: Server) -> dict[tuple[str, str], float]:
    conn = server.connect()
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, labels = head.partition("{")
        samples[(name, labels.rstrip("}"))] = float(value)
    return samples


def _metric(samples, name: str, labels: str = "") -> float:
    return samples.get((name, labels), 0.0)


def run(seed: int, seconds: float, tracer: Tracer, refs: dict) -> Report:
    report = Report("service-http", seed, tracer.enabled)
    setups = []
    server = None
    try:
        for repeat in range(SETUP_REPEATS):
            start = time.perf_counter()
            server, digests, primed = set_up(seed)
            setups.append(time.perf_counter() - start)
            if repeat < SETUP_REPEATS - 1:
                server.stop()
                server = None
        plan = Plan(seed, digests)
        records, wall = drive(server, plan, seconds)
        samples = scrape(server)
        server_rss = peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()

    latencies = {"hit": [], "miss": [], "register": []}
    planned = {"hit": 0, "miss": 0, "register": 0}
    observed = {"hit": 0, "miss": 0, "register": 0}
    report.attempted = len(records)
    for i, kind, status, latency, raw in records:
        planned[kind] += 1
        if not 200 <= status < 300:
            report.failed += 1
            continue
        payload = json.loads(raw)
        cls = outcome(kind, status, payload)
        if cls is not None:
            observed[cls] += 1
        latencies[kind].append(latency * 1e3)
        cell = plan.request(i)[3]
        if cell is not None:
            report.check(
                payload.get("result") == primed[cell],
                f"request {i} ({kind}) returned another result than the "
                "miss that computed its key",
            )
    report.check(
        observed == planned,
        f"response classes {observed} differ from the planned {planned}",
    )
    completed = len(records) - report.failed

    setup_s = median(setups)
    report.name("setup_s", setup_s, "s", f"median of {len(setups)}")
    report.tail_of("hit", latencies["hit"], "ms")
    report.tail_of("miss", latencies["miss"], "ms")
    report.tail_of("register", latencies["register"], "ms")
    report.name("requests_per_s", completed / wall, "1/s",
                f"{completed} requests, {CLIENTS} closed-loop clients")
    report.name("error_share", report.failed / max(1, len(records)), "ratio",
                f"{report.failed} of {len(records)}")
    report.name("server_peak_rss_mb", server_rss, "MB", "VmHWM of the server")
    hit_p50 = median(latencies["hit"])
    report.end_to_end = {
        "setup_s": (setup_s, "s"),
        "main_ms": (hit_p50, "ms"),
        "alt_ms": (median(latencies["miss"]), "ms"),
        "ops_per_s": (completed / wall, "1/s"),
        "peak_rss_mb": (server_rss, "MB"),
    }

    handled = _metric(samples, "fp_http_request_seconds_count", 'method="POST"')
    jobs_done = _metric(samples, "fp_job_run_seconds_count", 'outcome="done"')
    hits = _metric(samples, "fp_cache_requests_total", 'outcome="hit"')
    lookups = hits + _metric(samples, "fp_cache_requests_total", 'outcome="miss"') + (
        _metric(samples, "fp_cache_requests_total", 'outcome="prefix_hit"')
    )
    scraped = {
        "service.http.handle_ms": (
            1e3 * _metric(samples, "fp_http_request_seconds_sum", 'method="POST"')
            / max(1.0, handled), "ms"),
        "service.jobs.run_s": (
            _metric(samples, "fp_job_run_seconds_sum", 'outcome="done"')
            / max(1.0, jobs_done), "s"),
        "service.cache.hit_ratio": (hits / max(1.0, lookups), "ratio"),
        "service.jobs.deduplicated": (
            _metric(samples, "fp_jobs_deduplicated_total"), "count"),
        "service.store.registrations": (
            _metric(samples, "fp_store_registrations_total"), "count"),
        "service.store.compiled_bytes": (
            _metric(samples, "fp_store_compiled_bytes"), "bytes"),
    }
    for name, (value, unit) in scraped.items():
        report.name(name, value, unit, "scraped from /metrics")
    if tracer.enabled:
        report.per_layer.update(scraped)
        _replay(report, tracer, seed, plan, len(records), primed, hit_p50)
    return report


def _replay(report, tracer, seed, plan, issued, primed, hit_p50) -> None:
    """Replay the sequence's start on an in-process ``ServiceApp``."""
    from repro.service.app import ServiceApp

    app = ServiceApp(workers=2)
    try:
        digests = {}
        with tracer.span("replay.setup"):
            for name, scale in GRAPHS:
                with tracer.span("service.app.register"):
                    _, payload = app.handle_register_graph(
                        register_body(name, scale, seed)
                    )
                digests[graph_label(name, scale)] = payload["digest"]
            for label, alg in plan.hit_keys:
                with tracer.span("service.app.miss"):
                    app.handle_placement({
                        "graph": digests[label], "algorithm": alg, "k": K,
                        "wait": True,
                    })
        report.check(digests == plan.digests,
                     "in-process digests differ from the server's")
        planned = {"hit": 0, "miss": 0, "register": 0}
        observed = {"hit": 0, "miss": 0, "register": 0}
        replayed = min(issued, REPLAY_CAP)
        # Built before the replay span, so it times the application only.
        requests = [plan.request(i) for i in range(replayed)]
        with tracer.span("replay"):
            for i, (kind, path, body, cell) in enumerate(requests):
                planned[kind] += 1
                with tracer.span(f"service.app.{kind}"):
                    if path == "/graphs":
                        status, payload = app.handle_register_graph(body)
                    else:
                        status, payload = app.handle_placement(body)
                cls = outcome(kind, status, payload)
                if cls is not None:
                    observed[cls] += 1
                if cell is not None:
                    report.check(
                        payload.get("result") == primed[cell],
                        f"in-process request {i} returned another result "
                        "than the server",
                    )
        report.check(
            observed == planned,
            f"in-process classes {observed} differ from the planned {planned}",
        )
    finally:
        app.close()

    spans = tracer.spans
    split = LayerSplit(spans, roots_named(spans, "replay"))
    layer = report.per_layer
    app_hit = median(split.calls("service.app.hit")) * 1e3
    layer["service.app.hit_ms"] = (app_hit, "ms")
    layer["service.app.miss_ms"] = (median(split.calls("service.app.miss")) * 1e3, "ms")
    registers = split.calls("service.app.register")
    layer["service.app.register_ms"] = (
        median(registers) * 1e3 if registers else 0.0, "ms"
    )
    layer["service.http.wire_ms"] = (hit_p50 - app_hit, "ms")
    layer["unattributed_s"] = (sum(split.unattributed), "s")
    report.layer_split = split
    report.notes.append(
        f"in-process replay of the first {replayed} of {issued} requests; "
        "service.app.* are medians per call, service.http.wire_ms is the "
        "client hit p50 minus service.app.hit_ms"
    )
