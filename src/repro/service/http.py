"""The stdlib HTTP JSON API over :class:`~repro.service.app.ServiceApp`.

Built on :class:`http.server.ThreadingHTTPServer` — one thread per
connection, no third-party runtime dependency — with a route table that
maps paths onto the app's handler methods:

========  ==========================  ==========================================
Method    Path                        Handler
========  ==========================  ==========================================
POST      ``/graphs``                 register a dataset / uploaded edge list
GET       ``/graphs``                 list resident graphs
GET       ``/graphs/{digest}/stats``  structural summary
POST      ``/placements``             cached → 200, miss → 202 + job id
GET       ``/jobs/{id}``              job state (+ result when done)
DELETE    ``/jobs/{id}``              cancel a queued job
GET       ``/traces/{job_id}``        recorded span tree of a solve
GET       ``/algorithms``             registry catalog
GET       ``/metrics``                Prometheus text exposition
GET       ``/healthz``                liveness + operational counters
========  ==========================  ==========================================

Responses are ``application/json`` (``/metrics`` alone is plain text);
errors come back as ``{"error": message}`` with 400/404/405/500 as
appropriate.

Observability per request:

* **Request ids.**  An incoming ``X-Request-Id`` header is honoured
  (trimmed); absent one, a fresh id is generated.  Either way the id is
  echoed on the response, bound to the handler thread's request-id
  context (so job records and traces can correlate back), and stamped on
  the access log line.
* **Access logging.**  One line per request on the ``repro.service``
  logger at INFO: method, path, status, duration, request id, and cache
  hit/miss when the response says.  ``log_format="json"`` renders the
  line as a JSON object (one per line — jq/Loki friendly); ``"text"``
  keeps it human-readable.  Unhandled handler exceptions additionally
  log the full traceback at WARNING — they used to vanish into the 500
  response body only.
* **Metrics.**  Every response increments
  ``fp_http_requests_total{method,status}`` and lands its latency in
  ``fp_http_request_seconds{method}``.
"""

from __future__ import annotations

import json
import logging
import time
import traceback
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.obs.metrics import REGISTRY
from repro.obs.trace import set_request_id
from repro.service.app import RequestError, ServiceApp

logger = logging.getLogger("repro.service")

#: Largest accepted request body (an edge-list upload), bytes.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Access-log renderings accepted by the server.
LOG_FORMATS: tuple[str, ...] = ("text", "json")


def _http_metrics() -> tuple[Any, Any]:
    counter = REGISTRY.counter(
        "fp_http_requests_total",
        "HTTP responses sent, by method and status.",
        labels=("method", "status"),
    )
    histogram = REGISTRY.histogram(
        "fp_http_request_seconds",
        "HTTP request handling latency.",
        labels=("method",),
    )
    return counter, histogram


class PlacementRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning server's :class:`ServiceApp`."""

    server: "PlacementHTTPServer"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted connection.  Headers and body go out
    # as two writes; under Nagle the body waits for the client's delayed
    # ACK of the headers, ~40 ms per keep-alive response on Linux.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        # The stdlib's per-request stderr line is redundant with the
        # structured access log; keep it behind the old verbose flag.
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_headers(self, status: int, content_type: str, size: int) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(size))
        request_id = getattr(self, "_request_id", None)
        if request_id:
            self.send_header("X-Request-Id", request_id)
        self.end_headers()

    def _send_json(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send_headers(status, "application/json", len(body))
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self._send_headers(
            status, "text/plain; version=0.0.4; charset=utf-8", len(body)
        )
        self.wfile.write(body)

    def _read_body(self) -> dict[str, Any]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise RequestError("malformed Content-Length header") from None
        if length > MAX_BODY_BYTES:
            raise RequestError(
                f"request body exceeds {MAX_BODY_BYTES} bytes", status=413
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise RequestError(f"malformed JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise RequestError("request body must be a JSON object")
        return body

    def _log_access(
        self,
        method: str,
        path: str,
        status: int,
        duration_ms: float,
        request_id: str,
        cache_hit: bool | None,
    ) -> None:
        if self.server.log_format == "json":
            record = {
                "method": method,
                "path": path,
                "status": status,
                "duration_ms": round(duration_ms, 3),
                "request_id": request_id,
            }
            if cache_hit is not None:
                record["cache_hit"] = cache_hit
            logger.info(json.dumps(record, sort_keys=True))
            return
        cache = ""
        if cache_hit is not None:
            cache = f" cache={'hit' if cache_hit else 'miss'}"
        logger.info(
            "%s %s %d %.1fms request_id=%s%s",
            method, path, status, duration_ms, request_id, cache,
        )

    def _dispatch(
        self,
        method: str,
        path: str,
        fn: Callable[[], "tuple[int, dict[str, Any] | str]"],
    ) -> None:
        incoming = (self.headers.get("X-Request-Id") or "").strip()
        request_id = incoming or uuid.uuid4().hex[:16]
        self._request_id = request_id
        set_request_id(request_id)
        start = time.perf_counter()
        payload: dict[str, Any] | str
        try:
            try:
                status, payload = fn()
            except RequestError as exc:
                status, payload = exc.status, {"error": str(exc)}
            except Exception as exc:  # never leak a traceback to the socket
                logger.warning(
                    "unhandled error serving %s %s (request_id=%s)\n%s",
                    method, path, request_id, traceback.format_exc(),
                )
                status, payload = 500, {
                    "error": f"{type(exc).__name__}: {exc}"
                }
            if isinstance(payload, str):
                self._send_text(status, payload)
            else:
                self._send_json(status, payload)
            duration = time.perf_counter() - start
            cache_hit: bool | None = None
            if isinstance(payload, dict):
                cache = payload.get("cache")
                if isinstance(cache, dict):
                    cache_hit = cache.get("hit")
            self._log_access(
                method, path, status, duration * 1e3, request_id, cache_hit
            )
            counter, histogram = _http_metrics()
            counter.inc(method=method, status=status)
            histogram.observe(duration, method=method)
        finally:
            set_request_id(None)

    def _route(self, method: str) -> None:
        app = self.server.app
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]

        def not_found() -> tuple[int, dict[str, Any]]:
            raise RequestError(f"no route for {method} {path}", status=404)

        handler: Callable[[], "tuple[int, dict[str, Any] | str]"] = not_found
        if parts == ["healthz"] and method == "GET":
            handler = app.handle_healthz
        elif parts == ["metrics"] and method == "GET":
            handler = app.handle_metrics
        elif parts == ["algorithms"] and method == "GET":
            handler = app.handle_algorithms
        elif parts == ["graphs"]:
            if method == "POST":
                handler = lambda: app.handle_register_graph(  # noqa: E731
                    self._read_body()
                )
            elif method == "GET":
                handler = app.handle_list_graphs
        elif len(parts) == 3 and parts[0] == "graphs" and parts[2] == "stats":
            if method == "GET":
                digest = parts[1]
                handler = lambda: app.handle_graph_stats(digest)  # noqa: E731
        elif parts == ["placements"]:
            if method == "POST":
                handler = lambda: app.handle_placement(  # noqa: E731
                    self._read_body()
                )
        elif len(parts) == 2 and parts[0] == "jobs":
            job_id = parts[1]
            if method == "GET":
                handler = lambda: app.handle_job(job_id)  # noqa: E731
            elif method == "DELETE":
                handler = lambda: app.handle_cancel_job(job_id)  # noqa: E731
        elif len(parts) == 2 and parts[0] == "traces" and method == "GET":
            trace_id = parts[1]
            handler = lambda: app.handle_trace(trace_id)  # noqa: E731
        self._dispatch(method, path, handler)

    # -- verbs ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._route("DELETE")


class PlacementHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server owning one :class:`ServiceApp`."""

    daemon_threads = True

    def __init__(
        self,
        app: ServiceApp,
        address: tuple[str, int],
        *,
        verbose: bool = False,
        log_format: str = "text",
    ) -> None:
        if log_format not in LOG_FORMATS:
            known = ", ".join(LOG_FORMATS)
            raise ValueError(
                f"unknown log_format {log_format!r}; known formats: {known}"
            )
        self.app = app
        self.verbose = verbose
        self.log_format = log_format
        super().__init__(address, PlacementRequestHandler)

    @property
    def port(self) -> int:
        """The bound port (useful with an ephemeral ``port=0`` bind)."""
        return self.server_address[1]


def make_server(
    app: ServiceApp,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    verbose: bool = False,
    log_format: str = "text",
) -> PlacementHTTPServer:
    """Bind (but do not start) the service's HTTP server.

    ``port=0`` binds an ephemeral port; read it back from
    :attr:`PlacementHTTPServer.port`.  Call ``serve_forever()`` to run —
    the CLI's ``serve`` subcommand does — or drive it from a thread in
    tests.  ``log_format`` selects the access-log rendering on the
    ``repro.service`` logger (``"text"`` or ``"json"``).
    """
    return PlacementHTTPServer(
        app, (host, port), verbose=verbose, log_format=log_format
    )
