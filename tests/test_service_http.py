"""HTTP API round-trips and API-vs-CLI result equality."""

from __future__ import annotations

import contextlib
import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.backends.registry import available_backends
from repro.service.app import ServiceApp
from repro.service.http import make_server


@pytest.fixture
def server():
    app = ServiceApp(workers=2, warm_backends=False)
    srv = make_server(app, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    app.close()
    thread.join(5)


def call(server, method, path, body=None):
    url = f"http://127.0.0.1:{server.port}{path}"
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def test_http_full_cycle(server):
    status, health = call(server, "GET", "/healthz")
    assert status == 200 and health["status"] == "ok"

    status, graph = call(server, "POST", "/graphs", {"dataset": "fig10"})
    assert status == 201 and graph["created"]
    digest = graph["digest"]

    status, stats = call(server, "GET", f"/graphs/{digest}/stats")
    assert status == 200 and stats["nodes"] == graph["nodes"]

    body = {"graph": digest, "algorithm": "G_All", "k": 3}
    status, miss = call(server, "POST", "/placements", body)
    assert status == 202 and miss["cache"]["hit"] is False
    job_id = miss["job"]["id"]

    # poll until done (fig10 is tiny; a few iterations at most)
    for _ in range(100):
        status, polled = call(server, "GET", f"/jobs/{job_id}")
        if polled["job"]["state"] == "done":
            break
    assert status == 200 and polled["job"]["state"] == "done"

    status, hit = call(server, "POST", "/placements", body)
    assert status == 200
    assert hit["cache"]["hit"] is True
    assert hit["result"] == polled["result"]

    # the wait=true form returns inline results for misses too
    status, waited = call(
        server, "POST", "/placements",
        {**body, "algorithm": "G_Max", "wait": True},
    )
    assert status == 200 and waited["cache"] == {
        "hit": False, "kind": "computed"
    }


def test_http_upload_edges(server):
    text = "# sources: s\ns a\ns b\na c\nb c\nc d\n"
    status, doc = call(
        server, "POST", "/graphs", {"edges": text, "name": "diamond"}
    )
    assert status == 201
    assert doc["nodes"] == 5 and doc["edges"] == 5
    status, placed = call(
        server, "POST", "/placements",
        {"graph": doc["digest"], "algorithm": "G_All", "k": 1,
         "wait": True},
    )
    assert status == 200
    assert placed["result"]["filters"] == ["'c'"]


def test_http_error_statuses(server):
    assert call(server, "GET", "/nope")[0] == 404
    assert call(server, "GET", "/jobs/job-999999")[0] == 404
    assert call(server, "GET", "/graphs/" + "0" * 64 + "/stats")[0] == 404
    assert call(server, "POST", "/graphs", {})[0] == 400
    assert call(server, "POST", "/graphs", {"dataset": "bogus"})[0] == 400
    status, doc = call(server, "POST", "/placements", {"k": 1})
    assert status == 400 and "graph" in doc["error"]
    # malformed JSON body
    url = f"http://127.0.0.1:{server.port}/placements"
    request = urllib.request.Request(
        url, data=b"{not json", method="POST",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=10)
    assert err.value.code == 400


def test_http_malformed_content_length(server):
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        conn.putrequest("POST", "/graphs")
        conn.putheader("Content-Length", "abc")
        conn.endheaders()
        response = conn.getresponse()
        body = json.loads(response.read())
        assert response.status == 400
        assert "Content-Length" in body["error"]
    finally:
        conn.close()


def test_http_keep_alive_responses_do_not_stall(server):
    """Hits and uploads on one keep-alive connection answer promptly.

    Headers and body leave as two writes; without TCP_NODELAY the body
    waits for the client's delayed ACK of the headers, ~40 ms per
    response on Linux.  ``urllib`` opens a fresh connection per request
    and never sees that stall, so this test reuses one connection.
    """
    import http.client
    import statistics
    import time

    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)

    def post(path, body):
        conn.request(
            "POST", path, body=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())

    try:
        status, graph = post("/graphs", {"dataset": "quote"})
        assert status == 201
        body = {"graph": graph["digest"], "algorithm": "G_All", "k": 4}
        status, primed = post("/placements", {**body, "wait": True})
        assert status == 200

        hits = []
        for _ in range(20):
            t0 = time.perf_counter()
            status, hit = post("/placements", body)
            hits.append(time.perf_counter() - t0)
            assert status == 200 and hit["cache"]["hit"] is True
            assert hit["result"] == primed["result"]
        uploads = []
        for i in range(3):
            text = f"# sources: s\ns a{i}\ns b{i}\na{i} c\nb{i} c\n"
            t0 = time.perf_counter()
            status, doc = post("/graphs", {"edges": text})
            uploads.append(time.perf_counter() - t0)
            assert status == 201 and doc["created"]
    finally:
        conn.close()
    assert statistics.median(hits) < 0.015, hits
    assert max(uploads) < 0.040, uploads


# ----------------------------------------------------------------------
# API vs CLI equality
# ----------------------------------------------------------------------


def cli_place_json(argv) -> dict:
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(["place", *argv, "--json"]) == 0
    return json.loads(buffer.getvalue())


def matrix_combinations():
    algorithms = (
        "G_All", "G_All_paper", "G_All_lazy", "G_Max", "G_1", "G_L",
        "Rand_K", "Rand_I", "Rand_W", "Betweenness",
    )
    for algorithm in algorithms:
        for strategy in ("exact", "lazy"):
            for backend in available_backends():
                yield algorithm, strategy, backend


def test_api_results_bit_identical_to_cli_full_matrix():
    """Every (algorithm, strategy, backend) combination on one graph."""
    app = ServiceApp(workers=2, warm_backends=False)
    try:
        entry, _ = app.store.register_dataset("fig10")
        for algorithm, strategy, backend in matrix_combinations():
            status, doc = app.place_sync({
                "graph": entry.digest,
                "algorithm": algorithm,
                "strategy": strategy,
                "backend": backend,
                "k": 3,
            })
            assert status == 200, (algorithm, strategy, backend, doc)
            cli_payload = cli_place_json([
                "--dataset", "fig10",
                "--algorithm", algorithm,
                "--strategy", strategy,
                "--backend", backend,
                "-k", "3",
            ])
            assert doc["result"] == cli_payload, (
                algorithm, strategy, backend
            )
    finally:
        app.close()


@pytest.mark.parametrize(
    "dataset,scale",
    [
        ("fig1", None),
        ("fig2", None),
        ("fig3", None),
        ("fig10", None),
        ("synthetic-sparse", 0.05),
        ("synthetic-dense", 0.05),
        ("quote", 0.1),
        ("twitter", 0.002),
        ("citation", 0.01),
    ],
)
def test_api_results_bit_identical_to_cli_every_dataset(dataset, scale):
    """G_All on every built-in dataset (big ones scaled for speed)."""
    app = ServiceApp(workers=1, warm_backends=False)
    try:
        entry, _ = app.store.register_dataset(dataset, scale=scale)
        status, doc = app.place_sync({
            "graph": entry.digest,
            "algorithm": "G_All",
            "backend": "python",
            "k": 3,
        })
        assert status == 200
        argv = [
            "--dataset", dataset, "--algorithm", "G_All",
            "--backend", "python", "-k", "3",
        ]
        if scale is not None:
            argv += ["--scale", str(scale)]
        assert doc["result"] == cli_place_json(argv), dataset
    finally:
        app.close()
