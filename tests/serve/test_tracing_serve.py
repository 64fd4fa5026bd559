"""End-to-end tracing through the HTTP front door.

One real predict over a loopback socket must yield the full span
waterfall -- request, admission, queue-wait, batch, engine-compute with
per-layer children -- with the trace id honored from the inbound
``X-Trace-Id`` header, echoed on the response, queryable over
``/v1/traces`` and persisted to the ring file for ``repro.cli trace``.

The servers here are tiny and the requests few, so the tests stay in
the fast default lane (unlike the load-generating ``serve`` suite).
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import os
import threading
import time
import urllib.request

import pytest

from repro.eval.parallel import fork_available
from repro.serve.pool import EnginePool
from repro.serve.registry import ModelSpec, ServeRegistry
from repro.serve.server import NBSMTServer, ServeConfig
from repro.telemetry.tracing import TraceStore, build_tree, group_spans

pytestmark = pytest.mark.trace


def _spec(**overrides):
    spec = dict(
        name="tinynet",
        model="resnet18",
        threads=2,
        policy="S+A",
        max_batch=8,
        max_pending=32,
        latency_budget_ms=250.0,
    )
    spec.update(overrides)
    return ModelSpec(**spec)


@contextlib.contextmanager
def _running_server(tiny_provider, tmp_path, *, fork_workers=0, **kwargs):
    registry = ServeRegistry()
    registry.register(_spec())
    pool = EnginePool(
        registry, provider=tiny_provider, fork_workers=fork_workers,
    )
    server = NBSMTServer(
        registry,
        ServeConfig(port=0, telemetry_dir=str(tmp_path), **kwargs),
        pool=pool,
    )
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def on_loop(coroutine, timeout=300):
        return asyncio.run_coroutine_threadsafe(coroutine, loop).result(
            timeout
        )

    try:
        on_loop(server.start())
        yield server
    finally:
        on_loop(server.stop())
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        pool.close()


def _predict(server, image, headers=None):
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.port, timeout=300
    )
    try:
        connection.request(
            "POST", "/v1/models/tinynet:predict",
            body=json.dumps({"inputs": image.tolist()}),
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        response = connection.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        return response.status, payload, response.headers
    finally:
        connection.close()


def _wait_for_spans(server, trace_id, minimum=5, timeout=10.0):
    deadline = time.monotonic() + timeout
    spans = []
    while time.monotonic() < deadline:
        spans = server.relay.trace_spans(trace_id)
        if len(spans) >= minimum:
            return spans
        time.sleep(0.05)
    return spans


REQUIRED_SPANS = ("request", "admission", "queue_wait", "batch",
                  "engine_compute")


def test_one_http_predict_yields_the_full_waterfall(
    tiny_harness, tiny_provider, tmp_path
):
    image = tiny_harness.eval_images[0]
    with _running_server(
        tiny_provider, tmp_path, trace_sample=1.0
    ) as server:
        status, payload, headers = _predict(
            server, image, headers={"X-Trace-Id": "FEEDFACECAFEF00D"}
        )
        assert status == 200
        # Inbound id honored (values are lower-cased on the wire) and
        # echoed on both the response header and the JSON body.
        assert headers.get("X-Trace-Id") == "feedfacecafef00d"
        assert payload["trace_id"] == "feedfacecafef00d"

        spans = _wait_for_spans(server, "feedfacecafef00d")
        names = [s["name"] for s in spans]
        for required in REQUIRED_SPANS:
            assert required in names, f"missing {required} in {names}"
        assert any(n.startswith("layer:") for n in names)
        assert len(spans) >= 5

        # Well-formed: one root, every parent resolves, engine nests
        # under the batch span, layers under the engine span.
        by_id = {s["span_id"]: s for s in spans}
        roots = [s for s in spans if not s["parent_id"]]
        assert [r["name"] for r in roots] == ["request"]
        for span in spans:
            if span["parent_id"]:
                assert span["parent_id"] in by_id
        engine = next(s for s in spans if s["name"] == "engine_compute")
        assert by_id[engine["parent_id"]]["name"] == "batch"
        layer = next(s for s in spans if s["name"].startswith("layer:"))
        assert layer["parent_id"] == engine["span_id"]
        assert not any(n.get("orphan") for n in spans)

        # The dashboard routes serve the same trace.
        base = f"http://127.0.0.1:{server.port}"
        with urllib.request.urlopen(f"{base}/v1/traces") as reply:
            listing = json.load(reply)["traces"]
        assert any(t["trace_id"] == "feedfacecafef00d" for t in listing)
        with urllib.request.urlopen(
            f"{base}/v1/traces/feedfacecafef00d"
        ) as reply:
            assert len(json.load(reply)["spans"]) == len(spans)

    # The ring file outlives the server: offline inspection sees the
    # same trace (this is what `repro.cli trace --dir` replays).
    store = TraceStore(str(tmp_path / "traces"))
    traces = store.load_traces(compact=False)
    store.close()
    assert "feedfacecafef00d" in traces
    persisted = [s["name"] for s in traces["feedfacecafef00d"]]
    for required in REQUIRED_SPANS:
        assert required in persisted


def test_unsampled_requests_stay_silent_until_interesting(
    tiny_harness, tiny_provider, tmp_path
):
    image = tiny_harness.eval_images[0]
    with _running_server(
        tiny_provider, tmp_path, trace_sample=0.0
    ) as server:
        # A calm request at sampling 0.0: id still minted and echoed,
        # but its spans are discarded (no publish).
        status, payload, headers = _predict(server, image)
        assert status == 200
        calm_id = headers.get("X-Trace-Id")
        assert calm_id and payload["trace_id"] == calm_id
        time.sleep(0.2)
        assert server.relay.trace_spans(calm_id) == []
        assert server.tracer.published_spans == 0

        # An erroring request is an exemplar: kept despite the 0.0 rate.
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=60
        )
        try:
            connection.request(
                "POST", "/v1/models/nope:predict",
                body=json.dumps({"inputs": image.tolist()}),
                headers={"Content-Type": "application/json",
                         "X-Trace-Id": "0badc0de0badc0de"},
            )
            response = connection.getresponse()
            response.read()
            assert response.status == 404
            assert response.headers.get("X-Trace-Id") == "0badc0de0badc0de"
        finally:
            connection.close()
        spans = _wait_for_spans(server, "0badc0de0badc0de", minimum=1)
        assert spans, "error trace was not retained as an exemplar"
        assert spans[0]["name"] == "request"
        assert spans[0]["exemplar"] == "error"


@pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)
def test_trace_crosses_the_fork_boundary(
    tiny_harness, tiny_provider, tmp_path
):
    image = tiny_harness.eval_images[0]
    with _running_server(
        tiny_provider, tmp_path, trace_sample=1.0, fork_workers=1
    ) as server:
        status, payload, _headers = _predict(server, image)
        assert status == 200
        spans = _wait_for_spans(server, payload["trace_id"])
        engine = next(
            (s for s in spans if s["name"] == "engine_compute"), None
        )
        assert engine is not None
        # The engine span was measured inside the forked replica: its
        # pid is the worker's, its parent the batch span in this process.
        assert engine["pid"] not in (None, os.getpid())
        tree = build_tree(group_spans(spans)[payload["trace_id"]])
        assert len(tree) == 1
        assert any(n.startswith("layer:")
                   for n in (s["name"] for s in spans))
