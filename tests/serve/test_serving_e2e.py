"""End-to-end serving: batched responses bit-identical to the harness.

The in-process test is the subsystem's correctness anchor: the *same*
images served as single-image requests through the dynamic batcher must
produce bit-identical logits, accuracy and per-layer
:class:`~repro.core.smt.SMTStatistics` as one direct
``SysmtHarness.evaluate_nbsmt`` run -- the serving layer may change *when*
work happens, never *what* is computed.

The HTTP test (marked ``serve``, opt-in like ``slow``) exercises the full
asyncio front-end: predictions, micro-batches, metrics, admission 429s and
graceful shutdown.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.serve.batcher import DynamicBatcher
from repro.serve.metrics import EndpointMetrics
from repro.serve.pool import EnginePool
from repro.serve.registry import ModelSpec, ServeRegistry

#: Open-loop arrival rate of the overload drive, in multiples of the
#: capacity a one-in-flight closed loop measures first, and its length.
OVERLOAD_FACTOR = 4.0
OVERLOAD_SECONDS = 1.0


def build_stack(tiny_provider, spec):
    registry = ServeRegistry()
    registry.register(spec)
    pool = EnginePool(registry, provider=tiny_provider, warm=True)
    metrics = EndpointMetrics(spec.name, batch_capacity=spec.max_batch)
    runner = pool.runner_for(spec.name, metrics=metrics)
    batcher = DynamicBatcher(
        runner,
        max_batch=spec.max_batch,
        on_batch=metrics.record_batch,
        autostart=False,
    )
    return pool, metrics, batcher


def test_batched_serving_bit_identical_to_harness(
    tiny_harness, tiny_provider, direct_reference
):
    # max_batch == the harness batch size, so a pre-filled queue coalesces
    # into exactly the batch partition evaluate_nbsmt uses (48 + 48).
    spec = ModelSpec(
        name="tinynet",
        model="resnet18",
        threads=4,
        policy="S+A",
        max_batch=tiny_harness.batch_size,
    )
    pool, metrics, batcher = build_stack(tiny_provider, spec)
    images = tiny_harness.eval_images
    labels = tiny_harness.eval_labels

    futures = [
        batcher.submit(images[index : index + 1])
        for index in range(images.shape[0])
    ]
    batcher.start()
    served_logits = np.vstack([future.result(timeout=300) for future in futures])
    batcher.close()
    pool.close()
    served_accuracy = float((served_logits.argmax(axis=1) == labels).mean())

    reference = tiny_harness.evaluate_nbsmt(
        threads=4, policy="S+A", collect_stats=True
    )
    assert served_accuracy == reference.accuracy

    # Bit-identical logits against a direct engine run of the same batches.
    expected_logits = []
    for start in range(0, images.shape[0], spec.max_batch):
        block, _ = direct_reference(
            tiny_harness, images[start : start + spec.max_batch], threads=4
        )
        expected_logits.append(block)
    assert np.array_equal(served_logits, np.vstack(expected_logits))

    # Aggregated endpoint statistics equal the harness run's statistics.
    served_stats = metrics.merged_smt_stats()
    assert set(served_stats) == set(reference.layer_stats)
    for name, stats in reference.layer_stats.items():
        assert served_stats[name].as_dict() == stats.as_dict()

    # Every engine call was a full batch.
    assert metrics.batches == -(-images.shape[0] // spec.max_batch)
    assert metrics.batch_fill == 1.0


def test_drained_shutdown_serves_queued_requests(tiny_harness, tiny_provider):
    spec = ModelSpec(
        name="tinynet", model="resnet18", threads=2, policy="S+A",
        max_batch=8,
    )
    pool, metrics, batcher = build_stack(tiny_provider, spec)
    futures = [
        batcher.submit(tiny_harness.eval_images[index : index + 1])
        for index in range(12)
    ]
    batcher.start()
    batcher.close(drain=True)  # graceful shutdown with requests in flight
    for future in futures:
        assert future.result(timeout=60).shape[0] == 1
    pool.close()
    assert metrics.batches >= 2


@pytest.mark.serve
def test_http_server_end_to_end(tiny_harness, tiny_provider):
    from repro.serve.client import fetch_json, predict_once, run_load
    from repro.serve.server import NBSMTServer, ServeConfig

    registry = ServeRegistry()
    spec = registry.register(
        ModelSpec(
            name="tinynet",
            model="resnet18",
            threads=2,
            policy="S+A",
            max_batch=16,
            max_pending=64,
        )
    )
    pool = EnginePool(registry, provider=tiny_provider, warm=True)
    server = NBSMTServer(registry, ServeConfig(port=0), pool=pool)

    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def on_loop(coroutine, timeout=300):
        return asyncio.run_coroutine_threadsafe(coroutine, loop).result(timeout)

    try:
        on_loop(server.start())
        url = f"http://127.0.0.1:{server.port}"
        assert fetch_json(url, "/healthz")["status"] == "ok"
        models = fetch_json(url, "/v1/models")["models"]
        assert models[0]["name"] == "tinynet"

        images = tiny_harness.eval_images
        labels = tiny_harness.eval_labels
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=300)
        # Single image (C, H, W) and micro-batch (B, C, H, W) requests.
        status, payload = predict_once(connection, "tinynet", images[0])
        assert status == 200
        assert payload["batch"] == 1
        assert len(payload["argmax"]) == 1
        status, payload = predict_once(connection, "tinynet", images[:3])
        assert status == 200
        assert payload["argmax"] == np.asarray(
            payload["outputs"]
        ).argmax(axis=1).tolist()

        # Unknown endpoint and malformed body.
        status, payload = predict_once(connection, "nope", images[0])
        assert status == 404
        connection.request("POST", "/v1/models/tinynet:predict", body=b"{]")
        assert connection.getresponse().status == 400  # noqa: PLR2004
        connection.close()

        # A request with the wrong image shape fails alone with a 400 --
        # it must never reach the batcher and poison co-batched requests.
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=300)
        wrong = np.zeros((1, 3, 4, 4), dtype=np.float32)
        status, payload = predict_once(connection, "tinynet", wrong)
        connection.close()
        assert status == 400
        assert "expects images of shape" in payload["error"]

        # A malformed request line gets a 400 response, not a dropped
        # connection.
        import socket

        with socket.create_connection(("127.0.0.1", server.port)) as raw:
            raw.sendall(b"GARBAGE\r\n\r\n")
            reply = raw.recv(65536)
        assert reply.startswith(b"HTTP/1.1 400")

        # Closed-loop load: accuracy over served responses matches the
        # quantized model's own accuracy on those images.
        report = run_load(
            url, "tinynet", images, labels,
            requests=images.shape[0], concurrency=8, batch_size=1,
        )
        assert report.errors == 0
        assert report.rejected == 0
        assert report.requests == images.shape[0]
        reference = tiny_harness.evaluate_nbsmt(
            threads=2, policy="S+A", collect_stats=False
        )
        assert report.accuracy == pytest.approx(reference.accuracy)

        # Saturated admission sheds with 429 (backpressure).
        admission = registry.admission("tinynet")
        assert admission.try_admit(spec.max_pending)
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=300)
        status, payload = predict_once(connection, "tinynet", images[0])
        connection.close()
        assert status == 429
        assert "saturated" in payload["error"]
        admission.release(spec.max_pending)

        metrics = fetch_json(url, "/v1/metrics")["endpoints"]["tinynet"]
        assert metrics["requests"] >= images.shape[0] + 2
        assert metrics["rejected_requests"] == 1
        assert metrics["batches"] >= 1
        assert metrics["smt_layer_stats"]
    finally:
        on_loop(server.stop())
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        loop.close()


@pytest.mark.serve
def test_http_adaptive_endpoint_degrades_and_recovers(
    tiny_harness, tiny_provider, monkeypatch
):
    """Open-loop overload over HTTP: the QoS controller walks the ladder.

    Shedding (429s under a tiny admission budget) drives the degrade; once
    the load generator stops, sustained calm recovers the endpoint to the
    top rung.  The predict responses and the ``operating_point`` route
    report the walk.
    """
    import time

    from repro.serve.client import fetch_json, run_load
    from repro.serve import server as serve_server
    from repro.serve.qos import QoSConfig

    registry = ServeRegistry()
    registry.register(
        ModelSpec(
            name="tinynet",
            model="resnet18",
            threads=4,
            policy="S+A",
            ladder_rungs=3,
            slow_threads=2,
            max_batch=4,
            max_pending=2,  # tiny admission budget: overload sheds fast
        )
    )
    pool = EnginePool(registry, provider=tiny_provider, warm=True)
    monkeypatch.setattr(serve_server, "_QOS_TICK_S", 0.05)
    monkeypatch.setattr(
        serve_server, "_QOS_CONFIG",
        QoSConfig(degrade_after_s=0.1, recover_after_s=0.3, cooldown_s=0.15),
    )
    server = serve_server.NBSMTServer(
        registry, serve_server.ServeConfig(port=0), pool=pool
    )

    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def on_loop(coroutine, timeout=300):
        return asyncio.run_coroutine_threadsafe(coroutine, loop).result(timeout)

    try:
        on_loop(server.start())
        url = f"http://127.0.0.1:{server.port}"
        # The overload is relative to the host's speed: one request in
        # flight at a time (admission pressure 0.5, inside the controller's
        # dead band) measures the capacity, and the open loop offers a
        # fixed multiple of it.
        calm = run_load(
            url, "tinynet", tiny_harness.eval_images,
            requests=24, concurrency=1, batch_size=1,
        )
        assert calm.rejected == 0 and calm.errors == 0
        rate = OVERLOAD_FACTOR * calm.requests / calm.elapsed_seconds
        point = fetch_json(url, "/v1/models/tinynet/operating_point")
        assert point["level"] == 0 and point["num_rungs"] == 3

        report = run_load(
            url, "tinynet", tiny_harness.eval_images,
            requests=max(100, int(rate * OVERLOAD_SECONDS)), concurrency=8,
            batch_size=1, mode="open", rate=rate, latency_budget_ms=250.0,
        )
        assert report.rejected > 0  # the overload actually happened
        assert report.latency_budget_s == pytest.approx(0.25)
        assert report.within_budget <= report.requests
        point = fetch_json(url, "/v1/models/tinynet/operating_point")
        assert point["controller"]["transitions"] >= 1
        degrades = [
            t for t in point["controller"]["recent_transitions"]
            if t["direction"] == "degrade"
        ]
        assert degrades, "sustained shedding must degrade the endpoint"

        # Load is gone: the controller must climb back to the top rung.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            point = fetch_json(url, "/v1/models/tinynet/operating_point")
            if point["level"] == 0:
                break
            time.sleep(0.1)
        assert point["level"] == 0, "endpoint never recovered to the top rung"

        metrics = fetch_json(url, "/v1/metrics")["endpoints"]["tinynet"]
        assert metrics["operating_point"]["transitions"] >= 2
        assert sum(metrics["points_served_images"].values()) == metrics["images"]
    finally:
        on_loop(server.stop())
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        loop.close()
