"""Socket-free serving end-to-end smoke (tier-1).

Exercises the full request path -- registry, admission control, engine
pool, dynamic batcher, routing, QoS endpoints -- by driving the server's
route handler directly, with no listening socket: this is the piece of the
serving stack that must stay green in the fast tier-1 profile.  The HTTP
front-end itself (real sockets, keep-alive, shutdown, sharding) stays in
the opt-in ``serve`` lane.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.serve.registry import ModelSpec, ServeRegistry
from repro.serve.server import NBSMTServer, _HttpError


@pytest.fixture
def smoke_server(tiny_harness, tiny_provider):
    from repro.serve.pool import EnginePool

    registry = ServeRegistry()
    registry.register(
        ModelSpec(
            name="tinynet",
            model="resnet18",  # registry-valid alias; the provider ignores it
            threads=4,
            policy="S+A",
            ladder_rungs=3,
            slow_threads=2,
            max_batch=8,
            max_pending=32,
            latency_budget_ms=250.0,
        )
    )
    pool = EnginePool(registry, provider=tiny_provider)
    server = NBSMTServer(registry, pool=pool)
    server.build_endpoints()
    yield server
    for batcher in server.batchers.values():
        batcher.close(drain=False)
    pool.close()


def route(server, method, path, body=b""):
    return asyncio.run(server._route(method, path, body))


def test_smoke_health_models_and_metrics(smoke_server, tiny_harness):
    status, payload = route(smoke_server, "GET", "/healthz")
    assert status == 200 and payload["endpoints"] == ["tinynet"]

    status, payload = route(smoke_server, "GET", "/v1/models")
    assert status == 200
    (model,) = payload["models"]
    assert model["name"] == "tinynet"
    assert model["adaptive"] is True
    assert model["ladder_rungs"] == 3

    status, payload = route(smoke_server, "GET", "/v1/metrics")
    assert status == 200
    endpoint = payload["endpoints"]["tinynet"]
    assert endpoint["requests"] == 0
    assert endpoint["operating_point"]["level"] == 0


def test_smoke_predict_roundtrip_matches_direct_engine(
    smoke_server, tiny_harness, direct_reference
):
    images = tiny_harness.eval_images[:3]
    body = json.dumps({"inputs": images.tolist()}).encode()
    status, payload = route(
        smoke_server, "POST", "/v1/models/tinynet:predict", body
    )
    assert status == 200
    assert payload["batch"] == 3
    assert payload["operating_point"] == 0
    top = smoke_server.pool.ladder("tinynet").top
    expected = direct_reference(tiny_harness, images, threads=top.threads)[0]
    assert np.array_equal(np.asarray(payload["outputs"], dtype=np.float32),
                          expected.astype(np.float32))
    assert payload["argmax"] == expected.argmax(axis=1).tolist()

    metrics = route(smoke_server, "GET", "/v1/metrics")[1]
    endpoint = metrics["endpoints"]["tinynet"]
    assert endpoint["requests"] == 1 and endpoint["images"] == 3
    assert endpoint["points_served_images"] == {"0": 3}
    assert endpoint["smt_layer_stats"]


def test_smoke_errors_and_admission(smoke_server, tiny_harness):
    with pytest.raises(_HttpError) as excinfo:
        route(smoke_server, "GET", "/v1/nope")
    assert excinfo.value.status == 404

    with pytest.raises(_HttpError) as excinfo:
        route(smoke_server, "POST", "/v1/models/ghost:predict", b"{}")
    assert excinfo.value.status == 404

    with pytest.raises(_HttpError) as excinfo:
        route(smoke_server, "POST", "/v1/models/tinynet:predict", b"{]")
    assert excinfo.value.status == 400

    wrong = np.zeros((1, 3, 4, 4), dtype=np.float32)
    body = json.dumps({"inputs": wrong.tolist()}).encode()
    with pytest.raises(_HttpError) as excinfo:
        route(smoke_server, "POST", "/v1/models/tinynet:predict", body)
    assert excinfo.value.status == 400
    assert "expects images of shape" in excinfo.value.message

    admission = smoke_server.registry.admission("tinynet")
    assert admission.try_admit(32)
    image = tiny_harness.eval_images[:1]
    body = json.dumps({"inputs": image.tolist()}).encode()
    with pytest.raises(_HttpError) as excinfo:
        route(smoke_server, "POST", "/v1/models/tinynet:predict", body)
    assert excinfo.value.status == 429
    admission.release(32)
    metrics = route(smoke_server, "GET", "/v1/metrics")[1]
    assert metrics["endpoints"]["tinynet"]["rejected_requests"] == 1


def test_smoke_operating_point_inspect_and_override(smoke_server, tiny_harness):
    status, payload = route(
        smoke_server, "GET", "/v1/models/tinynet/operating_point"
    )
    assert status == 200
    assert payload["level"] == 0
    assert payload["num_rungs"] == 3
    assert len(payload["ladder"]) == 3
    assert payload["controller"]["num_levels"] == 3

    # Operator override: force the fastest rung and hold it.
    status, payload = route(
        smoke_server,
        "POST",
        "/v1/models/tinynet/operating_point",
        json.dumps({"level": 2, "hold": True}).encode(),
    )
    assert status == 200
    assert payload["level"] == 2
    assert payload["controller"]["held"] is True
    assert smoke_server.pool.current_level("tinynet") == 2

    # Requests now report the forced rung and execute its assignment.
    images = tiny_harness.eval_images[:2]
    body = json.dumps({"inputs": images.tolist()}).encode()
    status, predict = route(
        smoke_server, "POST", "/v1/models/tinynet:predict", body
    )
    assert status == 200 and predict["operating_point"] == 2

    # Resume automatic control.
    status, payload = route(
        smoke_server,
        "POST",
        "/v1/models/tinynet/operating_point",
        json.dumps({"hold": False}).encode(),
    )
    assert status == 200 and payload["controller"]["held"] is False

    # {"hold": true} alone pins the *current* rung (incident freeze).
    status, payload = route(
        smoke_server,
        "POST",
        "/v1/models/tinynet/operating_point",
        json.dumps({"hold": True}).encode(),
    )
    assert status == 200
    assert payload["level"] == 2 and payload["controller"]["held"] is True
    route(
        smoke_server,
        "POST",
        "/v1/models/tinynet/operating_point",
        json.dumps({"level": 0, "hold": False}).encode(),
    )

    # A non-integer level or a non-object body is a client error, not a 500.
    for bad_body in (json.dumps({"level": [1]}), "2", "null", "[1]"):
        with pytest.raises(_HttpError) as excinfo:
            route(
                smoke_server,
                "POST",
                "/v1/models/tinynet/operating_point",
                bad_body.encode(),
            )
        assert excinfo.value.status == 400

    with pytest.raises(_HttpError) as excinfo:
        route(
            smoke_server,
            "POST",
            "/v1/models/tinynet/operating_point",
            json.dumps({"level": 9}).encode(),
        )
    assert excinfo.value.status == 400

    with pytest.raises(_HttpError) as excinfo:
        route(smoke_server, "GET", "/v1/models/ghost/operating_point")
    assert excinfo.value.status == 404
