"""Serving-side telemetry: dashboard routes, health events, priced 429s.

The socket-free tests drive the server's route handler directly (tier-1,
like ``test_server_smoke``); the full-HTTP SSE stream test binds a real
socket and lives in the opt-in ``serve`` lane.
"""

import asyncio
import json
import urllib.request

import numpy as np
import pytest

from repro.serve.pool import EnginePool
from repro.serve.registry import ModelSpec, ServeRegistry
from repro.serve.server import NBSMTServer, ServeConfig, _HttpError, _RawBody
from repro.telemetry import bus as telemetry_bus


def make_spec(**overrides):
    spec = dict(
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
    spec.update(overrides)
    return ModelSpec(**spec)


@pytest.fixture
def telemetry_server(tiny_provider):
    registry = ServeRegistry()
    registry.register(make_spec())
    pool = EnginePool(registry, provider=tiny_provider)
    server = NBSMTServer(registry, pool=pool)
    server.build_endpoints()
    yield server
    for batcher in server.batchers.values():
        batcher.close(drain=False)
    pool.close()
    server.relay.close()


def route(server, method, path, body=b""):
    return asyncio.run(server._route(method, path, body))


def test_dashboard_and_telemetry_routes(telemetry_server):
    status, payload = route(telemetry_server, "GET", "/dashboard")
    assert status == 200
    assert isinstance(payload, _RawBody)
    assert payload.content_type.startswith("text/html")
    assert b"repro telemetry" in payload.body

    status, snapshot = route(telemetry_server, "GET", "/v1/telemetry")
    assert status == 200
    assert "sweep" in snapshot and "endpoints" in snapshot

    with pytest.raises(_HttpError) as excinfo:
        route(telemetry_server, "POST", "/dashboard")
    assert excinfo.value.status == 405


def test_health_tick_publishes_endpoint_events(telemetry_server, tiny_harness):
    subscription = telemetry_bus.get_bus().subscribe(
        types={"endpoint_health", "shed", "batch_served"}, maxlen=64
    )
    try:
        images = tiny_harness.eval_images[:2]
        body = json.dumps({"inputs": images.tolist()}).encode()
        status, _ = route(
            telemetry_server, "POST", "/v1/models/tinynet:predict", body
        )
        assert status == 200
        telemetry_server.publish_health()
        events = subscription.drain()
        by_type = {}
        for event in events:
            by_type.setdefault(event.type, []).append(event)
        assert [e.data["images"] for e in by_type["batch_served"]] == [2]
        (health,) = by_type["endpoint_health"]
        assert health.data["endpoint"] == "tinynet"
        assert health.data["images"] == 2
        assert health.data["level"] == 0
        assert health.data["latency_budget_ms"] == 250.0
        assert health.data["latency"]["count"] == 1
        assert "shed" not in by_type  # nothing rejected yet
        # The relay fed the server's own aggregator too (the /v1/telemetry
        # and dashboard-bootstrap view).
        snapshot = telemetry_server.relay.snapshot()
        assert snapshot["endpoints"]["tinynet"]["images"] == 2
    finally:
        subscription.close()


def test_429_reports_expected_rung_and_retry_after(
    telemetry_server, tiny_harness
):
    admission = telemetry_server.registry.admission("tinynet")
    assert admission.try_admit(32)  # exhaust the budget
    image = tiny_harness.eval_images[:1]
    body = json.dumps({"inputs": image.tolist()}).encode()
    with pytest.raises(_HttpError) as excinfo:
        route(telemetry_server, "POST", "/v1/models/tinynet:predict", body)
    error = excinfo.value
    assert error.status == 429
    assert error.extra["expected_rung"] == 0
    assert error.extra["expected_point"]["level"] == 0
    assert error.extra["retry_after_ms"] >= 2.0
    assert error.headers["Retry-After"] == "1"
    admission.release(32)
    # Shed deltas surface as aggregated telemetry on the next health tick.
    subscription = telemetry_bus.get_bus().subscribe(types={"shed"})
    try:
        telemetry_server.publish_health()
        (shed,) = subscription.drain()
        assert shed.data == {"endpoint": "tinynet", "images": 1}
    finally:
        subscription.close()


def test_rung_aware_admission_prices_by_speedup(telemetry_server):
    """Degrading to a faster rung stretches the effective budget."""
    admission = telemetry_server.registry.admission("tinynet")
    governor = telemetry_server.governors["tinynet"]
    ladder = telemetry_server.pool.ladder("tinynet")
    governor.force(2)
    expected_price = ladder.top.expected_speedup / ladder[2].expected_speedup
    assert admission.price == pytest.approx(expected_price)
    assert expected_price < 1.0
    assert admission.effective_capacity > admission.capacity
    # Forcing back to the top rung restores unit pricing.
    governor.force(0)
    assert admission.price == pytest.approx(1.0)


def test_transitions_publish_rung_events(telemetry_server):
    subscription = telemetry_bus.get_bus().subscribe(
        types={"rung_transition"}
    )
    try:
        governor = telemetry_server.governors["tinynet"]
        governor.force(1)
        governor.force(0)
        events = subscription.drain()
        assert [(e.data["from_level"], e.data["to_level"]) for e in events] \
            == [(0, 1), (1, 0)]
        assert events[0].data["endpoint"] == "tinynet"
        assert events[0].data["direction"] == "degrade"
    finally:
        subscription.close()


# ---------------------------------------------------------------------------
# Full-HTTP SSE end-to-end (opt-in serve lane)
# ---------------------------------------------------------------------------


@pytest.mark.serve
def test_http_sse_streams_rung_transitions(tiny_provider, tiny_harness):
    registry = ServeRegistry()
    registry.register(make_spec())
    pool = EnginePool(registry, provider=tiny_provider)
    server = NBSMTServer(registry, ServeConfig(port=0), pool=pool)

    async def main():
        await server.start()
        base = f"http://127.0.0.1:{server.port}"
        loop = asyncio.get_running_loop()

        def drive():
            html = urllib.request.urlopen(
                f"{base}/dashboard", timeout=10
            ).read()
            assert b"EventSource" in html
            connection = urllib.request.urlopen(
                f"{base}/v1/events", timeout=10
            )
            assert connection.headers["Content-Type"] == "text/event-stream"
            # Force a rung transition; it must appear on the live stream.
            request = urllib.request.Request(
                f"{base}/v1/models/tinynet/operating_point",
                data=json.dumps({"level": 2}).encode(),
                method="POST",
            )
            urllib.request.urlopen(request, timeout=10)
            deadline = 200
            for _ in range(deadline):
                line = connection.readline().decode("utf-8")
                if line.strip() == "event: rung_transition":
                    data = connection.readline().decode("utf-8")
                    event = json.loads(data[len("data: "):])
                    assert event["data"]["endpoint"] == "tinynet"
                    assert event["data"]["to_level"] == 2
                    break
            else:  # pragma: no cover - diagnosed by the assert
                raise AssertionError("rung_transition never streamed")
            connection.close()
            # A predict round trip still works alongside the open stream.
            body = json.dumps(
                {"inputs": tiny_harness.eval_images[:1].tolist()}
            ).encode()
            response = json.load(
                urllib.request.urlopen(
                    urllib.request.Request(
                        f"{base}/v1/models/tinynet:predict",
                        data=body,
                        method="POST",
                    ),
                    timeout=30,
                )
            )
            assert response["operating_point"] == 2

        try:
            await loop.run_in_executor(None, drive)
        finally:
            await server.stop()

    asyncio.run(main())


def test_alert_engine_wired_into_server_and_history_restart(
    tiny_provider, tmp_path
):
    """The default server carries an alert engine fed by its relay; with a
    ``telemetry_dir`` the lifecycle survives a server restart."""
    from repro.telemetry.alerts import AlertRule

    rule = AlertRule(
        name="hot", field="pressure", threshold=0.9, clear_threshold=0.5,
        for_s=0.0, clear_for_s=0.0, cooldown_s=0.0,
    )

    def build():
        registry = ServeRegistry()
        registry.register(make_spec())
        pool = EnginePool(registry, provider=tiny_provider)
        server = NBSMTServer(
            registry,
            ServeConfig(telemetry_dir=str(tmp_path), alert_rules=(rule,)),
            pool=pool,
        )
        server.build_endpoints()
        return server, pool

    def teardown(server, pool):
        for batcher in server.batchers.values():
            batcher.close(drain=False)
        pool.close()
        server.relay.close()
        telemetry_bus.get_bus().unsubscribe(server._history_callback)
        server.history.close()
        telemetry_bus.get_bus().detach_spool()

    server, pool = build()
    try:
        telemetry_bus.publish(
            "endpoint_health", endpoint="tinynet", pressure=0.95
        )
        status, payload = route(server, "GET", "/healthz")
        assert status == 200 and payload["active_alerts"] == 1
        status, snapshot = route(server, "GET", "/v1/telemetry")
        assert status == 200
        engine_view = snapshot["alerts_engine"]
        assert [a["rule"] for a in engine_view["active"]] == ["hot"]
        assert engine_view["fired_total"] == 1
        # The aggregator folded the lifecycle into the dashboard view too.
        assert snapshot["alerts"]["fired"] == 1
    finally:
        teardown(server, pool)

    # -- restart: a fresh server replays the ring-file history ----------
    server2, pool2 = build()
    try:
        active = server2.alert_engine.active()
        assert [(a["rule"], a["key"]) for a in active] == [("hot", "tinynet")]
        assert server2.alert_engine.fired_total == 1
        status, payload = route(server2, "GET", "/healthz")
        assert payload["active_alerts"] == 1
    finally:
        teardown(server2, pool2)
