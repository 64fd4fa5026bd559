"""Deadline propagation (tier-1): parsing, batcher expiry, route refusal.

The request-lifeline contract, socket-free: a deadline parses once at the
front door (header wins over body, garbage fails loudly), rides the
request into the batcher, and an expired request is cancelled *before*
engine compute with an explicit ``DeadlineExceeded`` / 504 -- counted at
every layer, never silently dropped.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.serve.batcher import DynamicBatcher
from repro.serve.deadline import (
    DEADLINE_HEADER,
    Deadline,
    DeadlineExceeded,
    parse_deadline_ms,
)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


class TickClock:
    """A clock that jumps forward on every read -- makes the interval
    between two consecutive reads (e.g. deadline creation and its expiry
    check) deterministic."""

    def __init__(self, tick_s: float):
        self.now = 0.0
        self.tick = tick_s

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


# -- parsing -----------------------------------------------------------------


def test_parse_deadline_header_wins_over_body_field():
    headers = {DEADLINE_HEADER: "250"}
    payload = {"deadline_ms": 900}
    assert parse_deadline_ms(headers, payload) == 250.0
    assert parse_deadline_ms(None, payload) == 900.0
    assert parse_deadline_ms({}, {}) is None
    assert parse_deadline_ms(None, None) is None


@pytest.mark.parametrize("raw", ["soon", "", [], {}, "nan ms"])
def test_parse_deadline_rejects_garbage(raw):
    with pytest.raises(ValueError):
        parse_deadline_ms({DEADLINE_HEADER: raw}, None)


@pytest.mark.parametrize("raw", ["0", "-5", -1.0])
def test_parse_deadline_rejects_non_positive(raw):
    with pytest.raises(ValueError):
        parse_deadline_ms(None, {"deadline_ms": raw})


def test_deadline_arithmetic_on_a_fake_clock():
    clock = FakeClock(100.0)
    deadline = Deadline.after_ms(50.0, clock=clock)
    assert deadline.remaining_ms(clock) == pytest.approx(50.0)
    assert not deadline.expired(clock)
    clock.advance(0.05)
    assert deadline.expired(clock)
    clock.advance(0.01)
    assert deadline.remaining_ms(clock) == pytest.approx(-10.0)
    exc = DeadlineExceeded("late", late_by_s=0.01)
    assert exc.late_by_s == pytest.approx(0.01)


# -- batcher expiry ----------------------------------------------------------


def test_batcher_expires_dead_requests_before_compute():
    clock = FakeClock()
    seen: list[object] = []

    def runner(payloads, trace=None):
        seen.extend(payloads)
        return [f"ok:{payload}" for payload in payloads]

    batcher = DynamicBatcher(
        runner,
        max_batch=4,
        autostart=False,
        clock=clock,
    )
    alive = batcher.submit("alive")
    dead = batcher.submit(
        "dead", deadline=Deadline.after_ms(5.0, clock=clock)
    )
    clock.advance(0.010)  # 10ms: past the 5ms deadline
    batcher.close(drain=True)

    assert alive.result(timeout=5) == "ok:alive"
    with pytest.raises(DeadlineExceeded) as excinfo:
        dead.result(timeout=5)
    assert excinfo.value.late_by_s == pytest.approx(0.005)
    # The engine never saw the dead request -- cancelled before compute.
    assert seen == ["alive"]
    assert batcher.expired_requests == 1
    assert batcher.expired_images == 1
    assert batcher.pending_images == 0


def test_batcher_expires_the_queue_head_without_anchoring_a_batch():
    clock = FakeClock()
    executed: list[list[object]] = []

    def runner(payloads, trace=None):
        executed.append(list(payloads))
        return ["ok"] * len(payloads)

    batcher = DynamicBatcher(
        runner,
        max_batch=2,
        autostart=False,
        clock=clock,
    )
    head = batcher.submit(
        "head", deadline=Deadline.after_ms(1.0, clock=clock)
    )
    clock.advance(1.0)
    tail = batcher.submit("tail")
    batcher.start()
    assert tail.result(timeout=10) == "ok"
    with pytest.raises(DeadlineExceeded):
        head.result(timeout=10)
    assert executed == [["tail"]]
    batcher.close()


def test_live_deadlines_ride_through_unharmed():
    batcher = DynamicBatcher(
        lambda payloads, trace=None: [payload * 2 for payload in payloads],
        max_batch=8,
    )
    try:
        future = batcher.submit(21, deadline=Deadline.after_ms(60_000.0))
        assert future.result(timeout=10) == 42
        assert batcher.expired_requests == 0
    finally:
        batcher.close()


# -- the route layer ---------------------------------------------------------


@pytest.fixture
def deadline_server(tiny_harness, tiny_provider):
    """A socket-free server whose clock jumps 20ms per read: any request
    deadline under 20ms is dead on arrival, deterministically."""
    from repro.serve.pool import EnginePool
    from repro.serve.registry import ModelSpec, ServeRegistry
    from repro.serve.server import NBSMTServer

    registry = ServeRegistry()
    registry.register(
        ModelSpec(
            name="tinynet",
            model="resnet18",
            threads=2,
            policy="S+A",
            max_batch=8,
            max_pending=32,
        )
    )
    pool = EnginePool(registry, provider=tiny_provider)
    server = NBSMTServer(registry, pool=pool, clock=TickClock(0.020))
    server.build_endpoints()
    yield server
    for batcher in server.batchers.values():
        batcher.close(drain=False)
    pool.close()


def _route(server, method, path, body=b"", headers=None):
    return asyncio.run(server._route(method, path, body, headers))


def test_route_rejects_malformed_and_nonpositive_deadlines(
    deadline_server, tiny_harness
):
    from repro.serve.server import _HttpError

    body = json.dumps(
        {"inputs": tiny_harness.eval_images[:1].tolist()}
    ).encode()
    for bad in ("soon", "0", "-3"):
        with pytest.raises(_HttpError) as excinfo:
            _route(
                deadline_server,
                "POST",
                "/v1/models/tinynet:predict",
                body,
                {DEADLINE_HEADER: bad},
            )
        assert excinfo.value.status == 400


def test_route_refuses_dead_on_arrival_with_504_and_counters(
    deadline_server, tiny_harness
):
    from repro.serve.server import _HttpError

    body = json.dumps(
        {"inputs": tiny_harness.eval_images[:2].tolist()}
    ).encode()
    admission = deadline_server.registry.admission("tinynet")
    with pytest.raises(_HttpError) as excinfo:
        _route(
            deadline_server,
            "POST",
            "/v1/models/tinynet:predict",
            body,
            {DEADLINE_HEADER: "10"},  # < one 20ms clock tick: dead on arrival
        )
    assert excinfo.value.status == 504
    assert excinfo.value.message == "deadline_exceeded"
    assert excinfo.value.body()["late_by_ms"] > 0
    # Refused at the door: no admission slot was ever held, the expiry is
    # counted at admission and in the endpoint metrics.
    assert admission.in_flight == 0
    assert admission.expired_arrivals == 2
    snapshot = deadline_server.metrics.endpoint("tinynet").snapshot()
    assert snapshot["expired_requests"] == 1
    assert snapshot["expired_images"] == 2
    # The body-field spelling drives the same path.
    body = json.dumps(
        {
            "inputs": tiny_harness.eval_images[:1].tolist(),
            "deadline_ms": 10,
        }
    ).encode()
    with pytest.raises(_HttpError) as excinfo:
        _route(deadline_server, "POST", "/v1/models/tinynet:predict", body)
    assert excinfo.value.status == 504
    assert admission.expired_arrivals == 3


def test_default_deadline_comes_from_the_spec(tiny_harness, tiny_provider):
    from repro.serve.pool import EnginePool
    from repro.serve.registry import ModelSpec, ServeRegistry
    from repro.serve.server import NBSMTServer, _HttpError

    registry = ServeRegistry()
    registry.register(
        ModelSpec(
            name="tinynet",
            model="resnet18",
            threads=2,
            max_batch=8,
            max_pending=32,
            default_deadline_ms=10.0,  # < one 20ms tick: everything is DOA
        )
    )
    pool = EnginePool(registry, provider=tiny_provider)
    server = NBSMTServer(registry, pool=pool, clock=TickClock(0.020))
    server.build_endpoints()
    try:
        body = json.dumps(
            {"inputs": tiny_harness.eval_images[:1].tolist()}
        ).encode()
        with pytest.raises(_HttpError) as excinfo:
            _route(server, "POST", "/v1/models/tinynet:predict", body)
        assert excinfo.value.status == 504
        assert registry.get("tinynet").default_deadline_ms == 10.0
    finally:
        for batcher in server.batchers.values():
            batcher.close(drain=False)
        pool.close()


def test_route_smoke_still_serves_without_deadlines(
    deadline_server, tiny_harness
):
    """The ticking clock changes timing bookkeeping, not correctness."""
    status, payload = _route(deadline_server, "GET", "/healthz")
    assert status == 200
    assert payload["connections"]["open"] == 0
    assert time.monotonic() > 0  # anchor: the real clock is untouched


def test_draining_flips_healthz_and_refuses_new_work(
    deadline_server, tiny_harness
):
    """The drain contract for rolling restarts: /healthz answers 503
    ``draining`` (out of LB rotation) and new predicts are refused while
    in-flight work finishes."""
    from repro.serve.server import _HttpError

    deadline_server._draining = True
    try:
        status, payload = _route(deadline_server, "GET", "/healthz")
        assert status == 503
        assert payload["status"] == "draining"
        body = json.dumps(
            {"inputs": tiny_harness.eval_images[:1].tolist()}
        ).encode()
        with pytest.raises(_HttpError) as excinfo:
            _route(deadline_server, "POST", "/v1/models/tinynet:predict", body)
        assert excinfo.value.status == 503
        assert "draining" in excinfo.value.message
    finally:
        deadline_server._draining = False
