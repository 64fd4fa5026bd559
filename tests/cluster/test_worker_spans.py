"""Cluster span durations come from the monotonic clock.

The hub's ``sweep_hub`` root span and a worker's ``remote_lease`` spans
keep a wall-clock ``start`` (it places them in the merged waterfall) but
time ``duration_ms`` on ``time.monotonic()``, as the engine's layer spans
do: a wall clock stepped back mid-span must not make a duration negative.
"""

from __future__ import annotations

import time
import types

import pytest

from repro.cluster import worker as worker_module
from repro.cluster.transport import TransportError
from repro.cluster.worker import RemoteWorker, SweepHub
from repro.telemetry import bus as telemetry_bus

WALL_START = 1_700_000_000.0
TICK_S = 0.25


class SteppedClocks:
    """A wall clock stepped back an hour on every read, and a monotonic
    clock that advances by ``TICK_S`` on every read."""

    def __init__(self):
        self.wall = WALL_START
        self.mono = 50.0

    def time(self) -> float:
        value = self.wall
        self.wall -= 3600.0
        return value

    def monotonic(self) -> float:
        value = self.mono
        self.mono += TICK_S
        return value


@pytest.fixture
def stepped_clocks(monkeypatch):
    clocks = SteppedClocks()
    monkeypatch.setattr(
        worker_module,
        "time",
        types.SimpleNamespace(
            time=clocks.time, monotonic=clocks.monotonic, sleep=time.sleep
        ),
    )
    return clocks


@pytest.fixture
def spans():
    captured: list[dict] = []
    bus = telemetry_bus.get_bus()
    callback = bus.subscribe(
        callback=lambda event: (
            captured.append(dict(event.data)) if event.type == "span" else None
        )
    )
    yield captured
    bus.unsubscribe(callback)


def test_sweep_hub_span_keeps_wall_start_and_monotonic_duration(
    stepped_clocks, spans
):
    hub = SweepHub(
        types.SimpleNamespace(stop=lambda: None),
        trace_id="feedfacecafef00d",
        root_span_id="0123456789abcdef",
    )
    hub.close()
    [root] = [span for span in spans if span.get("name") == "sweep_hub"]
    assert root["start"] == WALL_START
    assert root["duration_ms"] == pytest.approx(TICK_S * 1000.0)


class OneLeaseTransport:
    """Hands out one empty lease, then reports the hub gone."""

    node = "w1"

    def __init__(self):
        self.trace_id = None
        self.leases = [{"lease": "L1", "items": []}]
        self.done: list[str] = []

    def hello(self) -> dict:
        return {
            "meta": {
                "kind": "sweep",
                "session": "s1",
                "scale": "fast",
                "resume": False,
                "telemetry": False,
                "trace_id": "feedfacecafef00d",
                "span_id": "0123456789abcdef",
            }
        }

    def lease_next(self) -> dict:
        if not self.leases:
            raise TransportError("hub gone")
        return {"lease": self.leases.pop(0)}

    def lease_done(self, lease: str, keys: list[str]) -> None:
        self.done.append(lease)

    def heartbeat(self) -> None:
        pass

    def close(self) -> None:
        pass


def test_remote_lease_span_keeps_wall_start_and_monotonic_duration(
    stepped_clocks, spans
):
    transport = OneLeaseTransport()
    summary = RemoteWorker(None, transport=transport).run()
    assert summary["completed_groups"] == 1 and transport.done == ["L1"]
    [lease] = [span for span in spans if span.get("name") == "remote_lease"]
    assert lease["trace_id"] == "feedfacecafef00d"
    assert lease["parent_id"] == "0123456789abcdef"
    assert lease["start"] == WALL_START
    assert lease["duration_ms"] == pytest.approx(TICK_S * 1000.0)
