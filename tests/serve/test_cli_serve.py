"""``repro.cli serve`` wiring: every topology runs with the same settings."""

import asyncio

import pytest

from repro.cli import main
from repro.cluster import transport as cluster_transport
from repro.serve import server as serve_server
from repro.serve import sharding
from repro.serve.registry import ModelSpec, ServeRegistry
from repro.telemetry import bus as telemetry_bus

SERVE_ARGS = [
    "serve", "resnet18",
    "--host", "127.0.0.9",
    "--port", "8499",
    "--fork-workers", "1",
    "--max-connections", "17",
    "--spool-budget-mb", "2",
    "--probe-interval-s", "3",
    "--trace-sample", "0.5",
]


class _FakeTransport:
    address = ("127.0.0.1", 1)

    def __init__(self, *args, **kwargs):
        pass


class _FakeSink:
    directory = "cluster://127.0.0.1:1/telemetry"
    path = "telemetry/fake.jsonl"

    def __init__(self, *args, **kwargs):
        self.closed = False

    def append(self, event):
        pass

    def close(self):
        self.closed = True

    def rearm_after_fork(self):
        pass


@pytest.fixture
def captured(monkeypatch):
    calls = {}

    def fake_run_server(**kwargs):
        calls["server"] = kwargs

    def fake_run_sharded(registry, shards, **kwargs):
        calls["sharded"] = dict(kwargs, shards=shards)

    monkeypatch.setattr(serve_server, "run_server", fake_run_server)
    monkeypatch.setattr(sharding, "run_sharded", fake_run_sharded)
    monkeypatch.setattr(cluster_transport, "SocketTransport", _FakeTransport)
    monkeypatch.setattr(cluster_transport, "RemoteSpoolWriter", _FakeSink)
    yield calls
    telemetry_bus.get_bus().detach_spool()


def _common(kwargs):
    return {
        key: kwargs[key]
        for key in (
            "scale", "fork_workers", "host", "port", "max_connections",
            "alerts", "alert_rules", "alert_webhook", "alert_routes",
            "probe_interval_s", "tracing", "trace_sample",
        )
    }


def test_every_serve_topology_gets_the_same_settings(captured, tmp_path):
    telemetry = str(tmp_path / "telemetry")
    args = [*SERVE_ARGS, "--telemetry-dir", telemetry]

    assert main(args) == 0
    single = captured.pop("server")
    assert single["telemetry_dir"] == telemetry
    assert single["spool_budget_bytes"] == 2 * 1024 * 1024

    assert main([*args, "--shards", "3"]) == 0
    sharded = captured.pop("sharded")
    assert sharded["shards"] == 3
    assert sharded["exchange_dir"] == telemetry
    assert sharded["exchange_budget_bytes"] == 2 * 1024 * 1024
    assert "telemetry_dir" not in sharded
    assert _common(sharded) == _common(single)

    assert main([*args, "--federate", "127.0.0.1:9", "--fed-index", "1",
                 "--fed-count", "2"]) == 0
    federated = captured.pop("server")
    assert federated["telemetry_dir"] == telemetry
    assert federated["spool_budget_bytes"] == 2 * 1024 * 1024
    assert federated["shard_index"] == 1
    assert _common(federated) == _common(single)
    assert _common(single) == {
        "scale": "fast", "fork_workers": 1, "host": "127.0.0.9",
        "port": 8499, "max_connections": 17, "alerts": True,
        "alert_rules": None, "alert_webhook": None, "alert_routes": None,
        "probe_interval_s": 3.0, "tracing": True, "trace_sample": 0.5,
    }


def test_federated_server_keeps_remote_spool_and_local_rings(
    tiny_provider, tmp_path
):
    from repro.serve.pool import EnginePool

    bus = telemetry_bus.get_bus()
    sink = bus.attach_spool_sink(_FakeSink())
    registry = ServeRegistry()
    registry.register(ModelSpec(name="tinynet", model="resnet18"))
    server = None
    try:
        server = serve_server.NBSMTServer(
            registry,
            pool=EnginePool(registry, provider=tiny_provider, warm=False),
            telemetry_dir=str(tmp_path),
        )
        assert bus.spool_dir == sink.directory and not server._owns_spool
        assert server.history is not None
        assert server.trace_store is not None
    finally:
        if server is not None:
            asyncio.run(server.stop())
        bus.detach_spool()
    assert sink.closed
