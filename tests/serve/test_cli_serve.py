"""``repro.cli serve`` wiring: every topology runs with the same settings."""

import asyncio
import multiprocessing
import os
import socket

import pytest

from repro.cli import main
from repro.cluster import transport as cluster_transport
from repro.eval import parallel
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
    assert sharded["spool_budget_bytes"] == 2 * 1024 * 1024
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


class _InlineProcess:
    """A shard "forked" inline: ``start`` runs the target in this process."""

    def __init__(self, target, args, name=None):
        self.target = target
        self.args = args

    def start(self):
        self.target(*self.args)

    def is_alive(self):
        return False

    def join(self, timeout=None):
        pass

    def terminate(self):
        pass


class _InlineContext:
    Process = _InlineProcess


@pytest.mark.skipif(
    not (parallel.fork_available() and sharding.reuseport_supported()),
    reason="sharding needs fork and SO_REUSEPORT",
)
def test_sharded_children_get_the_spool_budget(monkeypatch, tmp_path):
    """``--shards`` children budget their telemetry spool and exchange
    documents, in the exchange directory's usual layout."""
    servers = []

    class _FakeServer:
        def __init__(self, registry=None, **kwargs):
            servers.append(kwargs)

        async def serve_forever(self):
            pass

    monkeypatch.setattr(serve_server, "NBSMTServer", _FakeServer)
    monkeypatch.setattr(
        multiprocessing, "get_context", lambda method: _InlineContext()
    )
    # The child-side process setup must not leak into the test process.
    monkeypatch.setattr(os, "register_at_fork", lambda **kwargs: None)
    monkeypatch.setattr(parallel, "IN_POOL_WORKER", parallel.IN_POOL_WORKER)
    monkeypatch.setattr(
        telemetry_bus.get_bus(), "reset_after_fork", lambda **kwargs: None
    )
    exchange_dir = str(tmp_path / "exchange")
    assert main([
        "serve", "resnet18", "--port", "0", "--spool-budget-mb", "2",
        "--shards", "2", "--telemetry-dir", exchange_dir,
    ]) == 0

    budget = 2 * 1024 * 1024
    assert [kwargs["shard_index"] for kwargs in servers] == [0, 1]
    for index, kwargs in enumerate(servers):
        assert kwargs["spool_budget_bytes"] == budget
        assert kwargs["telemetry_dir"] == os.path.join(
            exchange_dir, "telemetry"
        )
        exchange = kwargs["shard_exchange"]
        assert exchange.store.budget.max_bytes == budget
        exchange.publish({})
        kwargs["coordinator"].channel.publish({})
    assert sorted(os.listdir(exchange_dir)) == [
        "qos-shard-0.json", "qos-shard-1.json",
        "shard-0.json", "shard-1.json",
    ]


def test_server_reports_the_host_its_socket_is_bound_to(tiny_provider):
    """A shard gets a bound socket, not a host: ``start`` must report the
    address it really listens on (``server_started`` and the banner)."""
    from repro.serve.pool import EnginePool

    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.bind(("127.0.0.2", 0))
    except OSError:
        sock.close()
        pytest.skip("127.0.0.2 is not a loopback address here")
    sock.listen(8)
    sock.setblocking(False)
    bound = sock.getsockname()
    registry = ServeRegistry()
    registry.register(ModelSpec(name="tinynet", model="resnet18"))
    server = serve_server.NBSMTServer(
        registry,
        pool=EnginePool(registry, provider=tiny_provider, warm=False),
        sock=sock,
    )
    bus = telemetry_bus.get_bus()
    started = []

    def callback(event):
        if event.type == "server_started":
            started.append(event)

    bus.subscribe(callback=callback)

    async def run():
        await server.start()
        await server.stop()

    try:
        asyncio.run(run())
    finally:
        bus.unsubscribe(callback)
    assert (server.host, server.port) == bound
    assert [(e.data["host"], e.data["port"]) for e in started] == [bound]
