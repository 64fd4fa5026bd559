"""``repro.cli serve`` wiring: every topology runs from one ``ServeConfig``."""

import asyncio
import dataclasses
import json
import multiprocessing
import os
import socket

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.cluster import transport as cluster_transport
from repro.eval import parallel
from repro.serve import server as serve_server
from repro.serve import sharding
from repro.serve.registry import ModelSpec, ServeRegistry
from repro.serve.server import ServeConfig
from repro.telemetry import bus as telemetry_bus
from repro.telemetry.alerts import SinkRoute
from tests.strategies import QUICK_SETTINGS, alert_rules


def _json_file(name, items):
    """Write ``items`` as the JSON list ``--<name>`` reads (in the cwd)."""
    with open(name, "w", encoding="utf-8") as handle:
        json.dump([item.describe() for item in items], handle)
    return [f"--{name}", name]


def _optional(flag):
    return lambda value: [] if value is None else [flag, value]


_sink_routes = st.builds(
    SinkRoute,
    rule=st.sampled_from(["*", "replica_*", "probe_failure"]),
    severity=st.sampled_from([None, "warning", "critical"]),
    sinks=st.lists(st.sampled_from(["webhook", "log"]), max_size=2).map(tuple),
)

#: Every ``ServeConfig`` field -> (strategy of its value, the command-line
#: arguments that set it).  ``scale`` is the one global flag: it goes
#: before ``serve``.  Paths are relative to the test's working directory.
FLAGS = {
    "scale": (
        st.sampled_from(["fast", "full"]), lambda value: ["--scale", value],
    ),
    "fork_workers": (
        st.integers(0, 8), lambda value: ["--fork-workers", str(value)],
    ),
    "host": (
        st.sampled_from(["127.0.0.1", "127.0.0.9", "0.0.0.0"]),
        lambda value: ["--host", value],
    ),
    "port": (st.integers(0, 65535), lambda value: ["--port", str(value)]),
    "telemetry_dir": (
        st.sampled_from([None, "spool"]), _optional("--telemetry-dir"),
    ),
    "spool_budget_bytes": (
        # Whole KiB: the MiB flag then converts back to the same bytes.
        st.integers(0, 10**6).map(lambda kib: kib * 1024),
        lambda value: ["--spool-budget-mb", repr(value / 2**20)],
    ),
    "max_connections": (
        st.integers(1, 4096), lambda value: ["--max-connections", str(value)],
    ),
    "alerts": (st.booleans(), lambda value: [] if value else ["--no-alerts"]),
    "alert_rules": (
        st.none() | st.lists(alert_rules(), max_size=3).map(tuple),
        lambda value: [] if value is None else _json_file("alert-rules", value),
    ),
    "alert_webhook": (
        st.sampled_from([None, "http://127.0.0.1:9/hook"]),
        _optional("--alert-webhook"),
    ),
    "alert_routes": (
        st.none() | st.lists(_sink_routes, max_size=3).map(tuple),
        lambda value: (
            [] if value is None else _json_file("alert-routes", value)
        ),
    ),
    "probe_interval_s": (
        st.floats(0.0, 3600.0),
        lambda value: ["--probe-interval-s", repr(value)],
    ),
    "tracing": (st.booleans(), lambda value: [] if value else ["--no-trace"]),
    "trace_sample": (
        st.floats(0.0, 1.0), lambda value: ["--trace-sample", repr(value)],
    ),
}


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


def _run_shards_inline(monkeypatch):
    """Run ``--shards`` children in this process, keeping it unchanged."""
    monkeypatch.setattr(
        multiprocessing, "get_context", lambda method: _InlineContext()
    )
    monkeypatch.setattr(os, "register_at_fork", lambda **kwargs: None)
    monkeypatch.setattr(
        telemetry_bus.get_bus(), "reset_after_fork", lambda **kwargs: None
    )


class _FakeSocket:
    def __init__(self, address):
        self.address = address

    def getsockname(self):
        return self.address

    def close(self):
        pass


@pytest.fixture
def routes(monkeypatch):
    """Every config each serve route hands on, in call order.

    ``run_sharded`` and ``serve_member`` run for real (shards inline, on
    fake sockets); ``run_server`` only records, plus the index of the
    shard exchange it was handed, if any."""
    calls = []

    def spy(name, function):
        def record(*args, **kwargs):
            config = next(a for a in args if isinstance(a, ServeConfig))
            calls.append((name, config))
            return function(*args, **kwargs)

        monkeypatch.setattr(sharding, name, record)

    def fake_sockets(host, port, count):
        calls.append(("listen", (host, port)))
        return [_FakeSocket((host, port or 1))] * count

    def fake_run_server(registry, config, **injected):
        calls.append(("run_server", config))
        if "shard_exchange" in injected:
            calls.append(
                ("shard_index", injected["shard_exchange"].shard_index)
            )

    monkeypatch.setattr(serve_server, "run_server", fake_run_server)
    spy("run_sharded", sharding.run_sharded)
    spy("serve_member", sharding.serve_member)
    monkeypatch.setattr(sharding, "create_shard_sockets", fake_sockets)
    _run_shards_inline(monkeypatch)
    monkeypatch.setattr(cluster_transport, "SocketTransport", _FakeTransport)
    monkeypatch.setattr(cluster_transport, "RemoteSpoolWriter", _FakeSink)
    yield calls
    telemetry_bus.get_bus().detach_spool()


def test_every_config_field_has_a_serve_flag():
    assert set(FLAGS) == {
        field.name for field in dataclasses.fields(ServeConfig)
    }


def test_every_serve_topology_gets_the_same_settings(
    routes, monkeypatch, tmp_path
):
    """A drawn config reaches every topology whole, by the same route."""
    monkeypatch.chdir(tmp_path)

    @QUICK_SETTINGS
    @given(data=st.data())
    def check(data):
        drawn = {
            name: data.draw(strategy, label=name)
            for name, (strategy, _) in FLAGS.items()
        }
        config = ServeConfig(**drawn)
        argv = [
            *FLAGS["scale"][1](config.scale), "serve", "resnet18",
            *(arg for name, (_, flag) in FLAGS.items() if name != "scale"
              for arg in flag(drawn[name])),
        ]

        routes.clear()
        assert main(argv) == 0
        assert routes == [("run_server", config)]

        routes.clear()
        assert main([*argv, "--shards", "3"]) == 0
        assert routes[:2] == [
            ("run_sharded", config), ("listen", (config.host, config.port)),
        ]
        members = [c for name, c in routes if name == "serve_member"]
        children = [c for name, c in routes if name == "run_server"]
        assert len(members) == len(children) == 3
        assert [i for name, i in routes if name == "shard_index"] == [0, 1, 2]
        # The documented exception: a shard's events spool under
        # <telemetry_dir>/telemetry (a temporary exchange directory when
        # none is given).
        exchange = members[0].telemetry_dir
        assert config.telemetry_dir in (None, exchange)
        for member, child in zip(members, children):
            assert member == dataclasses.replace(
                config, telemetry_dir=exchange
            )
            assert child == dataclasses.replace(
                config, telemetry_dir=os.path.join(exchange, "telemetry")
            )

        routes.clear()
        assert main([*argv, "--federate", "127.0.0.1:9", "--fed-index", "1",
                     "--fed-count", "2"]) == 0
        telemetry_bus.get_bus().detach_spool()
        assert routes == [
            ("serve_member", config), ("run_server", config),
            ("shard_index", 1),
        ]

    check()


@pytest.mark.parametrize("flag", [
    "--max-connections=0",
    "--spool-budget-mb=-1",
    "--probe-interval-s=-0.5",
    "--trace-sample=2",
    "--trace-sample=-0.1",
])
def test_out_of_range_flags_exit_2_and_start_no_server(routes, capsys, flag):
    assert main(["serve", "resnet18", flag]) == 2
    assert routes == []
    assert flag.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("flag, content", [
    ("--alert-rules", '[{"field": "pressure"}]'),  # no rule name
    ("--alert-rules", "[1]"),  # an entry that is not an object
    ("--alert-rules", "{"),  # not JSON
    ("--alert-routes", '[{"sink": "log"}]'),  # an unknown field
    ("--alert-routes", None),  # no such file
])
def test_malformed_alert_files_exit_2_and_start_no_server(
    routes, capsys, tmp_path, flag, content
):
    path = tmp_path / "alerts.json"
    if content is not None:
        path.write_text(content)
    assert main(["serve", "resnet18", flag, str(path)]) == 2
    assert routes == []
    assert f"{flag} {path}" in capsys.readouterr().err


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
            ServeConfig(telemetry_dir=str(tmp_path)),
            pool=EnginePool(registry, provider=tiny_provider),
        )
        assert bus.spool_dir == sink.directory and not server._owns_spool
        assert server.history is not None
        assert server.trace_store is not None
    finally:
        if server is not None:
            asyncio.run(server.stop())
        bus.detach_spool()
    assert sink.closed


@pytest.mark.skipif(
    not (parallel.fork_available() and sharding.reuseport_supported()),
    reason="sharding needs fork and SO_REUSEPORT",
)
def test_sharded_children_get_the_spool_budget(monkeypatch, tmp_path):
    """``--shards`` children budget their telemetry spool and exchange
    documents, in the exchange directory's usual layout."""
    servers = []

    class _FakeServer:
        def __init__(self, registry=None, config=None, **kwargs):
            servers.append(dict(kwargs, config=config))

        async def serve_forever(self):
            pass

    monkeypatch.setattr(serve_server, "NBSMTServer", _FakeServer)
    # The child-side process setup must not leak into the test process.
    _run_shards_inline(monkeypatch)
    exchange_dir = str(tmp_path / "exchange")
    assert main([
        "serve", "resnet18", "--port", "0", "--spool-budget-mb", "2",
        "--shards", "2", "--telemetry-dir", exchange_dir,
    ]) == 0

    budget = 2 * 1024 * 1024
    assert [kwargs["shard_exchange"].shard_index for kwargs in servers] == [
        0, 1,
    ]
    for index, kwargs in enumerate(servers):
        assert kwargs["config"].spool_budget_bytes == budget
        assert kwargs["config"].telemetry_dir == os.path.join(
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
        pool=EnginePool(registry, provider=tiny_provider),
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
