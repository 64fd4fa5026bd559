"""Front-end sharding: SO_REUSEPORT sockets, metrics spool, sharded e2e."""

import http.client
import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.cluster.documents import METRICS_STALE_AFTER_S, DocumentStore
from repro.eval.parallel import fork_available
from repro.serve import server as serve_server
from repro.serve import sharding
from repro.serve.server import ServeConfig

needs_reuseport = pytest.mark.skipif(
    not sharding.reuseport_supported(), reason="SO_REUSEPORT unavailable"
)


@needs_reuseport
def test_create_shard_sockets_share_one_port():
    sockets = sharding.create_shard_sockets("127.0.0.1", 0, 3)
    try:
        ports = {sock.getsockname()[1] for sock in sockets}
        assert len(sockets) == 3
        assert len(ports) == 1  # all shards joined the first bind's port
    finally:
        for sock in sockets:
            sock.close()


def test_metrics_exchange_publish_and_gather(tmp_path):
    exchanges = [
        sharding.ShardMetricsExchange(
            DocumentStore.for_directory(str(tmp_path)), index, 3
        )
        for index in range(3)
    ]
    for index, exchange in enumerate(exchanges):
        exchange.publish({"endpoints": {"m": {"requests": index + 1}}})
    payloads, sources = exchanges[0].gather_peers()
    assert [payload["endpoints"]["m"]["requests"] for payload in payloads] == [2, 3]
    assert [source["shard"] for source in sources] == [1, 2]
    assert not any(source["stale"] for source in sources)
    # Republishing replaces atomically; a missing peer is simply skipped.
    exchanges[1].publish({"endpoints": {"m": {"requests": 10}}})
    os.unlink(tmp_path / "shard-2.json")
    payloads, sources = exchanges[0].gather_peers()
    assert len(payloads) == 1
    assert payloads[0]["endpoints"]["m"]["requests"] == 10


def test_stale_spool_of_dead_shard_is_reaped(tmp_path):
    """A crashed shard's counters must not be merged (or kept) forever."""
    reader = sharding.ShardMetricsExchange(
        DocumentStore.for_directory(str(tmp_path)), 0, 3
    )
    # Shard 1 "crashed": stale timestamp, dead pid.
    with open(tmp_path / "shard-1.json", "w", encoding="utf-8") as handle:
        json.dump(
            {"shard": 1, "pid": 0,
             "published_at": time.time() - 2 * METRICS_STALE_AFTER_S,
             "payload": {"endpoints": {"m": {"requests": 999}}}},
            handle,
        )
    # Shard 2 is merely slow (stale) but its process is alive: kept.
    with open(tmp_path / "shard-2.json", "w", encoding="utf-8") as handle:
        json.dump(
            {"shard": 2, "pid": os.getpid(),
             "published_at": time.time() - 2 * METRICS_STALE_AFTER_S,
             "payload": {"endpoints": {"m": {"requests": 5}}}},
            handle,
        )
    payloads, sources = reader.gather_peers()
    assert [payload["endpoints"]["m"]["requests"] for payload in payloads] == [5]
    by_shard = {source["shard"]: source for source in sources}
    assert by_shard[1]["reaped"] and by_shard[1]["stale"]
    assert not by_shard[2]["reaped"] and by_shard[2]["stale"]
    # The dead shard's spool file is gone from disk.
    assert not (tmp_path / "shard-1.json").exists()
    assert (tmp_path / "shard-2.json").exists()
    # Fresh documents (just published, live pid) merge as before.
    writer = sharding.ShardMetricsExchange(
        DocumentStore.for_directory(str(tmp_path)), 1, 3
    )
    writer.publish({"endpoints": {"m": {"requests": 7}}})
    payloads, sources = reader.gather_peers()
    assert len(payloads) == 2


@pytest.mark.serve
@needs_reuseport
@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
def test_sharded_front_end_serves_and_merges_metrics(tmp_path, monkeypatch):
    """Two shards on one port: traffic balances, /v1/metrics merges exactly."""
    from repro.serve.client import predict_once
    from repro.serve.registry import default_registry

    registry = default_registry(models=["resnet18"], threads=2, max_batch=8)
    shards = 2
    sockets = sharding.create_shard_sockets("127.0.0.1", 0, shards)
    port = sockets[0].getsockname()[1]
    # Faster publishes, set before the fork so the shards inherit them.
    monkeypatch.setattr(serve_server, "_SHARD_PUBLISH_S", 0.2)
    context = multiprocessing.get_context("fork")
    processes = [
        context.Process(
            target=sharding._shard_main,
            args=(index, sockets, registry, shards,
                  ServeConfig(telemetry_dir=str(tmp_path)), False),
            daemon=True,
        )
        for index in range(shards)
    ]
    for process in processes:
        process.start()
    for sock in sockets:
        sock.close()

    def fetch(path):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read().decode())
        finally:
            connection.close()

    try:
        # Both shards inherit listening sockets, so even warm-up-time
        # connections are served once the loops come up.
        deadline = time.monotonic() + 300
        while True:
            try:
                status, _payload = fetch("/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            assert time.monotonic() < deadline, "shards never became healthy"
            time.sleep(0.5)

        from repro.models.zoo import load_dataset

        images = load_dataset(fast=True).val_images[:4]
        total = 12
        statuses = []
        for index in range(total):
            # Fresh connections: SO_REUSEPORT balances per connection.
            connection = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=300
            )
            try:
                status, payload = predict_once(
                    connection, "resnet18",
                    images[index % images.shape[0]],
                )
            finally:
                connection.close()
            statuses.append(status)
            assert status == 200
            assert payload["operating_point"] == 0

        time.sleep(1.0)  # let both shards publish their final counters
        status, merged = fetch("/v1/metrics")
        assert status == 200
        endpoint = merged["endpoints"]["resnet18"]
        assert endpoint["requests"] == total
        assert endpoint["images"] == total
        assert merged["shards"]["count"] == shards
        assert merged["shards"]["merged"] == shards
    finally:
        for process in processes:
            if process.is_alive():
                os.kill(process.pid, signal.SIGTERM)
        for process in processes:
            process.join(timeout=60)
        for process in processes:
            if process.is_alive():  # pragma: no cover - stuck shard
                process.kill()
                process.join()


@pytest.mark.serve
@needs_reuseport
@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
def test_coordinated_shards_converge_and_stream_events(tmp_path, monkeypatch):
    """Force one shard's rung: the peer follows the quorum, and any
    shard's ``/v1/events`` streams both shards' transitions (spool merge)."""
    from repro.serve.registry import default_registry

    registry = default_registry(
        models=["resnet18"], threads=4, slow_threads=1, ladder_rungs=3,
        max_batch=8,
    )
    shards = 2
    sockets = sharding.create_shard_sockets("127.0.0.1", 0, shards)
    port = sockets[0].getsockname()[1]
    # Faster publishes and QoS ticks, set before the fork so the shards
    # inherit them.
    monkeypatch.setattr(serve_server, "_SHARD_PUBLISH_S", 0.2)
    monkeypatch.setattr(serve_server, "_QOS_TICK_S", 0.1)
    context = multiprocessing.get_context("fork")
    processes = [
        context.Process(
            target=sharding._shard_main,
            args=(index, sockets, registry, shards,
                  ServeConfig(telemetry_dir=str(tmp_path)), True),
            daemon=True,
        )
        for index in range(shards)
    ]
    for process in processes:
        process.start()
    for sock in sockets:
        sock.close()

    def request(method, path, body=None):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
        try:
            connection.request(
                method, path,
                body=json.dumps(body).encode() if body is not None else None,
            )
            response = connection.getresponse()
            return response.status, json.loads(response.read().decode())
        finally:
            connection.close()

    try:
        deadline = time.monotonic() + 300
        while True:
            try:
                status, _ = request("GET", "/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            assert time.monotonic() < deadline, "shards never became healthy"
            time.sleep(0.5)
        # Dashboard page served from whichever shard answers.
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
        try:
            connection.request("GET", "/dashboard")
            response = connection.getresponse()
            assert response.status == 200
            assert b"repro telemetry" in response.read()
        finally:
            connection.close()

        # Force rung 2 on whichever shard answers (no hold: it keeps its
        # vote, so the quorum -- and therefore the peer -- must follow).
        status, payload = request(
            "POST", "/v1/models/resnet18/operating_point", {"level": 2}
        )
        assert status == 200 and payload["level"] == 2

        # Any shard's event stream carries BOTH shards' rung transitions
        # to rung 2: the forced shard's own and the peer's quorum-follow.
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
        try:
            connection.request("GET", "/v1/events")
            response = connection.getresponse()
            assert response.getheader("Content-Type") == "text/event-stream"
            shards_at_two = set()
            event_type = None
            stream_deadline = time.monotonic() + 120
            while shards_at_two != {0, 1}:
                assert time.monotonic() < stream_deadline, (
                    f"only shards {shards_at_two} reached rung 2"
                )
                line = response.readline().decode("utf-8").strip()
                if line.startswith("event: "):
                    event_type = line[len("event: "):]
                elif line.startswith("data: ") and event_type in (
                    "rung_transition", "endpoint_health",
                ):
                    event = json.loads(line[len("data: "):])
                    shard = event["source"].get("shard")
                    level = event["data"].get("to_level",
                                               event["data"].get("level"))
                    if level == 2 and shard is not None:
                        shards_at_two.add(shard)
        finally:
            connection.close()
    finally:
        for process in processes:
            if process.is_alive():
                os.kill(process.pid, signal.SIGTERM)
        for process in processes:
            process.join(timeout=60)
        for process in processes:
            if process.is_alive():  # pragma: no cover - stuck shard
                process.kill()
                process.join()
