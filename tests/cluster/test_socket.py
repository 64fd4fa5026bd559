"""SocketTransport against an in-process ClusterAgent.

One agent thread per test, loopback sockets: the full wire path
(framing, dispatch, document spaces, spool appends, leases, membership)
without any child processes.
"""

import json
import os
import time

import pytest

from repro.cluster.agent import ClusterAgent
from repro.cluster.documents import DocumentStore
from repro.cluster.spool import Event, SpoolFollower
from repro.cluster.transport import (
    CallFailed,
    RemoteSpoolWriter,
    SocketTransport,
    TransportError,
)
from repro.serve.client import RetryPolicy
from repro.serve.sharding import ShardMetricsExchange
from repro.telemetry.coordinator import (
    QoSCoordinator,
    ShardStateChannel,
    recommend_level,
)


@pytest.fixture
def agent(tmp_path):
    spaces = {
        name: str(tmp_path / name)
        for name in ("exchange", "qos", "telemetry")
    }
    agent = ClusterAgent(spaces, node="hub", stale_after_s=5.0)
    agent.start_in_thread()
    yield agent
    agent.stop()


def _transport(agent, **kwargs):
    kwargs.setdefault("node", "t1")
    return SocketTransport(agent.address, **kwargs)


def test_ping_and_hello_meta(agent):
    agent.meta = {"session": "sweep-1", "scale": 2}
    transport = _transport(agent)
    try:
        assert transport.ping()["node"] == "hub"
        hello = transport.hello(info={"slots": 2})
        assert hello["meta"] == {"session": "sweep-1", "scale": 2}
        assert hello["spaces"] == ["exchange", "qos", "telemetry"]
    finally:
        transport.close()


def test_membership_over_the_wire(agent):
    transport = _transport(agent, node="w1", role="worker")
    try:
        transport.hello()
        transport.heartbeat()
        (member,) = transport.members()
        assert member["node"] == "w1"
        assert member["role"] == "worker"
        assert member["pid"] == os.getpid()
        assert agent.roster.is_live("w1")
    finally:
        transport.close()


def test_document_store_over_socket(agent, tmp_path):
    transport = _transport(agent)
    store = DocumentStore(transport, "exchange")
    try:
        assert store.put("shard-0.json", {"x": 1})
        assert store.get("shard-0.json") == {"x": 1}
        assert store.get("missing.json") is None
        assert store.list() == ["shard-0.json"]
        assert store.size("shard-0.json") > 0
        # The space is a plain directory at the agent: bit-compatible.
        with open(tmp_path / "exchange" / "shard-0.json") as handle:
            assert json.load(handle) == {"x": 1}
        store.delete("shard-0.json")
        assert store.list() == []
    finally:
        transport.close()


def test_corrupt_document_counted_across_the_wire(agent, tmp_path):
    (tmp_path / "exchange" / "torn.json").write_text('{"half": ')
    transport = _transport(agent)
    store = DocumentStore(transport, "exchange")
    try:
        assert store.get("torn.json") is None
        assert store.corrupt_documents == 1
    finally:
        transport.close()


def test_agent_refuses_bad_requests_without_dying(agent):
    transport = _transport(agent)
    try:
        with pytest.raises(CallFailed):
            transport.call("no-such-op")
        with pytest.raises(CallFailed):
            transport.doc_put("no-such-space", "a.json", {})
        with pytest.raises(CallFailed):
            transport.doc_put("exchange", "../escape.json", {})
        with pytest.raises(CallFailed):
            transport.spool_append("telemetry", "w.jsonl", ["not json"])
        # The connection (and the agent) survive every refusal.
        assert transport.ping()["node"] == "hub"
        assert agent.errors == 4
    finally:
        transport.close()


def test_remote_spool_writer_feeds_hub_follower(agent, tmp_path):
    transport = _transport(agent)
    writer = RemoteSpoolWriter(transport, "telemetry", role="worker")
    try:
        for n in range(3):
            writer.append(
                Event(type="tick", at=100.0 + n,
                      source={"pid": os.getpid(), "role": "worker"},
                      seq=n, data={"n": n})
            )
        events = SpoolFollower(str(tmp_path / "telemetry")).poll()
        assert [event.data["n"] for event in events] == [0, 1, 2]
        # wseq is stamped client-side and crosses the wire intact.
        assert [event.wseq for event in events] == [1, 2, 3]
        assert str(os.getpid()) in writer.writer_name
    finally:
        transport.close()


def test_lease_flow_over_socket(agent):
    agent.ledger.offer([{"spec": 1}])
    agent.ledger.offer([{"spec": 2}])
    transport = _transport(agent, node="w1", role="worker")
    try:
        transport.hello()
        first = transport.lease_next()["lease"]
        assert first["items"] == [{"spec": 1}]
        assert transport.lease_done(first["lease"], ["k1"])["accepted"]
        second = transport.lease_next()["lease"]
        assert not transport.lease_fail(second["lease"] + 99)["accepted"]
        assert transport.lease_fail(second["lease"])["accepted"]
        assert transport.lease_next()["lease"] is None
        assert agent.ledger.completed_groups == 1
        assert agent.ledger.failed_groups == 1
    finally:
        transport.close()


def test_transport_fails_fast_against_a_dead_port(agent):
    agent.stop()
    transport = SocketTransport(
        agent.address, node="t1",
        retry=RetryPolicy(max_retries=1, base_backoff_ms=1.0,
                          max_backoff_ms=2.0),
        connect_timeout_s=0.5,
    )
    try:
        started = time.monotonic()
        with pytest.raises(TransportError):
            transport.ping()
        assert time.monotonic() - started < 5.0
        assert transport.retries == 1
    finally:
        transport.close()


def test_federated_metrics_exchange(agent):
    """Two 'machines' merge /v1/metrics through one hub agent."""
    transports = [
        _transport(agent, node=f"serve-{index}") for index in range(2)
    ]
    try:
        exchanges = [
            ShardMetricsExchange(
                DocumentStore(transports[index], "exchange"), index, 2
            )
            for index in range(2)
        ]
        exchanges[0].publish({"requests": 3})
        exchanges[1].publish({"requests": 4})
        payloads, sources = exchanges[0].gather_peers()
        assert payloads == [{"requests": 4}]
        assert sources == [
            {"shard": 1, "age_s": pytest.approx(0.0, abs=2.0),
             "stale": False, "reaped": False}
        ]
    finally:
        for transport in transports:
            transport.close()


def test_federated_exchange_reaps_stale_remote_peer(agent):
    transport = _transport(agent, node="serve-0")
    try:
        store = DocumentStore(transport, "exchange")
        exchange = ShardMetricsExchange(store, 0, 2)
        # A peer from another machine that stopped publishing: its pid is
        # unprobeable here, so staleness alone must reap it.
        store.put("shard-1.json", {
            "shard": 1, "pid": 12345, "host": "machine-b",
            "published_at": time.time() - 3600.0,
            "payload": {"requests": 9},
        })
        payloads, sources = exchange.gather_peers()
        assert payloads == []
        assert sources[0]["reaped"] is True
        assert store.list() == []
    finally:
        transport.close()


def test_federated_qos_quorum_max_desire(agent):
    transports = [
        _transport(agent, node=f"serve-{index}") for index in range(2)
    ]
    try:
        channels = [
            ShardStateChannel(
                DocumentStore(transports[index], "qos"), index, 2
            )
            for index in range(2)
        ]
        channels[0].publish({"model": {"desired": 1, "held": False}})
        channels[1].publish({"model": {"desired": 3, "held": False}})
        states = channels[0].gather()
        level, desired = recommend_level(states, "model", num_levels=4)
        assert level == 3  # max-desire across machines
        assert desired == {0: 1, 1: 3}
    finally:
        for transport in transports:
            transport.close()


def test_federated_qos_coordinator_end_to_end(agent):
    transport = _transport(agent, node="serve-0")
    try:
        channel = ShardStateChannel(DocumentStore(transport, "qos"), 0, 2)
        coordinator = QoSCoordinator(
            channel, min_publish_s=0.0, gather_cache_s=0.0
        )
        coordinator.update("model", desired=1, applied=1)
        coordinator.flush()
        # The remote shard wants more degradation.
        DocumentStore(transport, "qos").put("qos-shard-1.json", {
            "shard": 1, "pid": 12345, "host": "machine-b",
            "published_at": time.time(),
            "endpoints": {"model": {"desired": 3, "held": False}},
        })
        assert coordinator.recommendation("model", num_levels=4) == 3
    finally:
        transport.close()
