"""Chaos conformance for the cluster substrate.

A real remote worker process is killed (or partitioned) mid-lease: the
hub must recycle the lease and the parent must recompute the leftovers,
producing the exact payloads a serial run would.  A federated QoS quorum
must re-converge when a peer machine drops out.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import multiprocessing

import pytest

from repro.cluster.agent import ClusterAgent
from repro.cluster.documents import DocumentStore
from repro.cluster.transport import SocketTransport
from repro.cluster.worker import SweepHub
from repro.eval.parallel import fork_available
from repro.eval.sweep import (
    SweepPoint,
    SweepSession,
    point_runner,
    run_sweep,
)
from repro.telemetry.coordinator import ShardStateChannel, recommend_level

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.skipif(
        not fork_available(), reason="fork start method unavailable"
    ),
]


@point_runner("chaos-block")
def _chaos_block(ctx, point):
    # Parks the evaluating process while the flag file exists, so the
    # test can kill/partition the worker at a known place.
    flag = point.param("flag")
    while flag and os.path.exists(flag):
        time.sleep(0.05)
    x = point.param("x")
    return {"x": x, "double": 2 * x}


def _points(flag: str):
    return [
        SweepPoint.make("chaos-block", None, x=0, flag=flag),
        SweepPoint.make("chaos-block", None, x=1, flag=""),
        SweepPoint.make("chaos-block", None, x=2, flag=""),
    ]


def _worker_main(address):
    from repro.cluster.worker import RemoteWorker

    RemoteWorker(address, node="chaos-worker", max_idle_s=10.0).run()


def _run_sweep_in_thread(points, session):
    result: dict = {}

    def run():
        result["payloads"] = run_sweep(points, session=session)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, result


def _wait_for_lease(hub, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if hub.agent.ledger.leased() > 0:
            return
        time.sleep(0.02)
    raise AssertionError("no worker ever leased the group")


def _serial_payloads(points, tmp_path):
    serial = SweepSession(
        scale="fast", workers=1, store_root=str(tmp_path / "serial-store")
    )
    return run_sweep(points, session=serial)


def test_killed_worker_lease_recycles_and_parent_recomputes(tmp_path):
    flag = tmp_path / "hold"
    flag.touch()
    points = _points(str(flag))
    session = SweepSession(
        scale="fast", workers=1, store_root=str(tmp_path / "store")
    )
    hub = SweepHub.create(session, listen="127.0.0.1:0", connect_grace_s=60.0)
    session.hub = hub
    worker = multiprocessing.get_context("fork").Process(
        target=_worker_main, args=(hub.address,), daemon=True
    )
    worker.start()
    try:
        thread, result = _run_sweep_in_thread(points, session)
        _wait_for_lease(hub)
        # SIGKILL while the worker is parked inside the first point.
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=10.0)
        flag.unlink()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
    finally:
        hub.close()
        if worker.is_alive():
            worker.kill()
            worker.join(timeout=10.0)

    # The dead node's lease was recycled, nothing completed remotely,
    # and the parent's serial recompute produced the exact payloads.
    assert hub.agent.ledger.recycled_leases >= 1
    assert hub.agent.ledger.completed_groups == 0
    assert result["payloads"] == _serial_payloads(points, tmp_path)


def test_partitioned_worker_goes_stale_and_parent_recomputes(tmp_path):
    flag = tmp_path / "hold"
    flag.touch()
    points = _points(str(flag))
    session = SweepSession(
        scale="fast", workers=1, store_root=str(tmp_path / "store")
    )
    # A partitioned node's pid may well be alive; only heartbeat
    # staleness can evict it.  Tight horizon so the test converges fast.
    hub = SweepHub.create(
        session, listen="127.0.0.1:0", connect_grace_s=60.0,
        stale_after_s=1.0,
    )
    session.hub = hub
    worker = multiprocessing.get_context("fork").Process(
        target=_worker_main, args=(hub.address,), daemon=True
    )
    worker.start()
    try:
        thread, result = _run_sweep_in_thread(points, session)
        _wait_for_lease(hub)
        # SIGSTOP: the process stays alive (a live local pid!) but its
        # heartbeats stop -- the network-partition analogue.
        os.kill(worker.pid, signal.SIGSTOP)
        flag.unlink()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
    finally:
        hub.close()
        try:
            os.kill(worker.pid, signal.SIGCONT)
        except ProcessLookupError:
            pass
        worker.kill()
        worker.join(timeout=10.0)

    assert hub.agent.ledger.recycled_leases >= 1
    assert result["payloads"] == _serial_payloads(points, tmp_path)


def test_federated_quorum_reconverges_after_peer_machine_loss(tmp_path):
    agent = ClusterAgent({"qos": str(tmp_path / "qos")}, node="hub")
    agent.start_in_thread()
    transport = SocketTransport(agent.address, node="serve-0")
    try:
        channel = ShardStateChannel(DocumentStore(transport, "qos"), 0, 2)
        channel.publish({"model": {"desired": 1, "held": False}})
        # A peer machine in the quorum, wanting deeper degradation.
        DocumentStore(transport, "qos").put("qos-shard-1.json", {
            "shard": 1, "pid": 12345, "host": "machine-b",
            "published_at": time.time(),
            "endpoints": {"model": {"desired": 3, "held": False}},
        })
        level, desired = recommend_level(
            channel.gather(stale_after_s=0.6), "model", num_levels=4
        )
        assert level == 3
        assert desired == {0: 1, 1: 3}

        # The peer machine drops off the network: no more heartbeats.
        # Past the horizon the quorum re-converges on the survivor.
        time.sleep(0.8)
        channel.publish({"model": {"desired": 1, "held": False}})
        level, desired = recommend_level(
            channel.gather(stale_after_s=0.6), "model", num_levels=4
        )
        assert level == 1
        assert desired == {0: 1}
    finally:
        transport.close()
        agent.stop()
