"""Chaos conformance: cross-shard QoS coordination under wedged peers.

A frozen (SIGSTOP) coordinator peer is the nastiest failure mode the
leaderless protocol claims to handle: the pid stays alive, the state
document stays on disk, only the ``published_at`` heartbeat stops.  The
staleness horizon -- not pid liveness -- must evict it from the quorum,
and a thawed peer must rejoin without any explicit recovery step.  A
SIGKILLed peer, by contrast, must drop out *immediately* via pid
liveness, without waiting out the horizon.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import time

import pytest

from repro.chaos.actors import PeerFreezer, ProcessReaper, SpoolCorruptor
from repro.chaos.invariants import InvariantChecker
from repro.cluster.documents import DocumentStore, pid_alive
from repro.eval.parallel import fork_available
from repro.telemetry.coordinator import ShardStateChannel, recommend_level

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.skipif(
        not fork_available(), reason="fork start method unavailable"
    ),
]

ENDPOINT = "m"
NUM_LEVELS = 4
STALE_S = 1.0
PUBLISH_PERIOD_S = 0.1
BOUND_S = 30.0


def _publisher_main(directory, index, shard_count, desired):
    channel = ShardStateChannel(
        DocumentStore.for_directory(directory), index, shard_count
    )
    while True:
        channel.publish(
            {ENDPOINT: {
                "desired": desired,
                "applied": desired,
                "pressure": 0.5,
                "held": False,
            }}
        )
        time.sleep(PUBLISH_PERIOD_S)


def _spawn_publisher(directory, index, shard_count, desired):
    context = multiprocessing.get_context("fork")
    process = context.Process(
        target=_publisher_main,
        args=(directory, index, shard_count, desired),
        daemon=True,
    )
    process.start()
    return process


def _await_recommendation(observer, expected, *, bound_s=BOUND_S):
    """Poll (republishing our own heartbeat) until the quorum's
    recommendation settles at ``expected``; returns the elapsed time or
    fails the bound."""
    started = time.monotonic()
    level = None
    while time.monotonic() - started < bound_s:
        observer.publish(
            {ENDPOINT: {
                "desired": 0, "applied": 0, "pressure": 0.1, "held": False,
            }}
        )
        states = observer.gather(stale_after_s=STALE_S)
        level, _desired = recommend_level(states, ENDPOINT, NUM_LEVELS)
        if level == expected:
            return time.monotonic() - started, level
        time.sleep(0.05)
    return float("inf"), level


def test_frozen_peer_leaves_the_quorum_and_rejoins_on_thaw(tmp_path):
    directory = str(tmp_path)
    observer = ShardStateChannel(DocumentStore.for_directory(directory), 0, 3)
    freezer = PeerFreezer()
    reaper = ProcessReaper(random.Random(0))
    checker = InvariantChecker()
    low = _spawn_publisher(directory, 1, 3, desired=1)
    high = _spawn_publisher(directory, 2, 3, desired=2)
    try:
        elapsed, level = _await_recommendation(observer, 2)
        checker.check_recovered(
            1 if elapsed < BOUND_S else 0, 1, BOUND_S, elapsed,
            name="full_quorum_converges",
        )

        # Freeze the shard pinning the service at rung 2.  Its pid stays
        # alive and its document stays on disk -- only staleness may (and
        # must) evict it.
        assert freezer.freeze(high.pid)
        elapsed, level = _await_recommendation(observer, 1)
        checker.check_recovered(
            1 if elapsed < BOUND_S else 0, 1, BOUND_S, elapsed,
            name="frozen_peer_evicted_by_staleness",
        )
        checker.check(
            "frozen_pid_still_alive", pid_alive(high.pid),
            f"pid {high.pid}",
        )
        checker.check(
            "frozen_document_still_on_disk",
            os.path.exists(os.path.join(directory, "qos-shard-2.json")),
        )

        # Thaw: the peer rejoins by heartbeat alone.
        assert freezer.thaw(high.pid)
        elapsed, level = _await_recommendation(observer, 2)
        checker.check_recovered(
            1 if elapsed < BOUND_S else 0, 1, BOUND_S, elapsed,
            name="thawed_peer_rejoins",
        )

        # SIGKILL the same peer: pid liveness (not the staleness horizon)
        # must evict it, so convergence is prompt even though its last
        # document is still fresh.
        reaper.kill(high.pid)
        high.join(timeout=10)
        elapsed, level = _await_recommendation(observer, 1)
        checker.check_recovered(
            1 if elapsed < BOUND_S else 0, 1, BOUND_S, elapsed,
            name="killed_peer_evicted_by_liveness",
        )
        states = observer.gather(stale_after_s=STALE_S)
        checker.check(
            "killed_shard_absent", 2 not in states,
            f"states {sorted(states)}",
        )
        checker.assert_all()
    finally:
        freezer.thaw_all()
        for process in (low, high):
            if process.is_alive():
                process.kill()
            process.join(timeout=10)


def test_corrupt_shard_document_drops_out_without_crashing(tmp_path):
    """A corrupted state document (disk fault, foreign writer) is counted
    and excluded; the quorum continues on the surviving shards."""
    directory = str(tmp_path)
    observer = ShardStateChannel(DocumentStore.for_directory(directory), 0, 2)
    peer = ShardStateChannel(DocumentStore.for_directory(directory), 1, 2)
    checker = InvariantChecker()
    observer.publish(
        {ENDPOINT: {"desired": 0, "applied": 0, "pressure": 0.1,
                    "held": False}}
    )
    peer.publish(
        {ENDPOINT: {"desired": 3, "applied": 3, "pressure": 0.9,
                    "held": False}}
    )
    level, _ = recommend_level(
        observer.gather(stale_after_s=STALE_S), ENDPOINT, NUM_LEVELS
    )
    checker.check_metrics_exact(level, 3, name="both_shards_counted")

    SpoolCorruptor(random.Random(1)).corrupt_document(
        os.path.join(directory, "qos-shard-1.json")
    )
    states = observer.gather(stale_after_s=STALE_S)
    level, _ = recommend_level(states, ENDPOINT, NUM_LEVELS)
    checker.check_metrics_exact(level, 0, name="corrupt_shard_excluded")
    checker.check(
        "corruption_counted", observer.corrupt_documents == 1,
        f"corrupt_documents {observer.corrupt_documents}",
    )

    # Structurally-wrong-but-valid JSON must be rejected too.
    with open(os.path.join(directory, "qos-shard-1.json"), "w") as handle:
        json.dump(["not", "a", "document"], handle)
    states = observer.gather(stale_after_s=STALE_S)
    checker.check(
        "non_object_document_excluded", 1 not in states,
        f"states {sorted(states)}",
    )
    checker.check(
        "structure_rejection_counted", observer.corrupt_documents == 2,
        f"corrupt_documents {observer.corrupt_documents}",
    )
    checker.assert_all()
