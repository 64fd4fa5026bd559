"""Chaos conformance: the sharded HTTP front end losing a whole shard.

A two-shard ``SO_REUSEPORT`` deployment takes real traffic, then one
shard is SIGKILLed mid-flight.  The merged ``/v1/metrics`` view must stay
**exact** -- the dead shard's last published counters keep contributing
until the staleness horizon passes, after which its spool is reaped from
disk -- and the surviving shard must keep serving every new connection.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import random
import signal
import time

import pytest

from repro.chaos.actors import ProcessReaper
from repro.chaos.invariants import InvariantChecker
from repro.cluster.documents import METRICS_STALE_AFTER_S
from repro.eval.parallel import fork_available
from repro.serve import server as serve_server
from repro.serve import sharding
from repro.serve.server import ServeConfig

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.skipif(
        not sharding.reuseport_supported(), reason="SO_REUSEPORT unavailable"
    ),
    pytest.mark.skipif(
        not fork_available(), reason="fork start method unavailable"
    ),
]


def test_shard_kill_keeps_merged_metrics_exact(tmp_path, monkeypatch):
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

    def fetch(path, timeout=60):
        connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=timeout
        )
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read().decode())
        finally:
            connection.close()

    def shard_ready(index):
        """Shard ``index`` publishes its metrics document only once its
        listener is up, every 0.2s -- existence + freshness means the
        shard is accepting connections (``/healthz`` alone only proves
        whichever single shard the kernel routed that connection to)."""
        path = tmp_path / f"shard-{index}.json"
        try:
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            return False
        return time.time() - float(document.get("published_at", 0.0)) < 5.0

    checker = InvariantChecker()
    reaper = ProcessReaper(random.Random(4))
    try:
        deadline = time.monotonic() + 300
        while True:
            try:
                status, _payload = fetch("/healthz", timeout=10)
                if status == 200 and all(
                    shard_ready(index) for index in range(shards)
                ):
                    break
            except OSError:
                pass
            assert time.monotonic() < deadline, "shards never became healthy"
            time.sleep(0.5)

        from repro.models.zoo import load_dataset

        images = load_dataset(fast=True).val_images[:4]

        def predict_batch(count):
            ok = 0
            for index in range(count):
                connection = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=60
                )
                try:
                    status, _payload = predict_once(
                        connection, "resnet18",
                        images[index % images.shape[0]],
                    )
                finally:
                    connection.close()
                if status == 200:
                    ok += 1
            return ok

        before_kill = predict_batch(8)
        checker.check_metrics_exact(
            before_kill, 8, name="pre_kill_requests_served"
        )
        # Let BOTH shards publish counters covering every request above,
        # so the victim's last document is complete when it dies.
        time.sleep(1.0)

        victim = reaper.reap([process.pid for process in processes])
        checker.check("a_shard_was_killed", victim is not None, str(victim))
        dead = next(
            process for process in processes if process.pid == victim
        )
        dead.join(timeout=30)
        checker.check(
            "victim_is_down", not dead.is_alive(), f"pid {victim}"
        )

        # The kernel drops the dead listener from the reuseport group:
        # every new connection lands on the survivor.
        after_kill = predict_batch(6)
        checker.check_metrics_exact(
            after_kill, 6, name="survivor_serves_all_new_connections"
        )
        time.sleep(1.0)  # survivor publishes its final counters

        # Merged view: survivor's live counters + the dead shard's last
        # (fresh, not yet stale) document == every client success.  Not
        # one request lost, not one double-merged.
        status, merged = fetch("/v1/metrics")
        checker.check_metrics_exact(status, 200, name="metrics_route_up")
        endpoint = merged["endpoints"]["resnet18"]
        checker.check_metrics_exact(
            endpoint["requests"], before_kill + after_kill,
            name="merged_requests_exact_across_kill",
        )
        checker.check_metrics_exact(
            endpoint["images"], before_kill + after_kill,
            name="merged_images_exact_across_kill",
        )

        # Push the dead shard's document past the staleness horizon (the
        # test stands in for the wall-clock wait): the next merge must
        # drop it AND reap the file from disk.
        dead_index = processes.index(dead)
        dead_spool = tmp_path / f"shard-{dead_index}.json"
        with open(dead_spool, encoding="utf-8") as handle:
            document = json.load(handle)
        document["published_at"] = time.time() - 2 * METRICS_STALE_AFTER_S
        with open(dead_spool, "w", encoding="utf-8") as handle:
            json.dump(document, handle)

        survivor_requests = before_kill + after_kill - int(
            document["payload"]["endpoints"]["resnet18"]["requests"]
        )
        status, merged = fetch("/v1/metrics")
        endpoint = merged["endpoints"]["resnet18"]
        checker.check_metrics_exact(
            endpoint["requests"], survivor_requests,
            name="stale_dead_shard_excluded_from_merge",
        )
        checker.check_reaped([str(dead_spool)])
        checker.check(
            "survivor_spool_kept",
            (tmp_path / f"shard-{1 - dead_index}.json").exists(),
        )
        checker.assert_all()
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
