"""Chaos conformance: disk exhaustion degrades writers, never correctness.

A :class:`~repro.chaos.actors.DiskFiller` squeezes
:class:`~repro.utils.diskbudget.DiskBudget` quotas down to nothing -- the
injectable form of a disk filling up -- against each budgeted writer:

* the telemetry event spool **drops events with a counter** and resumes
  cleanly when the fault lifts;
* the shard metrics exchange **skips publishes with a counter** (peers
  keep merging the previous document until it goes stale, exactly the
  crashed-publisher degradation);
* the sweep results store **refuses persistence with a counter** while
  reads keep serving and the returned payload stays exact (the in-flight
  sweep proceeds; the point is recomputed next session).

In every case the degradation is *explicit* (counted, inspectable) and
*recoverable* (restoring the quota restores the writer with no restart).
"""

from __future__ import annotations

import random

import pytest

from repro.chaos.actors import DiskFiller
from repro.chaos.invariants import InvariantChecker
from repro.cluster.documents import DocumentStore
from repro.utils.diskbudget import DiskBudget

pytestmark = [pytest.mark.chaos]

SEED = 20260808


def test_spool_squeeze_drops_events_with_counters_then_recovers(tmp_path):
    from repro.telemetry.bus import SpoolFollower, TelemetryBus

    bus = TelemetryBus(role="writer")
    budget = DiskBudget(
        str(tmp_path), 256 * 1024, name="spool", rescan_interval_s=0.0
    )
    bus.attach_spool(str(tmp_path), role="writer", budget=budget)
    follower = SpoolFollower(str(tmp_path))
    filler = DiskFiller(random.Random(SEED))
    checker = InvariantChecker()
    try:
        for index in range(5):
            bus.publish("before", index=index)
        checker.check(
            "baseline_delivered", len(follower.poll()) == 5
        )
        filler.squeeze(budget, to_bytes=1)
        for index in range(5):
            bus.publish("during", index=index)
        stats = bus.spool_stats()
        checker.check(
            "drops_counted",
            stats is not None and stats["dropped_events"] >= 5,
            f"spool stats {stats}",
        )
        checker.check(
            "nothing_leaked_past_the_quota",
            len(follower.poll()) == 0,
            "events appeared on disk while squeezed",
        )
        checker.check(
            "budget_degraded_flag", budget.degraded, repr(budget.snapshot())
        )
        restored = filler.restore()
        checker.check("restore_count", restored == 1, f"restored {restored}")
        bus.publish("after")
        delivered = follower.poll()
        checker.check(
            "writer_recovered_without_restart",
            any(event.type == "after" for event in delivered),
            f"delivered {[event.type for event in delivered]}",
        )
        checker.assert_all()
    finally:
        bus.detach_spool()


def test_shard_exchange_skips_over_quota_publishes(tmp_path):
    from repro.serve.sharding import ShardMetricsExchange

    peer = ShardMetricsExchange(
        DocumentStore.for_directory(str(tmp_path)), 1, 2
    )
    peer.publish({"requests": 7})
    budget = DiskBudget(
        str(tmp_path), 1, name="exchange", rescan_interval_s=0.0
    )
    exchange = ShardMetricsExchange(
        DocumentStore.for_directory(str(tmp_path), budget=budget), 0, 2
    )

    exchange.publish({"requests": 1})
    assert exchange.dropped_publishes == 1
    assert not (tmp_path / "shard-0.json").exists()
    # The reader side is unaffected: the peer's document still merges.
    payloads, sources = exchange.gather_peers()
    assert payloads == [{"requests": 7}]
    assert sources[0]["stale"] is False

    # Quota restored: the very next publish lands and the peer sees it.
    budget.set_max_bytes(1 << 20)
    exchange.publish({"requests": 2})
    assert (tmp_path / "shard-0.json").exists()
    peer_view, _sources = peer.gather_peers()
    assert peer_view == [{"requests": 2}]
    assert exchange.dropped_publishes == 1  # no further drops


def test_point_store_refuses_writes_but_keeps_serving_reads(tmp_path):
    from repro.eval.sweep import PointStore, SweepPoint

    store = PointStore("fast", root=tmp_path)
    store_dir = str(store.dir)
    budget = DiskBudget(
        store_dir, 1 << 20, name="points", rescan_interval_s=0.0
    )
    store.budget = budget
    filler = DiskFiller(random.Random(SEED))

    first = SweepPoint.make("unit", model="m", value=1)
    saved = store.save(first, {"acc": 0.5}, "session-a")
    assert store.load(first) == (saved, "session-a")

    filler.squeeze(budget, to_bytes=1)
    second = SweepPoint.make("unit", model="m", value=2)
    refused = store.save(second, {"acc": 0.25}, "session-a")
    # Correctness is preserved: the caller gets the exact normalized
    # payload a store round-trip would have produced, just un-persisted.
    assert refused["acc"] == 0.25
    assert store.refused_writes == 1
    assert store.load(second) is None
    # Reads keep serving through the full disk.
    assert store.load(first) == (saved, "session-a")

    filler.restore()
    assert store.save(second, {"acc": 0.25}, "session-b") == refused
    assert store.load(second) == (refused, "session-b")
    assert store.refused_writes == 1


def test_disk_filler_is_seeded_and_restores_first_squeeze(tmp_path):
    budgets = [
        DiskBudget(str(tmp_path), 1000, name=name) for name in ("a", "b")
    ]
    filler = DiskFiller(random.Random(SEED))
    victim = filler.squeeze_one(budgets)
    assert victim in ("a", "b")
    # Same seed, same candidate set -> same victim.
    assert DiskFiller(random.Random(SEED)).squeeze_one(budgets) == victim
    squeezed = next(b for b in budgets if b.name == victim)
    filler.squeeze(squeezed, to_bytes=7)  # second squeeze: original kept
    assert squeezed.max_bytes == 7
    filler.restore()
    assert squeezed.max_bytes == 1000
