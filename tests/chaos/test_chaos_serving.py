"""Chaos conformance: the in-process serving stack under process churn.

The real data path (warm forked replicas -> dynamic batcher -> admission)
is driven open-loop while a seeded reaper SIGKILLs workers out from under
it.  The contract proved here is the serving stack's central robustness
claim: **every admitted request gets exactly one response or one explicit
error** -- kills may fail individual batches, but nothing is lost, nothing
is double-counted, and the stack recovers to full health by respawning.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.chaos.actors import ProcessReaper, SpoolCorruptor
from repro.chaos.drive import ServingStack, drive_open_loop
from repro.chaos.invariants import InvariantChecker, ResponseLedger
from repro.chaos.schedule import ChaosSchedule
from repro.eval.parallel import fork_available
from repro.serve.server import ServeConfig
from tests.chaos.conftest import closed_loop_capacity

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.skipif(
        not fork_available(), reason="fork start method unavailable"
    ),
]

SEED = 20260808
#: Open-loop arrival rate of the overload phase, in multiples of the
#: stack's measured closed-loop capacity.
OVERLOAD_FACTOR = 3.0
#: Open-loop arrival rate of the fault-free recovery phase, as a fraction
#: of the same measured capacity: well below it, so nothing queues up.
RECOVERY_LOAD = 0.25


def _make_stack(tiny_harness, tiny_provider, **overrides):
    params = dict(
        config=ServeConfig(fork_workers=2),
        threads=2,
        max_batch=8,
        max_pending=32,
        provider=tiny_provider,
        images=tiny_harness.eval_images,
    )
    params.update(overrides)
    return ServingStack(**params)


def _await_recovery(stack, checker, *, bound_s=60.0, probes=5):
    """Alert-free recovery: after the faults stop, fresh probes must all
    succeed within the bound (respawns happen lazily on dispatch, so the
    probes themselves drive the healing)."""
    replica_set = stack.pool.replica_set(stack.spec.name)
    image = stack.images[:1]
    started = time.monotonic()
    streak = 0
    while streak < probes and time.monotonic() - started < bound_s:
        try:
            replica_set.infer(image)
        except RuntimeError:
            streak = 0  # hit a corpse; the dispatch respawned its slot
            continue
        streak += 1
    elapsed = time.monotonic() - started
    checker.check_recovered(streak, probes, bound_s, elapsed)
    health = stack.replica_health()
    checker.check(
        "all_replicas_live",
        health["live_replicas"] == health["replicas"]
        and not health["degraded"],
        f"health after recovery: {health}",
    )


def test_replica_kills_mid_traffic_keep_the_ledger_exact(
    tiny_harness, tiny_provider
):
    stack = _make_stack(tiny_harness, tiny_provider)
    reaper = ProcessReaper(random.Random(SEED))
    ledger = ResponseLedger()
    checker = InvariantChecker()
    schedule = ChaosSchedule(seed=SEED)
    schedule.every(
        0.3,
        "reap-replica",
        lambda: reaper.reap(stack.replica_pids()),
        until_s=1.2,
        jitter_s=0.1,
    )
    try:
        chaos_thread = schedule.run_in_thread()
        summary = drive_open_loop(
            stack, rate=80.0, duration=1.6, budget_s=10.0, ledger=ledger
        )
        schedule.stop()
        chaos_thread.join(timeout=30)

        checker.check("kills_landed", len(reaper.killed) >= 1,
                      f"killed {reaper.killed}")
        checker.check_ledger(ledger)
        counts = ledger.counts()
        checker.check(
            "every_offer_accounted",
            counts["offered"] == counts["shed"] + counts["resolved"],
            f"counts {counts}",
        )
        checker.check(
            "served_through_churn", summary["completed"] > 0,
            f"drive summary {summary}",
        )
        _await_recovery(stack, checker)
        checker.check(
            "kills_were_respawned",
            stack.replica_health()["total_respawns"] >= len(reaper.killed),
            f"health {stack.replica_health()} after kills {reaper.killed}",
        )
        checker.assert_all()
    finally:
        stack.close()


def test_killing_every_worker_at_once_is_survivable(
    tiny_harness, tiny_provider
):
    """Total worker loss: in-flight batches error explicitly, the free
    list never wedges, and dispatch respawns the whole set back."""
    stack = _make_stack(tiny_harness, tiny_provider)
    reaper = ProcessReaper(random.Random(SEED))
    ledger = ResponseLedger()
    checker = InvariantChecker()
    try:
        warmup = drive_open_loop(
            stack, rate=40.0, duration=0.5, budget_s=10.0, ledger=ledger
        )
        checker.check("warmup_served", warmup["completed"] > 0,
                      f"warmup {warmup}")
        pids = stack.replica_pids()
        checker.check("had_workers", len(pids) >= 2, f"pids {pids}")
        for pid in pids:
            reaper.kill(pid)
        under_fault = drive_open_loop(
            stack, rate=40.0, duration=0.8, budget_s=10.0, ledger=ledger
        )
        checker.check_ledger(ledger)
        checker.check(
            "no_silent_drops",
            under_fault["completed"] + under_fault["errored"]
            + under_fault["shed"] == under_fault["offered"],
            f"under_fault {under_fault}",
        )
        _await_recovery(stack, checker)
        checker.check(
            "fresh_workers_forked",
            set(stack.replica_pids()) and
            not (set(stack.replica_pids()) & set(pids)),
            f"old {pids} new {stack.replica_pids()}",
        )
        checker.assert_all()
    finally:
        stack.close()


def test_deadline_expiry_under_overload_keeps_the_ledger_exact(
    tiny_harness, tiny_provider
):
    """Mixed-deadline overload: requests whose deadline passes in the
    queue are cancelled *before* compute with an explicit
    ``deadline_exceeded`` answer -- the ledger's ``expired`` outcome --
    never silently dropped, and deadline-free traffic still completes.

    The overload is relative to the host's speed: arrivals come at a
    fixed multiple of the capacity a short closed-loop drive measures
    first."""
    stack = _make_stack(
        tiny_harness, tiny_provider, config=ServeConfig(), max_pending=64
    )
    ledger = ResponseLedger()
    checker = InvariantChecker()
    try:
        capacity = closed_loop_capacity(stack)
        summary = drive_open_loop(
            stack,
            rate=OVERLOAD_FACTOR * capacity,
            duration=1.5,
            budget_s=30.0,
            ledger=ledger,
            # Every other request carries a deadline far too tight for an
            # overloaded queue; the rest are deadline-free.
            deadline_ms=lambda index: 1.0 if index % 2 else None,
        )
        checker.check_ledger(ledger)
        counts = ledger.counts()
        checker.check(
            "expiries_ledgered",
            counts["expired"] > 0 and counts["expired"] == summary["expired"],
            f"ledger {counts}, drive {summary}",
        )
        checker.check(
            "every_offer_accounted",
            counts["offered"] == counts["shed"] + counts["resolved"],
            f"counts {counts}",
        )
        checker.check(
            "expired_before_compute",
            stack.batcher.expired_requests == counts["expired"],
            f"batcher expired {stack.batcher.expired_requests}, "
            f"ledger {counts['expired']}",
        )
        checker.check(
            "deadline_free_traffic_completed",
            summary["completed"] > 0,
            f"drive summary {summary}",
        )
        # Fault-free recovery: without deadlines everything admitted
        # completes again.
        recovery = drive_open_loop(
            stack, rate=RECOVERY_LOAD * capacity, duration=1.0, budget_s=30.0,
            ledger=ledger,
        )
        checker.check_recovered(
            recovery["completed"], recovery["admitted"], 30.0,
            recovery["elapsed_s"],
        )
        checker.check_ledger(ledger, name="ledger_exact_after_recovery")
        checker.assert_all()
    finally:
        stack.close()


def test_spool_corruption_between_polls_does_not_break_the_follower(
    tmp_path
):
    """A corruptor damages the live telemetry spool between polls; the
    follower skips the damage, counts it, and keeps delivering the events
    published after each damaged window.

    Per-mode expectations: ``tear`` merges the *next* published line into
    one corrupt line (that event is lost, later ones flow); ``garbage``
    and ``non_event`` cost exactly their own line; ``truncate`` below the
    follower's offset makes it re-read from the start (duplicates are
    possible, crashes and silent stalls are not).
    """
    from repro.telemetry.bus import SpoolFollower, TelemetryBus

    bus = TelemetryBus(role="writer")
    bus.attach_spool(str(tmp_path), role="writer")
    corruptor = SpoolCorruptor(random.Random(SEED))
    follower = SpoolFollower(str(tmp_path))
    checker = InvariantChecker()
    try:
        for index in range(3):
            bus.publish("baseline", index=index)
        assert len(follower.poll()) == 3
        for round_index, mode in enumerate(
            ("tear", "garbage", "non_event", "truncate")
        ):
            hit = corruptor.corrupt_spool(str(tmp_path), mode)
            checker.check(f"{mode}_landed", hit is not None, repr(hit))
            bus.publish("during", mode=mode, index=round_index)
            bus.publish("after", mode=mode, index=round_index)
            delivered = follower.poll()
            if not any(
                event.type == "after" and event.data["mode"] == mode
                for event in delivered
            ):
                # The damaged window swallowed the markers (truncation can
                # regrow the file past the follower's offset, hiding the
                # shrink).  Resync-at-next-newline still holds: the next
                # complete line must flow.
                bus.publish("rescue", mode=mode, index=round_index)
                delivered = follower.poll()
                checker.check(
                    f"{mode}_resynced",
                    any(event.type == "rescue"
                        and event.data["mode"] == mode
                        for event in delivered),
                    f"after {mode}: {[event.type for event in delivered]}",
                )
            else:
                checker.check(f"{mode}_resynced", True)
        stats = follower.stats()
        checker.check(
            "damage_was_counted", stats["corrupt_lines"] >= 3, f"{stats}"
        )
        bus.publish("final")
        checker.check(
            "still_following",
            any(event.type == "final" for event in follower.poll()),
        )
        checker.assert_all()
    finally:
        bus.detach_spool()
