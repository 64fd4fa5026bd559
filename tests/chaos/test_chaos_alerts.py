"""Chaos conformance for the alert engine (PR 9).

Degradation contract: **injected replica loss raises an alert while the
fault is live, and recovery resolves it** -- no flapping, no stuck-firing
alerts -- with the whole lifecycle written to the ring-file history so a
restarted process still sees what happened.

The fault is seeded (same reaper victims every run) and the health
ticker is synchronous, so the fire/resolve sequence is deterministic.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.chaos.actors import ProcessReaper
from repro.chaos.drive import ServingStack, drive_open_loop
from repro.chaos.invariants import InvariantChecker, ResponseLedger
from repro.eval.parallel import fork_available
from repro.serve.server import ServeConfig
from repro.telemetry.alerts import (
    ALERT_EVENT_TYPES,
    AlertEngine,
    AlertHistoryStore,
    AlertRule,
)
from repro.telemetry.bus import TelemetryBus
from tests.chaos.conftest import closed_loop_capacity

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.skipif(
        not fork_available(), reason="fork start method unavailable"
    ),
]

SEED = 20260808
#: Open-loop arrival rate of the healthy warm-up, as a fraction of the
#: stack's measured closed-loop capacity: well below it, so nothing sheds.
WARMUP_LOAD = 0.25


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


def test_replica_loss_fires_an_alert_and_recovery_resolves_it(
    tiny_harness, tiny_provider, tmp_path
):
    stack = _make_stack(tiny_harness, tiny_provider)
    reaper = ProcessReaper(random.Random(SEED))
    checker = InvariantChecker()
    ledger = ResponseLedger()

    bus = TelemetryBus(role="chaos")
    history = AlertHistoryStore(str(tmp_path))
    bus.subscribe(callback=history.record)
    rule = AlertRule(
        name="replica_loss",
        field="dead_workers",
        threshold=1.0,
        clear_threshold=0.5,
        for_s=0.0,       # one bad health tick is enough to fire
        clear_for_s=0.05,  # resolve needs a (briefly) sustained recovery
        cooldown_s=0.0,
        key_fields=("endpoint",),
        severity="critical",
    )
    engine = AlertEngine([rule], publish=bus.publish)
    bus.subscribe(callback=engine.consume)

    def tick():
        # `replica_pids()` only lists *live* worker processes, so the gap
        # to the slot count is the externally observable damage (the
        # pool's own `failed_replicas` stays 0 while respawns succeed).
        health = stack.replica_health()
        dead = max(0, health["replicas"] - len(stack.replica_pids()))
        bus.publish(
            "endpoint_health",
            endpoint=stack.spec.name,
            dead_workers=dead,
            failed_replicas=health["failed_replicas"],
            live_replicas=health["live_replicas"],
            pressure=stack.admission.pressure,
        )

    replica_set = stack.pool.replica_set(stack.spec.name)
    image = stack.images[:1]
    try:
        # -- healthy baseline --------------------------------------------
        # No overload: the warm-up rate is sized from measured capacity.
        capacity = closed_loop_capacity(stack)
        warmup = drive_open_loop(
            stack, rate=WARMUP_LOAD * capacity, duration=0.5, budget_s=10.0,
            ledger=ledger,
        )
        checker.check("warmup_served", warmup["completed"] > 0,
                      f"warmup {warmup}")
        tick()
        checker.check("healthy_baseline_quiet", engine.active() == [],
                      f"active {engine.active()}")

        # -- fault: reap every worker ------------------------------------
        pids = stack.replica_pids()
        checker.check("had_workers", len(pids) >= 2, f"pids {pids}")
        for pid in pids:
            reaper.kill(pid)
        deadline = time.monotonic() + 30.0
        while not engine.active() and time.monotonic() < deadline:
            tick()
            time.sleep(0.01)
        checker.check(
            "alert_fired_during_fault",
            [(a["rule"], a["status"]) for a in engine.active()]
            == [("replica_loss", "firing")],
            f"active {engine.active()}, pids {stack.replica_pids()}",
        )

        # -- recovery: probes heal, the alert must resolve ---------------
        deadline = time.monotonic() + 60.0
        streak = 0
        while (streak < 5 or engine.active()) and \
                time.monotonic() < deadline:
            try:
                replica_set.infer(image)
            except RuntimeError:
                streak = 0
                tick()
                continue
            streak += 1
            tick()
        health = stack.replica_health()
        checker.check(
            "replicas_recovered",
            health["live_replicas"] == health["replicas"]
            and not health["degraded"],
            f"health {health}",
        )
        checker.check("alert_resolved_after_recovery",
                      engine.active() == [], f"active {engine.active()}")
        checker.check(
            "one_clean_cycle",
            engine.fired_total == 1 and engine.resolved_total == 1,
            f"fired {engine.fired_total} resolved {engine.resolved_total}",
        )

        # -- ring-file history survives a restart ------------------------
        history.close()
        replayed = AlertHistoryStore(str(tmp_path))
        events = replayed.load()
        lifecycle = [
            (e.data["rule"], e.data["status"])
            for e in events
            if e.type in ALERT_EVENT_TYPES
        ]
        checker.check(
            "history_has_the_full_lifecycle",
            lifecycle == [("replica_loss", "firing"),
                          ("replica_loss", "resolved")],
            f"lifecycle {lifecycle}",
        )
        checker.check(
            "history_kept_health_context",
            any(e.type == "endpoint_health" for e in events),
            f"types {[e.type for e in events]}",
        )
        replayed.close()
        checker.assert_all()
    finally:
        stack.close()
