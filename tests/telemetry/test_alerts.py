"""Alert engine: rule lifecycle, sinks, and ring-file history."""

from __future__ import annotations

import http.server
import json
import os
import threading

import pytest

from repro.telemetry.alerts import (
    ALERT_EVENT_TYPES,
    AlertEngine,
    AlertHistoryStore,
    AlertRule,
    WebhookSink,
    default_rules,
    probe_rule,
)
from repro.telemetry.bus import Event, SpoolWriter, TelemetryBus


def event(type, at=0.0, source=None, seq=0, **data):
    return Event(type, at=at, source=source or {"pid": 1}, seq=seq, data=data)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


RULE = AlertRule(
    name="overload",
    field="pressure",
    threshold=0.9,
    clear_threshold=0.5,
    for_s=1.0,
    clear_for_s=1.0,
    cooldown_s=2.0,
)


def engine_with(rule=RULE, **kwargs):
    clock = FakeClock()
    return AlertEngine([rule], clock=clock, **kwargs), clock


# ---------------------------------------------------------------------------
# Rule lifecycle
# ---------------------------------------------------------------------------


def test_fire_requires_sustained_breach_then_resolves():
    engine, clock = engine_with()
    assert engine.consume(event("endpoint_health",
                                endpoint="e", pressure=0.95)) == []
    clock.now = 0.5  # breached, but not for for_s yet
    assert engine.consume(event("endpoint_health",
                                endpoint="e", pressure=0.95)) == []
    clock.now = 1.0
    fired = engine.consume(event("endpoint_health",
                                 endpoint="e", pressure=0.97))
    assert [a["status"] for a in fired] == ["firing"]
    assert fired[0]["rule"] == "overload" and fired[0]["key"] == "e"
    assert engine.active() and engine.fired_total == 1
    # Clear streak starts; resolve only after clear_for_s (and cooldown).
    clock.now = 3.0
    assert engine.consume(event("endpoint_health",
                                endpoint="e", pressure=0.1)) == []
    clock.now = 4.0
    resolved = engine.consume(event("endpoint_health",
                                    endpoint="e", pressure=0.1))
    assert [a["status"] for a in resolved] == ["resolved"]
    assert resolved[0]["duration_s"] == pytest.approx(3.0)
    assert engine.active() == [] and engine.resolved_total == 1


def test_dead_band_resets_both_streaks():
    engine, clock = engine_with()
    for step in range(8):
        clock.now = 0.6 * step
        # Alternate breach / dead-band: the breach streak never reaches
        # for_s=1.0 continuously, so the rule must never fire.
        pressure = 0.95 if step % 2 == 0 else 0.7
        assert engine.consume(
            event("endpoint_health", endpoint="e", pressure=pressure)
        ) == []
    assert engine.fired_total == 0


def test_cooldown_blocks_refire():
    rule = AlertRule(name="r", field="v", threshold=1.0, for_s=0.0,
                     clear_for_s=0.0, cooldown_s=5.0, key_fields=())
    engine, clock = engine_with(rule)
    assert engine.consume(event("endpoint_health", v=2.0))[0]["status"] == \
        "firing"
    clock.now = 1.0
    assert engine.consume(event("endpoint_health", v=0.0)) == []  # cooldown
    clock.now = 5.0
    assert engine.consume(event("endpoint_health", v=0.0))[0]["status"] == \
        "resolved"
    clock.now = 6.0
    assert engine.consume(event("endpoint_health", v=2.0)) == []  # cooldown
    clock.now = 10.0
    assert engine.consume(event("endpoint_health", v=2.0))[0]["status"] == \
        "firing"
    assert engine.fired_total == 2


def test_dedup_keys_are_independent():
    engine, clock = engine_with()
    clock.now = 0.0
    engine.consume(event("endpoint_health", endpoint="a", pressure=0.95))
    engine.consume(event("endpoint_health", endpoint="b", pressure=0.1))
    clock.now = 1.0
    fired = engine.consume(event("endpoint_health",
                                 endpoint="a", pressure=0.95))
    assert [a["key"] for a in fired] == ["a"]
    active = engine.active()
    assert [(a["rule"], a["key"]) for a in active] == [("overload", "a")]


def test_divide_by_ratio_and_missing_fields():
    rule = AlertRule(name="slo", field="recent_p99_ms",
                     divide_by="latency_budget_ms", threshold=1.0,
                     for_s=0.0, cooldown_s=0.0)
    engine, clock = engine_with(rule)
    # Missing denominator / zero denominator / missing field: no evaluation.
    assert engine.consume(event("endpoint_health", endpoint="e",
                                recent_p99_ms=50.0)) == []
    assert engine.consume(event("endpoint_health", endpoint="e",
                                recent_p99_ms=50.0,
                                latency_budget_ms=0.0)) == []
    assert engine.consume(event("endpoint_health", endpoint="e")) == []
    fired = engine.consume(event("endpoint_health", endpoint="e",
                                 recent_p99_ms=150.0,
                                 latency_budget_ms=100.0))
    assert fired and fired[0]["value"] == pytest.approx(1.5)


def test_below_rule_and_dotted_path():
    rule = AlertRule(name="starved", field="replicas.live", threshold=1.0,
                     below=True, clear_threshold=2.0, for_s=0.0,
                     clear_for_s=0.0, cooldown_s=0.0)
    engine, clock = engine_with(rule)
    fired = engine.consume(event("endpoint_health", endpoint="e",
                                 replicas={"live": 0}))
    assert fired[0]["status"] == "firing"
    clock.now = 1.0
    # 2 is not *strictly above* clear_threshold=2.0: dead band, no resolve.
    assert engine.consume(event("endpoint_health", endpoint="e",
                                replicas={"live": 2})) == []
    resolved = engine.consume(event("endpoint_health", endpoint="e",
                                    replicas={"live": 3}))
    assert resolved[0]["status"] == "resolved"


def test_rule_validation_and_from_dict_roundtrip():
    with pytest.raises(ValueError):
        AlertRule(name="bad", event_type="alert_fired")
    with pytest.raises(ValueError):
        AlertRule(name="bad", threshold=1.0, clear_threshold=2.0)
    with pytest.raises(ValueError):
        AlertRule(name="bad", below=True, threshold=2.0, clear_threshold=1.0)
    with pytest.raises(ValueError):
        AlertRule.from_dict({"name": "x", "not_a_field": 1})
    for rule in default_rules() + [probe_rule(1.0)]:
        clone = AlertRule.from_dict(json.loads(json.dumps(rule.describe())))
        assert clone == rule


def test_default_count_rules_resolve_from_zero():
    """Integer-count rules (failed replicas, probe failures, corruption
    deltas) must resolve once the count returns to exactly zero."""
    by_name = {rule.name: rule for rule in default_rules()}
    rule = by_name["replica_failed"]
    engine, clock = engine_with(rule)
    fired = engine.consume(event("endpoint_health", endpoint="e",
                                 replicas={"failed": 1}))
    assert fired and fired[0]["status"] == "firing"
    clock.now = rule.cooldown_s + 0.1
    engine.consume(event("endpoint_health", endpoint="e",
                         replicas={"failed": 0}))
    clock.now += rule.clear_for_s + 0.1
    resolved = engine.consume(event("endpoint_health", endpoint="e",
                                    replicas={"failed": 0}))
    assert resolved and resolved[0]["status"] == "resolved"
    assert probe_rule(1.0).cleared(0.0)
    assert by_name["spool_corruption"].cleared(0.0)


def test_duplicate_rule_names_rejected():
    with pytest.raises(ValueError):
        AlertEngine([RULE, RULE])
    engine, _ = engine_with()
    with pytest.raises(ValueError):
        engine.add_rule(RULE)


# ---------------------------------------------------------------------------
# Bus integration (lifecycle events + relay recursion safety)
# ---------------------------------------------------------------------------


def test_engine_publishes_lifecycle_through_relay_without_recursion():
    from repro.telemetry.dashboard import EventRelay

    bus = TelemetryBus(role="test")
    relay = EventRelay(local_bus=bus)
    rule = AlertRule(name="r", field="v", threshold=1.0, for_s=0.0,
                     clear_for_s=0.0, cooldown_s=0.0, key_fields=())
    engine = AlertEngine([rule], publish=bus.publish, clock=FakeClock())
    relay.add_consumer(engine.consume)
    seen = []
    bus.subscribe(
        callback=lambda e: seen.append(e) if e.type in ALERT_EVENT_TYPES
        else None
    )
    bus.publish("endpoint_health", v=2.0)
    bus.publish("endpoint_health", v=0.0)
    assert [e.type for e in seen] == ["alert_fired", "alert_resolved"]
    # The aggregator folded the lifecycle into its snapshot.
    alerts = relay.snapshot()["alerts"]
    assert alerts["fired"] == 1 and alerts["resolved"] == 1
    assert alerts["active"] == []


def test_sink_errors_never_break_consumption():
    calls = []

    def bad_sink(alert):
        calls.append(alert)
        raise RuntimeError("sink exploded")

    rule = AlertRule(name="r", field="v", threshold=1.0, for_s=0.0,
                     cooldown_s=0.0, key_fields=())
    engine = AlertEngine([rule], sinks=[bad_sink], clock=FakeClock())
    fired = engine.consume(event("endpoint_health", v=2.0))
    assert fired and calls


# ---------------------------------------------------------------------------
# Webhook sink
# ---------------------------------------------------------------------------


class _Receiver(http.server.BaseHTTPRequestHandler):
    fail_first = 0

    def do_POST(self):  # noqa: N802 - stdlib naming
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length))
        server = self.server
        if server.failures_left > 0:
            server.failures_left -= 1
            self.send_response(500)
            self.end_headers()
            return
        server.received.append(body)
        self.send_response(200)
        self.end_headers()

    def log_message(self, *args):  # pragma: no cover - silence
        pass


@pytest.fixture
def receiver():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Receiver)
    server.received = []
    server.failures_left = 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def _wait_for(predicate, timeout_s=10.0):
    import time

    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def test_webhook_sink_delivers_and_retries(receiver):
    url = f"http://127.0.0.1:{receiver.server_address[1]}/alerts"
    sink = WebhookSink(url, sleep=lambda seconds: None)
    receiver.failures_left = 2  # first two attempts 500, then succeed
    sink({"rule": "r", "key": "k", "status": "firing"})
    # Wait on the sink's own count: the receiver records the body before
    # it replies, so `received` can fill while `delivered` is still 0.
    assert _wait_for(lambda: sink.stats()["delivered"] == 1)
    assert receiver.received[0]["rule"] == "r"
    stats = sink.stats()
    assert stats["delivered"] == 1 and stats["attempts"] == 3
    sink.close()


def test_webhook_sink_counts_terminal_failures(receiver):
    url = f"http://127.0.0.1:{receiver.server_address[1]}/alerts"
    sink = WebhookSink(url, sleep=lambda seconds: None)
    receiver.failures_left = 10**6  # never succeeds
    sink({"rule": "r", "key": "k", "status": "firing"})
    assert _wait_for(lambda: sink.stats()["failed"] == 1)
    assert receiver.received == []
    sink.close()


# ---------------------------------------------------------------------------
# History ring + restart survival
# ---------------------------------------------------------------------------


def test_history_store_filters_and_replays(tmp_path):
    store = AlertHistoryStore(str(tmp_path))
    store.record(event("endpoint_health", at=1.0, endpoint="e", pressure=0.5))
    store.record(event("batch_served", at=2.0, endpoint="e"))  # not persisted
    store.record(event("alert_fired", at=3.0, rule="r", key="e",
                       status="firing"))
    events = store.load(compact=False)
    assert [e.type for e in events] == ["endpoint_health", "alert_fired"]
    store.close()


def test_alert_history_survives_restart(tmp_path):
    bus = TelemetryBus(role="serve")
    store = AlertHistoryStore(str(tmp_path))
    bus.subscribe(callback=store.record)
    rule = AlertRule(name="r", field="v", threshold=1.0, for_s=0.0,
                     cooldown_s=0.0, key_fields=("endpoint",))
    engine = AlertEngine([rule], publish=bus.publish, clock=FakeClock(),
                         store=store)
    bus.subscribe(callback=engine.consume, types=["endpoint_health"])
    bus.publish("endpoint_health", endpoint="e", v=5.0)
    assert engine.active()
    assert engine.fired_total == 1
    store.close()

    # -- restart: a new process replays the ring --------------------------
    store2 = AlertHistoryStore(str(tmp_path))
    engine2 = AlertEngine([rule], clock=FakeClock(), store=store2)
    replayed = store2.load()
    imported = [dict(e.data) for e in replayed
                if e.type in ALERT_EVENT_TYPES]
    engine2.import_history(imported)
    assert engine2.fired_total == 1  # from the state document
    active = engine2.active()
    assert [(a["rule"], a["key"]) for a in active] == [("r", "e")]
    store2.close()


def test_history_compacts_dead_writers_exactly_once(tmp_path):
    # A file left by a dead writer (pid that cannot exist).
    dead = tmp_path / "history-999999999.jsonl"
    lines = [
        event("endpoint_health", at=1.0, source={"pid": 999999999},
              endpoint="e", pressure=0.4).to_json(),
        event("alert_fired", at=2.0, source={"pid": 999999999},
              rule="r", key="e", status="firing").to_json(),
    ]
    dead.write_text("".join(line + "\n" for line in lines))

    store = AlertHistoryStore(str(tmp_path))
    events = store.load()
    assert [e.type for e in events] == ["endpoint_health", "alert_fired"]
    assert not dead.exists()  # folded into this process's ring
    store.close()

    # Next restart still sees each event exactly once.
    store2 = AlertHistoryStore(str(tmp_path))
    events2 = store2.load()
    assert [e.type for e in events2] == ["endpoint_health", "alert_fired"]
    store2.close()


def test_history_leaves_live_writers_alone(tmp_path):
    # A "peer" file stamped with *this* process's pid is live: replay it,
    # never unlink or duplicate it.
    peer = SpoolWriter(str(tmp_path), role="peerhistory")
    peer.append(event("endpoint_health", at=1.0, source={"pid": os.getpid()},
                      endpoint="e", pressure=0.4))
    store = AlertHistoryStore(str(tmp_path))
    assert [e.type for e in store.load()] == ["endpoint_health"]
    assert os.path.exists(peer.path)
    assert [e.type for e in store.load()] == ["endpoint_health"]
    peer.close()
    store.close()


def test_engine_state_document_roundtrip(tmp_path):
    store = AlertHistoryStore(str(tmp_path))
    store.save_state({"fired_total": 7, "resolved_total": 5})
    assert store.load_state() == {"fired_total": 7, "resolved_total": 5}
    engine = AlertEngine(clock=FakeClock(), store=store)
    assert engine.fired_total == 7 and engine.resolved_total == 5
    store.close()
