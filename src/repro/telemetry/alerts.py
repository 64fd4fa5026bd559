"""Alert engine: declarative rules over the telemetry bus, with history.

The bus (PR 5) streams every health signal -- ``endpoint_health``,
``rung_transition``, shed counters, replica failures -- but nothing ever
*decides* anything from the stream.  This module closes that gap:

* :class:`AlertRule` -- one declarative rule: threshold + hysteresis
  (separate fire/clear thresholds with a dead band in between) + minimum
  duration + cooldown, evaluated per **dedup key** (e.g. per endpoint).
  The streak bookkeeping is :class:`~repro.utils.hysteresis.Hysteresis`,
  the QoS controller's (:mod:`repro.serve.qos`), and the engine's clock
  is injectable, which makes tests deterministic.
* :class:`AlertEngine` -- consumes bus events, walks each ``(rule, key)``
  state machine, and publishes the full alert lifecycle back onto the
  bus as ``alert_fired`` / ``alert_resolved`` events -- so every existing
  transport (SSE stream, spool, dashboard, followers) carries alerts for
  free.  Extra sinks (webhook, CLI printers) attach as callables.
* :class:`WebhookSink` -- POSTs each alert to an HTTP endpoint from a
  background thread with the retrying client's
  :class:`~repro.serve.client.RetryPolicy` backoff (never blocks the
  publishing path; drops-and-counts when the queue overflows).
* :class:`AlertHistoryStore` -- ring-file persistence of
  ``endpoint_health`` / ``rung_transition`` / alert events (a
  :class:`~repro.cluster.spool.RingStore`) plus the state and silence
  documents (:class:`~repro.cluster.documents.DocumentStore`), so
  post-restart timelines and alert history survive.

Synthetic probes (self-test requests per endpoint) are scheduled by the
server (:mod:`repro.serve.server`); their ``probe_result`` events feed
the same rules via :func:`probe_rule`.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from dataclasses import dataclass

from repro.cluster.documents import DocumentStore
from repro.cluster.spool import Event, RingStore
from repro.utils.hysteresis import Hysteresis

#: Alert lifecycle event types (published on the bus; the engine never
#: evaluates rules over them -- see :meth:`AlertEngine.consume`).
ALERT_EVENT_TYPES = frozenset({"alert_fired", "alert_resolved"})

#: Event types the history ring persists by default: enough to rebuild
#: the operating timelines and the alert timeline after a restart.
HISTORY_EVENT_TYPES = frozenset(
    {"endpoint_health", "rung_transition", "probe_result"} | ALERT_EVENT_TYPES
)

#: Ring-file rotation size.  Deliberately small: the history ring is a
#: bounded post-restart window, not an archive (at the 1s health tick
#: this holds tens of minutes per generation).
HISTORY_ROTATE_BYTES = 512 * 1024

#: Name of the engine-state document inside the history directory.
STATE_DOCUMENT = "alerts-state.json"

#: Name of the silence-window document inside the history directory.
#: Kept separate from the engine state so `repro.cli alerts --silence`
#: (a different process) and the live engine never clobber each other's
#: writes: the CLI touches only this document, the engine re-reads it.
SILENCE_DOCUMENT = "alerts-silences.json"


def _lookup(data: dict, path: str):
    """Resolve a (possibly dotted) field path inside an event payload."""
    value = data
    for part in path.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(part)
        if value is None:
            return None
    return value


def _as_float(value) -> float | None:
    """Coerce a payload value to float (bools count 0/1); None if not numeric."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    return None


@dataclass(frozen=True)
class AlertRule:
    """One declarative alerting rule, evaluated per dedup key.

    The rule watches ``field`` (a dotted path into the payload of
    ``event_type`` events, optionally divided by ``divide_by`` -- e.g.
    p99 over the latency budget) and fires once the breach condition has
    held for ``for_s`` continuous seconds.  ``clear_threshold`` opens a
    hysteresis dead band: values between the two thresholds advance
    *neither* the fire nor the resolve streak (the QoS dead-band rule).
    After any fire/resolve transition, ``cooldown_s`` must elapse before
    the next one -- a flapping signal cannot re-fire inside the cooldown.
    """

    name: str
    event_type: str = "endpoint_health"
    field: str = "pressure"
    threshold: float = 0.0
    #: Fire when the value is <= threshold instead of >= threshold.
    below: bool = False
    #: Hysteresis: the condition only counts as *clear* past this value
    #: (default: the threshold itself -- no dead band).
    clear_threshold: float | None = None
    #: Seconds the breach must hold continuously before firing.
    for_s: float = 0.0
    #: Seconds the clear condition must hold continuously before resolving.
    clear_for_s: float = 0.0
    #: Seconds after any fire/resolve during which no transition fires.
    cooldown_s: float = 0.0
    #: Payload fields forming the dedup key (missing fields stamp "-").
    key_fields: tuple = ("endpoint",)
    severity: str = "warning"
    #: Optional denominator field: the rule value becomes
    #: ``field / divide_by`` (skipped when the denominator is missing/0).
    divide_by: str | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("an alert rule needs a name")
        if self.event_type in ALERT_EVENT_TYPES:
            raise ValueError(
                f"rules may not watch alert lifecycle events ({self.event_type})"
            )
        clear = self.clear_threshold
        if clear is not None:
            if self.below and clear < self.threshold:
                raise ValueError(
                    "below-rule clear_threshold must be >= threshold"
                )
            if not self.below and clear > self.threshold:
                raise ValueError(
                    "above-rule clear_threshold must be <= threshold"
                )

    # -- evaluation --------------------------------------------------------
    def value_of(self, event: Event) -> float | None:
        """The rule's value for one event, or None when not evaluable."""
        value = _as_float(_lookup(event.data, self.field))
        if value is None:
            return None
        if self.divide_by is not None:
            denominator = _as_float(_lookup(event.data, self.divide_by))
            if not denominator:
                return None
            value = value / denominator
        return value

    def key_of(self, event: Event) -> str:
        parts = [str(event.data.get(name, "-")) for name in self.key_fields]
        return "/".join(parts) if parts else "-"

    def breached(self, value: float) -> bool:
        return value <= self.threshold if self.below else value >= self.threshold

    def cleared(self, value: float) -> bool:
        clear = (
            self.threshold if self.clear_threshold is None
            else self.clear_threshold
        )
        return value > clear if self.below else value < clear

    def describe(self) -> dict:
        return {
            "name": self.name,
            "event_type": self.event_type,
            "field": self.field,
            "threshold": self.threshold,
            "below": self.below,
            "clear_threshold": self.clear_threshold,
            "for_s": self.for_s,
            "clear_for_s": self.clear_for_s,
            "cooldown_s": self.cooldown_s,
            "key_fields": list(self.key_fields),
            "severity": self.severity,
            "divide_by": self.divide_by,
        }

    @classmethod
    def from_dict(cls, document: dict) -> "AlertRule":
        """Build a rule from its JSON form (the CLI's ``--rules`` file)."""
        known = {
            "name", "event_type", "field", "threshold", "below",
            "clear_threshold", "for_s", "clear_for_s", "cooldown_s",
            "key_fields", "severity", "divide_by",
        }
        unknown = set(document) - known
        if unknown:
            raise ValueError(f"unknown alert rule fields: {sorted(unknown)}")
        kwargs = dict(document)
        if "key_fields" in kwargs:
            kwargs["key_fields"] = tuple(kwargs["key_fields"])
        return cls(**kwargs)


@dataclass(frozen=True)
class SinkRoute:
    """One sink-selection route: which named sinks receive which alerts.

    Routes are checked in declaration order; the first match decides the
    alert's sinks (an empty ``sinks`` tuple means bus-only -- lifecycle
    events still publish, no external sink fires).  An alert matching no
    route goes to every sink, so adding a narrow route for one noisy
    rule never silences the rest.
    """

    #: Rule-name pattern (:mod:`fnmatch` glob; ``*`` matches every rule).
    rule: str = "*"
    #: Only match alerts of this severity (None = any severity).
    severity: str | None = None
    #: Names of the sinks that receive matching alerts ("" tuple = bus-only).
    sinks: tuple = ()

    def matches(self, alert: dict) -> bool:
        from fnmatch import fnmatch

        if not fnmatch(str(alert.get("rule", "")), self.rule):
            return False
        return self.severity is None or alert.get("severity") == self.severity

    def describe(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "sinks": list(self.sinks),
        }

    @classmethod
    def from_dict(cls, document: dict) -> "SinkRoute":
        known = {"rule", "severity", "sinks"}
        unknown = set(document) - known
        if unknown:
            raise ValueError(f"unknown sink route fields: {sorted(unknown)}")
        kwargs = dict(document)
        if "sinks" in kwargs:
            kwargs["sinks"] = tuple(kwargs["sinks"])
        return cls(**kwargs)


class _RuleState:
    """Per ``(rule, key)`` alert state over the shared :class:`Hysteresis`."""

    __slots__ = ("streaks", "firing", "fired_at", "fired_count")

    def __init__(self, rule: AlertRule):
        self.streaks = Hysteresis(rule.for_s, rule.clear_for_s, rule.cooldown_s)
        self.firing = False
        self.fired_at: float | None = None
        self.fired_count = 0

    def observe(self, rule: AlertRule, value: float, now: float) -> str | None:
        """Fold one value in; returns ``"fire"`` / ``"resolve"`` / ``None``."""
        ripe = self.streaks.observe(
            rule.breached(value), rule.cleared(value), now
        )
        if ripe == ("calm" if self.firing else "breach"):
            self.streaks.transitioned(now)
            self.firing = not self.firing
            if self.firing:
                self.fired_at = now
                self.fired_count += 1
                return "fire"
            return "resolve"
        return None


def default_rules() -> list[AlertRule]:
    """The rules every server ships with (operator rules add to these)."""
    return [
        # Sustained admission saturation: the endpoint is turning work away
        # (or about to).  Clears only once pressure genuinely relaxes.
        AlertRule(
            name="endpoint_overload",
            field="pressure",
            threshold=0.9,
            clear_threshold=0.5,
            for_s=3.0,
            clear_for_s=5.0,
            cooldown_s=10.0,
            severity="warning",
        ),
        # Recent p99 above the configured latency budget (ratio > 1) --
        # the user-facing SLO breach, whatever rung the ladder is on.
        AlertRule(
            name="latency_budget_breach",
            field="recent_p99_ms",
            divide_by="latency_budget_ms",
            threshold=1.0,
            clear_threshold=0.75,
            for_s=3.0,
            clear_for_s=5.0,
            cooldown_s=10.0,
            severity="critical",
        ),
        # A replica slot that exhausted its respawn budget serves degraded
        # capacity until an operator intervenes: fire immediately.
        AlertRule(
            name="replica_failed",
            field="replicas.failed",
            threshold=1.0,
            # clear is *strictly below* the clear threshold, so 0.5 (not
            # 0.0) is what lets an integer count of zero resolve.
            clear_threshold=0.5,
            for_s=0.0,
            clear_for_s=2.0,
            cooldown_s=5.0,
            severity="critical",
        ),
        # Spool corruption observed by the relay's follower this tick
        # (torn writes, crashed writers).  The delta form resolves once
        # the corruption stops; the cumulative count stays in snapshots.
        AlertRule(
            name="spool_corruption",
            event_type="spool_health",
            field="corrupt_delta",
            threshold=1.0,
            clear_threshold=0.5,
            key_fields=(),
            for_s=0.0,
            clear_for_s=5.0,
            cooldown_s=5.0,
            severity="warning",
        ),
    ]


def probe_rule(interval_s: float) -> AlertRule:
    """Sustained synthetic-probe failure, sized to the probe cadence.

    Fires after ~2.5 consecutive failed probes; a single blip inside an
    otherwise healthy cadence never fires.
    """
    return AlertRule(
        name="probe_failure",
        event_type="probe_result",
        field="failed",
        threshold=1.0,
        clear_threshold=0.5,
        for_s=2.5 * interval_s,
        clear_for_s=1.5 * interval_s,
        cooldown_s=2.0 * interval_s,
        severity="critical",
    )


class AlertEngine:
    """Evaluates rules over bus events; publishes the alert lifecycle.

    The engine is a plain event consumer: hand :meth:`consume` to a bus
    subscription, an :class:`~repro.telemetry.dashboard.EventRelay`
    consumer slot, or a spool-following loop.  Lifecycle events go back
    out through ``publish`` (a bus ``publish`` bound method by default),
    so SSE streams, spools and dashboards carry alerts with no extra
    wiring; additional sinks are callables receiving the alert dict.

    The clock is injectable (monotonic by default) and drives *only* the
    hysteresis arithmetic; the wall-clock ``at`` stamped into alerts is
    the triggering event's, so replayed history renders correctly.
    """

    def __init__(
        self,
        rules=None,
        *,
        publish=None,
        clock=time.monotonic,
        history: int = 256,
        sinks=(),
        store: "AlertHistoryStore | None" = None,
        routes=None,
    ):
        self.rules = list(default_rules() if rules is None else rules)
        self._publish = publish
        self.clock = clock
        self._lock = threading.Lock()
        self._states: dict[tuple[str, str], _RuleState] = {}
        self._history: deque[dict] = deque(maxlen=max(1, int(history)))
        # Sinks are named so routes can select them; a plain iterable
        # (the historical form) auto-names entries -- a WebhookSink gets
        # "webhook", everything else "sink<N>".
        self._sinks: dict[str, object] = {}
        if isinstance(sinks, dict):
            for name, sink in sinks.items():
                self._sinks[str(name)] = sink
        else:
            for index, sink in enumerate(sinks):
                if isinstance(sink, WebhookSink) and "webhook" not in self._sinks:
                    self._sinks["webhook"] = sink
                else:
                    self._sinks[f"sink{index}"] = sink
        self.routes = [
            route if isinstance(route, SinkRoute) else SinkRoute.from_dict(route)
            for route in (routes or [])
        ]
        self._store = store
        #: Silence windows: rule name -> wall-clock deadline.  Wall time
        #: because the window is operator-facing and crosses processes
        #: (`repro.cli alerts --silence` writes it from another process).
        self._silences: dict[str, float] = {}
        self._silences_refreshed = float("-inf")
        self.silenced_total = 0
        self.fired_total = 0
        self.resolved_total = 0
        self._by_type: dict[str, list[AlertRule]] = {}
        names = set()
        for rule in self.rules:
            if rule.name in names:
                raise ValueError(f"duplicate alert rule name: {rule.name}")
            names.add(rule.name)
            self._by_type.setdefault(rule.event_type, []).append(rule)
        if store is not None:
            state = store.load_state()
            if state:
                self.fired_total = int(state.get("fired_total", 0))
                self.resolved_total = int(state.get("resolved_total", 0))
            self._silences = store.load_silences()
            self._silences_refreshed = time.monotonic()

    # -- wiring ------------------------------------------------------------
    def add_rule(self, rule: AlertRule) -> None:
        with self._lock:
            if any(existing.name == rule.name for existing in self.rules):
                raise ValueError(f"duplicate alert rule name: {rule.name}")
            self.rules.append(rule)
            self._by_type.setdefault(rule.event_type, []).append(rule)

    # -- consumption -------------------------------------------------------
    def consume(self, event: Event) -> list[dict]:
        """Evaluate one event; returns the alerts it fired/resolved.

        Lifecycle events the engine itself published loop straight back
        through relays -- the early type check keeps them (and every
        unwatched type) off the lock entirely, which also makes the
        publish-from-consume recursion trivially safe.
        """
        rules = self._by_type.get(event.type)
        if not rules:
            return []
        emitted: list[dict] = []
        with self._lock:
            now = self.clock()
            for rule in rules:
                value = rule.value_of(event)
                if value is None:
                    continue
                key = rule.key_of(event)
                state = self._states.get((rule.name, key))
                if state is None:
                    state = self._states[(rule.name, key)] = _RuleState(rule)
                action = state.observe(rule, value, now)
                if action is None:
                    continue
                alert = self._build_alert(rule, key, state, value, event, now)
                if self._is_silenced(rule.name):
                    # The state machine still advances (a silence window
                    # must not replay missed transitions when it lapses),
                    # but nothing is published or sunk.
                    alert["silenced"] = True
                    self.silenced_total += 1
                self._history.append(alert)
                if action == "fire":
                    self.fired_total += 1
                else:
                    self.resolved_total += 1
                emitted.append(alert)
        # Publish/sink outside the lock: publishing re-enters consume()
        # through relays, and sinks are arbitrary user code.
        for alert in emitted:
            if not alert.get("silenced"):
                self._emit(alert, self._sinks_for(alert))
        return emitted

    def _sinks_for(self, alert: dict) -> list:
        """The sinks this alert routes to (first matching route wins)."""
        with self._lock:
            for route in self.routes:
                if route.matches(alert):
                    return [
                        self._sinks[name]
                        for name in route.sinks
                        if name in self._sinks
                    ]
            return list(self._sinks.values())

    # -- silencing ---------------------------------------------------------
    def _is_silenced(self, rule_name: str) -> bool:
        """Silence check (lock held); re-reads the shared document ~1/s."""
        now_mono = time.monotonic()
        if (
            self._store is not None
            and now_mono - self._silences_refreshed >= 1.0
        ):
            self._silences_refreshed = now_mono
            try:
                self._silences = self._store.load_silences()
            except (OSError, ValueError):  # pragma: no cover - dir torn down
                pass
        deadline = self._silences.get(rule_name)
        if deadline is None:
            return False
        if time.time() >= deadline:
            self._silences.pop(rule_name, None)
            return False
        return True

    def silence(self, rule_name: str, duration_s: float) -> float:
        """Silence one rule for ``duration_s`` seconds; returns the deadline.

        Persisted through the history store (when attached), so a CLI
        process silencing a rule reaches every engine sharing the
        directory within its ~1s refresh.
        """
        deadline = time.time() + max(0.0, float(duration_s))
        with self._lock:
            self._silences[str(rule_name)] = deadline
            if self._store is not None:
                self._store.save_silences(self._silences)
        return deadline

    def silences(self) -> dict[str, float]:
        """Active silence windows (rule -> wall deadline), pruned."""
        now = time.time()
        with self._lock:
            self._silences = {
                rule: deadline
                for rule, deadline in self._silences.items()
                if deadline > now
            }
            return dict(self._silences)

    def _build_alert(
        self, rule: AlertRule, key: str, state: _RuleState,
        value: float, event: Event, now: float,
    ) -> dict:
        firing = state.firing
        status = "firing" if firing else "resolved"
        comparison = "<=" if rule.below else ">="
        alert = {
            "rule": rule.name,
            "key": key,
            "status": status,
            "severity": rule.severity,
            "event_type": rule.event_type,
            "field": rule.field,
            "value": value,
            "threshold": rule.threshold,
            "at": event.at,
            "fired_count": state.fired_count,
            "message": (
                f"{rule.name}[{key}] {status}: "
                f"{rule.field}={value:.4g} {comparison} {rule.threshold:.4g}"
                if firing else
                f"{rule.name}[{key}] {status}: {rule.field}={value:.4g}"
            ),
        }
        if not firing and state.fired_at is not None:
            alert["duration_s"] = max(0.0, now - state.fired_at)
        return alert

    def _emit(self, alert: dict, sinks) -> None:
        if self._publish is not None:
            try:
                type = (
                    "alert_fired" if alert["status"] == "firing"
                    else "alert_resolved"
                )
                self._publish(type, **alert)
            except Exception:  # noqa: BLE001 - alerting never breaks consumers
                pass
        for sink in sinks:
            try:
                sink(alert)
            except Exception:  # noqa: BLE001
                pass
        if self._store is not None:
            self._store.save_state(
                {
                    "fired_total": self.fired_total,
                    "resolved_total": self.resolved_total,
                }
            )

    # -- state -------------------------------------------------------------
    def active(self) -> list[dict]:
        """Currently-firing alerts, newest fire first."""
        with self._lock:
            firing = {}
            for alert in self._history:
                identity = (alert["rule"], alert["key"])
                if alert["status"] == "firing":
                    firing[identity] = alert
                else:
                    firing.pop(identity, None)
            return sorted(
                firing.values(), key=lambda alert: -float(alert["at"])
            )

    def history(self) -> list[dict]:
        with self._lock:
            return list(self._history)

    def import_history(self, alerts) -> None:
        """Restore alert history (a restart replaying the ring file).

        Imported alerts extend the timeline without re-publishing or
        re-running sinks; rule hysteresis state starts fresh -- live
        conditions re-earn their streaks within seconds of the restart.
        """
        with self._lock:
            for alert in alerts:
                if isinstance(alert, dict) and {"rule", "key", "status"} <= set(alert):
                    self._history.append(dict(alert))

    def snapshot(self) -> dict:
        active = self.active()
        silences = self.silences()
        with self._lock:
            return {
                "rules": [rule.describe() for rule in self.rules],
                "routes": [route.describe() for route in self.routes],
                "active": active,
                "recent": list(self._history)[-32:],
                "fired_total": self.fired_total,
                "resolved_total": self.resolved_total,
                "silenced_total": self.silenced_total,
                "silences": silences,
            }


class WebhookSink:
    """POSTs alerts to an HTTP endpoint with RetryPolicy backoff.

    Delivery runs on one lazy daemon thread so the publishing path never
    blocks on the network; a bounded queue drops the *oldest* alert when
    the receiver cannot keep up (the bus's eviction contract).
    """

    def __init__(
        self,
        url: str,
        *,
        retry=None,
        timeout_s: float = 3.0,
        maxlen: int = 256,
        sleep=time.sleep,
    ):
        from repro.serve.client import RetryPolicy

        self.url = str(url)
        self.retry = retry if retry is not None else RetryPolicy(
            max_retries=3, base_backoff_ms=50.0, max_backoff_ms=2000.0
        )
        self.timeout_s = float(timeout_s)
        self._sleep = sleep
        self._rng = random.Random(0xA1E57)
        self._condition = threading.Condition()
        self._queue: deque[dict] = deque(maxlen=max(1, int(maxlen)))
        self._thread: threading.Thread | None = None
        self._closed = False
        self.delivered = 0
        self.failed = 0
        self.dropped = 0
        self.attempts = 0

    def __call__(self, alert: dict) -> None:
        with self._condition:
            if self._closed:
                return
            if len(self._queue) == self._queue.maxlen:
                self.dropped += 1
            self._queue.append(dict(alert))
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="alert-webhook", daemon=True
                )
                self._thread.start()
            self._condition.notify()

    def _run(self) -> None:
        while True:
            with self._condition:
                while not self._queue and not self._closed:
                    self._condition.wait(1.0)
                if self._closed and not self._queue:
                    return
                alert = self._queue.popleft()
            self._deliver(alert)

    def _deliver(self, alert: dict) -> None:
        for attempt in range(self.retry.max_retries + 1):
            self.attempts += 1
            try:
                self._post(alert)
                self.delivered += 1
                return
            except (urllib.error.URLError, OSError, ValueError):
                if attempt >= self.retry.max_retries:
                    break
                delay_ms = self.retry.delay_ms(attempt, self._rng)
                self._sleep(delay_ms / 1000.0)
        self.failed += 1

    def _post(self, alert: dict) -> None:
        payload = json.dumps(alert).encode("utf-8")
        request = urllib.request.Request(
            self.url,
            data=payload,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=self.timeout_s) as reply:
            reply.read()

    def stats(self) -> dict:
        return {
            "url": self.url,
            "delivered": self.delivered,
            "failed": self.failed,
            "dropped": self.dropped,
            "attempts": self.attempts,
        }

    def close(self, timeout: float = 5.0) -> None:
        with self._condition:
            self._closed = True
            self._condition.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)


def read_silences(documents: DocumentStore) -> dict[str, float]:
    """Unexpired silence windows from the shared silence document."""
    try:
        document = documents.get(SILENCE_DOCUMENT)
    except (OSError, ValueError):
        return {}
    silences = (document or {}).get("silences")
    if not isinstance(silences, dict):
        return {}
    now = time.time()
    result = {}
    for rule, deadline in silences.items():
        value = _as_float(deadline)
        if value is not None and value > now:
            result[str(rule)] = value
    return result


def merge_silences(documents: DocumentStore, silences: dict) -> dict[str, float]:
    """Merge silence windows into the shared document; returns the result.

    Merge (the later deadline wins) rather than overwrite: the live
    engine and a `repro.cli alerts --silence` process write
    concurrently, and neither may shorten a window the other extended.
    """
    merged = read_silences(documents)
    now = time.time()
    for rule, deadline in silences.items():
        deadline = float(deadline)
        if deadline > now:
            merged[str(rule)] = max(merged.get(str(rule), 0.0), deadline)
    documents.put(SILENCE_DOCUMENT, {"silences": merged})
    return merged


class AlertHistoryStore(RingStore):
    """The alert history ring plus the engine's state and silence documents.

    A :class:`~repro.cluster.spool.RingStore` of ``endpoint_health`` /
    ``rung_transition`` / probe / alert events, so post-restart timelines
    and alert history survive, with two small documents alongside: the
    cumulative fire/resolve counters and the shared silence windows.
    """

    def __init__(self, directory: str):
        super().__init__(directory, "history", HISTORY_EVENT_TYPES,
                         HISTORY_ROTATE_BYTES)
        self._documents = DocumentStore.for_directory(self.directory)

    # -- state document ----------------------------------------------------
    def save_state(self, document: dict) -> None:
        try:
            self._documents.put(STATE_DOCUMENT, document)
        except OSError:  # pragma: no cover - dir torn down
            pass

    def load_state(self) -> dict | None:
        return self._documents.get(STATE_DOCUMENT)

    # -- silence document --------------------------------------------------
    def save_silences(self, silences: dict) -> None:
        """Persist silence windows (see :func:`merge_silences`)."""
        try:
            merge_silences(self._documents, silences)
        except OSError:  # pragma: no cover - dir torn down
            pass

    def load_silences(self) -> dict[str, float]:
        return read_silences(self._documents)
