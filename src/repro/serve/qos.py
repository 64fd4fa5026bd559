"""Load-adaptive QoS: walk the throttle ladder under admission pressure.

The paper's quality-vs-throughput trade (Section V-B / Fig. 10) becomes an
online control loop here: each endpoint declares an ordered
:class:`~repro.eval.throttle.OperatingLadder` (rung 0 = most throttled /
most accurate), and a :class:`QoSController` walks it from per-endpoint
load signals -- admission pressure, rejection deltas, batcher backlog and
recent p99 latency versus the endpoint's budget.  Sustained overload
*degrades* one rung towards the faster, noisier points; sustained calm
*recovers* one rung back towards the top.  Three mechanisms prevent
flapping:

* separate degrade/recover pressure thresholds (a dead band in between
  advances neither timer; the streak bookkeeping is the shared
  :class:`~repro.utils.hysteresis.Hysteresis`, as for alert rules);
* the triggering condition must hold continuously for
  ``degrade_after_s`` / ``recover_after_s`` (recovery is deliberately the
  slower of the two);
* a post-transition ``cooldown_s`` during which no further transition
  fires.

The controller is pure bookkeeping: it never touches engines itself.  The
:class:`EndpointGovernor` glues one endpoint's controller to its admission
controller, batcher, metrics and the engine pool, and applies transitions
through :meth:`repro.serve.pool.EnginePool.set_operating_point` -- which
swaps assignments under the replica execution locks, so a transition is
atomic with respect to in-flight micro-batches (a batch runs entirely at
the point that admitted it, and the response reports that point).

Everything is injectable for tests: the clock (fake clocks drive the
hysteresis deterministically) and the signal source.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.telemetry import bus as telemetry_bus
from repro.utils.hysteresis import Hysteresis

#: Transitions a controller keeps for its snapshot.
_HISTORY = 64


@dataclass(frozen=True)
class QoSConfig:
    """Thresholds and hysteresis windows of one endpoint's controller."""

    #: Admission pressure (in-flight / capacity) at or above which the
    #: endpoint counts as overloaded.
    degrade_pressure: float = 0.75
    #: Admission pressure at or below which the endpoint counts as calm.
    recover_pressure: float = 0.35
    #: Batcher backlog (in units of ``max_batch`` images) that also counts
    #: as overload even before admission saturates.
    degrade_queue_batches: float = 2.0
    #: Seconds the overload condition must hold before degrading one rung.
    degrade_after_s: float = 0.25
    #: Seconds the calm condition must hold before recovering one rung
    #: (deliberately longer than ``degrade_after_s``).
    recover_after_s: float = 1.0
    #: Seconds after any transition during which no further transition fires.
    cooldown_s: float = 0.5
    #: Recovery additionally requires recent p99 below this fraction of the
    #: latency budget (when a budget is configured).
    recover_latency_fraction: float = 0.75


@dataclass
class LoadSignal:
    """One endpoint's load snapshot, as seen by the controller."""

    pressure: float = 0.0
    queue_images: int = 0
    queue_capacity: int = 1
    queue_age_s: float = 0.0
    rejected_delta: int = 0
    p99_latency_s: float = 0.0
    latency_budget_s: float | None = None


@dataclass(frozen=True)
class Transition:
    """One operating-point change, with its trigger."""

    at: float
    from_level: int
    to_level: int
    reason: str
    pressure: float = 0.0

    @property
    def direction(self) -> str:
        return "degrade" if self.to_level > self.from_level else "recover"

    def describe(self) -> dict:
        return {
            "at": self.at,
            "from_level": self.from_level,
            "to_level": self.to_level,
            "direction": self.direction,
            "reason": self.reason,
            "pressure": self.pressure,
        }


class QoSController:
    """Hysteretic ladder walker for one endpoint.

    ``observe`` consumes one :class:`LoadSignal` and returns the
    :class:`Transition` it decided on (or ``None``).  The caller applies
    transitions; the controller only tracks level and streak state.
    """

    def __init__(
        self,
        num_levels: int,
        config: QoSConfig | None = None,
        clock=time.monotonic,
    ):
        if num_levels < 1:
            raise ValueError("a controller needs at least one ladder level")
        self.num_levels = int(num_levels)
        self.config = config or QoSConfig()
        self.clock = clock
        self._lock = threading.Lock()
        self._level = 0
        self._held = False
        self._streaks = Hysteresis(
            self.config.degrade_after_s, self.config.recover_after_s,
            self.config.cooldown_s,
        )
        self.transitions = 0
        self.recent_transitions: deque[Transition] = deque(maxlen=_HISTORY)

    # -- state -------------------------------------------------------------
    @property
    def level(self) -> int:
        with self._lock:
            return self._level

    @property
    def held(self) -> bool:
        with self._lock:
            return self._held

    # -- predicates --------------------------------------------------------
    def _overloaded(self, signal: LoadSignal) -> str | None:
        """The overload reason, or None when the signal is not overloaded."""
        config = self.config
        if signal.rejected_delta > 0:
            return f"shedding ({signal.rejected_delta} rejected)"
        if signal.pressure >= config.degrade_pressure:
            return f"admission pressure {signal.pressure:.2f}"
        backlog_limit = config.degrade_queue_batches * max(
            1, signal.queue_capacity
        )
        if signal.queue_images >= backlog_limit:
            return f"backlog {signal.queue_images} images"
        if (
            signal.latency_budget_s
            and signal.queue_age_s > signal.latency_budget_s
        ):
            # The queue head has already outlived the budget: whatever is
            # behind it will miss too, regardless of current p99.
            return (
                f"queue head {signal.queue_age_s * 1000:.0f}ms over budget"
            )
        if (
            signal.latency_budget_s
            and signal.p99_latency_s > signal.latency_budget_s
        ):
            return (
                f"p99 {signal.p99_latency_s * 1000:.0f}ms over budget "
                f"{signal.latency_budget_s * 1000:.0f}ms"
            )
        return None

    def _calm(self, signal: LoadSignal) -> bool:
        config = self.config
        if signal.rejected_delta > 0:
            return False
        if signal.pressure > config.recover_pressure:
            return False
        if signal.queue_images >= max(1, signal.queue_capacity):
            return False
        if signal.latency_budget_s and (
            signal.p99_latency_s
            > config.recover_latency_fraction * signal.latency_budget_s
        ):
            return False
        return True

    # -- control -----------------------------------------------------------
    def observe(self, signal: LoadSignal) -> Transition | None:
        """Fold one load snapshot in; returns the transition, if any."""
        now = self.clock()
        with self._lock:
            if self._held:
                return None
            reason = self._overloaded(signal)
            ripe = self._streaks.observe(
                reason is not None,
                reason is None and self._calm(signal),
                now,
            )
            if ripe == "breach" and self._level < self.num_levels - 1:
                return self._transition(
                    now, self._level + 1, reason, signal.pressure
                )
            if ripe == "calm" and self._level > 0:
                return self._transition(
                    now,
                    self._level - 1,
                    f"calm (pressure {signal.pressure:.2f})",
                    signal.pressure,
                )
            return None

    def _transition(
        self, now: float, to_level: int, reason: str, pressure: float
    ) -> Transition:
        transition = Transition(
            at=now,
            from_level=self._level,
            to_level=to_level,
            reason=reason,
            pressure=pressure,
        )
        self._level = to_level
        self._streaks.transitioned(now)
        self.transitions += 1
        self.recent_transitions.append(transition)
        return transition

    def force(self, level: int, hold: bool | None = False) -> Transition | None:
        """Pin the controller at ``level`` (operator override).

        ``hold=True`` additionally freezes automatic walking until
        :meth:`release`; ``hold=None`` leaves any existing hold untouched
        (moving a pinned rung must not silently un-pin it).  Returns the
        transition when the level changed.  Any force restarts the
        sustain streaks, even at the current level: the operator just
        asserted this rung, so automatic walking must re-earn a full
        ``degrade_after_s``/``recover_after_s`` streak before moving.
        """
        if not 0 <= level < self.num_levels:
            raise ValueError(
                f"level {level} outside ladder [0, {self.num_levels - 1}]"
            )
        now = self.clock()
        with self._lock:
            if hold is not None:
                self._held = bool(hold)
            if level == self._level:
                self._streaks.reset()
                return None
            return self._transition(now, level, "forced by operator", 0.0)

    def release(self) -> None:
        """Resume automatic walking after a held :meth:`force`."""
        with self._lock:
            self._held = False
            self._streaks.reset()

    def resync(self, level: int) -> None:
        """Reset to the level actually applied (no transition recorded).

        Used when applying a decided transition failed downstream: the
        controller must walk from the rung the replicas really serve at,
        not from the one it wanted.
        """
        with self._lock:
            self._level = max(0, min(self.num_levels - 1, int(level)))
            self._streaks.reset()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "level": self._level,
                "num_levels": self.num_levels,
                "held": self._held,
                "transitions": self.transitions,
                "recent_transitions": [
                    transition.describe()
                    for transition in self.recent_transitions
                ],
            }


@dataclass
class EndpointGovernor:
    """One endpoint's control loop: signals in, ladder transitions out.

    The governor owns no policy -- it reads the load signal from the
    endpoint's admission controller, batcher and metrics, feeds it to the
    controller, and applies any transition through the engine pool (which
    swaps assignments under the replica execution locks).  A ``None``
    controller (single-rung ladder) makes :meth:`tick` a no-op, so static
    endpoints cost nothing.
    """

    endpoint: str
    pool: object
    admission: object
    batcher: object
    metrics: object
    controller: QoSController | None = None
    #: Optional :class:`repro.telemetry.coordinator.QoSCoordinator`: when
    #: set, the local controller only expresses a *desire* and the rung
    #: actually applied is the service-wide recommendation (the max desire
    #: over live, non-held shards) -- unless an operator force/hold pins
    #: this shard.
    coordinator: object | None = None
    _last_rejected: int = field(default=0, repr=False)
    #: Serializes a decision (observe/force) with its application to the
    #: pool: without it, a tick that decided a transition could apply it
    #: *after* a concurrent operator force completed, silently overriding
    #: the pin while the held controller reports the forced level.
    _decide_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )

    def signal(self) -> LoadSignal:
        rejected = self.metrics.rejected_requests
        delta = rejected - self._last_rejected
        self._last_rejected = rejected
        budget_ms = getattr(self.metrics, "latency_budget_ms", None)
        return LoadSignal(
            pressure=self.admission.pressure,
            queue_images=self.batcher.pending_images,
            queue_capacity=self.batcher.max_batch,
            queue_age_s=self.batcher.oldest_pending_age(),
            rejected_delta=delta,
            p99_latency_s=self.metrics.recent_p99(),
            latency_budget_s=(budget_ms / 1000.0) if budget_ms else None,
        )

    def tick(self) -> Transition | None:
        """One control-loop step; applies and records any transition.

        Standalone (no coordinator) the local controller's decision is
        applied directly.  Under a coordinator the local decision only
        updates this shard's published *desire*; what gets applied is the
        coordinator's service-wide recommendation, so every shard serves
        the same rung (no independent flapping).  A held controller
        (operator force/hold) publishes its pin but neither follows nor
        drags the quorum.
        """
        if self.controller is None:
            return None
        signal = self.signal()
        with self._decide_lock:
            local = self.controller.observe(signal)
            if self.coordinator is None:
                if local is not None:
                    self._apply(local)
                return local
            return self._coordinate(signal, local)

    def _coordinate(self, signal: LoadSignal, local) -> Transition | None:
        """Publish local desire, then follow the quorum recommendation."""
        applied = self.pool.current_level(self.endpoint)
        held = self.controller.held
        self.coordinator.update(
            self.endpoint,
            desired=self.controller.level,
            applied=applied,
            pressure=signal.pressure,
            held=held,
        )
        self.coordinator.flush()
        if held:
            return None
        recommended = self.coordinator.recommendation(
            self.endpoint, self.controller.num_levels
        )
        if recommended is None:
            # No quorum (no live peer state yet): act on our own decision.
            if local is not None:
                self._apply(local)
            return local
        if recommended == applied:
            return None
        transition = Transition(
            at=time.monotonic(),
            from_level=applied,
            to_level=recommended,
            reason=(
                f"coordinator quorum (local desire {self.controller.level})"
            ),
            pressure=signal.pressure,
        )
        self._apply(transition)
        return transition

    def force(self, level: int, hold: bool | None = False) -> Transition | None:
        """Operator override (``POST .../operating_point``)."""
        if self.controller is None:
            if level != 0:
                raise ValueError(
                    f"endpoint {self.endpoint!r} has a single operating point"
                )
            return None
        with self._decide_lock:
            transition = self.controller.force(level, hold=hold)
            if transition is not None:
                self._apply(transition)
        return transition

    def release(self) -> None:
        """Resume automatic walking after a held :meth:`force`.

        Under a coordinator the un-pinned shard must not re-join the
        quorum voting its stale forced rung (a pin at a degraded rung
        would drag every peer down); its desire resyncs to the current
        recommendation of the *other* shards -- our own channel document
        still says ``held`` until the next tick, so it has no vote in
        this gather.
        """
        if self.controller is None:
            return
        with self._decide_lock:
            self.controller.release()
            if self.coordinator is not None:
                recommended = self.coordinator.recommendation(
                    self.endpoint, self.controller.num_levels
                )
                if recommended is not None:
                    self.controller.resync(recommended)
            else:
                self.controller.resync(
                    self.pool.current_level(self.endpoint)
                )

    def _apply(self, transition: Transition) -> None:
        try:
            point = self.pool.set_operating_point(
                self.endpoint, transition.to_level
            )
        except Exception:
            # The swap did not land: keep walking from the rung the
            # replicas actually serve at, not the one we wanted.
            self.controller.resync(self.pool.current_level(self.endpoint))
            raise
        self.metrics.set_operating_point(transition.to_level, point.describe())
        self.metrics.record_transition(transition)
        self._reprice(point)
        telemetry_bus.publish(
            "rung_transition",
            endpoint=self.endpoint,
            from_level=transition.from_level,
            to_level=transition.to_level,
            direction=transition.direction,
            reason=transition.reason,
            pressure=transition.pressure,
        )

    def _reprice(self, point) -> None:
        """Rung-aware admission: price in-flight images by the serving rung.

        A degraded (faster) rung serves images sooner, so the same pending
        budget represents less queueing delay; scaling the admission price
        by the rung's expected speedup keeps the budget *time*-constant
        instead of image-constant across the ladder.
        """
        set_price = getattr(self.admission, "set_price", None)
        if set_price is None:
            return
        try:
            ladder = self.pool.ladder(self.endpoint)
        except Exception:  # noqa: BLE001 - pricing is best-effort
            return
        top_speedup = max(1e-9, ladder.top.expected_speedup)
        set_price(top_speedup / max(1e-9, point.expected_speedup))

    def expected_rung(self) -> int:
        """The rung a request admitted now should expect to be served at."""
        return self.pool.current_level(self.endpoint)

    def snapshot(self) -> dict:
        if self.controller is None:
            snapshot = {"level": 0, "num_levels": 1, "held": False,
                        "transitions": 0, "recent_transitions": []}
        else:
            snapshot = self.controller.snapshot()
        if self.coordinator is not None:
            snapshot["coordinator"] = self.coordinator.snapshot()
        return snapshot
