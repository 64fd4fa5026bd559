"""Model registry and admission control for the serving subsystem.

A :class:`ModelSpec` pins down everything needed to serve one endpoint:
which zoo model backs it, the NB-SMT engine configuration (threads, packing
policy, 4-thread implementation, block pruning, K-dimension reordering),
an optional *throttled* operating point (selected layers slowed to fewer
threads for accuracy, exactly the per-layer assignments of
:mod:`repro.eval.throttle`), and the serving knobs (batch size, latency
budget, queue capacity).

:class:`AdmissionController` implements backpressure: each endpoint admits
at most ``max_pending`` in-flight images; beyond that, requests are
rejected immediately (HTTP 429) instead of building an unbounded queue.
The controller exposes its *pressure* (in-flight over capacity) so
operators can drive throttling decisions -- e.g. re-registering an endpoint
at a faster :func:`~repro.eval.throttle.throttle_assignment` operating
point when sustained pressure is high.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

from repro.models.zoo import MODEL_BUILDERS, PAPER_MODEL_NAMES


@dataclass(frozen=True)
class ModelSpec:
    """Serving configuration of one endpoint.

    ``model`` names the zoo model backing the endpoint (defaults to the
    endpoint name itself).  ``slow_layers``/``slow_threads`` configure a
    throttled operating point: the named layers run with ``slow_threads``
    instead of ``threads`` (depthwise layers keep their pinned single
    thread), matching :func:`repro.eval.throttle.throttle_assignment`.

    ``ladder_rungs > 1`` makes the endpoint *adaptive*: the engine pool
    pre-computes an :class:`~repro.eval.throttle.OperatingLadder` at warm-up
    (rung 0 slows the ``ladder_rungs - 1`` highest-MSE layers -- or the
    explicit ``slow_layers``, best-first -- down to the last rung which
    slows nothing) and the QoS controller walks it under load, degrading
    to faster rungs under sustained admission pressure and recovering
    hysteretically.  ``latency_budget_ms`` is the per-request service
    objective the controller defends (recent p99 above it counts as
    overload).  ``pace_sysmt`` paces each replica's batch wall-clock to the
    modeled SySMT service time of the *active* operating point (the host
    functional simulation is cost-inverted -- fewer threads are host
    cheaper -- so without pacing an operating-point change would not have
    the modeled throughput effect).
    """

    name: str
    model: str | None = None
    threads: int = 4
    policy: str | None = None
    reorder: bool = False
    fast4t_impl: str = "stacked"
    prune_blocks: bool = True
    collect_stats: bool = True
    slow_layers: tuple[str, ...] = ()
    slow_threads: int = 2
    max_batch: int = 32
    max_pending: int = 512
    replicas: int = 1
    ladder_rungs: int = 0
    latency_budget_ms: float = 0.0
    pace_sysmt: bool = False
    #: Deadline attached to requests that carry none (0 = no default; the
    #: request then has no lifeline and is always served to completion).
    default_deadline_ms: float = 0.0

    @property
    def adaptive(self) -> bool:
        """Whether this endpoint serves a multi-rung operating ladder."""
        return self.ladder_rungs > 1

    @property
    def zoo_model(self) -> str:
        return self.model if self.model is not None else self.name

    def resolved_policy(self) -> str:
        """The packing-policy name this endpoint runs with."""
        if self.policy is not None:
            return self.policy
        from repro.core.policies import default_policy_for

        return default_policy_for(self.zoo_model).name

    def describe(self) -> dict:
        """JSON-able summary (what ``GET /v1/models`` reports)."""
        return {
            "name": self.name,
            "model": self.zoo_model,
            "threads": self.threads,
            "policy": self.resolved_policy(),
            "reorder": self.reorder,
            "fast4t_impl": self.fast4t_impl,
            "prune_blocks": self.prune_blocks,
            "collect_stats": self.collect_stats,
            "slow_layers": list(self.slow_layers),
            "slow_threads": self.slow_threads,
            "max_batch": self.max_batch,
            "max_pending": self.max_pending,
            "replicas": self.replicas,
            "ladder_rungs": self.ladder_rungs,
            "adaptive": self.adaptive,
            "latency_budget_ms": self.latency_budget_ms,
            "pace_sysmt": self.pace_sysmt,
            "default_deadline_ms": self.default_deadline_ms,
        }


class AdmissionController:
    """Bounded in-flight image budget of one endpoint (backpressure).

    The budget is *rung-aware*: ``price`` is the relative per-image cost
    of the operating point currently serving the endpoint (1.0 at the top
    rung; a degraded rung with 2x the expected speedup prices each image
    at 0.5).  In-flight counts stay in images -- the price only rescales
    the effective capacity -- so admit/release pairs remain balanced even
    when the rung changes while a request is in flight.  Keeping the
    *time* the admitted backlog represents roughly constant across the
    ladder is the ROADMAP's "price a request by the rung that will serve
    it".
    """

    def __init__(self, capacity: int):
        self.capacity = max(1, int(capacity))
        self._lock = threading.Lock()
        self._in_flight = 0
        self._price = 1.0
        #: Requests refused at the door because their deadline had already
        #: passed on arrival (no admission slot is ever reserved for the
        #: dead; the front-end answers ``deadline_exceeded``).
        self.expired_arrivals = 0

    def note_expired_arrival(self, images: int = 1) -> None:
        """Count a request that arrived with its deadline already passed."""
        with self._lock:
            self.expired_arrivals += int(images)

    def set_price(self, price: float) -> None:
        """Per-image admission cost of the rung now serving the endpoint."""
        with self._lock:
            self._price = max(1e-6, float(price))

    @property
    def price(self) -> float:
        with self._lock:
            return self._price

    @property
    def effective_capacity(self) -> float:
        """Images admittable at the current price (capacity / price)."""
        with self._lock:
            return self.capacity / self._price

    def try_admit(self, images: int = 1) -> bool:
        """Reserve queue room for ``images``; False means shed the request."""
        with self._lock:
            if (self._in_flight + images) * self._price > self.capacity:
                return False
            self._in_flight += images
            return True

    def release(self, images: int = 1) -> None:
        with self._lock:
            self._in_flight = max(0, self._in_flight - images)

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    @property
    def pressure(self) -> float:
        """Priced in-flight load over capacity (1.0 = saturated, shedding)."""
        with self._lock:
            return (self._in_flight * self._price) / self.capacity


@dataclass
class ServeRegistry:
    """The set of served endpoints plus their admission controllers."""

    specs: dict[str, ModelSpec] = field(default_factory=dict)
    admissions: dict[str, AdmissionController] = field(default_factory=dict)

    def register(self, spec: ModelSpec) -> ModelSpec:
        if spec.zoo_model not in MODEL_BUILDERS:
            raise KeyError(
                f"endpoint {spec.name!r} names unknown zoo model "
                f"{spec.zoo_model!r}; known: {sorted(MODEL_BUILDERS)}"
            )
        self.specs[spec.name] = spec
        self.admissions[spec.name] = AdmissionController(spec.max_pending)
        return spec

    def get(self, name: str) -> ModelSpec:
        try:
            return self.specs[name]
        except KeyError:
            raise KeyError(
                f"unknown endpoint {name!r}; serving: {sorted(self.specs)}"
            ) from None

    def admission(self, name: str) -> AdmissionController:
        return self.admissions[name]

    def names(self) -> list[str]:
        return list(self.specs)

    def describe(self) -> list[dict]:
        entries = []
        for name, spec in self.specs.items():
            entry = spec.describe()
            admission = self.admissions[name]
            entry["in_flight"] = admission.in_flight
            entry["pressure"] = admission.pressure
            entry["admission_price"] = admission.price
            entry["effective_capacity"] = admission.effective_capacity
            entry["expired_arrivals"] = admission.expired_arrivals
            entries.append(entry)
        return entries


def default_registry(
    models: tuple[str, ...] | list[str] = PAPER_MODEL_NAMES, **overrides
) -> ServeRegistry:
    """A registry serving the mini-zoo, one endpoint per model.

    ``overrides`` are applied to every :class:`ModelSpec` (e.g.
    ``threads=2, max_batch=64``).
    """
    registry = ServeRegistry()
    for name in models:
        registry.register(replace(ModelSpec(name=name), **overrides))
    return registry
