"""Asyncio HTTP front-end of the NB-SMT inference service.

Pure stdlib: a minimal HTTP/1.1 server on ``asyncio`` streams (keep-alive,
``Content-Length`` framing, JSON bodies).  The event loop only parses
requests and awaits futures; all model execution happens on the dynamic
batchers' worker threads (NumPy/BLAS release the GIL), so one process
serves many concurrent connections per endpoint.

Routes
------
* ``GET /healthz`` -- liveness.
* ``GET /v1/models`` -- registered endpoints, their engine configuration
  and current admission pressure.
* ``GET /v1/metrics`` -- per-endpoint latency/throughput/batch-fill plus
  aggregated NB-SMT statistics.  When the server runs as one shard of a
  ``SO_REUSEPORT`` group (see :mod:`repro.serve.sharding`), the answering
  shard merges every peer's published payload with its own live state, so
  any shard reports whole-service metrics.
* ``GET /v1/models/<name>/operating_point`` -- the endpoint's throttle
  ladder, the rung it currently serves at, and the QoS controller state
  (recent transitions included).
* ``POST /v1/models/<name>/operating_point`` -- operator override: body
  ``{"level": L}`` forces the rung (``"hold": true`` additionally freezes
  the controller; ``{"hold": false}`` alone resumes automatic walking).
* ``POST /v1/models/<name>:predict`` -- body ``{"inputs": [...]}`` where
  ``inputs`` is one image ``(C, H, W)`` or a micro-batch ``(B, C, H, W)``
  as nested JSON lists.  Responds with logits, top-1 classes and the
  operating point that served the request.  When the endpoint's admission
  budget is exhausted, responds ``429`` immediately (backpressure) instead
  of queueing without bound.

Adaptive endpoints (``ModelSpec.ladder_rungs > 1``) are watched by a
periodic QoS tick: each endpoint's :class:`~repro.serve.qos.EndpointGovernor`
reads the load signal and walks the throttle ladder (degrade under
sustained pressure, hysteretic recovery), applying transitions through the
engine pool off the event loop.

Request lifelines (PR 7)
------------------------
Every request may carry a deadline (``X-Deadline-Ms`` header or a
``deadline_ms`` body field, pinned to the arrival instant); the front-end
refuses dead-on-arrival requests before admission, threads the deadline
into the batcher (which cancels expired requests *before* engine
compute), and answers ``504 deadline_exceeded`` -- never a silent drop.
``X-Idempotency-Key`` headers dedupe retries: a concurrent duplicate
shares the in-flight future, a later duplicate replays the recorded
response, so a retried request never double-resolves.  The socket layer
is hardened against misbehaving clients: header/body read timeouts
(408), header size caps (431), body size caps (413), write timeouts
(byte-drip readers are aborted), and a connection cap that evicts the
idlest connection (slow-loris) rather than refusing service.

Alerts + health history (PR 9)
------------------------------
Every server runs an :class:`~repro.telemetry.alerts.AlertEngine` over
its event relay (rules with hysteresis/min-duration/cooldown; lifecycle
events published back onto the bus, so ``/v1/events`` SSE streams and
spools carry them for free), persists ``endpoint_health`` /
``rung_transition`` / alert events into a size-rotated history ring
(``<telemetry_dir>/history``, with the trace ring beside it in
``<telemetry_dir>/traces``) replayed on restart, publishes
a ``spool_health`` corruption heartbeat, and -- with
``probe_interval_s > 0`` -- sends synthetic per-endpoint probe requests
through the real batcher/engine path (``probe_result`` events feed the
``probe_failure`` rule).  ``alert_webhook`` POSTs every lifecycle event
with retrying backoff.  ``alerts=False`` turns the whole subsystem off.

Shutdown is graceful *and drain-aware*: SIGINT/SIGTERM flip ``/healthz``
to ``draining`` (503) and stop accepting new connections first -- so
load balancers rolling a sharded front-end can take one shard out of
rotation at a time -- then wait (bounded) for in-flight requests, drain
every batcher (queued requests still execute and respond), close the
engine pool (terminating forked workers), and
then return from :meth:`NBSMTServer.serve_forever`.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.serve.batcher import DynamicBatcher, QueueFull
from repro.serve.deadline import (
    DEADLINE_HEADER,
    IDEMPOTENCY_HEADER,
    Deadline,
    DeadlineExceeded,
    parse_deadline_ms,
)
from repro.serve.metrics import MetricsRegistry, merge_registry_payloads
from repro.serve.pool import EnginePool
from repro.serve.qos import EndpointGovernor, QoSConfig, QoSController
from repro.serve.registry import ServeRegistry, default_registry
from repro.telemetry import bus as telemetry_bus
from repro.telemetry.dashboard import DASHBOARD_HTML, EventRelay, stream_sse
from repro.telemetry.tracing import TRACE_HEADER, TraceStore, Tracer

_MAX_BODY_BYTES = 64 * 1024 * 1024
_MAX_HEADER_BYTES = 32 * 1024
#: Seconds between ``endpoint_health`` heartbeat events.
_TELEMETRY_TICK_S = 1.0
#: Seconds a graceful stop waits for in-flight requests to finish.
_DRAIN_TIMEOUT_S = 5.0
#: Seconds between QoS ticks of the adaptive endpoints.
_QOS_TICK_S = 0.2
#: Hysteresis of the adaptive endpoints' QoS controllers.
_QOS_CONFIG = QoSConfig()
#: Seconds between a shard's metrics-exchange publishes.
_SHARD_PUBLISH_S = 0.5
#: Socket timeouts: one request/header line, the body, a response write.
_READ_TIMEOUT_S = 10.0
_BODY_TIMEOUT_S = 30.0
_WRITE_TIMEOUT_S = 30.0
#: Terminal responses remembered for ``X-Idempotency-Key`` replays.
_IDEMPOTENCY_CACHE = 1024
#: Milliseconds a shed (429) response advises the client to back off.
_RETRY_AFTER_MS = 50.0


def retry_after_header(retry_after_ms: float) -> str:
    """``Retry-After`` seconds that never under-advise the ms advice.

    The header carries integer seconds; rounding (``int(round(...))``)
    floors sub-second advice -- 1400 ms became ``1`` and anything under
    500 ms became ``0``-clamped-to-``1`` by accident rather than by
    contract.  A client honouring the header as its backoff floor would
    then retry *before* the millisecond advice in the body, defeating
    the advice-as-floor contract.  Ceiling keeps the header a
    conservative upper bound of ``retry_after_ms``.
    """
    return str(max(1, math.ceil(float(retry_after_ms) / 1000.0)))


class _HttpError(Exception):
    def __init__(self, status: int, message: str, extra: dict | None = None,
                 headers: dict | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.extra = extra or {}
        self.headers = headers or {}

    def body(self) -> dict:
        return {"error": self.message, **self.extra}


class _RawBody:
    """A non-JSON response body (the dashboard page)."""

    def __init__(self, body: bytes, content_type: str):
        self.body = body
        self.content_type = content_type


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _ConnState:
    """Liveness bookkeeping of one open connection (slow-loris eviction)."""

    __slots__ = ("writer", "last_activity", "busy")

    def __init__(self, writer, now: float):
        self.writer = writer
        self.last_activity = now
        #: A busy connection is awaiting an admitted request's result --
        #: evicting it would lose a ledgered response, so eviction only
        #: ever targets idle (reading/parked) connections.
        self.busy = False


@dataclass(frozen=True)
class ServeConfig:
    """The operator's serving settings: one field per ``repro.cli serve``
    flag, with that flag's meaning and default (``alert_rules`` and
    ``alert_routes`` hold the parsed files; None keeps the defaults).

    Every topology (a single server, each ``--shards`` child, a
    ``--federate`` member) runs from the same config.  The one field a
    topology rewrites is ``telemetry_dir``: a ``--shards`` child spools
    under ``<telemetry_dir>/telemetry`` (see
    :func:`repro.serve.sharding.serve_member`).
    """

    scale: str = "fast"
    fork_workers: int = 0
    host: str = "127.0.0.1"
    port: int = 8421
    telemetry_dir: str | None = None
    spool_budget_bytes: int = 0
    max_connections: int = 256
    alerts: bool = True
    alert_rules: tuple | None = None
    alert_webhook: str | None = None
    alert_routes: tuple | None = None
    probe_interval_s: float = 0.0
    tracing: bool = True
    trace_sample: float = 0.1

    def __post_init__(self):
        if self.max_connections < 1:
            raise ValueError("--max-connections must be at least 1")
        if self.spool_budget_bytes < 0:
            raise ValueError("--spool-budget-mb must not be negative")
        if self.probe_interval_s < 0:
            raise ValueError("--probe-interval-s must not be negative")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ValueError("--trace-sample must be in [0, 1]")


class NBSMTServer:
    """The serving subsystem assembled: registry + pool + batchers + HTTP.

    The keyword-only arguments are parts a topology or a test injects.
    """

    def __init__(
        self,
        registry: ServeRegistry | None = None,
        config: ServeConfig = ServeConfig(),
        *,
        pool: EnginePool | None = None,
        sock=None,
        shard_exchange=None,
        coordinator=None,
        clock=time.monotonic,
    ):
        self.registry = registry or default_registry()
        self.config = config
        self.host = config.host
        self.port = config.port
        self.metrics = MetricsRegistry()
        self.pool = pool or EnginePool(
            self.registry, scale=config.scale, fork_workers=config.fork_workers
        )
        self.batchers: dict[str, DynamicBatcher] = {}
        self.governors: dict[str, EndpointGovernor] = {}
        self.shard_exchange = shard_exchange
        self.shard_index = getattr(shard_exchange, "shard_index", 0)
        self.coordinator = coordinator
        # Telemetry: events publish on the process bus; with a spool dir
        # (sharded mode) they also spill to disk so any shard's relay can
        # stream the whole service's events from `/v1/events`.  A sink
        # attached before the server (a federated member's remote spool)
        # stays; the directory then holds the history and trace rings.
        bus = telemetry_bus.get_bus()
        bus.configure_source(role="serve", shard=self.shard_index)
        telemetry_dir = config.telemetry_dir
        self._owns_spool = False
        if telemetry_dir is not None and bus.spool_dir is None:
            budget = None
            if config.spool_budget_bytes > 0:
                from repro.utils.diskbudget import DiskBudget

                budget = DiskBudget(
                    telemetry_dir, config.spool_budget_bytes,
                    name="telemetry-spool",
                )
            bus.attach_spool(telemetry_dir, role="serve", budget=budget)
            self._owns_spool = True
        self.relay = EventRelay(
            local_bus=bus,
            spool_dir=telemetry_dir,
            stats_name=(
                f"shard{self.shard_index}" if telemetry_dir is not None
                else None
            ),
        )
        # -- alert engine + health history (see repro.telemetry.alerts) ----
        self.alert_engine = None
        self.history = None
        self._webhook = None
        self._history_callback = None
        self._probe_arrays: dict[str, np.ndarray] = {}
        self._last_corrupt_lines = 0
        if config.alerts:
            from repro.telemetry import alerts as telemetry_alerts

            if telemetry_dir is not None:
                # A subdirectory keeps the history ring out of the relay
                # follower's glob (its events would otherwise re-ingest).
                self.history = telemetry_alerts.AlertHistoryStore(
                    os.path.join(str(telemetry_dir), "history")
                )
            rules = (
                list(config.alert_rules) if config.alert_rules is not None
                else telemetry_alerts.default_rules()
            )
            if config.probe_interval_s > 0:
                rules.append(telemetry_alerts.probe_rule(config.probe_interval_s))
            sinks = {}
            if config.alert_webhook:
                self._webhook = telemetry_alerts.WebhookSink(config.alert_webhook)
                sinks["webhook"] = self._webhook
            self.alert_engine = telemetry_alerts.AlertEngine(
                rules,
                publish=telemetry_bus.publish,
                sinks=sinks,
                store=self.history,
                routes=config.alert_routes,
            )
            # The engine sees everything the relay sees: the local bus
            # plus (when sharded) every peer's followed spool.
            self.relay.add_consumer(self.alert_engine.consume)
            if self.history is not None:
                # Replay the surviving ring window so timelines and the
                # alert timeline pick up where the last process stopped;
                # then record this process's own events (each shard
                # records its own -- peers' rings live in the same
                # directory, merged on the next load).
                try:
                    replayed = self.history.load()
                except (OSError, ValueError):
                    replayed = []
                imported = []
                for event in replayed:
                    self.relay.aggregator.consume(event)
                    if event.type in telemetry_alerts.ALERT_EVENT_TYPES:
                        imported.append(dict(event.data))
                self.alert_engine.import_history(imported)
                self._history_callback = bus.subscribe(
                    callback=self.history.record
                )
        # -- distributed request tracing (see repro.telemetry.tracing) -----
        self.tracer = None
        self.trace_store = None
        self._trace_callback = None
        if config.tracing:
            self.tracer = Tracer(
                publish=telemetry_bus.publish, sample_rate=config.trace_sample
            )
            if telemetry_dir is not None:
                # Same trick as the history ring: a subdirectory keeps the
                # trace ring out of the relay follower's glob.
                self.trace_store = TraceStore(
                    os.path.join(str(telemetry_dir), "traces")
                )
                self._trace_callback = bus.subscribe(
                    callback=self.trace_store.record
                )
        self._last_shed: dict[str, int] = {}
        self._last_expired: dict[str, int] = {}
        self._sock = sock
        self._server: asyncio.AbstractServer | None = None
        self._stop_event: asyncio.Event | None = None
        self._background_tasks: list[asyncio.Task] = []
        self._stopped = False
        self._draining = False
        # -- socket hardening (request lifelines) --------------------------
        self.clock = clock
        self._connections: set[_ConnState] = set()
        self._active_requests = 0
        self.evicted_connections = 0
        self.refused_connections = 0
        self.timed_out_reads = 0
        self.timed_out_writes = 0
        self.idempotent_replays = 0
        self._idempotency: OrderedDict[str, object] = OrderedDict()

    # -- endpoint assembly -------------------------------------------------
    def build_endpoints(self) -> None:
        """Warm every registered endpoint and start its batcher.

        Idempotent: endpoints already built are skipped, so an in-process
        stack (:class:`repro.chaos.drive.ServingStack`) can build them
        before :meth:`start` without building them twice.
        """
        for name in self.registry.names():
            if name in self.batchers:
                continue
            spec = self.registry.get(name)
            endpoint_metrics = self.metrics.endpoint(
                name,
                batch_capacity=spec.max_batch,
                latency_budget_ms=spec.latency_budget_ms,
            )
            runner = self.pool.runner_for(
                name, metrics=endpoint_metrics, with_point=True
            )

            def on_batch(report, _record=endpoint_metrics.record_batch,
                         _name=name):
                _record(report)
                telemetry_bus.publish(
                    "batch_served",
                    endpoint=_name,
                    images=report.num_images,
                    service_s=report.service_seconds,
                )

            batcher = DynamicBatcher(
                runner,
                max_batch=spec.max_batch,
                on_batch=on_batch,
                # One assembly thread per replica keeps every forked worker
                # busy; a single in-process replica gets a single thread.
                workers=self.pool.replica_count(name),
                name=f"batch-{name}",
                clock=self.clock,
                tracer=self.tracer,
            )
            self.batchers[name] = batcher
            ladder = self.pool.ladder(name)
            controller = (
                QoSController(len(ladder), config=_QOS_CONFIG)
                if len(ladder) > 1
                else None
            )
            self.governors[name] = EndpointGovernor(
                endpoint=name,
                pool=self.pool,
                admission=self.registry.admission(name),
                batcher=batcher,
                metrics=endpoint_metrics,
                controller=controller,
                coordinator=(
                    self.coordinator if controller is not None else None
                ),
            )
            endpoint_metrics.set_operating_point(
                self.pool.current_level(name),
                self.pool.current_point(name).describe(),
            )

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Warm the endpoints and start listening (sets :attr:`host` and
        :attr:`port` from the bound socket)."""
        self._stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        # Endpoint warm-up trains/calibrates on first use; keep it off the
        # event loop thread so health checks stay responsive once up.
        await loop.run_in_executor(None, self.build_endpoints)
        if self._sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=self._sock
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.host,
                port=self.port,
            )
        sockets = self._server.sockets or []
        if sockets:
            # The bound address, not the constructor's: a shard listening
            # on an inherited socket reports where it really listens.
            self.host, self.port = sockets[0].getsockname()[:2]
        if any(
            governor.controller is not None
            for governor in self.governors.values()
        ):
            self._background_tasks.append(
                asyncio.create_task(self._qos_loop())
            )
        if self.shard_exchange is not None:
            self._background_tasks.append(
                asyncio.create_task(self._publish_loop())
            )
        self._background_tasks.append(
            asyncio.create_task(self._telemetry_loop())
        )
        if self.config.probe_interval_s > 0 and self.alert_engine is not None:
            self._background_tasks.append(
                asyncio.create_task(self._probe_loop())
            )
        if self.relay.follower is not None:
            self._background_tasks.append(
                asyncio.create_task(self._follow_loop())
            )
        telemetry_bus.publish(
            "server_started",
            endpoints=sorted(self.batchers),
            host=self.host,
            port=self.port,
        )

    async def _qos_loop(self) -> None:
        """Periodic QoS tick: walk every adaptive endpoint's ladder.

        Applying a transition waits on replica execution locks (up to one
        in-flight batch), so ticks run on the executor, never on the event
        loop thread.
        """
        loop = asyncio.get_running_loop()

        tick_errors: dict[str, str] = {}

        def tick_all():
            for governor in self.governors.values():
                try:
                    transition = governor.tick()
                except Exception as exc:  # noqa: BLE001 - loop must survive
                    # One endpoint's failed transition (e.g. a dead forked
                    # replica mid-swap) must not kill adaptivity for every
                    # endpoint; the governor already resynced its
                    # controller.  Log once per distinct error.
                    if self._stopped:
                        return
                    message = repr(exc)
                    if tick_errors.get(governor.endpoint) != message:
                        tick_errors[governor.endpoint] = message
                        print(
                            f"repro.serve: qos tick for {governor.endpoint} "
                            f"failed: {message}",
                            flush=True,
                        )
                    continue
                tick_errors.pop(governor.endpoint, None)
                if transition is not None:
                    print(
                        f"repro.serve: {governor.endpoint} "
                        f"{transition.direction} rung "
                        f"{transition.from_level}->{transition.to_level} "
                        f"({transition.reason})",
                        flush=True,
                    )

        while not self._stopped:
            await loop.run_in_executor(None, tick_all)
            await asyncio.sleep(_QOS_TICK_S)

    async def _publish_loop(self) -> None:
        """Periodically publish this shard's mergeable metrics payload."""
        loop = asyncio.get_running_loop()
        while not self._stopped:
            await loop.run_in_executor(None, self._publish_metrics)
            await asyncio.sleep(_SHARD_PUBLISH_S)

    def _publish_metrics(self) -> None:
        try:
            self.shard_exchange.publish(self.metrics.to_payload())
        except OSError:  # pragma: no cover - spool dir torn down
            pass

    async def _telemetry_loop(self) -> None:
        """Periodic ``endpoint_health`` events (the dashboard's heartbeat)."""
        loop = asyncio.get_running_loop()
        while not self._stopped:
            await loop.run_in_executor(None, self.publish_health)
            await asyncio.sleep(_TELEMETRY_TICK_S)

    async def _follow_loop(self) -> None:
        """Relay peer shards' spool events into this shard's SSE streams."""
        loop = asyncio.get_running_loop()
        while not self._stopped:
            await loop.run_in_executor(None, self.relay.poll)
            await asyncio.sleep(0.25)

    async def _probe_loop(self) -> None:
        """Synthetic self-test requests per endpoint (``probe_result``)."""
        loop = asyncio.get_running_loop()
        while not self._stopped:
            await loop.run_in_executor(None, self._run_probes)
            await asyncio.sleep(self.config.probe_interval_s)

    def _run_probes(self) -> None:
        """One probe request through each endpoint's real data path.

        Probes submit straight into the batcher -- deliberately past
        admission control, so a load-shedding endpoint still proves its
        compute path works -- and publish ``probe_result`` events that
        feed the ``probe_failure`` rule.  A saturated batcher queue
        (QueueFull) or an engine error both count as a failed probe.
        """
        bus = telemetry_bus.get_bus()
        for name in list(self.batchers):
            if self._stopped or self._draining:
                return
            started = self.clock()
            level = None
            try:
                image = self._probe_arrays.get(name)
                if image is None:
                    image = np.zeros(
                        (1, *self.pool.input_shape(name)), dtype=np.float32
                    )
                    self._probe_arrays[name] = image
                future = self.batchers[name].submit(image, size=1)
                logits, level = future.result(
                    timeout=max(1.0, self.config.probe_interval_s)
                )
                ok = bool(np.isfinite(np.asarray(logits)).all())
                reason = None if ok else "non-finite logits"
            except Exception as exc:  # noqa: BLE001 - a failed probe is data
                ok = False
                reason = repr(exc)
            bus.publish(
                "probe_result",
                endpoint=name,
                ok=ok,
                failed=not ok,
                latency_ms=(self.clock() - started) * 1000.0,
                level=level,
                reason=reason,
            )

    def publish_health(self) -> None:
        """One health event per endpoint, plus aggregated shed deltas."""
        bus = telemetry_bus.get_bus()
        if not bus.active:
            return
        replica_health = self.pool.replica_health()
        for name in list(self.batchers):
            metrics = self.metrics.endpoint(name)
            admission = self.registry.admission(name)
            rates = metrics.recent_rates()
            rejected = metrics.rejected_images
            shed_delta = rejected - self._last_shed.get(name, 0)
            self._last_shed[name] = rejected
            if shed_delta > 0:
                bus.publish("shed", endpoint=name, images=shed_delta)
            expired = metrics.expired_images
            expired_delta = expired - self._last_expired.get(name, 0)
            self._last_expired[name] = expired
            if expired_delta > 0:
                bus.publish("expired", endpoint=name, images=expired_delta)
            bus.publish(
                "endpoint_health",
                endpoint=name,
                requests=metrics.requests,
                images=metrics.images,
                rejected_images=rejected,
                expired_images=expired,
                throughput_images_per_s=metrics.throughput(),
                goodput_images_per_s=rates["goodput_images_per_s"],
                recent_requests_per_s=rates["requests_per_s"],
                recent_p99_ms=metrics.recent_p99() * 1000.0,
                pressure=admission.pressure,
                admission_price=admission.price,
                level=self.pool.current_level(name),
                latency=metrics.latency.to_payload(),
                latency_budget_ms=metrics.latency_budget_ms,
                replicas=replica_health.get(name),
            )
        # Spool-corruption heartbeat: cumulative across follower restarts
        # (the relay persists a baseline), delta per tick.  Published
        # every tick -- the `spool_corruption` rule needs clean events to
        # sustain its clear streak and resolve.
        stats = self.relay.corruption_stats()
        corrupt = int(stats["corrupt_lines"])
        delta = max(0, corrupt - self._last_corrupt_lines)
        self._last_corrupt_lines = corrupt
        bus.publish(
            "spool_health", corrupt_lines=corrupt, corrupt_delta=delta
        )

    async def stop(self) -> None:
        """Graceful, drain-aware shutdown.

        Ordering matters for rolling restarts of a sharded front-end:
        first ``/healthz`` flips to ``draining`` (503) and the listener
        closes -- the load balancer and the kernel's ``SO_REUSEPORT``
        group both stop routing *new* work here -- then in-flight
        requests get a bounded grace period to finish (keep-alive
        connections close after their current response), lingering
        connections are aborted, and only then do the batchers drain and
        the engine pool close.
        """
        if self._stopped or self._draining:
            return
        self._draining = True
        telemetry_bus.publish(
            "server_draining", endpoints=sorted(self.batchers)
        )
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        drain_until = self.clock() + _DRAIN_TIMEOUT_S
        while self._active_requests > 0 and self.clock() < drain_until:
            await asyncio.sleep(0.02)
        self._stopped = True
        for state in list(self._connections):
            transport = state.writer.transport
            if transport is not None:
                transport.abort()
        for task in self._background_tasks:
            task.cancel()
        for task in self._background_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        loop = asyncio.get_running_loop()

        def drain_and_close():
            for batcher in self.batchers.values():
                batcher.close(drain=True)
            self.pool.close()

        await loop.run_in_executor(None, drain_and_close)
        telemetry_bus.publish("server_stopped", endpoints=sorted(self.batchers))
        self.relay.close()
        if self._history_callback is not None:
            telemetry_bus.get_bus().unsubscribe(self._history_callback)
            self._history_callback = None
        if self._trace_callback is not None:
            telemetry_bus.get_bus().unsubscribe(self._trace_callback)
            self._trace_callback = None
        if self.trace_store is not None:
            self.trace_store.close()
        if self._webhook is not None:
            self._webhook.close(timeout=1.0)
        if self.history is not None:
            self.history.close()
        if self._owns_spool:
            telemetry_bus.get_bus().detach_spool()
        if self._stop_event is not None:
            self._stop_event.set()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.stop())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    async def serve_forever(self) -> None:
        """Start, install signal handlers, and run until stopped."""
        await self.start()
        self.install_signal_handlers()
        print(
            f"repro.serve: listening on http://{self.host}:{self.port} "
            f"(endpoints: {', '.join(sorted(self.batchers)) or 'none'})",
            flush=True,
        )
        await self._stop_event.wait()

    # -- HTTP plumbing -----------------------------------------------------
    def _evict_idlest(self) -> bool:
        """Abort the longest-idle non-busy connection (slow-loris victim).

        Only idle connections are candidates -- a busy one is awaiting an
        admitted request's result, and evicting it would turn a ledgered
        in-flight request into a lost response.
        """
        candidates = [s for s in self._connections if not s.busy]
        if not candidates:
            return False
        victim = min(candidates, key=lambda s: s.last_activity)
        self.evicted_connections += 1
        transport = victim.writer.transport
        if transport is not None:
            transport.abort()
        # The victim's handler wakes with a reset and unregisters itself;
        # drop it from the set now so the accounting never over-counts.
        self._connections.discard(victim)
        return True

    async def _handle_connection(self, reader, writer) -> None:
        state = _ConnState(writer, self.clock())
        if self._draining:
            # The listener is closed, but a connection may have been
            # accepted into the kernel backlog before that.
            self.refused_connections += 1
            transport = writer.transport
            if transport is not None:
                transport.abort()
            return
        if len(self._connections) >= self.config.max_connections:
            if not self._evict_idlest():
                # Every slot is busy computing: refuse the newcomer rather
                # than kill an in-flight response.
                self.refused_connections += 1
                transport = writer.transport
                if transport is not None:
                    transport.abort()
                return
        self._connections.add(state)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    await self._write_response(
                        writer, exc.status, {"error": exc.message}, False
                    )
                    break
                if request is None:
                    break
                state.last_activity = self.clock()
                method, path, headers, body = request
                if path.split("?", 1)[0] == "/v1/events":
                    # SSE takes over the connection (no framing, no reuse).
                    if method != "GET":
                        await self._write_response(
                            writer, 405, {"error": "use GET"}, False
                        )
                        break
                    await stream_sse(
                        writer,
                        self.relay,
                        stopped=lambda: self._stopped or self._draining,
                    )
                    break
                extra_headers: dict[str, str] = {}
                trace = root_span = None
                if (
                    self.tracer is not None
                    and path.split("?", 1)[0].endswith(":predict")
                ):
                    # Front door of the trace: honor an inbound id, echo
                    # it on the response, open the root request span.
                    trace = self.tracer.trace(headers.get(TRACE_HEADER))
                    extra_headers["X-Trace-Id"] = trace.trace_id
                    root_span = self.tracer.start_span(
                        trace, "request", root=True,
                        method=method, path=path.split("?", 1)[0],
                        shard=self.shard_index,
                    )
                state.busy = True
                self._active_requests += 1
                try:
                    status, payload = await self._route(
                        method, path, body, headers, trace=trace
                    )
                except _HttpError as exc:
                    status, payload = exc.status, exc.body()
                    extra_headers = {**extra_headers, **exc.headers}
                except Exception as exc:  # noqa: BLE001 - reported as 500
                    status, payload = 500, {"error": repr(exc)}
                finally:
                    state.busy = False
                    self._active_requests -= 1
                    state.last_activity = self.clock()
                if root_span is not None:
                    root_span.finish(
                        status="ok" if status < 400 else f"http_{status}",
                        http_status=status,
                    )
                    self._apply_exemplar_policy(trace, status)
                keep_alive = (
                    headers.get("connection", "keep-alive") != "close"
                    and not self._draining
                )
                await self._write_response(
                    writer, status, payload, keep_alive, extra_headers
                )
                state.last_activity = self.clock()
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(state)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError):  # pragma: no cover
                pass

    async def _read_line(self, reader) -> bytes:
        """One header line within the read timeout (slow-loris defense).

        The timeout bounds *each line*, not the whole header block -- but
        with the header byte cap a dripping client can stretch the read
        phase to at most ``_READ_TIMEOUT_S`` per line over a bounded number
        of lines before 431/408 reclaims the connection.
        """
        try:
            return await asyncio.wait_for(
                reader.readline(), timeout=_READ_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            self.timed_out_reads += 1
            raise _HttpError(408, "timed out reading request") from None

    async def _read_request(self, reader):
        request_line = await self._read_line(reader)
        if not request_line:
            return None
        header_bytes = len(request_line)
        if header_bytes > _MAX_HEADER_BYTES:
            raise _HttpError(431, "request line too large")
        try:
            method, path, _version = request_line.decode("ascii").split(None, 2)
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers: dict[str, str] = {}
        while True:
            line = await self._read_line(reader)
            header_bytes += len(line)
            if header_bytes > _MAX_HEADER_BYTES:
                raise _HttpError(431, "request headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip().lower()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "malformed Content-Length header") from None
        if length > _MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=_BODY_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                # Mid-body disconnect or byte-drip: the declared body never
                # arrived inside the budget.
                self.timed_out_reads += 1
                raise _HttpError(408, "timed out reading request body") from None
        else:
            body = b""
        return method.upper(), path, headers, body

    async def _write_response(
        self, writer, status: int, payload, keep_alive: bool,
        extra_headers: dict | None = None,
    ) -> None:
        if isinstance(payload, _RawBody):
            body = payload.body
            content_type = payload.content_type
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        headers = "".join(
            f"{name}: {value}\r\n"
            for name, value in (extra_headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{headers}"
            "\r\n"
        ).encode("ascii")
        writer.write(head + body)
        try:
            await asyncio.wait_for(writer.drain(), timeout=_WRITE_TIMEOUT_S)
        except asyncio.TimeoutError:
            # A client that stopped reading (byte-drip / half-open) is
            # holding our buffers hostage; abort rather than wait forever.
            self.timed_out_writes += 1
            transport = writer.transport
            if transport is not None:
                transport.abort()
            raise ConnectionResetError("response write timed out") from None

    # -- routing -----------------------------------------------------------
    async def _route(self, method: str, path: str, body: bytes, headers=None,
                     trace=None):
        path = path.split("?", 1)[0]
        if path == "/healthz":
            if self._draining or self._stopped:
                # 503 takes a draining shard out of LB rotation while its
                # in-flight requests finish.
                return 503, {
                    "status": "draining",
                    "endpoints": sorted(self.batchers),
                    "active_requests": self._active_requests,
                }
            replica_health = self.pool.replica_health()
            degraded = sorted(
                name
                for name, health in replica_health.items()
                if health.get("degraded")
            )
            payload = {
                # "degraded" (not an error status) -- the endpoint still
                # serves on its surviving replicas; load balancers may
                # prefer an undamaged shard.
                "status": "degraded" if degraded else "ok",
                "endpoints": sorted(self.batchers),
                "degraded_endpoints": degraded,
                "connections": self.connection_stats(),
            }
            if self.alert_engine is not None:
                payload["active_alerts"] = len(self.alert_engine.active())
            return 200, payload
        if path == "/v1/models":
            if method != "GET":
                raise _HttpError(405, "use GET")
            return 200, {"models": self.registry.describe()}
        if path in ("/dashboard", "/dashboard/"):
            if method != "GET":
                raise _HttpError(405, "use GET")
            return 200, _RawBody(
                DASHBOARD_HTML.encode("utf-8"), "text/html; charset=utf-8"
            )
        if path == "/v1/telemetry":
            if method != "GET":
                raise _HttpError(405, "use GET")
            snapshot = self.relay.snapshot()
            if self.alert_engine is not None:
                # The aggregator's "alerts" key is the event-derived view
                # (any relay has it); the engine view adds rules + state.
                snapshot["alerts_engine"] = self.alert_engine.snapshot()
            if self.tracer is not None:
                snapshot["tracing"] = self.tracer.snapshot()
            return 200, snapshot
        if path == "/v1/traces" or path.startswith("/v1/traces/"):
            if method != "GET":
                raise _HttpError(405, "use GET")
            if path in ("/v1/traces", "/v1/traces/"):
                return 200, {"traces": self.relay.trace_summaries()}
            trace_id = path[len("/v1/traces/"):]
            spans = self.relay.trace_spans(trace_id)
            if not spans:
                raise _HttpError(404, f"unknown trace {trace_id!r}")
            return 200, {"trace_id": trace_id, "spans": spans}
        if path == "/v1/history":
            if method != "GET":
                raise _HttpError(405, "use GET")
            if self.history is None:
                return 200, {"events": []}
            loop = asyncio.get_running_loop()
            return 200, await loop.run_in_executor(None, self._history_strip)
        if path == "/v1/metrics":
            if method != "GET":
                raise _HttpError(405, "use GET")
            if self.shard_exchange is not None:
                loop = asyncio.get_running_loop()
                return 200, await loop.run_in_executor(
                    None, self._merged_metrics
                )
            return 200, self.metrics.snapshot()
        if path.startswith("/v1/models/") and path.endswith("/operating_point"):
            name = path[len("/v1/models/") : -len("/operating_point")]
            return await self._operating_point(method, name, body)
        if path.startswith("/v1/models/") and path.endswith(":predict"):
            if method != "POST":
                raise _HttpError(405, "use POST")
            name = path[len("/v1/models/") : -len(":predict")]
            return await self._predict(name, body, headers, trace=trace)
        raise _HttpError(404, f"no route for {method} {path}")

    def connection_stats(self) -> dict:
        """Socket-hardening counters (surfaced by ``/healthz``)."""
        return {
            "open": len(self._connections),
            "max": self.config.max_connections,
            "active_requests": self._active_requests,
            "evicted": self.evicted_connections,
            "refused": self.refused_connections,
            "timed_out_reads": self.timed_out_reads,
            "timed_out_writes": self.timed_out_writes,
            "idempotent_replays": self.idempotent_replays,
        }

    def _history_strip(self) -> dict:
        """Persisted-history replay (the dashboard's timeline strip).

        Served off the event loop (ring replay reads files); bounded to
        the newest window so the response stays dashboard-sized.
        """
        try:
            events = self.history.load(compact=False)
        except (OSError, ValueError):
            events = []
        return {
            "events": [
                {"type": event.type, "at": event.at, "data": event.data}
                for event in events[-400:]
            ]
        }

    def _merged_metrics(self) -> dict:
        """Whole-service metrics: this shard's live state + published peers."""
        self._publish_metrics()  # peers merging *us* see fresh numbers too
        peers, sources = self.shard_exchange.gather_peers()
        merged = merge_registry_payloads([self.metrics.to_payload(), *peers])
        merged["shards"] = {
            "index": self.shard_index,
            "count": self.shard_exchange.shard_count,
            "merged": 1 + len(peers),
            "peers": sources,
        }
        return merged

    async def _operating_point(self, method: str, name: str, body: bytes):
        """Inspect (GET) or override (POST) one endpoint's ladder rung."""
        try:
            self.registry.get(name)
        except KeyError as exc:
            raise _HttpError(404, str(exc)) from None
        governor = self.governors.get(name)
        if governor is None:
            raise _HttpError(503, f"endpoint {name!r} is still warming up")
        if method == "GET":
            pass
        elif method == "POST":
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
                if not isinstance(payload, dict):
                    raise ValueError(f"expected a JSON object, got {payload!r}")
                level = payload.get("level")
                if level is not None:
                    level = int(level)
                hold = payload.get("hold")
                if hold is not None:
                    hold = bool(hold)
            except (ValueError, TypeError) as exc:
                raise _HttpError(400, f"bad request body: {exc!r}") from None
            if level is None and hold is None:
                raise _HttpError(400, 'body must set "level" and/or "hold"')
            loop = asyncio.get_running_loop()
            try:
                if level is None and hold is False:
                    # {"hold": false} alone resumes automatic walking.
                    governor.release()
                else:
                    # {"hold": true} alone pins the *current* rung; a
                    # level-only body moves the rung without touching any
                    # existing hold.
                    if level is None:
                        level = self.pool.current_level(name)
                    await loop.run_in_executor(
                        None, governor.force, level, hold
                    )
            except ValueError as exc:
                raise _HttpError(400, str(exc)) from None
        else:
            raise _HttpError(405, "use GET or POST")
        ladder = self.pool.ladder(name)
        level = self.pool.current_level(name)
        return 200, {
            "endpoint": name,
            "level": level,
            "num_rungs": len(ladder),
            "point": ladder[level].describe(),
            "ladder": ladder.describe(),
            "controller": governor.snapshot(),
            "pacing_unit_s_per_image": self.pool.pacing_unit(name),
        }

    def _apply_exemplar_policy(self, trace, status: int) -> None:
        """Tail-sampling verdict for one finished request trace.

        Sampled traces already published.  For unsampled ones: anything
        interesting -- shed (429), expired (504), any other error -- is
        retroactively kept (the budget-breach keep happens inside
        ``_predict_once``, where the latency budget is known); a clean
        fast response is discarded so the exemplar ring holds recent
        *candidates*, not served history.
        """
        if trace is None or trace.sampled:
            return
        if status == 429:
            self.tracer.keep(trace, "shed")
        elif status == 504:
            self.tracer.keep(trace, "expired")
        elif status >= 400:
            self.tracer.keep(trace, "error")
        else:
            self.tracer.discard(trace)

    def _shed_error(self, name: str, message: str) -> _HttpError:
        """A 429 priced at the rung the retried request should expect.

        ``expected_rung`` is the rung the endpoint currently serves at --
        under the coordinator, the service-wide recommendation every shard
        follows -- so a client library can decide whether a retry is worth
        it (a degraded rung answers faster but noisier).  ``Retry-After``
        advises a fixed ``_RETRY_AFTER_MS`` back-off.
        """
        try:
            expected = self.pool.current_level(name)
            point = self.pool.current_point(name).describe()
        except Exception:  # noqa: BLE001 - endpoint still warming up
            expected, point = 0, None
        return _HttpError(
            429,
            message,
            extra={
                "expected_rung": expected,
                "expected_point": point,
                "retry_after_ms": _RETRY_AFTER_MS,
            },
            headers={"Retry-After": retry_after_header(_RETRY_AFTER_MS)},
        )

    async def _predict(self, name: str, body: bytes, headers=None, trace=None):
        """Predict with idempotency-key dedup in front of the data path.

        A request carrying ``X-Idempotency-Key`` never double-resolves: a
        concurrent duplicate awaits the original's in-flight future, and a
        later duplicate replays the recorded response (marked
        ``idempotent_replay``).  Terminal outcomes (200, 504) are cached;
        sheds and errors are not -- a retry after a 429 must re-run.
        """
        key = (headers or {}).get(IDEMPOTENCY_HEADER)
        if not key:
            return await self._predict_once(name, body, headers, trace=trace)
        entry = self._idempotency.get(key)
        if entry is not None:
            if isinstance(entry, asyncio.Future):
                # Shield: the duplicate's connection dying must not cancel
                # the original request's bookkeeping.
                status, payload = await asyncio.shield(entry)
            else:
                self._idempotency.move_to_end(key)
                status, payload = entry
            self.idempotent_replays += 1
            payload = dict(payload)
            payload["idempotent_replay"] = True
            return status, payload
        future = asyncio.get_running_loop().create_future()
        self._idempotency[key] = future
        error: _HttpError | None = None
        try:
            status, payload = await self._predict_once(
                name, body, headers, trace=trace
            )
        except _HttpError as exc:
            error = exc
            status, payload = exc.status, exc.body()
        except BaseException:
            # Unexpected failure: nothing to replay; let duplicates re-run.
            self._idempotency.pop(key, None)
            if not future.done():
                future.set_result((500, {"error": "original attempt died"}))
            raise
        if not future.done():
            future.set_result((status, payload))
        if status in (200, 504):
            self._idempotency[key] = (status, payload)
            while len(self._idempotency) > _IDEMPOTENCY_CACHE:
                self._idempotency.popitem(last=False)
        else:
            self._idempotency.pop(key, None)
        if error is not None:
            raise error
        return status, payload

    def _deadline_error(self, deadline: Deadline) -> _HttpError:
        late_ms = max(0.0, -deadline.remaining_ms(self.clock))
        return _HttpError(
            504,
            "deadline_exceeded",
            extra={"late_by_ms": late_ms},
        )

    async def _predict_once(self, name: str, body: bytes, headers=None,
                            trace=None):
        if self._stopped or self._draining:
            raise _HttpError(503, "server is draining")
        try:
            spec = self.registry.get(name)
        except KeyError as exc:
            raise _HttpError(404, str(exc)) from None
        try:
            payload = json.loads(body.decode("utf-8"))
            inputs = np.asarray(payload["inputs"], dtype=np.float32)
        except (ValueError, KeyError, TypeError) as exc:
            raise _HttpError(400, f"bad request body: {exc!r}") from None
        try:
            budget_ms = parse_deadline_ms(headers, payload)
        except ValueError as exc:
            raise _HttpError(400, str(exc)) from None
        if budget_ms is None and spec.default_deadline_ms > 0:
            budget_ms = spec.default_deadline_ms
        deadline = (
            Deadline.after_ms(budget_ms, clock=self.clock)
            if budget_ms is not None
            else None
        )
        if inputs.ndim == 3:
            inputs = inputs[np.newaxis]
        if inputs.ndim != 4 or inputs.shape[0] == 0:
            raise _HttpError(
                400, f"inputs must be (C,H,W) or (B,C,H,W); got {inputs.shape}"
            )
        # Validate the per-image shape up front: a mismatched request must
        # fail alone with a 400, never poison the batch it would have been
        # coalesced into.
        expected = self.pool.input_shape(name)
        if tuple(inputs.shape[1:]) != expected:
            raise _HttpError(
                400,
                f"endpoint {name!r} expects images of shape {expected}; "
                f"got {tuple(inputs.shape[1:])}",
            )
        images = int(inputs.shape[0])
        endpoint_metrics = self.metrics.endpoint(name)
        admission = self.registry.admission(name)
        if deadline is not None and deadline.expired(self.clock):
            # Dead on arrival: refuse at the door, never reserve an
            # admission slot or queue work the client stopped waiting for.
            admission.note_expired_arrival(images)
            endpoint_metrics.record_expiry(images)
            raise self._deadline_error(deadline)
        admission_span = (
            self.tracer.start_span(
                trace, "admission", endpoint=name, images=images,
                pressure=admission.pressure,
            )
            if trace is not None
            else None
        )
        if not admission.try_admit(images):
            if admission_span is not None:
                admission_span.finish(status="shed")
            endpoint_metrics.record_rejection(images)
            raise self._shed_error(
                name,
                f"endpoint {name!r} is saturated "
                f"({admission.in_flight}/{admission.capacity} images in flight)",
            )
        if admission_span is not None:
            admission_span.finish()
        started = self.clock()
        try:
            future = self.batchers[name].submit(
                inputs, size=images, deadline=deadline, trace=trace
            )
            logits, level = await asyncio.wrap_future(future)
        except QueueFull as exc:
            endpoint_metrics.record_rejection(images)
            raise self._shed_error(name, str(exc)) from None
        except DeadlineExceeded:
            # The batcher cancelled this request before compute: a shed,
            # not a failure -- counted as an expiry, answered explicitly.
            endpoint_metrics.record_expiry(images)
            raise self._deadline_error(deadline) from None
        except Exception:
            endpoint_metrics.record_failure()
            raise
        finally:
            admission.release(images)
        latency = self.clock() - started
        endpoint_metrics.record_request(latency, images)
        if (
            trace is not None
            and not trace.sampled
            and (spec.latency_budget_ms or 0) > 0
            and latency * 1000.0 > spec.latency_budget_ms
        ):
            # Always-sample exemplar: a budget-breaching request is kept
            # no matter the head-sampling verdict, so the dashboard's p99
            # meter has concrete slow traces behind it.
            self.tracer.keep(trace, "budget_breach")
        response = {
            "model": spec.zoo_model,
            "endpoint": name,
            "batch": images,
            "argmax": np.argmax(logits, axis=1).tolist(),
            "outputs": np.asarray(logits).tolist(),
            "latency_ms": latency * 1000.0,
            # The rung that actually served this request -- under the QoS
            # controller it may differ from the rung that admitted it.
            "operating_point": level,
        }
        if trace is not None:
            response["trace_id"] = trace.trace_id
        return 200, response


def run_server(registry, config: ServeConfig, **injected) -> None:
    """Blocking entry point of every ``repro.cli serve`` topology."""
    server = NBSMTServer(registry, config, **injected)
    asyncio.run(server.serve_forever())
