"""A driveable in-process serving stack plus a ledgered open-loop driver.

The chaos suite and the soak lane both need the same thing: the real
serving data path (warm replica pool -> dynamic batcher -> admission
controller -> endpoint metrics) assembled in-process where fault actors
can reach its moving parts, and an open-loop arrival driver whose
per-request accounting feeds a
:class:`~repro.chaos.invariants.ResponseLedger`.  This module is that
shared harness.  Both stacks are a real
:class:`~repro.serve.server.NBSMTServer` assembled by its own code:
:class:`ServingStack` stops short of the listener (the driver enters
below the route layer), :class:`HttpStack` adds it.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.chaos.invariants import ResponseLedger
from repro.serve.deadline import Deadline, DeadlineExceeded


class ServingStack:
    """One endpoint's production serving stack, built for fault injection.

    A real :class:`~repro.serve.server.NBSMTServer` whose endpoints its
    own :meth:`~repro.serve.server.NBSMTServer.build_endpoints` assembled
    -- governor, ``batch_served`` events, tracer and batcher worker count
    are the production wiring -- with no listener.  Fault actors reach
    :attr:`batcher` (``server.batchers[name]``), :attr:`metrics`
    (``server.metrics.endpoint(name)``), :attr:`admission` and the pool.

    ``config`` is the server's :class:`~repro.serve.server.ServeConfig`
    (its ``fork_workers > 0`` backs the endpoint with forked worker
    processes, the :class:`~repro.chaos.actors.ProcessReaper`'s victims);
    the port is always ephemeral.  ``runner_wrap`` interposes on the
    built batcher's runner (the
    :class:`~repro.chaos.actors.ClockPerturber`'s injection point) and
    must forward ``trace=``.
    """

    def __init__(
        self,
        model: str = "resnet18",
        config=None,
        threads: int = 2,
        max_batch: int = 8,
        max_pending: int = 64,
        provider=None,
        runner_wrap=None,
        images=None,
    ):
        from repro.serve.pool import EnginePool
        from repro.serve.registry import default_registry
        from repro.serve.server import NBSMTServer, ServeConfig

        config = replace(config or ServeConfig(), port=0)

        self.registry = default_registry(
            models=[model],
            threads=threads,
            max_batch=max_batch,
            max_pending=max_pending,
        )
        self.spec = self.registry.get(model)
        self.pool = EnginePool(
            self.registry,
            scale=config.scale,
            fork_workers=config.fork_workers,
            provider=provider,
        )
        self.server = NBSMTServer(self.registry, config, pool=self.pool)
        self.server.build_endpoints()
        name = self.spec.name
        self.batcher = self.server.batchers[name]
        if runner_wrap is not None:
            self.batcher.runner = runner_wrap(self.batcher.runner)
        self.metrics = self.server.metrics.endpoint(name)
        self.admission = self.registry.admission(name)
        # Drive images come from the zoo (or the caller), not a replica's
        # harness: with fork workers the parent keeps no harness, and a
        # reaped replica must not take the driver's input data with it.
        if images is None:
            from repro.models.zoo import load_dataset

            images = load_dataset(fast=(config.scale == "fast")).val_images
        self.images = images

    def replica_pids(self) -> list[int]:
        """Live forked-worker pids (the reaper's candidate list)."""
        return self.pool.replica_set(self.spec.name).worker_pids()

    def replica_health(self) -> dict:
        return self.pool.replica_set(self.spec.name).health()

    def close(self) -> None:
        import asyncio

        asyncio.run(self.server.stop())


def drive_open_loop(
    stack: ServingStack,
    *,
    rate: float,
    duration: float,
    budget_s: float = 1.0,
    ledger: ResponseLedger | None = None,
    deadline_ms=None,
) -> dict:
    """Open-loop single-image arrivals, every outcome ledgered.

    Mirrors the server's ``:predict`` path: admission check, batcher
    submit, future callback.  Faults make submits raise and futures carry
    exceptions -- both are *explicit errors* (the request was admitted and
    resolved), which is what the ledger verifies.  Returns the drive
    summary including within-budget goodput.

    ``deadline_ms`` attaches a deadline to each submitted request: a
    number applies uniformly, a callable is invoked with the request index
    (for mixed-deadline traffic) and may return ``None`` for no deadline.
    Requests the batcher cancels at expiry resolve as the ledger's
    ``expired`` outcome and are reported separately from errors.
    """
    ledger = ledger if ledger is not None else ResponseLedger()
    state = {
        "offered": 0,
        "admitted": 0,
        "shed": 0,
        "errored": 0,
        "completed": [],  # (latency,) tuples appended by callbacks
        "expired": [],  # one entry per deadline-expired request
    }
    images = stack.images
    admission = stack.admission
    pending = []
    # Request ids must be unique across drives sharing one ledger (the
    # soak lane drives the same stack in phases): offset by what the
    # ledger has already seen.
    counts_before = ledger.counts()
    id_base = counts_before["offered"]
    resolved_before = counts_before["resolved"]
    started = time.perf_counter()
    index = 0
    while True:
        arrival = started + index / rate
        if arrival - started >= duration:
            break
        delay = arrival - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        image = images[index % images.shape[0] : index % images.shape[0] + 1]
        request_id = id_base + index
        index += 1
        state["offered"] += 1
        ledger.offer()
        if not admission.try_admit(1):
            stack.metrics.record_rejection(1)
            state["shed"] += 1
            ledger.shed_one()
            continue
        ledger.admit(request_id)
        budget_ms = deadline_ms(index - 1) if callable(deadline_ms) else (
            deadline_ms
        )
        deadline = (
            Deadline.after_ms(budget_ms) if budget_ms is not None else None
        )
        issued = time.perf_counter()
        try:
            future = stack.batcher.submit(image, size=1, deadline=deadline)
        except Exception:
            # An explicit, immediate error (e.g. batcher closed by a
            # fault): the admitted request is resolved as errored.
            admission.release(1)
            state["errored"] += 1
            ledger.resolve(request_id, "error")
            continue
        state["admitted"] += 1
        ledger.attach(request_id, future, admission=admission)

        def on_done(done, issued=issued):
            # list.append is atomic; callbacks fire from batcher threads.
            if done.cancelled():
                return
            exc = done.exception()
            if isinstance(exc, DeadlineExceeded):
                state["expired"].append(1)
                return
            if exc is not None:
                return
            state["completed"].append(time.perf_counter() - issued)

        future.add_done_callback(on_done)
        pending.append(future)
    for future in pending:
        try:
            future.result(timeout=120.0)
        except Exception:  # noqa: BLE001 - errors are ledgered outcomes
            pass
    # result() can return before the done-callbacks ran: the ledger (and
    # completion list) settle on the callback, so wait for them.
    admitted_total = state["admitted"] + state["errored"]
    deadline = time.perf_counter() + 30.0
    while time.perf_counter() < deadline:
        if ledger.counts()["resolved"] - resolved_before >= admitted_total:
            break
        time.sleep(0.01)
    elapsed = time.perf_counter() - started
    latencies = sorted(state["completed"])
    expired = len(state["expired"])
    within = sum(1 for latency in latencies if latency <= budget_s)
    return {
        "offered": state["offered"],
        "shed": state["shed"],
        "admitted": state["admitted"] + state["errored"],
        "completed": len(latencies),
        "expired": expired,
        "errored": (
            state["offered"] - state["shed"] - len(latencies) - expired
        ),
        "within_budget": within,
        "elapsed_s": elapsed,
        "goodput_images_per_s": within / max(elapsed, 1e-9),
        "throughput_images_per_s": len(latencies) / max(elapsed, 1e-9),
        "p99_s": latencies[int(0.99 * (len(latencies) - 1))] if latencies else 0.0,
    }


class HttpStack(ServingStack):
    """A :class:`ServingStack` listening on a real TCP port from a
    background event-loop thread, for faults that need actual sockets.

    :class:`~repro.chaos.actors.NetworkMangler` abuses live connections
    (slow-loris, half-open, byte-drip), so this stack adds the HTTP
    front-end (socket hardening included) and exposes the address, the
    server (for connection/eviction counters), and a blocking
    :meth:`probe` that well-behaved traffic uses to prove the server kept
    serving alongside the mangled connections.
    """

    def __init__(self, **kwargs):
        import asyncio
        import threading

        super().__init__(**kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, daemon=True, name="chaos-http"
        )
        self._thread.start()
        self._on_loop(self.server.start(), timeout=600.0)
        self.host = self.server.host
        self.port = self.server.port

    def _on_loop(self, coroutine, timeout: float = 300.0):
        import asyncio

        return asyncio.run_coroutine_threadsafe(
            coroutine, self._loop
        ).result(timeout)

    def probe(
        self, name: str, image, deadline_ms: float | None = None,
        timeout_s: float = 60.0,
    ) -> tuple[int, dict]:
        """One well-behaved ``:predict`` over a fresh connection."""
        import http.client

        from repro.serve.client import predict_once

        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout_s
        )
        try:
            return predict_once(
                connection, name, image, deadline_ms=deadline_ms
            )
        finally:
            connection.close()

    def connection_stats(self) -> dict:
        return self.server.connection_stats()

    def close(self) -> None:
        try:
            self._on_loop(self.server.stop(), timeout=60.0)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30.0)
            self._loop.close()
