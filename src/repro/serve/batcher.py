"""Dynamic request batching: coalesce queued requests into engine batches.

The NB-SMT engines (like the hardware they model) amortize per-invocation
cost over the batch dimension, so serving one image per engine call wastes
most of the machine when requests pile up.  :class:`DynamicBatcher` sits
between the request front-end and warm engine replicas: requests are
queued, and one worker thread per replica assembles them into batches of
at most ``max_batch`` images.

Dispatch is work-conserving: an idle worker takes the next request and
whatever else is already queued, up to ``max_batch``, and runs the batch
at once -- it never holds a request waiting for companions.  A lone
request on an idle server therefore runs alone, with no added latency,
while under load requests queue behind the busy replicas and the next
batch fills from that backlog (the adaptive batching of Clipper and of
Triton's dynamic batcher with zero queue delay).  An empty queue costs
nothing: the worker blocks on the queue, no polling.

Requests may carry micro-batches (``size > 1``).  Requests are atomic --
one is never split across engine calls; a request that would overflow the
current batch is carried over to start the next one.

Requests may also carry a :class:`~repro.serve.deadline.Deadline`.  An
expired request is cancelled at batch-assembly time -- *before* engine
compute -- by resolving its future with
:class:`~repro.serve.deadline.DeadlineExceeded` and counting it
(``expired_requests`` / ``expired_images``).
Under overload this is the difference between goodput and busywork: the
engine's scarce capacity goes to requests whose clients are still
waiting, never to the dead.

The batcher is synchronous at its core (``submit`` returns a
``concurrent.futures.Future``); the asyncio front-end bridges with
``asyncio.wrap_future``, and tests/benchmarks drive it directly.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.serve.deadline import Deadline, DeadlineExceeded
from repro.telemetry.tracing import new_span_id


class BatcherClosed(RuntimeError):
    """Raised by :meth:`DynamicBatcher.submit` after :meth:`close`."""


@dataclass
class BatchRequest:
    """One queued request: an opaque payload plus its image count."""

    payload: object
    size: int = 1
    enqueued_at: float = 0.0
    future: Future = field(default_factory=Future)
    deadline: Deadline | None = None
    #: The request's :class:`~repro.telemetry.tracing.TraceContext` (its
    #: ``span_id`` is the front-end request span the batcher's spans nest
    #: under); ``None`` for untraced requests.
    trace: object | None = None


@dataclass
class BatchReport:
    """What the ``on_batch`` hook learns about one executed batch."""

    num_requests: int
    num_images: int
    service_seconds: float
    queue_waits: list[float] = field(default_factory=list)


_STOP = object()


class DynamicBatcher:
    """Coalesces submitted requests and executes them through ``runner``.

    Packing is earliest-deadline-first: when the gathered candidates exceed
    one batch, the ones with the least deadline slack are packed first and
    the rest are carried to the next batch -- under overload the engine's
    capacity goes to the requests closest to dying, which would otherwise
    expire while younger, roomier requests computed.  Requests without
    deadlines sort last (infinite slack); the sort is stable, so traffic
    without deadlines packs in arrival order.  The queue itself is
    unbounded: admission control lives in front of the batcher
    (:class:`repro.serve.registry.AdmissionController`).

    Parameters
    ----------
    runner:
        ``runner(payloads, trace=carrier) -> results``: executes one batch,
        returning one result per payload, in order.  Runs on the batcher's
        worker thread.  ``carrier`` is a dict the runner may fill with
        engine timing when the batch carries a traced request, ``None``
        otherwise.
    max_batch:
        Image budget per engine call (a single larger request still runs,
        alone).
    on_batch:
        Optional hook called with a :class:`BatchReport` after each batch
        executes (before request futures resolve).
    clock:
        Monotonic clock used for every expiry decision; injectable so
        chaos tests drive deadlines deterministically.
    tracer:
        Optional :class:`~repro.telemetry.tracing.Tracer`.  Requests
        submitted with a trace context then get queue-wait and batch
        spans (the batch span links every request span it carried, and
        nests the engine-compute span with its per-layer children when
        the runner fills a trace carrier).  ``None`` (the default) keeps
        the hot path span-free at the cost of one ``is None`` check.
    workers:
        Batch-assembly worker threads.  One (the default) is right for a
        single in-process replica; with several replicas behind the runner
        (e.g. forked workers on a multicore box) matching ``workers`` to
        the replica count keeps every replica busy -- batches then execute
        concurrently, at the cost of deterministic batch splits.
    autostart:
        Start the worker threads immediately.  Tests and benchmarks pass
        ``False`` to pre-fill the queue and get deterministic batch splits.
    """

    def __init__(
        self,
        runner,
        *,
        max_batch: int = 32,
        on_batch=None,
        workers: int = 1,
        autostart: bool = True,
        name: str = "batcher",
        clock=time.monotonic,
        tracer=None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.runner = runner
        self.tracer = tracer
        self.max_batch = int(max_batch)
        self.on_batch = on_batch
        self.workers = int(workers)
        self.name = name
        self.clock = clock
        self._queue: queue_module.Queue = queue_module.Queue()
        self._lock = threading.Lock()
        self._pending_images = 0
        self.expired_requests = 0
        self.expired_images = 0
        self._closed = False
        self._drain = True
        self._threads: list[threading.Thread] = []
        if autostart:
            self.start()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Start the worker threads (idempotent; refuses after close)."""
        with self._lock:
            if self._closed:
                raise BatcherClosed(f"{self.name} is closed")
            if not self._threads:
                for index in range(self.workers):
                    thread = threading.Thread(
                        target=self._worker,
                        name=f"{self.name}-{index}",
                        daemon=True,
                    )
                    thread.start()
                    self._threads.append(thread)

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting requests and shut the workers down.

        ``drain=True`` (the default, and what the server's graceful shutdown
        uses) executes every already-queued request before returning;
        ``drain=False`` cancels them.
        """
        with self._lock:
            just_closed = not self._closed
            if just_closed:
                self._closed = True
                self._drain = drain
                for _ in range(max(1, self.workers)):
                    self._queue.put(_STOP)
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=timeout)
        if just_closed:
            # Settle whatever the workers did not pick up (everything, when
            # the batcher was never started).
            self._finish()

    @property
    def pending_images(self) -> int:
        """Images queued (or carried over) but not yet executing."""
        with self._lock:
            return self._pending_images

    def oldest_pending_age(self) -> float:
        """Seconds the oldest *queued* request has been waiting.

        A backlog-age probe for the QoS controller: it inspects the queue
        head only (a request already being assembled into a batch no longer
        counts), so it underestimates slightly but needs no extra
        bookkeeping on the hot path.
        """
        now = self.clock()
        with self._queue.mutex:
            for item in self._queue.queue:
                if item is not _STOP:
                    return now - item.enqueued_at
        return 0.0

    # -- submission --------------------------------------------------------
    def submit(
        self,
        payload,
        size: int = 1,
        deadline: Deadline | None = None,
        trace=None,
    ) -> Future:
        """Queue one request; resolves to ``runner``'s result for it.

        A request carrying a ``deadline`` that expires while queued is
        cancelled before compute: its future resolves with
        :class:`~repro.serve.deadline.DeadlineExceeded` instead.  A
        ``trace`` context makes the batcher emit this request's
        queue-wait/batch/engine spans (needs a ``tracer`` configured).
        """
        if size < 1:
            raise ValueError("size must be >= 1")
        request = BatchRequest(
            payload, int(size), enqueued_at=self.clock(), deadline=deadline,
            trace=trace if self.tracer is not None else None,
        )
        with self._lock:
            if self._closed:
                raise BatcherClosed(f"{self.name} is closed")
            self._pending_images += request.size
            self._queue.put(request)
        return request.future

    # -- expiry ------------------------------------------------------------
    def _expired(self, request: BatchRequest) -> bool:
        return request.deadline is not None and request.deadline.expired(
            self.clock
        )

    def _expire(self, request: BatchRequest) -> None:
        """Cancel one expired request: counted, resolved, never computed."""
        with self._lock:
            self._pending_images -= request.size
            self.expired_requests += 1
            self.expired_images += request.size
        if not request.future.cancelled():
            late_by = -request.deadline.remaining_s(self.clock)
            request.future.set_exception(
                DeadlineExceeded(
                    f"{self.name}: deadline expired "
                    f"{late_by * 1000.0:.1f}ms before compute",
                    late_by_s=late_by,
                )
            )
        if self.tracer is not None and request.trace is not None:
            wait_s = max(0.0, self.clock() - request.enqueued_at)
            self.tracer.emit(
                request.trace, "queue_wait",
                start=time.time() - wait_s, duration_s=wait_s,
                status="expired", batcher=self.name, images=request.size,
            )

    # -- worker ------------------------------------------------------------
    def _worker(self) -> None:
        carry: list[BatchRequest] = []
        while True:
            if carry:
                first = carry.pop(0)
                pending = carry
            else:
                item = self._queue.get()
                if item is _STOP:
                    return
                first = item
                pending = []
            carry = self._serve_next(first, pending)

    def _serve_next(
        self, first: BatchRequest, pending: list[BatchRequest]
    ) -> list[BatchRequest]:
        """Run the batch headed by ``first``; return the requests it carries."""
        # The head request may have died waiting (carry-over included: it
        # waited out a whole previous batch).  Expire it here, ahead of
        # assembly, so a dead head never anchors a batch.
        if self._expired(first):
            self._expire(first)
            return pending
        batch, images, carry = self._collect(first, pending)
        if batch:
            self._run_batch(batch, images)
        return carry

    def _collect(
        self, first: BatchRequest, pending: list[BatchRequest] | None = None
    ) -> tuple[list[BatchRequest], int, list[BatchRequest]]:
        """Assemble one batch starting from ``first``; returns any carry.

        Gathering is greedy and never waits: ``pending`` (requests carried
        over from the previous batch) is consumed first, then whatever is
        already queued, until the image budget is met or the queue is
        empty.  Packing then chooses which gathered candidates actually
        ride, earliest deadline first (a stable sort: ties keep arrival
        order); packing stops at the first candidate that does not fit,
        and it plus everything after it carries to the next batch in
        order.
        """
        candidates = [first]
        images = first.size
        pending = list(pending or ())
        while images < self.max_batch:
            if pending:
                item = pending.pop(0)
            else:
                try:
                    item = self._queue.get_nowait()
                except queue_module.Empty:
                    break
                if item is _STOP:
                    # Nothing follows a sentinel (submit refuses once
                    # closed), so re-queueing keeps it for this worker's
                    # exit.
                    self._queue.put(_STOP)
                    break
            if self._expired(item):
                # Dead on arrival at assembly: cancel instead of computing.
                self._expire(item)
                continue
            candidates.append(item)
            images += item.size
        now = self.clock()
        order = sorted(
            candidates,
            key=lambda request: (
                request.deadline.at - now
                if request.deadline is not None
                else float("inf")
            ),
        )
        batch: list[BatchRequest] = []
        packed = 0
        carry: list[BatchRequest] = []
        for request in order:
            if not carry and (
                not batch or packed + request.size <= self.max_batch
            ):
                batch.append(request)
                packed += request.size
            else:
                carry.append(request)
        carry.extend(pending)
        return batch, packed, carry

    def _run_batch(self, batch: list[BatchRequest], images: int) -> None:
        with self._lock:
            self._pending_images -= images
        started = self.clock()
        traced = (
            [r for r in batch if r.trace is not None]
            if self.tracer is not None
            else []
        )
        wall_started = time.time()
        carrier: dict | None = {} if traced else None
        try:
            payloads = [request.payload for request in batch]
            results = self.runner(payloads, trace=carrier)
            if len(results) != len(batch):
                raise RuntimeError(
                    f"{self.name}: runner returned {len(results)} results "
                    f"for {len(batch)} requests"
                )
        except BaseException as exc:  # noqa: BLE001 - forwarded to futures
            if traced:
                self._emit_spans(
                    traced, batch, images, started, wall_started,
                    self.clock() - started, carrier,
                    status="error", error=repr(exc),
                )
            for request in batch:
                if not request.future.cancelled():
                    request.future.set_exception(exc)
            return
        finished = self.clock()
        if self.on_batch is not None:
            self.on_batch(
                BatchReport(
                    num_requests=len(batch),
                    num_images=images,
                    service_seconds=finished - started,
                    queue_waits=[started - r.enqueued_at for r in batch],
                )
            )
        if traced:
            # Spans publish before the futures resolve, so a client that
            # saw its response never races its own trace.
            self._emit_spans(
                traced, batch, images, started, wall_started,
                finished - started, carrier,
            )
        for request, result in zip(batch, results):
            if not request.future.cancelled():
                request.future.set_result(result)

    def _emit_spans(
        self, traced, batch, images, started_mono, wall_started,
        duration_s, carrier, status: str = "ok", error: str | None = None,
    ) -> None:
        """One batch's spans, per traced request it carried.

        Every traced request gets its *own complete subtree* -- queue-wait,
        batch, engine-compute with per-layer children -- so each trace is
        well-formed standalone; the shared physical batch shows up as the
        common ``batch_id`` plus cross-trace ``links`` to the peer request
        spans the batch carried.
        """
        tracer = self.tracer
        batch_id = new_span_id()
        links = [
            {"trace_id": r.trace.trace_id, "span_id": r.trace.span_id}
            for r in traced
        ]
        engine = (carrier or {}).get("engine")
        respawn = (carrier or {}).get("respawn")
        for request in traced:
            context = request.trace
            wait_s = max(0.0, started_mono - request.enqueued_at)
            tracer.emit(
                context, "queue_wait",
                start=wall_started - wait_s, duration_s=wait_s,
                batcher=self.name, images=request.size,
            )
            extra = {"error": error} if error is not None else {}
            payload = tracer.emit(
                context, "batch",
                start=wall_started, duration_s=duration_s, status=status,
                batch_id=batch_id, batcher=self.name,
                requests=len(batch), images=images,
                links=[
                    link for link in links
                    if link["span_id"] != context.span_id
                ],
                **extra,
            )
            batch_context = context.child(payload["span_id"])
            if respawn is not None:
                # The replica serving this batch died; the respawn gap is
                # annotated inside the failed batch span so a retry's
                # trace shows what it survived.
                tracer.emit(
                    batch_context, "replica_respawn",
                    start=respawn.get("at", wall_started), duration_s=0.0,
                    status="error", endpoint=respawn.get("endpoint"),
                    pid=respawn.get("pid"),
                )
            if engine is not None:
                engine_payload = tracer.emit(
                    batch_context, "engine_compute",
                    start=engine.get("start", wall_started),
                    duration_s=engine.get("duration_s", 0.0),
                    pid=engine.get("pid"), level=engine.get("level"),
                )
                engine_context = batch_context.child(
                    engine_payload["span_id"]
                )
                for name, layer_start, layer_dur in engine.get(
                    "layers", ()
                )[:128]:
                    tracer.emit(
                        engine_context, f"layer:{name}",
                        start=layer_start, duration_s=layer_dur,
                    )

    def _finish(self) -> None:
        """Settle whatever remains queued after the workers exited."""
        leftovers: list[BatchRequest] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue_module.Empty:
                break
            if item is not _STOP:
                leftovers.append(item)
        if self._drain:
            # Packed as the workers pack (earliest deadline first); the
            # queue is empty now, so _collect gathers from the leftovers.
            while leftovers:
                leftovers = self._serve_next(leftovers[0], leftovers[1:])
        else:
            for request in leftovers:
                with self._lock:
                    self._pending_images -= request.size
                request.future.cancel()
