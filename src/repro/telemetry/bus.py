"""Process-local pub/sub event bus with a cross-process JSONL spool.

The bus is the single publication point for everything observable in the
repo: sweep points starting/finishing, worker lifecycle, served batches,
QoS rung transitions, shed requests, replica respawns.  Publishers call
:func:`publish` (or ``get_bus().publish``) with a type string and JSON-able
fields; the hot path is a single attribute check when nothing listens, so
instrumented code costs nothing in the common un-observed case.

In-process consumers subscribe either a callback or a bounded
:class:`Subscription` queue (oldest events are evicted when a slow consumer
falls behind -- telemetry must never apply backpressure to the serving or
sweep hot paths).

Cross-process transport lives in the cluster substrate
(:mod:`repro.cluster.spool`): each process appends events to its own
``<role>-<pid>.jsonl`` file in a shared spool directory via a
:class:`~repro.cluster.spool.SpoolWriter` (append-only, one JSON document
per line, atomic size-based rotation, per-writer monotonic sequence
numbers), and a :class:`~repro.cluster.spool.SpoolFollower` tails every
file in the directory -- so forked sweep workers, ``SO_REUSEPORT``
shards, and processes on *other machines* (appending through a
:class:`~repro.cluster.transport.RemoteSpoolWriter`) publish into one
merged stream without locks or pipes.  Writers are fork-safe: the spool
sink lazily reopens a fresh per-pid file when it notices it crossed a
``fork()``, and :meth:`TelemetryBus.reset_after_fork` drops subscribers
inherited from the parent (a worker must not run the parent's dashboard
callbacks).

``Event``, ``SpoolWriter`` and ``SpoolFollower`` are re-exported here:
telemetry consumers import the whole event vocabulary from this module.
"""

from __future__ import annotations

import collections
import os
import threading
import time

from repro.cluster.spool import (  # noqa: F401
    DEFAULT_ROTATE_BYTES,
    Event,
    SpoolFollower,
    SpoolWriter,
)


class Subscription:
    """Bounded, thread-safe event queue handed to one in-process consumer.

    When the buffer is full the *oldest* event is evicted: a stalled
    dashboard connection loses history, never slows a publisher.
    """

    def __init__(self, bus: "TelemetryBus", types=None, maxlen: int = 256):
        self._bus = bus
        self.types = frozenset(types) if types else None
        self._buffer: collections.deque[Event] = collections.deque(
            maxlen=max(1, int(maxlen))
        )
        self._condition = threading.Condition()
        self.dropped = 0
        self.closed = False

    def _offer(self, event: Event) -> None:
        if self.types is not None and event.type not in self.types:
            return
        with self._condition:
            if len(self._buffer) == self._buffer.maxlen:
                self.dropped += 1
            self._buffer.append(event)
            self._condition.notify()

    def get(self, timeout: float | None = None) -> Event | None:
        """Next event, or ``None`` on timeout / after :meth:`close`."""
        with self._condition:
            if not self._buffer and not self.closed:
                self._condition.wait(timeout)
            if self._buffer:
                return self._buffer.popleft()
            return None

    def drain(self) -> list[Event]:
        """Every buffered event, without blocking."""
        with self._condition:
            events = list(self._buffer)
            self._buffer.clear()
            return events

    def close(self) -> None:
        self._bus.unsubscribe(self)
        with self._condition:
            self.closed = True
            self._condition.notify_all()

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TelemetryBus:
    """The process-local event bus: subscribers + an optional spool sink.

    ``publish`` is the single hot-path entry: with no subscriber and no
    spool attached it returns after one boolean check, so permanently
    instrumented code (the serving batch path, sweep point evaluation) is
    free unless something actually listens.
    """

    def __init__(self, role: str = "proc"):
        self._lock = threading.Lock()
        self._subscribers: list = []  # Subscriptions and bare callables
        self._spool: SpoolWriter | None = None
        self._source = {"pid": os.getpid(), "role": role}
        self._seq = 0
        self._active = False

    # -- identity ----------------------------------------------------------
    def configure_source(self, role: str | None = None, **fields) -> None:
        """Set the identity stamped on every published event."""
        with self._lock:
            source = dict(self._source)
            if role is not None:
                source["role"] = role
            source.update(
                {key: value for key, value in fields.items() if value is not None}
            )
            source["pid"] = os.getpid()
            self._source = source

    @property
    def source(self) -> dict:
        return dict(self._source)

    # -- wiring ------------------------------------------------------------
    def subscribe(self, callback=None, *, types=None, maxlen: int = 256):
        """Register a consumer.

        With ``callback`` the callable runs inline on the publisher's
        thread (keep it cheap and never raise); without one, a bounded
        :class:`Subscription` queue is returned.
        """
        with self._lock:
            if callback is not None:
                self._subscribers.append(callback)
                self._active = True
                return callback
            subscription = Subscription(self, types=types, maxlen=maxlen)
            self._subscribers.append(subscription)
            self._active = True
            return subscription

    def unsubscribe(self, consumer) -> None:
        with self._lock:
            try:
                self._subscribers.remove(consumer)
            except ValueError:
                pass
            self._active = bool(self._subscribers or self._spool)

    def attach_spool(
        self, directory: str, role: str | None = None,
        rotate_bytes: int = DEFAULT_ROTATE_BYTES,
        budget=None,
    ) -> SpoolWriter:
        """Mirror every published event into ``directory`` (cross-process).

        ``budget`` (a :class:`repro.utils.diskbudget.DiskBudget`) bounds
        the spool directory: over-quota events drop with a counter.
        """
        return self.attach_spool_sink(
            SpoolWriter(
                directory,
                role=role or self._source.get("role", "events"),
                rotate_bytes=rotate_bytes,
                budget=budget,
            )
        )

    def attach_spool_sink(self, sink):
        """Attach an already-built spool sink (cross-*machine* included).

        Anything satisfying the :class:`~repro.cluster.spool.SpoolWriter`
        sink interface works -- notably a
        :class:`~repro.cluster.transport.RemoteSpoolWriter`, which is how
        a remote sweep executor or federated shard streams its events
        into the hub's spool directory.
        """
        with self._lock:
            if self._spool is not None:
                self._spool.close()
            self._spool = sink
            self._active = True
            return self._spool

    def detach_spool(self) -> None:
        with self._lock:
            if self._spool is not None:
                self._spool.close()
                self._spool = None
            self._active = bool(self._subscribers)

    @property
    def spool_dir(self) -> str | None:
        spool = self._spool
        return spool.directory if spool is not None else None

    @property
    def spool_path(self) -> str | None:
        """This process's own spool file (relays skip it when following)."""
        spool = self._spool
        return spool.path if spool is not None else None

    def spool_stats(self) -> dict | None:
        """The attached spool's degrade counters (``None`` without one)."""
        spool = self._spool
        return spool.stats() if spool is not None else None

    def reset_after_fork(self, role: str | None = None, **fields) -> None:
        """Drop inherited subscribers; keep (and re-home) the spool sink.

        A forked worker inherits the parent's subscriber list -- callbacks
        that belong to the parent's dashboard/ticker threads and must not
        run in the child.  The spool sink stays attached: its per-pid file
        is lazily reopened on the first append after the fork.

        The inherited bus/spool locks may be held by parent threads that
        were mid-publish at fork time and do not exist in the child; the
        child is single-threaded here, so both locks are replaced rather
        than acquired.
        """
        self._lock = threading.Lock()
        with self._lock:
            self._subscribers = []
            self._seq = 0
            if self._spool is not None:
                self._spool.rearm_after_fork()
            self._active = self._spool is not None
        self.configure_source(role=role, **fields)

    # -- publishing --------------------------------------------------------
    def publish(self, type: str, **data) -> Event | None:
        """Publish one event; returns it (or ``None`` when nobody listens)."""
        if not self._active:
            return None
        with self._lock:
            self._seq += 1
            event = Event(
                type=type,
                at=time.time(),
                source=self._source,
                seq=self._seq,
                data=data,
            )
            subscribers = list(self._subscribers)
            spool = self._spool
        for subscriber in subscribers:
            try:
                if isinstance(subscriber, Subscription):
                    subscriber._offer(event)
                else:
                    subscriber(event)
            except Exception:  # noqa: BLE001 - consumers never break publishers
                pass
        if spool is not None:
            try:
                spool.append(event)
            except (OSError, ValueError):
                # Spool dir torn down (or its handle invalidated mid-
                # shutdown); telemetry is best-effort, never fatal.
                pass
        return event

    def forward(self, event: Event) -> None:
        """Deliver an *existing* event to subscribers (no restamp, no spool).

        Relays (the dashboard servers) use this to fan followed spool
        events out to their SSE subscriptions without re-publishing them
        as their own.
        """
        with self._lock:
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            try:
                if isinstance(subscriber, Subscription):
                    subscriber._offer(event)
                else:
                    subscriber(event)
            except Exception:  # noqa: BLE001
                pass

    @property
    def active(self) -> bool:
        return self._active


#: The default process bus (like the root logger: deep layers publish here
#: without threading a handle through every constructor).
_DEFAULT_BUS = TelemetryBus()


def get_bus() -> TelemetryBus:
    return _DEFAULT_BUS


def publish(type: str, **data) -> Event | None:
    """Publish on the default bus (the usual instrumentation entry point)."""
    return _DEFAULT_BUS.publish(type, **data)
