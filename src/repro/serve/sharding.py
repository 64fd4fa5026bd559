"""Multi-process front-end sharding over ``SO_REUSEPORT``.

One asyncio process parses HTTP and batches requests well past what the
NB-SMT engines can serve, but on multicore machines a single front-end
process still serializes JSON encode/decode and numpy conversion on one
GIL.  ``repro.cli serve --shards N`` forks ``N`` full server processes
that all listen on the *same* address via ``SO_REUSEPORT``; the kernel
load-balances incoming connections across them.  Each shard owns its own
engine pool, batchers, admission budget and QoS controller (so
``max_pending`` is a per-shard budget and operating points may transiently
diverge between shards under skewed load).

The sockets are created in the parent *before* forking -- every child
inherits its already-bound socket, so there is no bind race and ``--port
0`` works (the parent binds the first socket, learns the port, and binds
the remaining shards to it).

Metrics stay whole-service: every shard periodically publishes its exact
mergeable metrics payload (bucket counts, not quantile estimates) into a
shared spool directory, and any shard answering ``GET /v1/metrics`` merges
the freshest payload of every peer with its own live state
(:func:`repro.serve.metrics.merge_registry_payloads`), so the merged
histograms and SMT statistics are exactly what one process serving all the
traffic would have recorded.

A shard joins the service through :func:`serve_member`, the same function
a ``--federate`` process runs; the two differ only in the cluster
transport behind the exchange (a local directory here, a socket to a
cluster agent there).
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import signal
import socket
import tempfile
import time

from repro.cluster.documents import (
    METRICS_STALE_AFTER_S,
    DocumentStore,
    local_host,
    publisher_process_alive,
)
from repro.eval import parallel


def reuseport_supported() -> bool:
    return hasattr(socket, "SO_REUSEPORT")


def _bind_reuseport(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    sock.listen(128)
    sock.setblocking(False)
    return sock


def create_shard_sockets(
    host: str, port: int, count: int
) -> list[socket.socket]:
    """``count`` listening sockets sharing one address (``SO_REUSEPORT``).

    With ``port == 0`` the first bind picks the port and the rest join it.
    """
    if not reuseport_supported():  # pragma: no cover - platform
        raise RuntimeError("SO_REUSEPORT is not available on this platform")
    sockets = [_bind_reuseport(host, port)]
    actual_port = sockets[0].getsockname()[1]
    try:
        for _ in range(count - 1):
            sockets.append(_bind_reuseport(host, actual_port))
    except BaseException:
        for sock in sockets:
            sock.close()
        raise
    return sockets


class ShardMetricsExchange:
    """Crash-tolerant metrics spool shared by the shards of one service.

    Each shard atomically publishes ``shard-<i>.json`` (write to a
    temporary name, then ``rename``) and merges whatever peers have
    published.  Readers never block on writers and a torn file is
    impossible; a peer that stopped publishing is surfaced with its age.
    """

    def __init__(self, store: DocumentStore, shard_index: int, shard_count: int):
        #: The store's optional :class:`repro.utils.diskbudget.DiskBudget`
        #: bounds publishes.  A publish that would bust the quota (or hits
        #: real ENOSPC) is skipped and counted: peers keep merging this
        #: shard's *previous* document until it goes stale -- exactly the
        #: degradation already defined for a crashed publisher.
        self.store = store
        self.shard_index = int(shard_index)
        self.shard_count = int(shard_count)

    @property
    def corrupt_documents(self) -> int:
        """Peer documents that failed to parse or were structurally
        invalid (torn or corrupted outside the atomic-rename path, e.g.
        by a crashed writer with a different spool implementation or a
        disk fault)."""
        return self.store.corrupt_documents

    @property
    def dropped_publishes(self) -> int:
        return self.store.dropped_puts

    def _name(self, index: int) -> str:
        return f"shard-{index}.json"

    def publish(self, payload: dict) -> None:
        """Atomically replace this shard's payload document (budgeted)."""
        self.store.put(
            self._name(self.shard_index),
            {
                "shard": self.shard_index,
                "pid": os.getpid(),
                "host": local_host(),
                "published_at": time.time(),
                "payload": payload,
            },
        )

    def gather_peers(self) -> tuple[list[dict], list[dict]]:
        """Peer payloads plus per-source metadata (index, age, staleness).

        A *stale* payload (older than :data:`~repro.cluster.documents.METRICS_STALE_AFTER_S`) whose
        publishing process is gone is **reaped**: the document is
        deleted and the payload excluded from the merge.  Without this, a
        crashed shard's last counters would be folded into every
        whole-service ``/v1/metrics`` answer forever -- and once the
        service restarts into the same exchange directory (or respawns the
        shard index), those dead counters double-count against the live
        shard's.  A stale document whose local pid is still alive is kept
        (the shard may just be wedged mid-GC) but flagged; a *remote*
        publisher's pid is unprobeable, so staleness alone reaps it --
        which is exactly how a federated peer machine drops out.
        """
        payloads: list[dict] = []
        sources: list[dict] = []
        now = time.time()
        for index in range(self.shard_count):
            if index == self.shard_index:
                continue
            document = self.store.get(self._name(index))
            if document is None:
                continue
            if not isinstance(document.get("payload"), dict):
                # Parsed but not a shard document: never merge garbage.
                self.store.note_corrupt()
                continue
            try:
                age = now - float(document.get("published_at", 0.0))
                int(document.get("pid", 0) or 0)
            except (TypeError, ValueError):
                self.store.note_corrupt()
                continue
            stale = age > METRICS_STALE_AFTER_S
            # Local documents published before pids were recorded (and
            # remote ones, whose pids mean nothing here) reap on
            # staleness alone.
            if stale and publisher_process_alive(document) is not True:
                self.store.delete(self._name(index))
                sources.append(
                    {"shard": index, "age_s": age, "stale": True,
                     "reaped": True}
                )
                continue
            payloads.append(document["payload"])
            sources.append(
                {
                    "shard": index,
                    "age_s": age,
                    "stale": stale,
                    "reaped": False,
                }
            )
        return payloads, sources


def serve_member(
    registry, transport, index: int, count: int, config,
    coordinate: bool = True, sock=None,
) -> None:
    """Run member ``index`` of a ``count``-process service until it stops.

    Members share three spaces of ``transport``: ``exchange`` (mergeable
    metrics), ``qos`` (the coordinator's quorum, when ``coordinate``) and
    ``telemetry`` (the event spool).  A ``--shards`` child passes a
    :class:`~repro.cluster.transport.LocalDirTransport` over the shared
    exchange directory: its server spools into the ``telemetry`` space
    (the one setting of ``config`` a topology rewrites), and
    ``spool_budget_bytes`` bounds both that spool and its exchange
    documents.  A ``--federate`` process passes a
    :class:`~repro.cluster.transport.SocketTransport`: its events stream
    to the agent, and a ``telemetry_dir`` keeps only its alert history
    and trace rings.  ``sock`` is a ``--shards`` child's inherited
    listener.
    """
    from repro.cluster.transport import LocalDirTransport, RemoteSpoolWriter
    from repro.serve.server import run_server
    from repro.telemetry import bus as telemetry_bus
    from repro.telemetry.coordinator import QoSCoordinator, ShardStateChannel

    exchange_budget = None
    if isinstance(transport, LocalDirTransport):
        config = dataclasses.replace(
            config, telemetry_dir=transport.space_dir("telemetry")
        )
        if config.spool_budget_bytes > 0:
            from repro.utils.diskbudget import DiskBudget

            exchange_budget = DiskBudget(
                transport.space_dir("exchange"), config.spool_budget_bytes,
                name=f"shard-exchange-{index}",
            )
    else:
        telemetry_bus.get_bus().attach_spool_sink(
            RemoteSpoolWriter(transport, "telemetry", role="serve")
        )
    exchange = ShardMetricsExchange(
        DocumentStore(transport, "exchange", budget=exchange_budget),
        index, count,
    )
    coordinator = None
    if coordinate:
        # Throttle channel I/O: unchanged desires republish at 1s (well
        # inside the 5s staleness horizon) and the endpoints of one QoS
        # tick share a single gathered snapshot.
        coordinator = QoSCoordinator(
            ShardStateChannel(DocumentStore(transport, "qos"), index, count),
            min_publish_s=1.0,
            gather_cache_s=0.1,
        )
    run_server(
        registry, config,
        sock=sock, shard_exchange=exchange, coordinator=coordinator,
    )


def _shard_main(
    index: int, sockets: list[socket.socket], registry, shard_count: int,
    config, coordinate: bool,
) -> None:
    """One shard process: a full server on an inherited bound socket.

    ``config.telemetry_dir`` is the shared exchange directory.  Every
    shard is forked *after* all the listeners are bound, so each
    child inherits the whole socket list.  It must close its peers'
    copies immediately: a listening socket stays in the kernel's
    ``SO_REUSEPORT`` group as long as *any* process holds its fd, so a
    leaked peer fd would keep a SIGKILLed shard's listener in the group
    -- connections hashed to it would sit in an accept queue nobody
    drains instead of failing over to the survivors.  The same applies
    to this shard's own listener leaking into processes *it* forks
    (engine pool workers): the at-fork hook closes it in every child.
    """
    from repro.cluster.transport import LocalDirTransport
    from repro.telemetry import bus as telemetry_bus

    sock = sockets[index]
    for peer_index, peer_sock in enumerate(sockets):
        if peer_index != index:
            peer_sock.close()
    os.register_at_fork(after_in_child=sock.close)

    telemetry_bus.get_bus().reset_after_fork(role="serve", shard=index)
    # The pre-cluster layout: shard-<i>.json and qos-shard-<i>.json side
    # by side at the root, the event spool under telemetry/.
    exchange_dir = config.telemetry_dir
    transport = LocalDirTransport(spaces={
        "exchange": exchange_dir,
        "qos": exchange_dir,
        "telemetry": os.path.join(exchange_dir, "telemetry"),
    })
    serve_member(
        registry, transport, index, shard_count, config, coordinate, sock=sock
    )


def run_sharded(registry, shards: int, config, coordinate: bool = True) -> None:
    """Fork ``shards`` server processes sharing one listening address.

    Blocks until every shard exits; SIGINT/SIGTERM are forwarded so each
    shard drains gracefully.  The shards listen on ``config.host`` and
    ``config.port`` and share one exchange directory:
    ``config.telemetry_dir``, or a temporary directory created (and
    cleaned up) here.  Their telemetry event spool lives under
    ``<exchange_dir>/telemetry`` so any shard's ``/v1/events`` (and
    ``/dashboard``) streams the whole service.  ``coordinate=True`` (the
    default) runs the cross-shard QoS coordinator: adaptive endpoints
    converge to one service-wide rung instead of every shard walking its
    ladder blind to the others.  Every shard's server runs from
    ``config`` through :func:`serve_member`.
    """
    if shards < 2:
        raise ValueError("sharding needs at least 2 shards")
    if not parallel.fork_available():  # pragma: no cover - platform
        raise RuntimeError("front-end sharding requires the fork start method")
    import multiprocessing

    context = multiprocessing.get_context("fork")
    sockets = create_shard_sockets(config.host, config.port, shards)
    actual_port = sockets[0].getsockname()[1]
    exchange_dir = config.telemetry_dir
    owns_dir = exchange_dir is None
    if owns_dir:
        exchange_dir = tempfile.mkdtemp(prefix="repro-serve-shards-")
    shard_config = dataclasses.replace(config, telemetry_dir=exchange_dir)
    print(
        f"repro.serve: sharding {shards} front-end processes on "
        f"http://{config.host}:{actual_port} (SO_REUSEPORT)",
        flush=True,
    )
    processes = []
    try:
        for index in range(len(sockets)):
            process = context.Process(
                target=_shard_main,
                args=(index, sockets, registry, shards, shard_config,
                      coordinate),
                name=f"serve-shard-{index}",
            )
            process.start()
            processes.append(process)
        for sock in sockets:
            sock.close()  # the children own the inherited copies now

        forwarded = {"signum": None}

        def forward(signum, frame):
            forwarded["signum"] = signum
            for process in processes:
                if process.is_alive():
                    try:
                        os.kill(process.pid, signum)
                    except OSError:  # pragma: no cover - already gone
                        pass

        previous = {
            signum: signal.signal(signum, forward)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }
        try:
            for process in processes:
                while process.is_alive():
                    process.join(timeout=0.5)
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5.0)
        if owns_dir:
            shutil.rmtree(exchange_dir, ignore_errors=True)
