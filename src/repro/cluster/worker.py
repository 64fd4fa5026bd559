"""Remote sweep executors: lease points elsewhere, reduce bit-identically.

The pair that turns ``run_sweep`` multi-machine:

* :class:`SweepHub` (parent side) embeds a
  :class:`~repro.cluster.agent.ClusterAgent` whose ``points`` space *is*
  the parent's content-addressed :class:`~repro.eval.sweep.PointStore`
  directory, offers pending affinity groups to the agent's
  :class:`~repro.cluster.agent.WorkLedger`, and drains: waiting while
  live workers hold leases, recycling the leases of dead or partitioned
  nodes.  Whatever nobody computed, the parent recomputes serially at
  collection time -- a dying node degrades the sweep, never fails it
  (the same contract as a crashed fork worker).
* :class:`RemoteWorker` (the ``repro.cli worker --connect`` process)
  leases groups, rebuilds the :class:`~repro.eval.sweep.SweepPoint` from
  each spec, evaluates it with a normal
  :class:`~repro.eval.sweep.SweepContext` whose store is a
  :class:`RemotePointStore` -- saves become ``doc_put`` frames landing
  as ordinary store entries in the parent's directory, stamped with the
  parent's session id -- and streams its telemetry through a
  :class:`~repro.cluster.transport.RemoteSpoolWriter` into the parent's
  spool.  A heartbeat thread keeps the worker live in the roster while
  a long point computes.

Bit-identical reduction holds by construction: store entries carry the
JSON-normalized payload whichever process computed them, and the parent
still collects every payload from its own store in declaration order.
"""

from __future__ import annotations

import threading
import time

from repro.cluster.agent import ClusterAgent
from repro.cluster.documents import DocumentCorrupt
from repro.cluster.transport import (
    RemoteSpoolWriter,
    SocketTransport,
    TransportError,
)

#: Spaces every sweep hub serves.
POINTS_SPACE = "points"
TELEMETRY_SPACE = "telemetry"


class RemotePointStore:
    """The :class:`~repro.eval.sweep.PointStore` API over a transport.

    Entries keep the exact ``{"spec", "session", "result"}`` schema, so
    the parent's local store reads a remotely-computed point exactly as
    one it wrote itself.
    """

    def __init__(self, transport, space: str = POINTS_SPACE):
        self.transport = transport
        self.space = space
        self.budget = None
        self.refused_writes = 0

    def _name(self, point) -> str:
        return f"{point.key}.json"

    def load(self, point):
        try:
            entry = self.transport.doc_get(self.space, self._name(point))
        except (DocumentCorrupt, TransportError, OSError):
            return None
        if not isinstance(entry, dict) or "result" not in entry:
            return None
        return entry["result"], entry.get("session", "")

    def save(self, point, payload: dict, session_id: str) -> dict:
        from repro.eval.sweep import _normalize

        normalized = _normalize(payload)
        entry = {
            "spec": point.spec(),
            "session": session_id,
            "result": normalized,
        }
        try:
            self.transport.doc_put(self.space, self._name(point), entry)
        except (TransportError, OSError):
            # Same degrade as a full local disk: the normalized payload
            # still flows, only persistence is lost.
            self.refused_writes += 1
        return normalized

    def discard(self, point) -> None:
        try:
            self.transport.doc_delete(self.space, self._name(point))
        except (TransportError, OSError):
            pass


class SweepHub:
    """The parent-side hub: an embedded agent + lease-drain orchestration."""

    def __init__(
        self,
        agent: ClusterAgent,
        *,
        connect_grace_s: float = 10.0,
        poll_s: float = 0.05,
        trace_id: str | None = None,
        root_span_id: str | None = None,
    ):
        self.agent = agent
        self.connect_grace_s = float(connect_grace_s)
        self.poll_s = float(poll_s)
        self.offered_groups = 0
        self.offered_points = 0
        #: The distributed trace this hub's sweep runs under.  Workers
        #: adopt it from ``hello`` meta, so their lease spans land in the
        #: parent's merged spool with the same trace id -- the sweep-side
        #: analog of serving's ``X-Trace-Id`` propagation.
        self.trace_id = trace_id
        self.root_span_id = root_span_id
        # The wall clock places the root span; the monotonic clock times it.
        self._started_wall = time.time()
        self._started = time.monotonic()

    @classmethod
    def create(
        cls,
        session,
        listen: str = "127.0.0.1:0",
        telemetry_dir: str | None = None,
        stale_after_s: float = 5.0,
        connect_grace_s: float = 10.0,
        trace_id: str | None = None,
    ) -> "SweepHub":
        """A hub for one :class:`~repro.eval.sweep.SweepSession`.

        The agent's ``points`` space is the session store's directory;
        ``telemetry_dir`` (when the caller attached a spool) lets remote
        workers stream events into the same merged stream.  The hub runs
        under one trace (``trace_id`` or a freshly minted one) that every
        connecting worker inherits.
        """
        from repro.cluster.transport import parse_address
        from repro.telemetry.tracing import new_span_id, new_trace_id

        host, port = parse_address(listen)
        session.store.dir.mkdir(parents=True, exist_ok=True)
        spaces = {POINTS_SPACE: str(session.store.dir)}
        if telemetry_dir:
            spaces[TELEMETRY_SPACE] = str(telemetry_dir)
        agent = ClusterAgent(
            spaces,
            host=host,
            port=port,
            node="sweep-hub",
            stale_after_s=stale_after_s,
        )
        trace_id = trace_id or new_trace_id()
        root_span_id = new_span_id()
        agent.meta = {
            "kind": "sweep",
            "session": session.id,
            "scale": session.scale,
            "resume": bool(session.resume),
            "telemetry": TELEMETRY_SPACE in spaces,
            "trace_id": trace_id,
            "span_id": root_span_id,
        }
        agent.start_in_thread()
        return cls(
            agent,
            connect_grace_s=connect_grace_s,
            trace_id=trace_id,
            root_span_id=root_span_id,
        )

    @property
    def address(self) -> tuple[str, int]:
        return self.agent.address

    def offer(self, groups: list[list]) -> int:
        """Offer affinity groups of points to the ledger (specs on the wire)."""
        for group in groups:
            if not group:
                continue
            self.agent.ledger.offer(
                [{"spec": point.spec(), "cost": point.cost} for point in group]
            )
            self.offered_groups += 1
            self.offered_points += len(group)
        return self.offered_groups

    def drain(self, clock=time.monotonic) -> dict:
        """Block until every offered lease is completed or abandoned.

        The loop's exit conditions are exactly the liveness rules: work
        still queued/leased *and* a live worker to do it -> wait; no
        live worker (and the connect grace spent) -> stop, the parent
        recomputes what is missing.  Leases held by dead nodes are
        recycled every poll so a surviving worker picks them up.
        """
        ledger, roster = self.agent.ledger, self.agent.roster
        started = clock()
        ever_live = False
        while ledger.outstanding():
            ledger.requeue_dead(roster.is_live)
            if not ledger.outstanding():
                break
            # Any member ever seen counts as a connection -- a worker that
            # leased and died *between two polls* must not leave the hub
            # waiting out the whole connect grace for a node it already had.
            if roster.members():
                ever_live = True
            if not roster.live() and (
                ever_live or clock() - started >= self.connect_grace_s
            ):
                break
            time.sleep(self.poll_s)
        summary = dict(ledger.snapshot())
        summary["abandoned"] = ledger.queued() + ledger.leased()
        summary["workers_seen"] = len(roster.members())
        return summary

    def close(self) -> None:
        if self.trace_id is not None:
            # The hub's root span closes when the hub does: every worker
            # lease span published under this trace is its child.
            from repro.telemetry import bus as telemetry_bus

            telemetry_bus.publish(
                "span",
                trace_id=self.trace_id,
                span_id=self.root_span_id,
                parent_id=None,
                name="sweep_hub",
                start=self._started_wall,
                duration_ms=(time.monotonic() - self._started) * 1000.0,
                status="ok",
                offered_groups=self.offered_groups,
                offered_points=self.offered_points,
            )
        self.agent.stop()


class RemoteWorker:
    """One leasing executor process (``repro.cli worker --connect``)."""

    def __init__(
        self,
        address,
        *,
        node: str | None = None,
        heartbeat_s: float = 1.0,
        idle_poll_s: float = 0.2,
        max_idle_s: float | None = None,
        transport: SocketTransport | None = None,
    ):
        self.transport = transport or SocketTransport(
            address, node=node, role="sweep-worker"
        )
        self.heartbeat_s = float(heartbeat_s)
        self.idle_poll_s = float(idle_poll_s)
        #: Exit after this long with no work (``None`` = stay resident
        #: until the hub goes away).
        self.max_idle_s = max_idle_s
        self.completed_points = 0
        self.completed_groups = 0
        self.failed_groups = 0

    def _start_heartbeat(self) -> threading.Event:
        stop = threading.Event()

        def beat():
            while not stop.wait(self.heartbeat_s):
                try:
                    self.transport.heartbeat()
                except (TransportError, OSError):
                    # The work loop notices the dead hub on its next call.
                    pass

        thread = threading.Thread(
            target=beat, name="cluster-heartbeat", daemon=True
        )
        thread.start()
        return stop

    def _build_context(self, meta: dict):
        """A sweep context evaluating into the *parent's* store identity."""
        from repro.eval.sweep import SweepContext, SweepSession

        session = SweepSession(
            scale=str(meta.get("scale", "fast")),
            workers=1,
            resume=bool(meta.get("resume", False)),
        )
        session.id = str(meta.get("session", session.id))
        session.store = RemotePointStore(self.transport)
        return SweepContext(session)

    def _publish_lease_span(
        self,
        trace_id,
        parent_span,
        lease: dict,
        points: int,
        started_wall: float,
        started: float,
        status: str = "ok",
    ) -> None:
        """One ``span`` event per evaluated lease group (hub trace child).

        ``started_wall`` (``time.time()``) places the span and ``started``
        (``time.monotonic()``) times it, so a stepped wall clock cannot
        make its duration negative.

        Published on the local bus *after* the spool sink is attached, so
        it streams through the :class:`RemoteSpoolWriter` into the
        parent's merged spool and folds into the hub's trace there.
        """
        if not trace_id:
            return
        from repro.telemetry import bus as telemetry_bus
        from repro.telemetry.tracing import new_span_id

        telemetry_bus.publish(
            "span",
            trace_id=str(trace_id),
            span_id=new_span_id(),
            parent_id=str(parent_span) if parent_span else None,
            name="remote_lease",
            start=started_wall,
            duration_ms=(time.monotonic() - started) * 1000.0,
            status=status,
            lease=lease.get("lease"),
            points=points,
            node=self.transport.node,
        )

    def run(self) -> dict:
        """Lease and evaluate until the hub goes away (or idle expiry)."""
        # Point runners register on import; without this the worker would
        # refuse every kind the parent offers.
        import repro.eval.experiments  # noqa: F401
        from repro.eval.sweep import point_from_spec
        from repro.telemetry import bus as telemetry_bus

        hello = self.transport.hello()
        meta = hello.get("meta", {})
        context = self._build_context(meta)
        # Adopt the hub's trace: every frame this worker sends is stamped
        # with it, and each lease evaluation publishes a child span of the
        # hub's root -- same trace id on both sides of the machine gap.
        trace_id = meta.get("trace_id")
        parent_span = meta.get("span_id")
        if trace_id:
            self.transport.trace_id = str(trace_id)
        if meta.get("telemetry"):
            telemetry_bus.get_bus().configure_source(
                role="remote-worker", node=self.transport.node
            )
            telemetry_bus.get_bus().attach_spool_sink(
                RemoteSpoolWriter(
                    self.transport, TELEMETRY_SPACE, role="remote-worker"
                )
            )
        stop_heartbeat = self._start_heartbeat()
        idle_since: float | None = None
        try:
            while True:
                try:
                    response = self.transport.lease_next()
                except TransportError:
                    break  # hub gone: the worker's work is done
                lease = response.get("lease")
                if not lease:
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    if (
                        self.max_idle_s is not None
                        and now - idle_since >= self.max_idle_s
                    ):
                        break
                    time.sleep(self.idle_poll_s)
                    continue
                idle_since = None
                points = [
                    point_from_spec(item["spec"]) for item in lease["items"]
                ]
                lease_wall, lease_started = time.time(), time.monotonic()
                try:
                    for point in points:
                        context.evaluate(point)
                except Exception:  # noqa: BLE001 - a bad point, not a bad worker
                    self.failed_groups += 1
                    self._publish_lease_span(
                        trace_id, parent_span, lease, len(points),
                        lease_wall, lease_started, status="error",
                    )
                    try:
                        self.transport.lease_fail(lease["lease"])
                    except TransportError:
                        break
                    continue
                self.completed_points += len(points)
                self.completed_groups += 1
                self._publish_lease_span(
                    trace_id, parent_span, lease, len(points), lease_wall,
                    lease_started,
                )
                try:
                    self.transport.lease_done(
                        lease["lease"], [point.key for point in points]
                    )
                except TransportError:
                    break
        finally:
            stop_heartbeat.set()
            try:
                from repro.eval.experiments.common import clear_harness_cache

                clear_harness_cache()
            except Exception:  # noqa: BLE001 - shutdown must not raise
                pass
            telemetry_bus.get_bus().detach_spool()
            self.transport.close()
        return {
            "completed_points": self.completed_points,
            "completed_groups": self.completed_groups,
            "failed_groups": self.failed_groups,
        }
