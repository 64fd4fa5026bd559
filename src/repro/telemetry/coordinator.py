"""Cross-shard QoS coordination: one coherent service-wide ladder rung.

Without coordination each ``SO_REUSEPORT`` front-end shard walks its own
operating-point ladder from its own load signal; under skewed or bursty
load the shards flap independently and clients see a mix of rungs (and so
a mix of accuracies) for the same endpoint at the same instant.

The coordinator is deliberately *leaderless*, reusing the crash-tolerant
atomic-rename spool pattern of the metrics exchange: every shard
periodically publishes its **locally desired** rung (what its hysteretic
:class:`~repro.serve.qos.QoSController` would do on its own) plus its
pressure into ``qos-shard-<i>.json``, and every shard deterministically
computes the same service-wide recommendation from the same gathered
state -- no election, no extra process, and a crashed shard (dead pid or
stale file) simply drops out of the quorum.

The recommendation is the **maximum** desired rung over the live,
non-held shards: one overloaded shard degrades the whole service together
(coherent quality, and the kernel's connection balancing means its load is
everyone's load within a round-trip), while recovery happens only when
*every* shard's local controller wants it -- which is exactly the no-flap
property: a single calm shard can never drag the service up while a busy
peer still sheds.

Shards follow the recommendation unless an operator ``force``/``hold`` is
set (:meth:`repro.serve.qos.EndpointGovernor.force`): a held shard keeps
its pinned rung, publishes ``held`` so peers exclude it from the quorum,
and resumes following on release.
"""

from __future__ import annotations

import os
import threading
import time

from repro.cluster.documents import (
    QOS_STALE_AFTER_S,
    DocumentStore,
    local_host,
    publisher_alive,
)
from repro.telemetry import bus as telemetry_bus


class ShardStateChannel:
    """Atomic-rename publish/gather of per-shard QoS state documents.

    The channel is a thin client of the cluster substrate: documents live
    in a :class:`~repro.cluster.documents.DocumentStore` -- the shared
    local directory of a ``--shards`` service, or a socket-backed store
    through which servers on *different machines* join one QoS quorum.
    Liveness is the generalized rule: a fresh heartbeat, plus a live pid
    when the publisher runs on this host (a remote publisher's pid is
    unprobeable; staleness alone evicts it).
    """

    def __init__(self, store: DocumentStore, shard_index: int, shard_count: int):
        self.store = store
        self.shard_index = int(shard_index)
        self.shard_count = int(shard_count)

    @property
    def corrupt_documents(self) -> int:
        """Documents that failed to parse or were structurally invalid --
        a corrupt peer file must drop out of the quorum, never crash the
        QoS tick."""
        return self.store.corrupt_documents

    def _name(self, index: int) -> str:
        return f"qos-shard-{index}.json"

    def publish(self, endpoints: dict) -> None:
        """Atomically replace this shard's state document."""
        self.store.put(
            self._name(self.shard_index),
            {
                "shard": self.shard_index,
                "pid": os.getpid(),
                "host": local_host(),
                "published_at": time.time(),
                "endpoints": endpoints,
            },
        )

    def gather(self, stale_after_s: float = QOS_STALE_AFTER_S) -> dict[int, dict]:
        """Fresh, live shard documents by shard index (including our own)."""
        states: dict[int, dict] = {}
        now = time.time()
        for index in range(self.shard_count):
            document = self.store.get(self._name(index))
            if document is None:
                continue
            if not isinstance(document.get("endpoints"), dict):
                self.store.note_corrupt()
                continue
            try:
                float(document.get("published_at", 0.0))
                int(document.get("pid", 0) or 0)
            except (TypeError, ValueError):
                self.store.note_corrupt()
                continue
            if index == self.shard_index:
                # Our own document never fails its own pid probe; only
                # freshness applies (a wedged tick must not self-evict).
                if now - float(document.get("published_at", 0.0)) > stale_after_s:
                    continue
            elif not publisher_alive(document, stale_after_s, now=now):
                continue
            states[index] = document
        return states


def recommend_level(
    shard_states: dict[int, dict], endpoint: str, num_levels: int
) -> tuple[int | None, dict[int, int]]:
    """The service-wide rung for ``endpoint`` given gathered shard states.

    Returns ``(level, desired_by_shard)``; ``level`` is ``None`` when no
    live shard reports the endpoint (nothing to coordinate).  Held shards
    contribute their pin to ``desired_by_shard`` (visibility) but not to
    the recommendation.
    """
    desired_by_shard: dict[int, int] = {}
    quorum: list[int] = []
    for index, document in sorted(shard_states.items()):
        entry = document.get("endpoints", {}).get(endpoint)
        if not isinstance(entry, dict):
            continue
        try:
            desired = int(entry.get("desired", 0))
        except (TypeError, ValueError):
            continue
        desired_by_shard[index] = desired
        if not entry.get("held", False):
            quorum.append(desired)
    if not quorum:
        return None, desired_by_shard
    level = max(0, min(num_levels - 1, max(quorum)))
    return level, desired_by_shard


class QoSCoordinator:
    """One shard's view of the service-wide QoS quorum.

    The server's QoS tick calls :meth:`update` per endpoint with the local
    controller's desire; the coordinator batches the endpoint states into
    one published document per tick (:meth:`flush`) and answers
    :meth:`recommendation` from the latest gather.  A changed
    recommendation publishes a ``coordinator_recommendation`` telemetry
    event (the dashboard's coordination panel).
    """

    def __init__(
        self,
        channel: ShardStateChannel,
        stale_after_s: float = QOS_STALE_AFTER_S,
        min_publish_s: float = 0.0,
        gather_cache_s: float = 0.0,
    ):
        """``min_publish_s``/``gather_cache_s`` throttle the channel I/O.

        A sharded server ticks every adaptive endpoint a few times per
        second; without throttling that is one document write plus one
        full gather *per endpoint per tick* (all under the governor's
        decide lock).  ``min_publish_s`` skips a flush whose state is
        unchanged and recent; ``gather_cache_s`` reuses one gathered
        snapshot across the endpoints of a tick.  Both default to 0
        (always fresh), which the deterministic tests rely on.  Both are
        timed on the monotonic clock: a wall clock stepped back must not
        stop an unchanged shard republishing (it would drop out of its
        peers' quorum) or pin a stale gather.
        """
        self.channel = channel
        self.stale_after_s = float(stale_after_s)
        self.min_publish_s = float(min_publish_s)
        self.gather_cache_s = float(gather_cache_s)
        self._lock = threading.Lock()
        self._local: dict[str, dict] = {}
        self._last_recommendation: dict[str, int] = {}
        self._last_published: dict[str, dict] | None = None
        self._last_published_at = float("-inf")
        self._gathered: dict[int, dict] | None = None
        self._gathered_at = float("-inf")

    @property
    def shard_index(self) -> int:
        return self.channel.shard_index

    def update(
        self,
        endpoint: str,
        desired: int,
        applied: int,
        pressure: float = 0.0,
        held: bool = False,
    ) -> None:
        """Record this shard's current state for one endpoint."""
        with self._lock:
            self._local[endpoint] = {
                "desired": int(desired),
                "applied": int(applied),
                "pressure": float(pressure),
                "held": bool(held),
            }

    def flush(self) -> None:
        """Publish the batched local state (one atomic document).

        Skipped when the state is unchanged and the last publish is more
        recent than ``min_publish_s`` -- but an *unchanged* document must
        still republish before it would go stale, or peers would drop
        this shard from the quorum.
        """
        now = time.monotonic()
        with self._lock:
            endpoints = {
                name: dict(entry) for name, entry in self._local.items()
            }
            if (
                endpoints == self._last_published
                and now - self._last_published_at < self.min_publish_s
            ):
                return
            self._last_published = endpoints
            self._last_published_at = now
        try:
            self.channel.publish(endpoints)
        except OSError:  # pragma: no cover - channel dir torn down
            pass

    def _gather(self) -> dict[int, dict]:
        now = time.monotonic()
        with self._lock:
            if (
                self._gathered is not None
                and now - self._gathered_at < self.gather_cache_s
            ):
                return self._gathered
        states = self.channel.gather(self.stale_after_s)
        with self._lock:
            self._gathered = states
            self._gathered_at = now
        return states

    def recommendation(self, endpoint: str, num_levels: int) -> int | None:
        """The rung this shard should serve ``endpoint`` at (None = alone).

        ``None`` means no quorum exists (no live peer state, e.g. during
        startup) and the caller should fall back to its local controller.
        """
        states = self._gather()
        level, desired_by_shard = recommend_level(states, endpoint, num_levels)
        if level is None:
            return None
        with self._lock:
            changed = self._last_recommendation.get(endpoint) != level
            self._last_recommendation[endpoint] = level
        if changed:
            telemetry_bus.publish(
                "coordinator_recommendation",
                endpoint=endpoint,
                level=level,
                shard_levels={
                    str(index): desired
                    for index, desired in sorted(desired_by_shard.items())
                },
                reason=f"max desired rung over {len(desired_by_shard)} shard(s)",
            )
        return level

    def snapshot(self) -> dict:
        """JSON-able view (the operating-point route's coordinator block)."""
        states = self.channel.gather(self.stale_after_s)
        endpoints: dict[str, dict] = {}
        for index, document in sorted(states.items()):
            for name, entry in document.get("endpoints", {}).items():
                endpoints.setdefault(name, {})[str(index)] = entry
        with self._lock:
            recommendations = dict(self._last_recommendation)
        return {
            "shard": self.channel.shard_index,
            "shard_count": self.channel.shard_count,
            "live_shards": sorted(states),
            "endpoints": endpoints,
            "recommendations": recommendations,
        }
