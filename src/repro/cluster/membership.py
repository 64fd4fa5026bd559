"""Cluster membership: node identity + heartbeat liveness.

A :class:`ClusterMember` is the identity one process presents to the
cluster: a node id, the host it runs on, its pid, a role, and the
wall-clock timestamp of its latest heartbeat.  Liveness generalizes the
QoS coordinator's pid/staleness eviction to remote nodes
(:func:`repro.cluster.documents.publisher_alive`): a member is live
while its heartbeat is fresh, and a member on *this* host additionally
dies the instant its pid does.  A remote member's pid is unprobeable, so
a remote crash is observed as heartbeat staleness -- within one horizon,
exactly like a local shard that stopped ticking.

The :class:`MembershipRoster` is the agent-side ledger of members:
``beat`` upserts a member from any message carrying its identity,
``live`` filters by the rule above, and ``evict`` removes (and returns)
the dead so work leased to them can be recycled.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from repro.cluster.documents import (
    QOS_STALE_AFTER_S,
    local_host,
    pid_alive,
)


def node_id(role: str = "node") -> str:
    """A default node identity: unique per process per host."""
    return f"{local_host()}-{role}-{os.getpid()}"


@dataclass
class ClusterMember:
    """One node's identity and latest heartbeat."""

    node: str
    host: str = ""
    pid: int = 0
    role: str = "node"
    beat_at: float = 0.0
    info: dict = field(default_factory=dict)

    def document(self) -> dict:
        """JSON-able form (also a valid liveness document: the heartbeat
        doubles as ``published_at``)."""
        return {
            "node": self.node,
            "host": self.host,
            "pid": self.pid,
            "role": self.role,
            "published_at": self.beat_at,
            "info": dict(self.info),
        }

    @classmethod
    def from_document(cls, document: dict) -> "ClusterMember":
        return cls(
            node=str(document.get("node", "")),
            host=str(document.get("host", "")),
            pid=int(document.get("pid", 0) or 0),
            role=str(document.get("role", "node")),
            beat_at=float(document.get("published_at", 0.0) or 0.0),
            info=dict(document.get("info", {}) or {}),
        )

    def live(
        self,
        stale_after_s: float = QOS_STALE_AFTER_S,
        now: float | None = None,
        host: str | None = None,
    ) -> bool:
        """The generalized liveness rule (see module docstring)."""
        if now is None:
            now = time.time()
        if now - self.beat_at > stale_after_s:
            return False
        if self.host and self.host != (host or local_host()):
            return True
        if self.pid:
            return pid_alive(self.pid)
        return True


class MembershipRoster:
    """Thread-safe ledger of the members that have ever announced."""

    def __init__(
        self,
        stale_after_s: float = QOS_STALE_AFTER_S,
        clock=time.time,
        host: str | None = None,
    ):
        self.stale_after_s = float(stale_after_s)
        self.clock = clock
        self.host = host or local_host()
        self._lock = threading.Lock()
        self._members: dict[str, ClusterMember] = {}

    def beat(
        self,
        node: str,
        host: str | None = None,
        pid: int | None = None,
        role: str | None = None,
        info: dict | None = None,
    ) -> ClusterMember:
        """Upsert one member from a heartbeat (or any identified message)."""
        with self._lock:
            member = self._members.get(node)
            if member is None:
                member = ClusterMember(node=node)
                self._members[node] = member
            if host is not None:
                member.host = str(host)
            if pid is not None:
                member.pid = int(pid)
            if role is not None:
                member.role = str(role)
            if info:
                member.info.update(info)
            member.beat_at = self.clock()
            return member

    def get(self, node: str) -> ClusterMember | None:
        with self._lock:
            return self._members.get(node)

    def members(self) -> list[ClusterMember]:
        with self._lock:
            return list(self._members.values())

    def live(self) -> list[ClusterMember]:
        now = self.clock()
        return [
            member
            for member in self.members()
            if member.live(self.stale_after_s, now=now, host=self.host)
        ]

    def is_live(self, node: str) -> bool:
        member = self.get(node)
        return member is not None and member.live(
            self.stale_after_s, now=self.clock(), host=self.host
        )

    def evict(self) -> list[ClusterMember]:
        """Remove and return every dead member (lease-recycling hook)."""
        now = self.clock()
        evicted: list[ClusterMember] = []
        with self._lock:
            for node in list(self._members):
                member = self._members[node]
                if not member.live(self.stale_after_s, now=now, host=self.host):
                    evicted.append(self._members.pop(node))
        return evicted

    def snapshot(self) -> dict:
        now = self.clock()
        return {
            "stale_after_s": self.stale_after_s,
            "members": [
                dict(
                    member.document(),
                    live=member.live(
                        self.stale_after_s, now=now, host=self.host
                    ),
                    age_s=now - member.beat_at,
                )
                for member in self.members()
            ],
        }
