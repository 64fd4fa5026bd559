"""Zoo-scale sweep orchestration: a parallel experiment-point scheduler.

The paper-reproduction suite is a collection of *sweeps*: each experiment
evaluates a grid of (model, engine configuration, evaluation knobs) points
and reduces the per-point results into one table or figure.  This module
separates the two concerns so the whole suite can be scheduled as one pool
of independent sweep points:

* Experiments declare their work as a flat list of :class:`SweepPoint`
  (a *kind* naming a registered runner, an optional model for worker
  affinity, and canonicalized parameters) and reduce the returned payloads
  in declaration order -- a pure function of the per-point results.
* :func:`run_sweep` executes the points.  Serially it is the same loop the
  experiments used to run inline; with ``workers > 1`` the points are
  grouped by model and the groups are distributed across a fork-based pool
  (:mod:`repro.eval.parallel`), so a trained/calibrated harness is built
  once per worker and reused for every point of that model.  The worker
  budget is split between point workers and the per-point image-shard
  workers without oversubscribing (:func:`plan_worker_allocation`).
* Every computed point is persisted as JSON in a content-addressed store
  under the results cache.  Identical points declared by different
  experiments (or nested inside compound runners via
  :meth:`SweepContext.evaluate`) are computed once and reused, and an
  interrupted suite resumes from its completed points
  (``SweepSession(resume=True)``).
* Reduction is deterministic: payloads are returned in declaration order
  and are always the JSON-normalized representation, so a parallel run is
  bit-identical to the serial loop.

A fresh session (``resume=False``, the default) only trusts artifacts
written by itself (each store entry records the session id that produced
it), so stale results from previous runs are recomputed; ``resume=True``
accepts any stored artifact.
"""

from __future__ import annotations

import json
import os
import sys
import uuid
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.eval import parallel
from repro.telemetry import bus as telemetry_bus
from repro.utils.cache import _stable_hash, default_cache_dir

# ---------------------------------------------------------------------------
# Points and runners
# ---------------------------------------------------------------------------


def _canonical_value(value):
    """Canonicalize a parameter value into a hashable, JSON-stable form."""
    if isinstance(value, dict):
        return tuple(
            (str(key), _canonical_value(value[key])) for key in sorted(value)
        )
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_value(item) for item in value)
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"sweep-point parameter {value!r} is not JSON-stable")


@dataclass(frozen=True)
class SweepPoint:
    """One unit of sweep work: a runner kind, a model, and its parameters.

    Points are identified by content -- two experiments declaring the same
    (kind, model, params) share one computation and one stored artifact.
    ``cost`` is a relative scheduling weight (used to balance worker
    assignments, not part of the identity).
    """

    kind: str
    model: str | None = None
    params: tuple = ()
    cost: float = field(default=1.0, compare=False)

    @staticmethod
    def make(
        kind: str, model: str | None = None, cost: float = 1.0, **params
    ) -> "SweepPoint":
        canonical = tuple(
            (str(key), _canonical_value(params[key])) for key in sorted(params)
        )
        return SweepPoint(kind=kind, model=model, params=canonical, cost=cost)

    def param(self, name: str, default=None):
        for key, value in self.params:
            if key == name:
                return value
        return default

    def spec(self) -> dict:
        """JSON-able description of the point (the store identity)."""
        return {
            "kind": self.kind,
            "model": self.model,
            "params": {key: to_jsonable(value) for key, value in self.params},
        }

    @property
    def key(self) -> str:
        """Filesystem-safe content-addressed identifier."""
        model = self.model or "any"
        return f"{self.kind}-{model}-{_stable_hash(self.spec())}"

    @property
    def group(self) -> str:
        """Worker-affinity group (points of one model share a worker)."""
        return self.model if self.model is not None else f"@{self.kind}"


def point_from_spec(spec: dict) -> SweepPoint:
    """Rebuild a point from its :meth:`SweepPoint.spec` document.

    The round trip is exact: ``point_from_spec(p.spec()).key == p.key``,
    which is what lets a remote executor lease specs off the wire and
    persist results under the identity the parent expects.  ``cost`` is
    not part of the identity and is not carried.
    """
    return SweepPoint.make(
        spec["kind"], spec.get("model"), **(spec.get("params") or {})
    )


_POINT_RUNNERS: dict[str, Callable] = {}


def point_runner(kind: str):
    """Register the runner executing points of ``kind``.

    A runner is a module-level function ``runner(ctx, point) -> dict``; it
    must be deterministic and return a JSON-able payload.  Runners may
    evaluate nested points through ``ctx.evaluate`` to share work with other
    experiments (e.g. a throttling curve reusing its baseline evaluation).
    """

    def decorator(fn):
        _POINT_RUNNERS[kind] = fn
        return fn

    return decorator


def get_runner(kind: str) -> Callable:
    try:
        return _POINT_RUNNERS[kind]
    except KeyError:
        raise KeyError(
            f"no sweep runner registered for kind {kind!r}; "
            f"known: {sorted(_POINT_RUNNERS)}"
        ) from None


def to_jsonable(value):
    """Recursively convert numpy containers/scalars to plain JSON values."""
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _normalize(payload: dict) -> dict:
    """JSON round trip, so in-memory results match store-loaded ones exactly."""
    return json.loads(json.dumps(to_jsonable(payload)))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


class PointStore:
    """Content-addressed JSON store of computed sweep points (per scale).

    The store may carry a :class:`repro.utils.diskbudget.DiskBudget`: a
    save that would bust the quota (or hits real ENOSPC) is *refused and
    counted* (``refused_writes``) while reads keep serving -- disk
    exhaustion degrades persistence (the point is recomputed next
    session), never correctness (the normalized payload is still
    returned, so the in-flight sweep proceeds with the exact values a
    store round-trip would have produced).
    """

    def __init__(
        self, scale: str, root: Path | str | None = None, budget=None
    ):
        base = Path(root) if root is not None else default_cache_dir()
        self.dir = base / "results" / "points" / scale
        self.budget = budget
        self.refused_writes = 0

    def path(self, point: SweepPoint) -> Path:
        return self.dir / f"{point.key}.json"

    def load(self, point: SweepPoint) -> tuple[dict, str] | None:
        """Return ``(payload, session_id)`` or None when absent/corrupt."""
        path = self.path(point)
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
            return entry["result"], entry.get("session", "")
        except (OSError, ValueError, KeyError):
            return None

    def save(self, point: SweepPoint, payload: dict, session_id: str) -> dict:
        """Atomically persist one point; returns the normalized payload.

        Under a full disk (quota or ENOSPC) the write is refused with a
        counter and the normalized payload is returned un-persisted.
        """
        normalized = _normalize(payload)
        self.dir.mkdir(parents=True, exist_ok=True)
        entry = {
            "spec": point.spec(),
            "session": session_id,
            "result": normalized,
        }
        path = self.path(point)
        if self.budget is not None:
            document = json.dumps(entry, indent=1)
            if not self.budget.admit(len(document)):
                self.refused_writes += 1
                return normalized
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                # No sort_keys: loaded payloads must preserve the exact key
                # order of the normalized in-memory payload, or store-served
                # runs would reduce dicts in a different order than serial
                # ones.
                json.dump(entry, handle, indent=1)
            os.replace(tmp, path)
        except OSError as exc:
            from repro.utils.diskbudget import is_enospc

            if is_enospc(exc):
                self.refused_writes += 1
                if self.budget is not None:
                    self.budget.note_enospc()
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                return normalized
            raise
        return normalized

    def discard(self, point: SweepPoint) -> None:
        try:
            self.path(point).unlink()
        except OSError:
            pass

    def clear(self) -> None:
        if not self.dir.is_dir():
            return
        # "*" also sweeps up "<key>.tmp.<pid>" files orphaned by a worker
        # that died between writing and os.replace.
        for path in self.dir.glob("*"):
            try:
                path.unlink()
            except OSError:
                pass


# ---------------------------------------------------------------------------
# Sessions and contexts
# ---------------------------------------------------------------------------


@dataclass
class SweepSession:
    """Execution policy shared by every sweep of one suite invocation.

    One session spans all experiments of a ``repro run`` call, so
    identical points declared by different experiments are computed once.
    ``resume`` accepts artifacts from previous sessions; a fresh session
    recomputes them.  ``cpu_count`` overrides CPU detection
    (tests; capacity planning).
    """

    scale: str = "fast"
    workers: int = 1
    resume: bool = False
    cpu_count: int | None = None
    store_root: Path | str | None = None
    id: str = field(default_factory=lambda: uuid.uuid4().hex)
    #: Optional :class:`repro.cluster.worker.SweepHub`: when set, pending
    #: points are offered to remote executors instead of a local fork pool.
    hub: object | None = None

    def __post_init__(self):
        self.scale = getattr(self.scale, "name", self.scale)
        self.store = PointStore(self.scale, self.store_root)
        self._context: SweepContext | None = None

    def context(self) -> "SweepContext":
        """The parent-process evaluation context (created lazily)."""
        if self._context is None:
            self._context = SweepContext(self)
        return self._context


def ensure_session(
    session: SweepSession | None,
    scale,
    workers: int = 1,
    resume: bool = False,
) -> SweepSession:
    """Return ``session`` (validated against ``scale``) or a fresh one."""
    scale_name = getattr(scale, "name", scale)
    if session is None:
        return SweepSession(scale=scale_name, workers=workers, resume=resume)
    if session.scale != scale_name:
        raise ValueError(
            f"session runs at scale {session.scale!r}, experiment asked for "
            f"{scale_name!r}"
        )
    return session


class SweepContext:
    """Evaluates points for one process, with memoization and store reuse."""

    def __init__(self, session: SweepSession, inner_workers: int = 1):
        self.session = session
        self.scale = session.scale
        self.inner_workers = inner_workers
        self._memo: dict[SweepPoint, dict] = {}

    def _stored(self, point: SweepPoint) -> dict | None:
        entry = self.session.store.load(point)
        if entry is None:
            return None
        payload, session_id = entry
        if self.session.resume or session_id == self.session.id:
            return payload
        return None

    def memoized(self, point: SweepPoint) -> bool:
        """Whether this context already holds the point (no store read)."""
        return point in self._memo

    def cached(self, point: SweepPoint) -> dict | None:
        """The point's payload if already computed (memo or store), else None."""
        payload = self._memo.get(point)
        if payload is None:
            payload = self._stored(point)
            if payload is not None:
                self._memo[point] = payload
                # A store hit new to this process is a *reuse*: consumers
                # (the progress ticker, the dashboard) dedup by point key,
                # so the worker that actually computed a point and the
                # parent later collecting it never double-count.
                telemetry_bus.publish(
                    "point_finished",
                    kind=point.kind,
                    model=point.model,
                    key=point.key,
                    reused=True,
                )
        return payload

    def evaluate(self, point: SweepPoint) -> dict:
        """Compute (or fetch) one point's normalized payload."""
        payload = self.cached(point)
        if payload is None:
            telemetry_bus.publish(
                "point_started",
                kind=point.kind,
                model=point.model,
                key=point.key,
            )
            try:
                result = get_runner(point.kind)(self, point)
            except Exception:
                telemetry_bus.publish(
                    "point_failed",
                    kind=point.kind,
                    model=point.model,
                    key=point.key,
                )
                raise
            payload = self.session.store.save(point, result, self.session.id)
            self._memo[point] = payload
            telemetry_bus.publish(
                "point_finished",
                kind=point.kind,
                model=point.model,
                key=point.key,
                reused=False,
            )
        return payload


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------

#: Worker-process context, created after the fork (one per worker).
_WORKER_CONTEXT: SweepContext | None = None


def _worker_initializer(session: SweepSession, inner_workers: int):
    def initialize():
        global _WORKER_CONTEXT
        # Inherited memoized harnesses would pin the parent's copy-on-write
        # memory for models the worker may never touch; it builds its own.
        from repro.eval.experiments.common import clear_harness_cache

        clear_harness_cache()
        _WORKER_CONTEXT = SweepContext(session, inner_workers=inner_workers)

    return initialize


def _make_group_thunk(points: list[SweepPoint]):
    def run_group():
        for point in points:
            _WORKER_CONTEXT.evaluate(point)

    return run_group


def group_points(points: list[SweepPoint]) -> list[list[SweepPoint]]:
    """Group points by worker affinity, preserving declaration order."""
    groups: dict[str, list[SweepPoint]] = {}
    for point in points:
        groups.setdefault(point.group, []).append(point)
    return list(groups.values())


def run_sweep(
    points: list[SweepPoint], session: SweepSession | None = None, **kwargs
) -> list[dict]:
    """Execute sweep points and return their payloads in declaration order.

    With ``session.workers > 1`` (and fork available and more than one CPU)
    the not-yet-computed points are grouped by model, the groups are
    balanced across a fork-based worker pool, and each worker persists its
    results to the point store; the parent then collects every payload from
    the store.  Any point a crashed worker failed to produce is recomputed
    serially in the parent, so a dying worker degrades the sweep instead of
    failing it.  Serial execution (the default) evaluates the same points
    in declaration order in-process -- the reference semantics.
    """
    session = session or SweepSession(**kwargs)
    context = session.context()
    context.inner_workers = 1  # re-planned below for this sweep

    seen: set[SweepPoint] = set()
    unique = [p for p in points if not (p in seen or seen.add(p))]
    # Telemetry: announce how much *new* work this sweep represents (points
    # already memoized by an earlier sweep of the same session are done).
    telemetry_bus.publish(
        "sweep_started",
        points=sum(1 for p in unique if not context.memoized(p)),
    )
    # The pool (and the hub) hand results back through the store.
    hub = getattr(session, "hub", None)
    use_pool = session.workers > 1 and parallel.fork_available()
    if hub is not None or use_pool:
        pending = [p for p in unique if context.cached(p) is None]
        groups = group_points(pending)
        if hub is not None:
            # Every pending group goes on the wire: remote executors lease
            # them and persist into this session's store.  The collection
            # loop below recomputes whatever a dead or partitioned node
            # left behind -- losing every worker degrades the sweep back
            # to the serial path, never fails it.
            if groups:
                hub.offer(groups)
                hub.drain()
        else:
            pool, inner = parallel.plan_worker_allocation(
                session.workers, len(groups), session.cpu_count
            )
            # With a single point worker (one affinity group, or no spare
            # CPUs for a pool) the whole shard budget goes to the in-point
            # image sharding instead, so --workers still buys two-level
            # parallelism.
            context.inner_workers = inner if pool == 1 else 1
            if pool > 1:
                weights = [sum(p.cost for p in group) for group in groups]
                worklists = [
                    [_make_group_thunk(groups[index]) for index in indices]
                    for indices in parallel.partition_worklists(weights, pool)
                ]
                ok = parallel.run_worklists(
                    worklists,
                    initializer=_worker_initializer(session, inner),
                )
                if not all(ok):
                    failed = sum(1 for flag in ok if not flag)
                    print(
                        f"sweep: {failed} worker(s) exited abnormally; "
                        "recomputing their unfinished points serially",
                        file=sys.stderr,
                    )
                # Workers only persist to the store; pick their results up
                # (and compute whatever a crashed worker left behind) in
                # the parent.

    payloads = [context.evaluate(point) for point in points]
    telemetry_bus.publish("sweep_finished", points=len(unique))
    return payloads
