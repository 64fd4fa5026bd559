"""Warm NB-SMT engine replicas backing the serving endpoints.

Serving latency budgets rule out calibrating (let alone training) a model
on the request path, so each endpoint is backed by *warm replicas*: a
calibrated :class:`~repro.quant.qmodel.QuantizedModel` taken from the
experiment-harness cache
(:func:`repro.eval.experiments.common.get_harness`) plus one
pre-configured :class:`~repro.core.engine.NBSMTEngine` whose executors,
lookup tables and weight-quantization caches are primed by a warm-up
forward pass before the endpoint goes live.

Two replica flavors share one interface:

* :class:`InlineReplica` executes in-process (the default; on a single-CPU
  box nothing beats it).
* :class:`ForkedReplica` mirrors the replica into a persistent forked
  worker process -- the same copy-on-write fork machinery the sweep
  scheduler uses (:mod:`repro.eval.parallel`), so the child inherits the
  parent's already-calibrated harness for free and multicore machines run
  batches of different models (or multiple replicas of a hot model) in
  parallel.  Workers drain their in-flight batch and close their engines
  on SIGTERM/SIGINT.

:class:`EnginePool` owns the replicas and hands each
:class:`~repro.serve.batcher.DynamicBatcher` a runner closure that
concatenates request payloads, executes the batch on a free replica,
splits the logits back per request and folds the batch's
:class:`~repro.core.smt.SMTStatistics` into the endpoint metrics.
Execution is bit-identical to the harness path: the same engine stack,
the same statistics, batched or not.
"""

from __future__ import annotations

import os
import queue as queue_module
import signal
import threading
import time
import weakref

import numpy as np

from repro.core.engine import NBSMTEngine
from repro.core.smt import SMTStatistics
from repro.eval import parallel
from repro.eval.throttle import (
    OperatingLadder,
    OperatingPoint,
    operating_ladder,
    throttle_assignment,
)
from repro.serve.registry import ModelSpec
from repro.telemetry import bus as telemetry_bus


#: One execution lock per live QuantizedModel: endpoints aliased to the same
#: zoo model (``ModelSpec(model=...)``) share one cached harness, and their
#: batcher threads must not reconfigure/execute the same model concurrently.
_QMODEL_LOCKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_QMODEL_LOCKS_GUARD = threading.Lock()


def _execution_lock(qmodel) -> threading.RLock:
    with _QMODEL_LOCKS_GUARD:
        lock = _QMODEL_LOCKS.get(qmodel)
        if lock is None:
            lock = threading.RLock()
            _QMODEL_LOCKS[qmodel] = lock
        return lock


class InlineReplica:
    """One warm (harness, engine) pair executing batches in-process."""

    def __init__(self, spec: ModelSpec, provider, warm: bool = True):
        self.spec = spec
        self.harness = provider(spec)
        self.engine = NBSMTEngine(
            spec.resolved_policy(),
            collect_stats=spec.collect_stats,
            fast4t_impl=spec.fast4t_impl,
            prune_blocks=spec.prune_blocks,
        )
        self._closed = False
        self._point: OperatingPoint | None = None
        self._pace_unit: float | None = None
        self._model_speedup: float | None = None
        self._lock = _execution_lock(self.harness.qmodel)
        with self._lock:
            self._install()
        if warm:
            self.warm()

    def _install(self) -> None:
        qmodel = self.harness.qmodel
        if self._point is not None:
            qmodel.set_threads(dict(self._point.threads))
        elif self.spec.slow_layers:
            qmodel.set_threads(
                throttle_assignment(
                    qmodel,
                    self.spec.threads,
                    list(self.spec.slow_layers),
                    self.spec.slow_threads,
                )
            )
        else:
            qmodel.set_threads(self.spec.threads)
        if self.spec.reorder:
            qmodel.set_permutations(
                self.harness.reorder_permutations(self.spec.threads)
            )
        else:
            self.harness.clear_permutations()
        qmodel.set_engine(self.engine)
        qmodel.clear_stats()
        self._assignment = qmodel.thread_assignment()
        self._model_speedup = None
        self._permutations = {
            name: layer.context.permutation
            for name, layer in qmodel.layers.items()
        }

    def thread_assignment(self) -> dict[str, int]:
        return self.harness.qmodel.thread_assignment()

    # -- operating point ---------------------------------------------------
    @property
    def level(self) -> int:
        """The ladder rung this replica currently serves (0 when static)."""
        return self._point.level if self._point is not None else 0

    def set_operating_point(self, point: OperatingPoint) -> None:
        """Swap to another rung's thread assignment.

        Taking the execution lock makes the swap atomic with respect to
        in-flight micro-batches: a batch that already started finishes at
        the point that admitted it, the next batch runs at ``point``.
        """
        with self._lock:
            self._point = point
            self._install()

    def set_pacing(self, unit_seconds_per_image: float | None) -> None:
        """Pace batches to the modeled SySMT service time.

        ``unit`` is the modeled seconds one image takes at speedup 1.0; a
        batch of ``B`` images at a point with modeled speedup ``S`` then
        takes at least ``B * unit / S`` of wall clock (topped up by
        sleeping after the host computation).  ``None`` disables pacing.
        """
        self._pace_unit = unit_seconds_per_image

    def _current_speedup(self) -> float:
        """Modeled speedup of the active assignment (pacing denominator)."""
        if self._point is not None:
            return max(1e-9, self._point.expected_speedup)
        if self._model_speedup is None:
            self._model_speedup = self.harness.speedup_for(self._assignment)
        return max(1e-9, self._model_speedup)

    def warm(self) -> None:
        """Prime engine executors and quantization caches before traffic."""
        sample = self.harness.eval_images[:1]
        if sample.shape[0]:
            with self._lock:
                self._reassert()
                self.harness.qmodel.warm(sample)
                self.engine.reset_stats()

    def _reassert(self) -> None:
        """Re-assert this replica's configuration on the shared model.

        A harness shared with experiment code (or with another endpoint
        aliased to the same zoo model) may have been reconfigured between
        requests -- different engine, thread assignment or permutations.
        """
        qmodel = self.harness.qmodel
        if (
            qmodel.default_engine is not self.engine
            or qmodel.thread_assignment() != self._assignment
            or any(
                layer.context.permutation is not self._permutations[name]
                for name, layer in qmodel.layers.items()
            )
        ):
            self._install()

    def infer(
        self, images: np.ndarray
    ) -> tuple[np.ndarray, dict[str, SMTStatistics]]:
        """Run one batch; returns logits and the batch's per-layer stats."""
        logits, layer_stats, _level = self.infer_ex(images)
        return logits, layer_stats

    def infer_ex(
        self, images: np.ndarray, trace: dict | None = None
    ) -> tuple[np.ndarray, dict[str, SMTStatistics], int]:
        """Like :meth:`infer`, also reporting the rung that served the batch.

        Execution holds the shared model's lock, so endpoints aliased to
        the same zoo model serialize instead of corrupting each other, and
        operating-point swaps wait for the in-flight batch.  With pacing
        enabled, the batch is padded (by sleeping, outside the lock) up to
        the modeled SySMT service time of the active operating point.

        ``trace`` is an optional mutable carrier: when given, the batch's
        engine-compute timing (wall start/duration, executing pid, rung,
        per-layer breakdown from the engine) is stored under
        ``trace["engine"]`` for the caller to turn into trace spans.
        """
        if self._closed:
            raise RuntimeError(f"replica for {self.spec.name!r} is closed")
        with self._lock:
            self._reassert()
            pace = self._pace_unit
            speedup = self._current_speedup() if pace is not None else 1.0
            self.engine.reset_stats()
            started = time.monotonic()
            wall_started = time.time()
            logits = self.harness.qmodel.forward(images)
            layer_stats = self.engine.layer_stats
            if trace is not None:
                trace["engine"] = {
                    "start": wall_started,
                    "duration_s": time.monotonic() - started,
                    "pid": os.getpid(),
                    "level": self.level,
                    "layers": list(self.engine.layer_times),
                }
            self.engine.reset_stats()
            level = self.level
        if pace is not None:
            target = float(images.shape[0]) * pace / speedup
            remaining = target - (time.monotonic() - started)
            if remaining > 0:
                time.sleep(remaining)
        return logits, layer_stats, level

    def close(self) -> None:
        self._closed = True


def _forked_replica_main(spec: ModelSpec, provider, conn) -> None:
    """Worker-process loop of a :class:`ForkedReplica`.

    SIGTERM/SIGINT request a drain: the in-flight batch finishes and its
    response is sent before the engine is closed and the process exits.
    """
    parallel.IN_POOL_WORKER = True
    # Inherited telemetry subscribers belong to the parent server process.
    telemetry_bus.get_bus().reset_after_fork(role="serve-replica")
    stop = {"requested": False}

    def _request_stop(signum, frame):
        stop["requested"] = True

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, _request_stop)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass

    replica = InlineReplica(spec, provider, warm=False)
    try:
        while not stop["requested"]:
            try:
                # Bounded poll instead of a blocking recv: a signal that
                # lands while the worker is idle is noticed within the
                # poll interval (a blocked recv would simply be retried
                # after the handler returns, PEP 475).
                if not conn.poll(0.2):
                    continue
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            command, payload = message
            try:
                if command == "infer":
                    # The engine-compute timing is always measured and
                    # serialized back with the result: the parent owns the
                    # sampling decision, so the child cannot know whether
                    # this batch's trace will be kept (exemplars are
                    # retroactive).  The payload is a handful of floats.
                    carrier: dict = {}
                    logits, layer_stats, level = replica.infer_ex(
                        payload, trace=carrier
                    )
                    stats_payloads = {
                        name: stats.to_payload()
                        for name, stats in layer_stats.items()
                    }
                    reply = (
                        "ok", logits, stats_payloads, level,
                        carrier.get("engine"),
                    )
                elif command == "point":
                    replica.set_operating_point(payload)
                    reply = ("ok",)
                elif command == "pace":
                    replica.set_pacing(payload)
                    reply = ("ok",)
                else:
                    reply = ("error", f"unknown command {command!r}")
            except Exception as exc:  # noqa: BLE001 - reported to parent
                reply = ("error", repr(exc))
            conn.send(reply)
    finally:
        replica.close()
        conn.close()


class ForkedReplica:
    """A warm replica living in a persistent forked worker process.

    The fork happens *after* the parent has (or can cheaply build) the
    calibrated harness in its cache, so the child inherits it copy-on-write
    -- the same trick the sweep scheduler's per-model workers use.
    """

    def __init__(self, spec: ModelSpec, provider):
        if not parallel.fork_available():  # pragma: no cover - platform
            raise RuntimeError("forked replicas require the fork start method")
        import multiprocessing

        self.spec = spec
        self.provider = provider
        context = multiprocessing.get_context("fork")
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_forked_replica_main,
            args=(spec, provider, child_conn),
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        self._lock = threading.Lock()
        self._closed = False
        self._point: OperatingPoint | None = None
        self._pace_unit: float | None = None

    @property
    def level(self) -> int:
        return self._point.level if self._point is not None else 0

    def _command(self, command: str, payload) -> tuple:
        """One request/reply round trip on the worker pipe (under lock)."""
        with self._lock:
            if self._closed:
                raise RuntimeError(f"replica for {self.spec.name!r} is closed")
            try:
                self._conn.send((command, payload))
                reply = self._conn.recv()
            except (EOFError, BrokenPipeError, OSError) as exc:
                # The worker process died; poison this replica so the
                # replica set respawns it instead of reusing a dead pipe.
                self._closed = True
                raise RuntimeError(
                    f"forked replica for {self.spec.name!r} died: {exc!r}"
                ) from exc
        if reply[0] == "error":
            raise RuntimeError(
                f"forked replica for {self.spec.name!r} failed: {reply[1]}"
            )
        return reply

    def set_operating_point(self, point: OperatingPoint) -> None:
        """Swap the worker's rung; waits for its in-flight batch (atomic).

        The target is recorded *before* the pipe round trip: if the worker
        turns out to be dead, the respawned replacement still comes up at
        the intended rung (respawn re-applies the stored target).
        """
        self._point = point
        self._command("point", point)

    def set_pacing(self, unit_seconds_per_image: float | None) -> None:
        self._pace_unit = unit_seconds_per_image
        self._command("pace", unit_seconds_per_image)

    def respawn(self) -> "ForkedReplica":
        """A fresh replica replacing this (dead) one; reaps the remains."""
        with self._lock:
            self._closed = True
            self._reap(timeout=1.0)
        fresh = ForkedReplica(self.spec, self.provider)
        # The replacement worker must serve at the same rung (and pacing)
        # as the one it replaces, not at the spec's static configuration.
        # If re-applying fails (the new child died too), reap it instead of
        # leaking an orphaned worker process per respawn attempt.
        try:
            if self._point is not None:
                fresh.set_operating_point(self._point)
            if self._pace_unit is not None:
                fresh.set_pacing(self._pace_unit)
        except BaseException:
            fresh.close()
            raise
        return fresh

    def _reap(self, timeout: float) -> None:
        """Join (escalating to kill) the worker and close the pipe."""
        self._process.join(timeout=timeout)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=timeout)
        if self._process.is_alive():  # pragma: no cover - stuck worker
            self._process.kill()
            self._process.join()
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass

    def infer(
        self, images: np.ndarray
    ) -> tuple[np.ndarray, dict[str, SMTStatistics]]:
        logits, layer_stats, _level = self.infer_ex(images)
        return logits, layer_stats

    def infer_ex(
        self, images: np.ndarray, trace: dict | None = None
    ) -> tuple[np.ndarray, dict[str, SMTStatistics], int]:
        reply = self._command("infer", images)
        _, logits, payloads, level = reply[:4]
        if trace is not None and len(reply) > 4 and reply[4] is not None:
            trace["engine"] = reply[4]
        layer_stats = {
            name: SMTStatistics.from_payload(payload)
            for name, payload in payloads.items()
        }
        return logits, layer_stats, level

    def close(self, timeout: float = 10.0) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            self._reap(timeout=timeout)


#: Respawn-storm bounds: a crashing worker gets this many consecutive
#: respawns (with exponential backoff between attempts) before its slot is
#: declared failed -- hot-looping forks against a model that dies on every
#: batch would otherwise burn the host while the endpoint stays broken.
RESPAWN_BUDGET = 5
RESPAWN_BACKOFF_S = 0.5
RESPAWN_BACKOFF_MAX_S = 30.0
#: A slot quiet for this long earns its budget back (the crash was
#: transient, not a crash loop).
RESPAWN_RESET_S = 60.0


class ReplicaSet:
    """Replicas of one endpoint plus a blocking free-list dispatcher."""

    def __init__(
        self,
        replicas: list,
        respawn_budget: int = RESPAWN_BUDGET,
        respawn_backoff_s: float = RESPAWN_BACKOFF_S,
        respawn_backoff_max_s: float = RESPAWN_BACKOFF_MAX_S,
        respawn_reset_s: float = RESPAWN_RESET_S,
        clock=time.monotonic,
    ):
        if not replicas:
            raise ValueError("a replica set needs at least one replica")
        self.replicas = replicas
        self.respawn_budget = int(respawn_budget)
        self.respawn_backoff_s = float(respawn_backoff_s)
        self.respawn_backoff_max_s = float(respawn_backoff_max_s)
        self.respawn_reset_s = float(respawn_reset_s)
        self._clock = clock
        self._replicas_lock = threading.Lock()
        self._respawn_counts = [0] * len(replicas)
        self._respawn_not_before = [float("-inf")] * len(replicas)
        self._last_respawn_at = [float("-inf")] * len(replicas)
        self._failed_slots: set[int] = set()
        self.total_respawns = 0
        self._free: queue_module.Queue = queue_module.Queue()
        for replica in replicas:
            self._free.put(replica)

    def infer(self, images: np.ndarray):
        logits, layer_stats, _level = self.infer_ex(images)
        return logits, layer_stats

    def infer_ex(self, images: np.ndarray, trace: dict | None = None):
        """Run on the next free replica (blocks while all are busy).

        A replica whose worker process died is replaced by a fresh respawn
        before its slot returns to the free list, so one crash costs one
        failed batch, not a permanently broken slot.  A ``trace`` carrier
        (see :meth:`InlineReplica.infer_ex`) additionally records which
        replica died under ``trace["respawn"]`` on the failure path, so a
        retried request's trace can annotate the respawn gap it survived.
        """
        replica = self._free.get()
        try:
            result = replica.infer_ex(images, trace=trace)
        except BaseException:
            if trace is not None:
                process = getattr(replica, "_process", None)
                trace["respawn"] = {
                    "endpoint": replica.spec.name,
                    "pid": getattr(process, "pid", None),
                    "at": time.time(),
                }
            self._free.put(self._replace_if_dead(replica))
            raise
        self._free.put(replica)
        return result

    def set_operating_point(self, point) -> None:
        """Swap every replica to ``point``.

        Each swap takes that replica's execution lock, so in-flight batches
        finish at the rung that admitted them and later batches run at the
        new rung; no batch observes a half-applied assignment.  A dead
        forked worker does not fail the swap: its target point is already
        recorded on the replica, so the respawn (through the infer path)
        brings the replacement up at the new rung.

        The walk holds the replica-list lock, which serializes it with
        respawns: either the respawn finishes first (the fresh replica is
        in the list and receives the swap) or the swap records the new
        target on the dead object first and the respawn re-applies it --
        never a fresh worker left on the old rung.
        """
        with self._replicas_lock:
            for replica in list(self.replicas):
                try:
                    replica.set_operating_point(point)
                except RuntimeError:
                    if not getattr(replica, "_closed", False):
                        raise

    def set_pacing(self, unit_seconds_per_image: float | None) -> None:
        with self._replicas_lock:
            for replica in list(self.replicas):
                try:
                    replica.set_pacing(unit_seconds_per_image)
                except RuntimeError:
                    if not getattr(replica, "_closed", False):
                        raise

    def _replace_if_dead(self, replica):
        if not (
            getattr(replica, "_closed", False) and hasattr(replica, "respawn")
        ):
            return replica
        # Respawn under the replica-list lock too (see set_operating_point):
        # a concurrent endpoint-wide swap either already stamped the dead
        # replica's target (respawn re-applies it) or will find the fresh
        # replica in the list.
        fresh = None
        newly_failed = False
        with self._replicas_lock:
            try:
                slot = self.replicas.index(replica)
            except ValueError:  # pragma: no cover - already replaced
                return replica
            if slot in self._failed_slots:
                return replica
            now = self._clock()
            if now - self._last_respawn_at[slot] > self.respawn_reset_s:
                self._respawn_counts[slot] = 0
            if now < self._respawn_not_before[slot]:
                # Inside the backoff window: hand the dead replica back so
                # its requests fail fast instead of forking in a hot loop.
                return replica
            attempt = self._respawn_counts[slot] + 1
            self._respawn_counts[slot] = attempt
            self._last_respawn_at[slot] = now
            if attempt > self.respawn_budget:
                self._failed_slots.add(slot)
                failed_count = len(self._failed_slots)
                newly_failed = True
            else:
                self._respawn_not_before[slot] = now + min(
                    self.respawn_backoff_max_s,
                    self.respawn_backoff_s * 2 ** (attempt - 1),
                )
                try:
                    fresh = replica.respawn()
                except Exception:
                    # The replacement died during spawn too; the failed
                    # attempt is already counted, retry after backoff.
                    return replica
                self.replicas[slot] = fresh
                self.total_respawns += 1
        if newly_failed:
            telemetry_bus.publish(
                "replica_failed",
                endpoint=replica.spec.name,
                slot=slot,
                respawn_budget=self.respawn_budget,
                replicas=len(self.replicas),
                failed_replicas=failed_count,
            )
            return replica
        telemetry_bus.publish(
            "replica_respawn",
            endpoint=replica.spec.name,
            level=getattr(fresh, "level", 0),
            attempt=attempt,
        )
        return fresh

    def worker_pids(self) -> list[int]:
        """Live forked-worker pids (empty for inline replicas).

        The chaos lane's process reaper draws its victims from here; it is
        also handy for operators attaching debuggers to a wedged worker.
        """
        with self._replicas_lock:
            replicas = list(self.replicas)
        pids = []
        for replica in replicas:
            process = getattr(replica, "_process", None)
            if process is not None and process.is_alive():
                pids.append(process.pid)
        return pids

    def health(self) -> dict:
        """Degradation summary: failed slots, respawn totals, live count."""
        with self._replicas_lock:
            failed = len(self._failed_slots)
            return {
                "replicas": len(self.replicas),
                "failed_replicas": failed,
                "live_replicas": len(self.replicas) - failed,
                "total_respawns": self.total_respawns,
                "degraded": failed > 0,
            }

    @property
    def degraded(self) -> bool:
        with self._replicas_lock:
            return bool(self._failed_slots)

    def close(self) -> None:
        with self._replicas_lock:
            replicas = list(self.replicas)
        for replica in replicas:
            replica.close()


class EnginePool:
    """Warm replica sets for every endpoint of a registry.

    ``fork_workers`` > 0 backs each endpoint with that many forked worker
    replicas *in addition to* building (and keeping) the calibrated harness
    in the parent, which the children then inherit copy-on-write; ``0``
    (the default) serves inline.  ``provider`` maps a
    :class:`~repro.serve.registry.ModelSpec` to its harness (tests inject
    pre-built ones); by default it is ``get_harness(spec.zoo_model,
    scale)`` from the experiment-harness cache.
    """

    def __init__(
        self,
        registry,
        scale: str = "fast",
        fork_workers: int = 0,
        provider=None,
        warm: bool = True,
    ):
        self.registry = registry
        self.scale = scale
        self.fork_workers = int(fork_workers)
        self.provider = provider or self._cached_harness
        self.warm = warm
        self._sets: dict[str, ReplicaSet] = {}
        self._input_shapes: dict[str, tuple[int, ...]] = {}
        self._ladders: dict[str, OperatingLadder] = {}
        self._levels: dict[str, int] = {}
        self._pace_units: dict[str, float | None] = {}
        #: Serializes point swaps per endpoint (QoS ticks and operator
        #: overrides may race): the recorded level always matches the last
        #: swap actually applied to the replicas.
        self._point_locks: dict[str, threading.Lock] = {}
        self._lock = threading.Lock()

    def _cached_harness(self, spec: ModelSpec):
        from repro.eval.experiments.common import get_harness

        return get_harness(spec.zoo_model, self.scale)

    def replica_set(self, endpoint: str) -> ReplicaSet:
        """Build (or fetch) the warm replica set of one endpoint."""
        with self._lock:
            replica_set = self._sets.get(endpoint)
            if replica_set is None:
                spec = self.registry.get(endpoint)
                replica_set = ReplicaSet(self._build_replicas(spec))
                # Every replica starts at the top (highest-quality) rung.
                replica_set.set_operating_point(self._ladders[spec.name].top)
                if self._pace_units[spec.name] is not None:
                    replica_set.set_pacing(self._pace_units[spec.name])
                self._sets[endpoint] = replica_set
            return replica_set

    def _build_replicas(self, spec: ModelSpec) -> list:
        # The primary inline replica warms the harness in the parent; with
        # fork workers every forked child then inherits the calibrated
        # model copy-on-write instead of re-calibrating it.
        primary = InlineReplica(spec, self.provider, warm=self.warm)
        self._input_shapes[spec.name] = tuple(
            primary.harness.eval_images.shape[1:]
        )
        ladder = self._build_ladder(spec, primary)
        self._ladders[spec.name] = ladder
        self._levels[spec.name] = 0
        self._point_locks[spec.name] = threading.Lock()
        self._pace_units[spec.name] = (
            self._calibrate_pacing(spec, primary, ladder)
            if spec.pace_sysmt
            else None
        )
        replicas: list = []
        if self.fork_workers > 0 and parallel.fork_available():
            workers = max(self.fork_workers, spec.replicas)
            for _ in range(workers):
                replicas.append(ForkedReplica(spec, self.provider))
            primary.close()
        else:
            # Inline replicas of one endpoint would all wrap the same
            # cached QuantizedModel and serialize on its execution lock, so
            # more than one buys nothing: build exactly one.
            replicas.append(primary)
        return replicas

    def _build_ladder(self, spec: ModelSpec, primary: InlineReplica):
        """The endpoint's operating ladder (single-point when static).

        Adaptive specs run one baseline evaluation here (under the
        replica's execution lock) to rank the layers by recorded MSE --
        this is warm-up work, before the endpoint takes traffic.
        """
        harness = primary.harness
        with primary._lock:
            if spec.adaptive:
                ladder = operating_ladder(
                    harness,
                    base_threads=spec.threads,
                    slow_threads=spec.slow_threads,
                    rungs=spec.ladder_rungs,
                    policy=spec.resolved_policy(),
                    reorder=spec.reorder,
                    slow_layers=(
                        list(spec.slow_layers) if spec.slow_layers else None
                    ),
                )
                if len(ladder) < 2:
                    # e.g. threads=2 with the default slow_threads=2: no
                    # layer is slowable, so the endpoint would silently
                    # serve statically while claiming to be adaptive.
                    raise ValueError(
                        f"endpoint {spec.name!r} asked for "
                        f"{spec.ladder_rungs} ladder rungs but no layer is "
                        f"slowable below threads={spec.threads} at "
                        f"slow_threads={spec.slow_threads}; lower "
                        f"slow_threads (e.g. 1) or raise threads"
                    )
                return ladder
            assignment = dict(primary._assignment)
            point = OperatingPoint(
                level=0,
                slowed_layers=tuple(spec.slow_layers),
                threads=assignment,
                expected_speedup=harness.speedup_for(assignment),
                expected_mse=0.0,
            )
            return OperatingLadder((point,))

    def _calibrate_pacing(
        self, spec: ModelSpec, primary: InlineReplica, ladder
    ) -> float:
        """Modeled seconds-per-image at speedup 1.0 (the pacing unit).

        Calibrated so the *fastest* rung's pacing floor equals its host
        cost (pacing there is a no-op) and every slower rung's wall clock
        is topped up to the modeled ratio -- wall-clock throughput across
        rungs then tracks the paper's MAC model instead of the host
        simulator's inverted cost profile.
        """
        fastest = ladder.fastest
        primary.set_operating_point(fastest)
        images = primary.harness.eval_images
        batch = images[: max(1, min(spec.max_batch, images.shape[0]))]
        primary.infer(batch)  # warm BLAS/LUT caches at this batch shape
        best = float("inf")
        for _ in range(2):
            started = time.monotonic()
            primary.infer(batch)
            best = min(best, time.monotonic() - started)
        return (best / batch.shape[0]) * max(1.0, fastest.expected_speedup)

    # -- operating points --------------------------------------------------
    def ladder(self, endpoint: str) -> OperatingLadder:
        """The endpoint's operating ladder (builds the replicas if needed)."""
        self.replica_set(endpoint)
        return self._ladders[endpoint]

    def current_level(self, endpoint: str) -> int:
        self.replica_set(endpoint)
        with self._lock:
            return self._levels[endpoint]

    def current_point(self, endpoint: str) -> OperatingPoint:
        return self.ladder(endpoint)[self.current_level(endpoint)]

    def pacing_unit(self, endpoint: str) -> float | None:
        """Seconds-per-image pacing unit (None when pacing is off)."""
        self.replica_set(endpoint)
        return self._pace_units[endpoint]

    def set_operating_point(self, endpoint: str, level: int) -> OperatingPoint:
        """Move every replica of ``endpoint`` to the given ladder rung.

        Safe under traffic: each replica swaps under its execution lock,
        so in-flight batches finish at the rung that admitted them and the
        response of every request reports the rung that actually served it.
        """
        replica_set = self.replica_set(endpoint)
        ladder = self._ladders[endpoint]
        if not 0 <= level < len(ladder):
            raise ValueError(
                f"endpoint {endpoint!r} has no ladder rung {level} "
                f"(ladder has {len(ladder)} rungs)"
            )
        point = ladder[level]
        with self._point_locks[endpoint]:
            replica_set.set_operating_point(point)
            with self._lock:
                self._levels[endpoint] = level
        return point

    def replica_count(self, endpoint: str) -> int:
        """Replicas backing one endpoint (= useful batcher concurrency)."""
        return len(self.replica_set(endpoint).replicas)

    def replica_health(self) -> dict[str, dict]:
        """Per-endpoint replica degradation (built endpoints only).

        Never builds replicas: an endpoint that has not taken traffic yet
        is simply absent (health checks must not trigger warm-up).
        """
        with self._lock:
            sets = dict(self._sets)
        return {
            name: replica_set.health() for name, replica_set in sets.items()
        }

    def input_shape(self, endpoint: str) -> tuple[int, ...]:
        """Per-image input shape ``(C, H, W)`` the endpoint's model expects."""
        self.replica_set(endpoint)
        return self._input_shapes[endpoint]

    def runner_for(self, endpoint: str, metrics=None, with_point: bool = False):
        """The batch runner closure handed to this endpoint's batcher.

        Payloads are image arrays of shape ``(B_i, C, H, W)``; the runner
        concatenates them, executes once, splits the logits back per
        request and merges the batch's NB-SMT statistics into ``metrics``
        (an :class:`repro.serve.metrics.EndpointMetrics`) when given.
        ``with_point=True`` returns ``(logits, level)`` pairs instead of
        bare logits, so the front-end can report the operating point that
        served each request.
        """
        replica_set = self.replica_set(endpoint)

        def run_batch(payloads: list[np.ndarray], trace: dict | None = None) -> list:
            sizes = [int(payload.shape[0]) for payload in payloads]
            if len(payloads) == 1:
                images = payloads[0]
            else:
                images = np.concatenate(payloads, axis=0)
            logits, layer_stats, level = replica_set.infer_ex(
                images, trace=trace
            )
            if metrics is not None:
                if layer_stats:
                    metrics.merge_layer_stats(layer_stats)
                metrics.record_served_level(level, sum(sizes))
            results = []
            offset = 0
            for size in sizes:
                block = logits[offset : offset + size]
                results.append((block, level) if with_point else block)
                offset += size
            return results

        return run_batch

    def close(self) -> None:
        """Close every replica (forked workers drain and exit)."""
        with self._lock:
            sets, self._sets = list(self._sets.values()), {}
        for replica_set in sets:
            replica_set.close()
