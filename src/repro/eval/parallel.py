"""Sharded multi-process evaluation.

Zoo-wide experiments evaluate many images through a quantized model whose
per-image work is independent, so the evaluation set is sharded across a
pool of worker processes and the results are reduced in the parent:

* accuracy as summed correct-prediction counts,
* NB-SMT per-layer counters via :meth:`SMTStatistics.merge`,
* per-layer context statistics (MAC/issue-slot counts) as summed floats.

Workers are forked (copy-on-write), so neither the model nor the images are
pickled; each child inherits the installed :class:`QuantizedModel` hooks and
its own copy of the engine, evaluates its contiguous shard, and sends back
only the small counter structures.  On platforms without ``fork`` (or for
``workers <= 1``) the evaluation degrades to the serial path.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
from dataclasses import dataclass, field

import numpy as np

from repro.core.smt import SMTStatistics

#: State inherited by forked workers; set immediately before the pool forks.
_WORKER_STATE: dict | None = None

#: True inside a forked sweep worker process (set by :func:`run_worklists`).
IN_POOL_WORKER = False


def fork_available() -> bool:
    """Whether fork-based worker processes can be used on this platform."""
    return (
        hasattr(os, "fork")
        and "fork" in multiprocessing.get_all_start_methods()
    )


def available_cpus() -> int:
    """Number of CPUs usable by this process (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def plan_worker_allocation(
    workers: int, groups: int, cpus: int | None = None
) -> tuple[int, int]:
    """Split a worker budget between sweep points and image shards.

    Returns ``(pool, inner)``: the number of point-worker processes and the
    number of image-shard workers each point evaluation may fork in turn.
    The plan never oversubscribes: ``pool * inner <= max(workers, 1)`` and
    ``pool * inner <= cpus``, and neither level exceeds what it can use
    (``pool <= groups``; on a single-CPU machine everything degrades to
    ``(1, 1)``, i.e. the serial path).
    """
    cpus = cpus if cpus is not None else available_cpus()
    cpus = max(1, cpus)
    workers = max(1, workers)
    pool = max(1, min(workers, groups, cpus))
    inner = max(1, min(workers // pool, cpus // pool))
    return pool, inner


def partition_worklists(weights: list[float], bins: int) -> list[list[int]]:
    """Partition task indices into ``bins`` lists, balancing total weight.

    Deterministic longest-processing-time greedy: tasks are placed heaviest
    first onto the currently lightest bin (ties towards lower bin index).
    Returns only non-empty bins; within a bin the original order is kept.
    """
    bins = max(1, min(bins, len(weights)))
    loads = [0.0] * bins
    assignment: list[list[int]] = [[] for _ in range(bins)]
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    for index in order:
        target = min(range(bins), key=lambda b: (loads[b], b))
        loads[target] += weights[index]
        assignment[target].append(index)
    for worklist in assignment:
        worklist.sort()
    return [worklist for worklist in assignment if worklist]


def _worklist_main(thunks, initializer, finalizer) -> None:
    global IN_POOL_WORKER
    IN_POOL_WORKER = True
    # Forked workers inherit the parent's telemetry bus: drop its
    # subscribers (ticker/dashboard callbacks belong to the parent) but
    # keep the spool sink, which lazily reopens a per-pid file -- worker
    # events land in the same spool directory as the parent's.
    from repro.telemetry import bus as telemetry_bus

    telemetry_bus.get_bus().reset_after_fork(role="sweep-worker")
    # Graceful shutdown: SIGINT/SIGTERM ask the worker to *drain* -- the
    # thunk in flight completes (and persists its point), the remaining
    # thunks are skipped, and the finalizer still runs its cleanup instead
    # of the process being ripped out from under it.
    stop_requested = False

    def _request_stop(signum, frame):
        nonlocal stop_requested
        stop_requested = True

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, _request_stop)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        if initializer is not None:
            initializer()
        telemetry_bus.publish("worker_started", tasks=len(thunks))
        for thunk in thunks:
            if stop_requested:
                break
            thunk()
    finally:
        if finalizer is not None:
            finalizer()
        telemetry_bus.publish("worker_exited", drained=stop_requested)


def run_worklists(
    worklists: list[list],
    initializer=None,
    finalizer=None,
    remote_nodes=None,
) -> list[bool]:
    """Run each worklist of thunks serially inside one forked worker process.

    Workers are forked (copy-on-write), so thunks may close over arbitrary
    parent state; they communicate results through side effects visible to
    the parent (e.g. files).  ``initializer`` runs once per worker before its
    thunks (e.g. to drop state inherited from the parent); ``finalizer``
    runs once per worker after them, even when the worker is asked to stop.
    Returns one success flag per worklist; a worker that crashed or raised
    reports ``False``, and the caller is expected to degrade to running its
    missing work serially.

    ``remote_nodes`` is the multi-machine seam: anything with a ``drain()``
    method (a :class:`repro.cluster.worker.SweepHub`) holding work leased
    to processes on *other* machines.  After the local forks are joined,
    the remote work is drained under the same contract -- a dead remote
    node abandons its leases and the caller recomputes what is missing,
    exactly as for a crashed fork worker.

    Shutdown is graceful at both levels: a worker receiving SIGINT/SIGTERM
    finishes its in-flight thunk, skips the rest, runs the finalizer and
    exits cleanly; a ``KeyboardInterrupt`` in the joining parent forwards
    SIGTERM to the still-running workers, waits for them to drain (bounded),
    and escalates to SIGKILL only for stragglers -- no orphaned forks.
    """
    context = multiprocessing.get_context("fork")
    processes = []
    for worklist in worklists:
        process = context.Process(
            target=_worklist_main, args=(worklist, initializer, finalizer)
        )
        process.start()
        processes.append(process)
    try:
        for process in processes:
            process.join()
        if remote_nodes is not None:
            remote_nodes.drain()
    except BaseException:
        _drain_processes(processes)
        raise
    return [process.exitcode == 0 for process in processes]


def _drain_processes(processes, drain_timeout: float = 30.0) -> None:
    """Ask live workers to drain (SIGTERM), then reap; SIGKILL stragglers."""
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=drain_timeout)
    stragglers = [process for process in processes if process.is_alive()]
    if stragglers:
        print(
            f"parallel: killing {len(stragglers)} worker(s) that did not "
            "drain in time",
            file=sys.stderr,
        )
        for process in stragglers:
            process.kill()
            process.join()


def shard_bounds(total: int, shards: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into at most ``shards`` contiguous chunks."""
    shards = max(1, min(shards, total))
    base, extra = divmod(total, shards)
    bounds = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def count_correct(
    model, images: np.ndarray, labels: np.ndarray, batch_size: int
) -> int:
    """Number of correct top-1 predictions, evaluated batch by batch."""
    model.eval()
    correct = 0
    for start in range(0, images.shape[0], batch_size):
        batch = images[start : start + batch_size]
        logits = model(batch)
        correct += int((logits.argmax(axis=1) == labels[start : start + batch_size]).sum())
    return correct


@dataclass
class ShardOutcome:
    """What one worker sends back to the parent."""

    correct: int
    total: int
    layer_stats: dict[str, SMTStatistics] = field(default_factory=dict)
    ctx_stats: dict[str, dict[str, float]] = field(default_factory=dict)


def _run_shard(bounds: tuple[int, int]) -> ShardOutcome:
    state = _WORKER_STATE
    qmodel = state["qmodel"]
    engine = state["engine"]
    images = state["images"]
    labels = state["labels"]
    batch_size = state["batch_size"]
    start, stop = bounds
    # The forked child inherited the parent's accumulated statistics; clear
    # them so the shard reports only its own contribution.
    qmodel.clear_stats()
    if engine is not None and hasattr(engine, "reset_stats"):
        engine.reset_stats()
    correct = count_correct(
        qmodel.model, images[start:stop], labels[start:stop], batch_size
    )
    layer_stats = dict(engine.layer_stats) if engine is not None else {}
    return ShardOutcome(
        correct=correct,
        total=stop - start,
        layer_stats=layer_stats,
        ctx_stats=qmodel.collect_stats(),
    )


def evaluate_sharded(
    qmodel,
    images: np.ndarray,
    labels: np.ndarray,
    *,
    batch_size: int = 64,
    workers: int = 1,
    engine=None,
) -> float:
    """Top-1 accuracy of ``qmodel`` with images sharded across processes.

    ``engine`` optionally names the NB-SMT engine whose per-layer
    :class:`SMTStatistics` should be reduced back into the parent (it must be
    the engine currently installed on ``qmodel``).  The per-layer context
    statistics of ``qmodel`` are always reduced.  Returns the accuracy; the
    merged statistics are left on ``engine``/``qmodel`` exactly as a serial
    evaluation would have left them.
    """
    global _WORKER_STATE
    total = int(images.shape[0])
    if total == 0:
        return 0.0
    if workers <= 1 or total < 2 or not fork_available():
        correct = count_correct(qmodel.model, images, labels, batch_size)
        return correct / total

    bounds = shard_bounds(total, workers)
    _WORKER_STATE = {
        "qmodel": qmodel,
        "engine": engine,
        "images": images,
        "labels": labels,
        "batch_size": batch_size,
    }
    context = multiprocessing.get_context("fork")
    try:
        with context.Pool(processes=len(bounds)) as pool:
            outcomes = pool.map(_run_shard, bounds)
    finally:
        _WORKER_STATE = None

    correct = sum(outcome.correct for outcome in outcomes)
    for outcome in outcomes:
        if engine is not None:
            for name, stats in outcome.layer_stats.items():
                engine.layer_stats.setdefault(name, SMTStatistics()).merge(stats)
        for name, values in outcome.ctx_stats.items():
            layer = qmodel.layers.get(name)
            if layer is None:
                continue
            for key, value in values.items():
                layer.context.add_stat(key, value)
    return correct / total
