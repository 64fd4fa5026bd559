"""Shared infrastructure for the experiment modules.

Experiments share trained models (disk-cached by the zoo) and harnesses
(memoized per process, bounded LRU) so that running the whole benchmark
suite does not re-train or re-calibrate the same model repeatedly.  Each
experiment is run at a *scale*:

* ``"fast"`` -- small dataset, short training, small evaluation set.  Used by
  the benchmark defaults and the test suite; finishes in minutes for the
  whole suite.
* ``"full"`` -- the larger synthetic dataset and evaluation set.  Closer to
  the paper's protocol; takes substantially longer.

This module also hosts the sweep-point runners shared by several
experiments (see :mod:`repro.eval.sweep`): the plain NB-SMT evaluation
point, the FP32/INT8 baseline point, and the throttling-curve point.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.core.smt import SMTStatistics
from repro.eval.harness import NBSMTRunResult, SysmtHarness
from repro.eval.sweep import SweepPoint, point_runner, to_jsonable
from repro.models.zoo import TrainedModel, load_trained_model
from repro.utils.cache import default_cache_dir


@dataclass(frozen=True)
class ScaleConfig:
    """Evaluation sizes of one experiment scale."""

    name: str
    fast_models: bool
    eval_images: int
    calibration_images: int
    batch_size: int = 64


SCALES: dict[str, ScaleConfig] = {
    "fast": ScaleConfig("fast", fast_models=True, eval_images=96,
                        calibration_images=128),
    "full": ScaleConfig("full", fast_models=False, eval_images=256,
                        calibration_images=256),
}

#: Bounded LRU of calibrated harnesses.  Each harness is the only owner of
#: the float model it wraps, so an evicted harness is simply dropped: a
#: caller still holding it keeps a working quantized model.
_HARNESS_CACHE: OrderedDict[tuple[str, str], SysmtHarness] = OrderedDict()
HARNESS_CACHE_LIMIT = 6

#: Serializes cache mutations (the serving subsystem touches the cache from
#: batcher worker threads).
_CACHE_LOCK = threading.Lock()


def get_scale(scale: str | ScaleConfig) -> ScaleConfig:
    if isinstance(scale, ScaleConfig):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise KeyError(f"unknown scale {scale!r}; known: {sorted(SCALES)}") from None


def get_trained_model(name: str, scale: str | ScaleConfig = "fast") -> TrainedModel:
    """Train-or-load a zoo model at the requested scale (a fresh object)."""
    return load_trained_model(name, fast=get_scale(scale).fast_models)


def get_harness(name: str, scale: str | ScaleConfig = "fast") -> SysmtHarness:
    """Build (or reuse) the experiment harness for one model.

    The cache is a bounded LRU (:data:`HARNESS_CACHE_LIMIT` entries).  Each
    harness wraps its own freshly loaded model, so eviction and
    :func:`clear_harness_cache` just drop it: a caller still holding the
    harness keeps using it, and the next :func:`get_harness` call rebuilds
    (deterministically identical) state.
    """
    config = get_scale(scale)
    key = (name, config.name)
    with _CACHE_LOCK:
        harness = _HARNESS_CACHE.get(key)
        if harness is None:
            harness = SysmtHarness(
                get_trained_model(name, config),
                max_eval_images=config.eval_images,
                calibration_images=config.calibration_images,
                batch_size=config.batch_size,
            )
            _HARNESS_CACHE[key] = harness
        else:
            _HARNESS_CACHE.move_to_end(key)
        while len(_HARNESS_CACHE) > HARNESS_CACHE_LIMIT:
            _HARNESS_CACHE.popitem(last=False)
        return harness


def clear_harness_cache() -> None:
    """Drop every memoized harness (forked workers call it on start)."""
    with _CACHE_LOCK:
        _HARNESS_CACHE.clear()


def results_dir() -> Path:
    """Directory where experiment results are persisted as JSON."""
    path = default_cache_dir() / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def save_result(experiment_id: str, result: dict) -> Path:
    """Persist an experiment result dictionary as JSON; returns the path."""
    path = results_dir() / f"{experiment_id}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_jsonable(result), handle, indent=2, sort_keys=True)
    return path


def load_result(experiment_id: str) -> dict | None:
    """Load a previously saved experiment result, if present."""
    path = results_dir() / f"{experiment_id}.json"
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Shared sweep points
# ---------------------------------------------------------------------------


def baseline_point(model: str) -> SweepPoint:
    """FP32 + INT8 reference accuracies of one model."""
    return SweepPoint.make("baseline_accuracy", model=model)


@point_runner("baseline_accuracy")
def _run_baseline_accuracy(ctx, point: SweepPoint) -> dict:
    harness = get_harness(point.model, ctx.scale)
    return {"fp32": harness.fp32_accuracy, "int8": harness.int8_accuracy}


def nbsmt_point(
    model: str,
    threads,
    policy: str | None = None,
    reorder: bool = False,
    collect_stats: bool = True,
    cost: float = 1.0,
) -> SweepPoint:
    """One NB-SMT accuracy/statistics evaluation.

    ``policy=None`` is resolved to the model's default policy name here, so
    experiments passing the default explicitly share the same point.
    ``threads`` is an int or a per-layer ``{name: threads}`` assignment.
    """
    if policy is None:
        from repro.core.policies import default_policy_for

        policy = default_policy_for(model).name
    elif not isinstance(policy, str):
        policy = policy.name
    return SweepPoint.make(
        "nbsmt",
        model=model,
        cost=cost,
        threads=threads,
        policy=policy,
        reorder=bool(reorder),
        collect_stats=bool(collect_stats),
    )


def nbsmt_payload(result: NBSMTRunResult) -> dict:
    """JSON payload of one NB-SMT run (raw per-layer counters included)."""
    return {
        "accuracy": result.accuracy,
        "policy": result.policy,
        "reordered": result.reordered,
        "threads": dict(result.threads),
        "speedup": result.speedup,
        "layer_stats": {
            name: stats.to_payload()
            for name, stats in result.layer_stats.items()
        },
    }


def payload_layer_stats(payload: dict) -> dict[str, SMTStatistics]:
    """Rebuild the per-layer statistics objects of an ``nbsmt`` payload."""
    return {
        name: SMTStatistics.from_payload(stats)
        for name, stats in payload["layer_stats"].items()
    }


@point_runner("nbsmt")
def _run_nbsmt(ctx, point: SweepPoint) -> dict:
    harness = get_harness(point.model, ctx.scale)
    threads = point.param("threads")
    if isinstance(threads, tuple):
        threads = {name: int(count) for name, count in threads}
    result = harness.evaluate_nbsmt(
        threads=threads,
        policy=point.param("policy"),
        reorder=bool(point.param("reorder")),
        collect_stats=bool(point.param("collect_stats")),
        workers=ctx.inner_workers,
    )
    return nbsmt_payload(result)


def throttle_curve_point(
    model: str,
    base_threads: int = 4,
    slow_threads: int = 2,
    max_slowed: int = 2,
    reorder: bool = True,
) -> SweepPoint:
    """Baseline run plus progressive highest-MSE-layer throttling."""
    return SweepPoint.make(
        "throttle_curve",
        model=model,
        cost=float(1 + max_slowed),
        base_threads=int(base_threads),
        slow_threads=int(slow_threads),
        max_slowed=int(max_slowed),
        reorder=bool(reorder),
    )


@point_runner("throttle_curve")
def _run_throttle_curve(ctx, point: SweepPoint) -> dict:
    from repro.eval.throttle import rank_layers_by_mse, throttle_assignment

    model = point.model
    base_threads = int(point.param("base_threads"))
    slow_threads = int(point.param("slow_threads"))
    max_slowed = int(point.param("max_slowed"))
    reorder = bool(point.param("reorder"))

    baseline = ctx.evaluate(
        nbsmt_point(model, threads=base_threads, reorder=reorder,
                    collect_stats=True)
    )
    harness = get_harness(model, ctx.scale)
    ranked = rank_layers_by_mse(
        payload_layer_stats(baseline), harness.qmodel.layer_names()
    )
    steps = []
    for count in range(1, max_slowed + 1):
        if count > len(ranked):
            break
        slowed = ranked[:count]
        assignment = throttle_assignment(
            harness.qmodel, base_threads, slowed, slow_threads
        )
        payload = ctx.evaluate(
            nbsmt_point(model, threads=assignment, reorder=reorder,
                        collect_stats=True)
        )
        steps.append(
            {
                "slowed_layers": count,
                "slowed": list(slowed),
                "accuracy": payload["accuracy"],
                "speedup": payload["speedup"],
            }
        )
    return {"baseline": baseline, "ranked": ranked, "steps": steps}
