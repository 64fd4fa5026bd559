"""Sweep orchestration: scheduler, store, affinity, resume and degradation."""

from __future__ import annotations

import os
from collections import OrderedDict

import numpy as np
import pytest

from repro.eval import parallel
from repro.eval.experiments import common
from repro.eval.sweep import (
    PointStore,
    SweepPoint,
    SweepSession,
    ensure_session,
    point_runner,
    run_sweep,
)


# ---------------------------------------------------------------------------
# Test-only point kinds
# ---------------------------------------------------------------------------


@point_runner("t_square")
def _run_t_square(ctx, point):
    value = point.param("value")
    return {"square": value * value, "vector": list(np.arange(3) * value)}


@point_runner("t_pid")
def _run_t_pid(ctx, point):
    return {"pid": os.getpid(), "tag": point.param("tag")}


#: The test process; a point evaluated anywhere else ran in a forked worker.
_TEST_PID = os.getpid()


@point_runner("t_crash")
def _run_t_crash(ctx, point):
    if os.getpid() != _TEST_PID:
        raise RuntimeError("synthetic worker failure")
    return {"value": point.param("value")}


@point_runner("t_nested")
def _run_t_nested(ctx, point):
    inner = ctx.evaluate(SweepPoint.make("t_square", model=point.model, value=3))
    return {"twice": 2 * inner["square"]}


def _session(tmp_path, **kwargs) -> SweepSession:
    return SweepSession(scale="fast", store_root=tmp_path, **kwargs)


# ---------------------------------------------------------------------------
# Pure planning helpers
# ---------------------------------------------------------------------------


def test_plan_worker_allocation_never_oversubscribes():
    for workers in (1, 2, 4, 8, 64):
        for groups in (1, 2, 5, 13):
            for cpus in (1, 2, 4, 96):
                pool, inner = parallel.plan_worker_allocation(workers, groups, cpus)
                assert pool >= 1 and inner >= 1
                assert pool * inner <= max(workers, 1) or pool * inner == 1
                assert pool * inner <= cpus or pool * inner == 1
                assert pool <= max(groups, 1)
    # Single CPU degrades to fully serial regardless of the budget.
    assert parallel.plan_worker_allocation(8, 5, cpus=1) == (1, 1)
    # Two-level split: 4 workers over 2 groups on 4 CPUs -> 2 x 2.
    assert parallel.plan_worker_allocation(4, 2, cpus=4) == (2, 2)


def test_partition_worklists_balances_and_preserves_order():
    weights = [5.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    worklists = parallel.partition_worklists(weights, 2)
    assert sorted(index for wl in worklists for index in wl) == list(range(6))
    loads = [sum(weights[i] for i in wl) for wl in worklists]
    assert max(loads) == 5.0  # the heavy task sits alone
    for worklist in worklists:
        assert worklist == sorted(worklist)
    assert parallel.partition_worklists([1.0], 4) == [[0]]


def test_group_points_preserves_declaration_order():
    from repro.eval.sweep import group_points

    points = [
        SweepPoint.make("t_square", model="a", value=1),
        SweepPoint.make("t_square", model="b", value=2),
        SweepPoint.make("t_square", model="a", value=3),
        SweepPoint.make("t_square", value=4),
    ]
    groups = group_points(points)
    assert [[p.param("value") for p in group] for group in groups] == [
        [1, 3], [2], [4]
    ]


# ---------------------------------------------------------------------------
# Store behavior
# ---------------------------------------------------------------------------


def test_point_identity_and_store_roundtrip(tmp_path):
    point = SweepPoint.make("t_square", model="m", value=7, flag=True)
    same = SweepPoint.make("t_square", model="m", flag=True, value=7)
    other = SweepPoint.make("t_square", model="m", value=8, flag=True)
    assert point == same and point.key == same.key
    assert point.key != other.key

    store = PointStore("fast", tmp_path)
    saved = store.save(point, {"square": np.int64(49)}, session_id="s1")
    assert saved == {"square": 49}
    payload, session_id = store.load(point)
    assert payload == {"square": 49} and session_id == "s1"
    store.discard(point)
    assert store.load(point) is None


def test_fresh_session_ignores_stale_artifacts(tmp_path):
    point = SweepPoint.make("t_square", model="m", value=4)
    stale_session = _session(tmp_path)
    stale_session.store.save(point, {"square": -1, "vector": []}, "old-run")

    fresh = run_sweep([point], _session(tmp_path))
    assert fresh[0]["square"] == 16  # recomputed, stale ignored

    resumed = run_sweep([point], _session(tmp_path, resume=True))
    assert resumed[0]["square"] == 16  # latest artifact accepted as-is


def test_resume_skips_completed_points(tmp_path):
    point = SweepPoint.make("t_square", model="m", value=4)
    session = _session(tmp_path, resume=True)
    # Simulate a completed point from an interrupted earlier suite: resume
    # must pick it up verbatim instead of recomputing.
    session.store.save(point, {"square": "sentinel"}, "earlier-run")
    assert run_sweep([point], session)[0]["square"] == "sentinel"


def test_ensure_session_validates_scale(tmp_path):
    session = _session(tmp_path)
    assert ensure_session(session, "fast") is session
    assert ensure_session(session, common.SCALES["fast"]) is session
    with pytest.raises(ValueError):
        ensure_session(session, "full")
    created = ensure_session(None, "full", workers=3, resume=True)
    assert created.scale == "full" and created.workers == 3 and created.resume


# ---------------------------------------------------------------------------
# Scheduler: serial/parallel equivalence, affinity, degradation
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not parallel.fork_available(), reason="fork unavailable")
def test_parallel_results_bit_identical_to_serial(tmp_path):
    points = [
        SweepPoint.make("t_square", model=model, value=value)
        for model in ("a", "b", "c")
        for value in (2, 5)
    ] + [SweepPoint.make("t_nested", model="a")]
    serial = run_sweep(points, _session(tmp_path / "serial", workers=1))
    parallel_payloads = run_sweep(
        points, _session(tmp_path / "parallel", workers=3, cpu_count=3)
    )
    assert serial == parallel_payloads


@pytest.mark.skipif(not parallel.fork_available(), reason="fork unavailable")
def test_model_affinity_groups_share_a_worker(tmp_path):
    points = [
        SweepPoint.make("t_pid", model=model, tag=f"{model}{index}")
        for model in ("a", "b", "c", "d")
        for index in range(3)
    ]
    payloads = run_sweep(points, _session(tmp_path, workers=4, cpu_count=4))
    pid_by_model: dict[str, set[int]] = {}
    for point, payload in zip(points, payloads):
        pid_by_model.setdefault(point.model, set()).add(payload["pid"])
    parent = os.getpid()
    for model, pids in pid_by_model.items():
        assert len(pids) == 1, f"model {model} computed by several workers"
        assert parent not in pids, "points ran in the parent, not the pool"


@pytest.mark.skipif(not parallel.fork_available(), reason="fork unavailable")
def test_worker_crash_degrades_to_serial(tmp_path, capsys):
    points = [
        SweepPoint.make("t_crash", model=model, value=value)
        for model, value in (("a", 1), ("b", 2))
    ]
    payloads = run_sweep(points, _session(tmp_path, workers=2, cpu_count=2))
    assert [p["value"] for p in payloads] == [1, 2]
    assert "recomputing" in capsys.readouterr().err


def test_single_cpu_budget_runs_serially(tmp_path, monkeypatch):
    # With one usable CPU the scheduler must not fork a pool at all.
    def no_fork(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("pool must not be used on a single CPU")

    monkeypatch.setattr(parallel, "run_worklists", no_fork)
    points = [SweepPoint.make("t_square", model="a", value=3)]
    payloads = run_sweep(points, _session(tmp_path, workers=8, cpu_count=1))
    assert payloads[0]["square"] == 9


# ---------------------------------------------------------------------------
# Harness-backed sweeps (tiny model injected into the experiment caches)
# ---------------------------------------------------------------------------


@pytest.fixture
def tiny_zoo(monkeypatch, tiny_harness):
    """Expose the session-scoped tiny harness as zoo model ``tinynet``."""
    harness_cache = OrderedDict({("tinynet", "fast"): tiny_harness})
    monkeypatch.setattr(common, "_HARNESS_CACHE", harness_cache)
    # Workers must keep the injected cache (there is no real zoo entry to
    # rebuild from); the production reset is covered by its own test.
    monkeypatch.setattr(common, "clear_harness_cache", lambda: None)
    return tiny_harness


def _tiny_points():
    return [
        common.baseline_point("tinynet"),
        common.nbsmt_point("tinynet", threads=2, reorder=False,
                           collect_stats=True),
        common.throttle_curve_point("tinynet", base_threads=2, slow_threads=1,
                                    max_slowed=1),
    ]


def test_harness_sweep_serial_matches_direct_evaluation(tmp_path, tiny_zoo):
    payloads = run_sweep(_tiny_points(), _session(tmp_path))
    direct = tiny_zoo.evaluate_nbsmt(threads=2, reorder=False, collect_stats=True)
    assert payloads[0]["int8"] == tiny_zoo.int8_accuracy
    assert payloads[1]["accuracy"] == direct.accuracy
    for name, stats in direct.layer_stats.items():
        from repro.core.smt import SMTStatistics

        rebuilt = SMTStatistics.from_payload(payloads[1]["layer_stats"][name])
        assert rebuilt.as_dict() == stats.as_dict()
    assert payloads[2]["baseline"]["accuracy"] == pytest.approx(
        tiny_zoo.evaluate_nbsmt(threads=2, reorder=True).accuracy
    )
    assert len(payloads[2]["steps"]) == 1


@pytest.mark.skipif(not parallel.fork_available(), reason="fork unavailable")
def test_harness_sweep_parallel_bit_identical(tmp_path, tiny_zoo):
    points = _tiny_points()
    serial = run_sweep(points, _session(tmp_path / "serial", workers=1))
    pooled = run_sweep(
        points, _session(tmp_path / "pool", workers=2, cpu_count=2)
    )
    assert serial == pooled


# ---------------------------------------------------------------------------
# Harness-cache lifecycle
# ---------------------------------------------------------------------------


class _FakeHarness:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


def test_harness_cache_bounded_eviction_drops(monkeypatch):
    cache = OrderedDict()
    fakes = {name: _FakeHarness() for name in "abc"}
    for name, fake in fakes.items():
        cache[(name, "fast")] = fake
    monkeypatch.setattr(common, "_HARNESS_CACHE", cache)
    monkeypatch.setattr(common, "HARNESS_CACHE_LIMIT", 2)

    # A cache hit refreshes recency and evicts down to the limit.
    harness = common.get_harness("b", "fast")
    assert harness is fakes["b"]
    assert list(cache) == [("c", "fast"), ("b", "fast")]

    common.clear_harness_cache()
    assert not cache
    # The harnesses own their models outright: nothing is closed.
    assert not any(fake.closed for fake in fakes.values())


def test_closed_harness_reinstalls_hooks_on_next_use(tiny_harness):
    before = tiny_harness.evaluate_nbsmt(threads=2, collect_stats=False)
    tiny_harness.close()
    after = tiny_harness.evaluate_nbsmt(threads=2, collect_stats=False)
    assert after.accuracy == before.accuracy


# ---------------------------------------------------------------------------
# End-to-end sweep smoke test (trains a real zoo model; slow tier)
# ---------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.skipif(not parallel.fork_available(), reason="fork unavailable")
def test_experiment_suite_smoke_parallel_matches_serial(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    from repro.eval.experiments import table3_policies

    serial = table3_policies.run(
        "fast", models=("alexnet",), policies=("min", "S+A"),
        session=SweepSession(scale="fast", workers=1, store_root=tmp_path),
    )
    common.clear_harness_cache()
    pooled = table3_policies.run(
        "fast", models=("alexnet",), policies=("min", "S+A"),
        session=SweepSession(scale="fast", workers=2, cpu_count=2,
                             store_root=tmp_path),
    )
    assert serial == pooled
