"""Warm engine pool: replica execution, throttled specs, lease lifecycle."""

import time

import numpy as np
import pytest

from repro.core.engine import NBSMTEngine
from repro.eval.parallel import fork_available
from repro.eval.throttle import throttle_assignment
from repro.serve.pool import EnginePool, ForkedReplica, InlineReplica
from repro.serve.registry import ModelSpec, ServeRegistry


def tiny_spec(**overrides) -> ModelSpec:
    params = {
        "name": "tinynet",
        "model": "resnet18",  # registry-valid zoo alias; provider ignores it
        "threads": 2,
        "policy": "S+A",
        "max_batch": 16,
    }
    params.update(overrides)
    return ModelSpec(**params)


def test_inline_replica_matches_direct_engine(
    tiny_harness, tiny_provider, direct_reference
):
    replica = InlineReplica(tiny_spec(), tiny_provider, warm=True)
    images = tiny_harness.eval_images[:8]
    logits, layer_stats = replica.infer(images)
    replica.close()
    expected_logits, expected_stats = direct_reference(tiny_harness, images)
    assert np.array_equal(logits, expected_logits)
    assert set(layer_stats) == set(expected_stats)
    for name, stats in expected_stats.items():
        assert layer_stats[name].as_dict() == stats.as_dict()


def test_inline_replica_stats_are_per_call(tiny_harness, tiny_provider):
    replica = InlineReplica(tiny_spec(), tiny_provider, warm=True)
    images = tiny_harness.eval_images[:4]
    _, first = replica.infer(images)
    _, second = replica.infer(images)
    replica.close()
    for name in first:
        assert first[name].as_dict() == second[name].as_dict()


def test_engine_durations_survive_a_wall_clock_stepping_backwards(
    tiny_harness, tiny_provider, monkeypatch
):
    replica = InlineReplica(tiny_spec(), tiny_provider, warm=True)
    images = tiny_harness.eval_images[:4]
    wall = [2.0e9]

    def stepping_back():
        wall[0] -= 100.0  # every reading is 100 s before the last one
        return wall[0]

    monkeypatch.setattr(time, "time", stepping_back)
    trace: dict = {}
    replica.infer_ex(images, trace=trace)
    monkeypatch.undo()
    replica.close()
    engine = trace["engine"]
    assert engine["layers"], "the forward pass recorded no layer timings"
    assert engine["duration_s"] >= 0.0
    assert all(duration >= 0.0 for _, _, duration in engine["layers"])
    # Span placement still follows the wall clock.
    assert engine["start"] < 2.0e9


def test_throttled_spec_uses_throttle_assignment(tiny_harness, tiny_provider):
    layer_names = tiny_harness.qmodel.layer_names()
    slowed = layer_names[0]
    spec = tiny_spec(threads=4, slow_layers=(slowed,), slow_threads=2)
    replica = InlineReplica(spec, tiny_provider, warm=False)
    assignment = replica.thread_assignment()
    expected = throttle_assignment(tiny_harness.qmodel, 4, [slowed], 2)
    replica.close()
    assert assignment == expected
    assert assignment[slowed] == 2
    assert all(
        assignment[name] == 4 for name in layer_names if name != slowed
    )


def test_replica_reasserts_config_after_harness_drift(
    tiny_harness, tiny_provider, direct_reference
):
    """A shared harness reconfigured between requests is re-asserted."""
    replica = InlineReplica(tiny_spec(), tiny_provider, warm=True)
    images = tiny_harness.eval_images[:8]
    expected_logits, _ = replica.infer(images)
    # Experiment code reconfigures the same harness behind the replica's
    # back: different engine, threads and reordering permutations.
    tiny_harness.evaluate_nbsmt(threads=4, policy="min", reorder=True)
    logits, _ = replica.infer(images)
    replica.close()
    assert np.array_equal(logits, expected_logits)


def test_replica_takes_one_harness_and_close_is_idempotent(
    tiny_harness, tiny_provider
):
    replica = InlineReplica(tiny_spec(), tiny_provider, warm=False)
    assert tiny_provider.calls == 1
    replica.close()
    replica.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        replica.infer(tiny_harness.eval_images[:1])


def test_pool_runner_splits_batches_per_request(
    tiny_harness, tiny_provider, direct_reference
):
    registry = ServeRegistry()
    spec = registry.register(tiny_spec())
    pool = EnginePool(registry, provider=tiny_provider, warm=False)
    runner = pool.runner_for(spec.name)
    images = tiny_harness.eval_images[:6]
    payloads = [images[0:1], images[1:4], images[4:6]]
    results = runner(payloads)
    pool.close()
    assert [result.shape[0] for result in results] == [1, 3, 2]
    expected_logits, _ = direct_reference(tiny_harness, images)
    assert np.array_equal(np.vstack(results), expected_logits)


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
def test_replica_set_respawns_dead_forked_worker(tiny_harness, tiny_provider):
    from repro.serve.pool import ReplicaSet

    replica = ForkedReplica(tiny_spec(), tiny_provider)
    replica_set = ReplicaSet([replica])
    images = tiny_harness.eval_images[:2]
    expected, _ = replica_set.infer(images)
    replica._process.kill()  # simulate an OOM-killed worker
    replica._process.join(timeout=10)
    with pytest.raises(RuntimeError, match="died"):
        replica_set.infer(images)
    # The slot was respawned: the next request succeeds and matches.
    try:
        logits, _ = replica_set.infer(images)
        assert np.array_equal(logits, expected)
    finally:
        replica_set.close()


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
def test_forked_replica_matches_inline(tiny_harness, tiny_provider):
    spec = tiny_spec()
    images = tiny_harness.eval_images[:6]
    inline = InlineReplica(spec, tiny_provider, warm=True)
    expected_logits, expected_stats = inline.infer(images)
    inline.close()
    forked = ForkedReplica(spec, tiny_provider)
    try:
        logits, layer_stats = forked.infer(images)
    finally:
        forked.close()
    assert np.array_equal(logits, expected_logits)
    assert set(layer_stats) == set(expected_stats)
    for name, stats in expected_stats.items():
        assert layer_stats[name].as_dict() == pytest.approx(stats.as_dict())


def test_pool_builds_ladder_and_swaps_operating_points(
    tiny_harness, tiny_provider, direct_reference
):
    """Each rung's serving output is bit-identical to a direct engine run."""
    from repro.eval.throttle import operating_ladder

    registry = ServeRegistry()
    spec = registry.register(
        tiny_spec(threads=4, ladder_rungs=3, slow_threads=2)
    )
    pool = EnginePool(registry, provider=tiny_provider, warm=False)
    ladder = pool.ladder(spec.name)
    assert len(ladder) == 3
    expected_ladder = operating_ladder(
        tiny_harness, base_threads=4, slow_threads=2, rungs=3, policy="S+A"
    )
    assert ladder == expected_ladder
    assert pool.current_level(spec.name) == 0

    images = tiny_harness.eval_images[:8]
    replica_set = pool.replica_set(spec.name)
    for level in (0, 2, 1):
        point = pool.set_operating_point(spec.name, level)
        assert pool.current_level(spec.name) == level
        logits, layer_stats, served_level = replica_set.infer_ex(images)
        assert served_level == level
        # Bit-identical to a direct engine run at this rung's assignment.
        engine = NBSMTEngine("S+A", collect_stats=True)
        qmodel = tiny_harness.qmodel
        qmodel.set_threads(dict(point.threads))
        tiny_harness.clear_permutations()
        qmodel.set_engine(engine)
        qmodel.clear_stats()
        expected_logits = qmodel.forward(images)
        assert np.array_equal(logits, expected_logits)
        for name, stats in engine.layer_stats.items():
            assert layer_stats[name].as_dict() == stats.as_dict()
    with pytest.raises(ValueError, match="no ladder rung"):
        pool.set_operating_point(spec.name, 3)
    pool.close()


def test_static_endpoint_has_single_point_ladder(tiny_harness, tiny_provider):
    registry = ServeRegistry()
    spec = registry.register(tiny_spec(threads=2))
    pool = EnginePool(registry, provider=tiny_provider, warm=False)
    ladder = pool.ladder(spec.name)
    assert len(ladder) == 1
    assert ladder.top.threads == {
        name: 2 for name in tiny_harness.qmodel.layer_names()
    }
    assert pool.pacing_unit(spec.name) is None
    pool.close()


def test_operating_point_swap_is_atomic_per_batch(tiny_harness, tiny_provider):
    """A swap concurrent with traffic: every batch serves at exactly one rung.

    The swap takes the replica execution lock, so an in-flight micro-batch
    finishes at the rung that admitted it and only later batches move.
    """
    import threading

    registry = ServeRegistry()
    spec = registry.register(
        tiny_spec(threads=4, ladder_rungs=3, slow_threads=2)
    )
    pool = EnginePool(registry, provider=tiny_provider, warm=True)
    replica_set = pool.replica_set(spec.name)
    images = tiny_harness.eval_images[:4]
    levels_seen = []
    stop = threading.Event()

    def traffic():
        while not stop.is_set():
            _, _, level = replica_set.infer_ex(images)
            levels_seen.append(level)

    thread = threading.Thread(target=traffic, daemon=True)
    thread.start()
    try:
        for level in (1, 2, 1, 0):
            pool.set_operating_point(spec.name, level)
    finally:
        stop.set()
        thread.join(timeout=60)
    pool.close()
    # Every batch reported a valid rung, and once the dust settled the
    # last batches ran at the final rung.
    assert levels_seen
    assert set(levels_seen) <= {0, 1, 2}


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
def test_forked_replica_swaps_points_and_respawn_keeps_them(
    tiny_harness, tiny_provider
):
    from repro.serve.pool import ReplicaSet

    registry = ServeRegistry()
    spec = registry.register(
        tiny_spec(threads=4, ladder_rungs=2, slow_threads=2)
    )
    pool = EnginePool(registry, provider=tiny_provider, warm=False)
    ladder = pool.ladder(spec.name)
    images = tiny_harness.eval_images[:3]

    replica = ForkedReplica(spec, tiny_provider)
    replica_set = ReplicaSet([replica])
    replica.set_operating_point(ladder[1])
    logits_fast, _, level = replica_set.infer_ex(images)
    assert level == 1
    # Kill the worker: the respawned replacement must still serve rung 1.
    replica._process.kill()
    replica._process.join(timeout=10)
    with pytest.raises(RuntimeError, match="died"):
        replica_set.infer_ex(images)
    logits_again, _, level = replica_set.infer_ex(images)
    assert level == 1
    assert np.array_equal(logits_again, logits_fast)
    replica_set.close()
    pool.close()


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
def test_point_swap_survives_a_dead_forked_worker(tiny_harness, tiny_provider):
    """A dead worker must not fail the endpoint-wide rung swap.

    The swap records the target on the replica, skips the dead pipe, and
    the respawn (through the infer path) brings the replacement up at the
    *new* rung -- so the QoS controller's view stays consistent.
    """
    from repro.serve.pool import ReplicaSet

    registry = ServeRegistry()
    spec = registry.register(
        tiny_spec(threads=4, ladder_rungs=2, slow_threads=2)
    )
    pool = EnginePool(registry, provider=tiny_provider, warm=False)
    ladder = pool.ladder(spec.name)
    images = tiny_harness.eval_images[:2]

    replica = ForkedReplica(spec, tiny_provider)
    replica_set = ReplicaSet([replica])
    replica._process.kill()
    replica._process.join(timeout=10)
    # The endpoint-wide swap must not raise on the dead worker.
    replica_set.set_operating_point(ladder[1])
    assert replica._point == ladder[1]  # intent recorded for the respawn
    # First infer discovers the death and poisons the slot...
    with pytest.raises(RuntimeError):
        replica_set.infer_ex(images)
    # ...and the respawned replacement serves at the swapped-to rung.
    logits, _, level = replica_set.infer_ex(images)
    assert level == 1
    expected = InlineReplica(spec, tiny_provider, warm=False)
    expected.set_operating_point(ladder[1])
    expected_logits, _ = expected.infer(images)
    expected.close()
    assert np.array_equal(logits, expected_logits)
    replica_set.close()
    pool.close()


def test_adaptive_spec_with_no_slowable_layers_fails_loudly(
    tiny_harness, tiny_provider
):
    """threads == slow_threads: every layer is unslowable -- refuse to
    build a silently-static 'adaptive' endpoint."""
    registry = ServeRegistry()
    spec = registry.register(
        tiny_spec(threads=2, ladder_rungs=3, slow_threads=2)
    )
    pool = EnginePool(registry, provider=tiny_provider, warm=False)
    with pytest.raises(ValueError, match="no layer is slowable"):
        pool.replica_set(spec.name)
    pool.close()


# -- respawn budget ---------------------------------------------------------


class _DeadStub:
    """A replica whose worker is dead; respawn yields another dead one.

    Driving `_replace_if_dead` with an always-dead lineage walks the whole
    respawn ladder (backoff windows, budget exhaustion) without forking a
    single process.
    """

    def __init__(self, name="stub"):
        from types import SimpleNamespace

        self.spec = SimpleNamespace(name=name)
        self._closed = True
        self.level = 0

    def respawn(self):
        return _DeadStub(self.spec.name)

    def close(self):
        pass


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _budget_set(clock, **overrides):
    from repro.serve.pool import ReplicaSet

    params = dict(
        respawn_budget=3,
        respawn_backoff_s=0.5,
        respawn_backoff_max_s=30.0,
        respawn_reset_s=60.0,
        clock=clock,
    )
    params.update(overrides)
    return ReplicaSet([_DeadStub()], **params)


def test_respawn_backoff_gates_the_fork_loop():
    clock = _FakeClock()
    replica_set = _budget_set(clock)
    dead = replica_set.replicas[0]
    fresh = replica_set._replace_if_dead(dead)
    assert fresh is not dead  # first attempt respawns immediately
    assert replica_set.total_respawns == 1
    # Still inside the 0.5s backoff window: no second fork, the dead
    # replica itself comes back so requests fail fast.
    again = replica_set._replace_if_dead(fresh)
    assert again is fresh
    assert replica_set.total_respawns == 1
    clock.now = 0.6  # window over: the next attempt respawns (backoff 1.0s)
    assert replica_set._replace_if_dead(fresh) is not fresh
    assert replica_set.total_respawns == 2


def test_respawn_budget_exhaustion_is_terminal_and_published():
    from repro.telemetry import bus as telemetry_bus

    clock = _FakeClock()
    replica_set = _budget_set(clock)
    subscription = telemetry_bus.get_bus().subscribe(
        types={"replica_respawn", "replica_failed"}
    )
    try:
        replica = replica_set.replicas[0]
        for attempt in range(3):  # budget=3 respawns succeed
            clock.now = attempt * 10.0  # past backoff, inside reset window
            replica = replica_set._replace_if_dead(replica)
        clock.now = 31.0
        final = replica_set._replace_if_dead(replica)
        assert final is replica  # over budget: no replacement
        health = replica_set.health()
        assert health["failed_replicas"] == 1
        assert health["live_replicas"] == 0
        assert health["degraded"] is True
        assert replica_set.degraded
        # The terminal slot stays terminal: no further attempts counted.
        respawns_before = replica_set.total_respawns
        clock.now = 200.0
        assert replica_set._replace_if_dead(replica) is replica
        assert replica_set.total_respawns == respawns_before
        events = [event.type for event in subscription.drain()]
        assert events.count("replica_respawn") == 3
        assert events.count("replica_failed") == 1
    finally:
        telemetry_bus.get_bus().unsubscribe(subscription)


def test_respawn_count_resets_after_quiet_period():
    clock = _FakeClock()
    replica_set = _budget_set(clock, respawn_budget=1)
    replica = replica_set._replace_if_dead(replica_set.replicas[0])
    assert replica_set.total_respawns == 1
    # A long quiet stretch forgives the earlier crash: the budget refills.
    clock.now = 100.0
    replica = replica_set._replace_if_dead(replica)
    assert replica_set.total_respawns == 2
    assert not replica_set.degraded
