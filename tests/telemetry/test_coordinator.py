"""Cross-shard QoS coordination: quorum recommendation, governor follow.

Everything here is socket-free: shard channels are plain files in a tmp
directory, governors run against stub pools/admission/batchers, and time
is a fake clock -- the convergence properties the sharded e2e test relies
on are pinned deterministically.
"""

import json
import os
import time
from types import SimpleNamespace

import pytest

from repro.cluster.documents import DocumentStore
from repro.eval.throttle import OperatingLadder, OperatingPoint
from repro.serve.qos import EndpointGovernor, QoSConfig, QoSController
from repro.telemetry import coordinator as coordinator_module
from repro.telemetry.coordinator import (
    QoSCoordinator,
    ShardStateChannel,
    recommend_level,
)


def make_coordinator(tmp_path, index, count=2, stale_after_s=5.0):
    return QoSCoordinator(
        ShardStateChannel(
            DocumentStore.for_directory(str(tmp_path)), index, count
        ),
        stale_after_s=stale_after_s,
    )


# ---------------------------------------------------------------------------
# Channel + pure recommendation
# ---------------------------------------------------------------------------


def test_channel_publish_and_gather(tmp_path):
    a = ShardStateChannel(DocumentStore.for_directory(str(tmp_path)), 0, 2)
    b = ShardStateChannel(DocumentStore.for_directory(str(tmp_path)), 1, 2)
    a.publish({"m": {"desired": 2, "applied": 0, "held": False}})
    b.publish({"m": {"desired": 0, "applied": 0, "held": False}})
    states = a.gather()
    assert sorted(states) == [0, 1]
    assert states[0]["endpoints"]["m"]["desired"] == 2


def test_gather_excludes_stale_and_dead_documents(tmp_path):
    live = ShardStateChannel(DocumentStore.for_directory(str(tmp_path)), 0, 3)
    live.publish({"m": {"desired": 1}})
    # Shard 1: stale timestamp AND a dead pid -> excluded.
    with open(tmp_path / "qos-shard-1.json", "w", encoding="utf-8") as handle:
        json.dump(
            {"shard": 1, "pid": 0, "published_at": time.time() - 60.0,
             "endpoints": {"m": {"desired": 2}}},
            handle,
        )
    # Shard 2: fresh timestamp, live pid -> included.
    with open(tmp_path / "qos-shard-2.json", "w", encoding="utf-8") as handle:
        json.dump(
            {"shard": 2, "pid": os.getpid(), "published_at": time.time(),
             "endpoints": {"m": {"desired": 0}}},
            handle,
        )
    states = live.gather()
    assert sorted(states) == [0, 2]


def test_recommend_level_is_max_over_non_held_shards():
    states = {
        0: {"endpoints": {"m": {"desired": 2, "held": False}}},
        1: {"endpoints": {"m": {"desired": 0, "held": False}}},
    }
    level, desired = recommend_level(states, "m", num_levels=4)
    assert level == 2
    assert desired == {0: 2, 1: 0}
    # A held shard publishes its pin for visibility but has no vote.
    states[0]["endpoints"]["m"]["held"] = True
    level, desired = recommend_level(states, "m", num_levels=4)
    assert level == 0
    assert desired == {0: 2, 1: 0}
    # No shard reports the endpoint at all: nothing to coordinate.
    assert recommend_level(states, "ghost", num_levels=4) == (None, {})
    # Every shard held: no quorum either.
    states[1]["endpoints"]["m"]["held"] = True
    assert recommend_level(states, "m", num_levels=4)[0] is None


def test_recommendation_clamped_to_ladder(tmp_path):
    a = make_coordinator(tmp_path, 0)
    a.update("m", desired=7, applied=0)
    a.flush()
    assert a.recommendation("m", num_levels=3) == 2


def test_coordinator_two_shards_converge(tmp_path):
    a = make_coordinator(tmp_path, 0)
    b = make_coordinator(tmp_path, 1)
    a.update("m", desired=2, applied=0, pressure=0.9)
    b.update("m", desired=0, applied=0, pressure=0.1)
    a.flush()
    b.flush()
    # Both shards deterministically compute the same recommendation.
    assert a.recommendation("m", num_levels=3) == 2
    assert b.recommendation("m", num_levels=3) == 2
    # The overloaded shard calms down: recovery needs *everyone* calm.
    a.update("m", desired=1, applied=2, pressure=0.4)
    a.flush()
    assert a.recommendation("m", num_levels=3) == 1
    assert b.recommendation("m", num_levels=3) == 1
    a.update("m", desired=0, applied=1, pressure=0.1)
    a.flush()
    assert b.recommendation("m", num_levels=3) == 0


def test_coordinator_snapshot(tmp_path):
    a = make_coordinator(tmp_path, 0)
    b = make_coordinator(tmp_path, 1)
    a.update("m", desired=1, applied=1, pressure=0.8)
    a.flush()
    b.update("m", desired=0, applied=0, pressure=0.0)
    b.flush()
    a.recommendation("m", num_levels=3)
    snapshot = a.snapshot()
    assert snapshot["shard"] == 0
    assert snapshot["live_shards"] == [0, 1]
    assert snapshot["endpoints"]["m"]["0"]["desired"] == 1
    assert snapshot["recommendations"] == {"m": 1}


# ---------------------------------------------------------------------------
# Governor integration (socket-free, fake clock)
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


class StubMetrics:
    def __init__(self, budget_ms=0.0):
        self.rejected_requests = 0
        self.latency_budget_ms = budget_ms
        self.levels = []
        self.transitions = []

    def recent_p99(self):
        return 0.0

    def set_operating_point(self, level, description):
        self.levels.append(level)

    def record_transition(self, transition):
        self.transitions.append(transition)


class StubPool:
    def __init__(self, ladder):
        self._ladder = ladder
        self.level = 0
        self.applied = []

    def set_operating_point(self, endpoint, level):
        self.level = level
        self.applied.append((endpoint, level))
        return self._ladder[level]

    def current_level(self, endpoint):
        return self.level

    def ladder(self, endpoint):
        return self._ladder


class StubAdmission(SimpleNamespace):
    def __init__(self, pressure=0.0):
        super().__init__(pressure=pressure)
        self.prices = []

    def set_price(self, price):
        self.prices.append(price)


def stub_ladder(levels=3):
    return OperatingLadder(
        tuple(
            OperatingPoint(
                level=level,
                slowed_layers=(),
                threads={"l0": 4},
                expected_speedup=1.0 + level,  # rung L is (L+1)x faster
                expected_mse=float(level),
            )
            for level in range(levels)
        )
    )


CONFIG = QoSConfig(
    degrade_pressure=0.75,
    recover_pressure=0.35,
    degrade_after_s=0.5,
    recover_after_s=2.0,
    cooldown_s=1.0,
)


def make_governor(tmp_path, shard, clock, pressure, count=2):
    ladder = stub_ladder()
    pool = StubPool(ladder)
    admission = StubAdmission(pressure=pressure)
    governor = EndpointGovernor(
        endpoint="m",
        pool=pool,
        admission=admission,
        batcher=SimpleNamespace(pending_images=0, max_batch=4,
                                oldest_pending_age=lambda: 0.0),
        metrics=StubMetrics(),
        controller=QoSController(len(ladder), config=CONFIG, clock=clock),
        coordinator=make_coordinator(tmp_path, shard, count),
    )
    return governor, pool, admission


def test_two_fake_shards_converge_to_one_rung(tmp_path):
    """One overloaded shard degrades both; recovery needs both calm."""
    clock = FakeClock()
    hot, hot_pool, hot_admission = make_governor(tmp_path, 0, clock, 0.95)
    calm, calm_pool, _ = make_governor(tmp_path, 1, clock, 0.10)

    assert hot.tick() is None and calm.tick() is None  # streaks start
    clock.advance(0.6)
    hot_transition = hot.tick()
    calm_transition = calm.tick()
    assert hot_transition is not None and hot_transition.to_level == 1
    # The calm shard follows the quorum although its own signal is calm.
    assert calm_transition is not None and calm_transition.to_level == 1
    assert "coordinator" in calm_transition.reason
    assert hot_pool.level == calm_pool.level == 1

    # Rung-aware admission repriced on both shards: rung 1 is 2x the top
    # rung's speedup, so each image now costs half an admission slot.
    assert hot_admission.prices[-1] == pytest.approx(0.5)

    # Overload ends on shard 0: both recover only once *it* desires up.
    hot.admission.pressure = 0.10
    clock.advance(1.1)  # past cooldown; calm streaks start
    assert hot.tick() is None and calm.tick() is None
    clock.advance(2.1)  # calm sustained past recover_after_s
    hot_recovery = hot.tick()
    calm_recovery = calm.tick()
    assert hot_recovery is not None and hot_recovery.to_level == 0
    assert calm_recovery is not None and calm_recovery.to_level == 0
    assert hot_pool.level == calm_pool.level == 0


def test_calm_shard_never_drags_quorum_down(tmp_path):
    """A single calm shard cannot recover while the peer still desires."""
    clock = FakeClock()
    hot, hot_pool, _ = make_governor(tmp_path, 0, clock, 0.95)
    calm, calm_pool, _ = make_governor(tmp_path, 1, clock, 0.10)
    hot.tick(), calm.tick()
    clock.advance(0.6)
    hot.tick(), calm.tick()
    assert calm_pool.level == 1
    # The calm shard's controller would recover alone, but the hot peer
    # still desires rung 1: the quorum holds both at 1.
    clock.advance(3.0)
    assert calm.tick() is None
    assert calm_pool.level == 1
    assert hot_pool.level == 1


def test_held_shard_keeps_pin_and_loses_vote(tmp_path):
    clock = FakeClock()
    hot, hot_pool, _ = make_governor(tmp_path, 0, clock, 0.95)
    calm, calm_pool, _ = make_governor(tmp_path, 1, clock, 0.10)
    # Operator pins shard 1 at rung 2 with a hold.
    forced = calm.force(2, hold=True)
    assert forced is not None and calm_pool.level == 2
    hot.tick(), calm.tick()
    clock.advance(0.6)
    hot.tick()
    calm.tick()
    # The held shard ignored the quorum (stays pinned at 2); the hot shard
    # walked to 1 on its own desire (the held peer has no vote).
    assert calm_pool.level == 2
    assert hot_pool.level == 1
    # Releasing the hold re-joins the quorum: the next tick follows it
    # (the stale forced desire must not drag the peers up to rung 2).
    calm.release()
    transition = calm.tick()
    assert transition is not None and transition.to_level == 1
    assert calm_pool.level == 1


def test_solo_governor_without_peer_state_acts_locally(tmp_path):
    """recommendation() None (empty quorum) falls back to local control."""
    clock = FakeClock()
    governor, pool, _ = make_governor(tmp_path, 0, clock, 0.95, count=1)
    # Sabotage the channel so even our own publish never lands.
    governor.coordinator.channel.publish = lambda endpoints: None
    governor.tick()
    clock.advance(0.6)
    transition = governor.tick()
    assert transition is not None and transition.to_level == 1
    assert pool.level == 1


class _SteppedTime:
    """A ``time`` module stand-in whose wall clock a test can step back."""

    def __init__(self):
        self.wall = 1_000_000.0
        self.mono = 50.0

    def time(self):
        return self.wall

    def monotonic(self):
        return self.mono


class _CountingChannel:
    shard_index = 0
    shard_count = 1

    def __init__(self):
        self.publishes = 0
        self.gathers = 0

    def publish(self, endpoints):
        self.publishes += 1

    def gather(self, stale_after_s):
        self.gathers += 1
        return {}


def test_throttles_survive_a_wall_clock_stepped_back(monkeypatch):
    """``min_publish_s``/``gather_cache_s`` run on the monotonic clock: a
    wall clock stepped back must not stop an unchanged shard republishing
    (it would drop out of its peers' quorum) or pin a stale gather."""
    clock = _SteppedTime()
    monkeypatch.setattr(coordinator_module, "time", clock)
    channel = _CountingChannel()
    coordinator = QoSCoordinator(
        channel, min_publish_s=1.0, gather_cache_s=0.1
    )
    coordinator.update("m", desired=1, applied=0)

    def tick():
        coordinator.flush()
        coordinator.recommendation("m", 3)
        return channel.publishes, channel.gathers

    assert tick() == (1, 1)
    clock.mono += 0.05  # inside both intervals: throttled
    assert tick() == (1, 1)
    # The wall clock steps back an hour while two seconds really pass.
    clock.wall -= 3600.0
    clock.mono += 2.0
    assert tick() == (2, 2)
