"""Fault actors: seeded determinism and real-process effects.

These are the unit tests of the injection primitives themselves -- each
actor must do exactly the damage it claims (and remember it), and two
actors built from the same seed must do the *same* damage, because the
chaos conformance lane's reproducibility rests on it.
"""

from __future__ import annotations

import json
import os
import random
import signal
import time

import pytest

from repro.chaos.actors import (
    CORRUPTION_MODES,
    ClockPerturber,
    PeerFreezer,
    ProcessReaper,
    SpoolCorruptor,
)
from repro.chaos.schedule import ChaosSchedule
from repro.cluster.documents import pid_alive
from repro.eval.parallel import fork_available


def _spawn_sleeper():
    import multiprocessing

    context = multiprocessing.get_context(
        "fork" if fork_available() else "spawn"
    )
    process = context.Process(target=time.sleep, args=(120,), daemon=True)
    process.start()
    return process


# -- ProcessReaper ----------------------------------------------------------


def test_reaper_kills_a_real_child():
    process = _spawn_sleeper()
    reaper = ProcessReaper(random.Random(7))
    try:
        victim = reaper.reap([process.pid])
        assert victim == process.pid
        process.join(timeout=10)
        assert process.exitcode == -signal.SIGKILL
        assert reaper.killed == [process.pid]
    finally:
        if process.is_alive():  # pragma: no cover - cleanup on failure
            process.kill()
        process.join(timeout=10)


def test_reaper_skips_dead_candidates():
    process = _spawn_sleeper()
    process.kill()
    process.join(timeout=10)
    reaper = ProcessReaper(random.Random(7))
    assert reaper.reap([process.pid]) is None
    assert reaper.kill(process.pid) is False
    assert reaper.killed == []


def test_reaper_victim_depends_only_on_seed_and_candidate_set(monkeypatch):
    import repro.chaos.actors as actors_module

    monkeypatch.setattr(actors_module, "pid_alive", lambda pid: True)
    pids = [400000, 400001, 400002, 400003]

    class _Immortal(ProcessReaper):
        def kill(self, pid):  # record without signalling anything real
            self.killed.append(pid)
            return True

    picks_a = _Immortal(random.Random(3))
    picks_b = _Immortal(random.Random(3))
    for _ in range(4):
        picks_a.reap(pids)
        picks_b.reap(list(reversed(pids)))  # order must not matter
    assert len(picks_a.killed) == 4
    assert picks_a.killed == picks_b.killed


# -- PeerFreezer ------------------------------------------------------------


def _proc_state(pid: int) -> str:
    with open(f"/proc/{pid}/stat") as handle:
        return handle.read().rsplit(")", 1)[1].split()[0]


@pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="needs /proc to observe stop state"
)
def test_freezer_suspends_and_resumes():
    process = _spawn_sleeper()
    freezer = PeerFreezer()
    try:
        assert freezer.freeze(process.pid)
        deadline = time.monotonic() + 10
        while _proc_state(process.pid) != "T":
            assert time.monotonic() < deadline, "child never stopped"
            time.sleep(0.01)
        # Frozen, not dead: liveness checks must still see it.
        assert pid_alive(process.pid)
        assert freezer.frozen == {process.pid}
        assert freezer.thaw(process.pid)
        deadline = time.monotonic() + 10
        while _proc_state(process.pid) == "T":
            assert time.monotonic() < deadline, "child never resumed"
            time.sleep(0.01)
        assert freezer.frozen == set()
    finally:
        freezer.thaw_all()
        process.kill()
        process.join(timeout=10)


def test_thaw_all_is_safe_on_dead_peers():
    process = _spawn_sleeper()
    freezer = PeerFreezer()
    assert freezer.freeze(process.pid)
    process.kill()
    process.join(timeout=10)
    freezer.thaw_all()  # must not raise
    assert freezer.frozen == set()
    assert freezer.freeze(process.pid) is False


# -- SpoolCorruptor ---------------------------------------------------------


def _write_spool(path, lines=6):
    with open(path, "w") as handle:
        for index in range(lines):
            handle.write(json.dumps({"type": "tick", "seq": index}) + "\n")
    return os.path.getsize(path)


def test_corruptor_truncate_cuts_mid_file(tmp_path):
    path = str(tmp_path / "events.jsonl")
    size = _write_spool(path)
    corruptor = SpoolCorruptor(random.Random(1))
    assert corruptor.corrupt_file(path, "truncate") == "truncate"
    assert os.path.getsize(path) < size
    assert corruptor.corrupted == [(path, "truncate")]


def test_corruptor_append_modes_do_what_they_say(tmp_path):
    for mode in ("tear", "garbage", "non_event"):
        path = str(tmp_path / f"{mode}.jsonl")
        size = _write_spool(path)
        SpoolCorruptor(random.Random(2)).corrupt_file(path, mode)
        with open(path, "rb") as handle:
            handle.seek(size)
            tail = handle.read()
        if mode == "tear":
            assert not tail.endswith(b"\n")  # a write that died mid-line
        else:
            assert tail.endswith(b"\n")
            assert b"\n" not in tail[:-1]  # exactly one complete line
        if mode == "non_event":
            assert isinstance(json.loads(tail), list)  # valid, wrong shape


def test_corruptor_is_deterministic_from_seed(tmp_path):
    def run(directory):
        os.makedirs(directory)
        for name in ("a.jsonl", "b.jsonl", "c.jsonl.old"):
            _write_spool(os.path.join(directory, name))
        corruptor = SpoolCorruptor(random.Random(42))
        hits = [corruptor.corrupt_spool(directory) for _ in range(5)]
        return [
            (os.path.basename(path), mode) for path, mode in hits
        ], [mode for _path, mode in corruptor.corrupted]

    first = run(str(tmp_path / "one"))
    second = run(str(tmp_path / "two"))
    assert first == second
    assert all(mode in CORRUPTION_MODES for mode in first[1])


def test_corruptor_document_clobbers_json(tmp_path):
    path = str(tmp_path / "qos-shard-0.json")
    with open(path, "w") as handle:
        json.dump({"shard": 0, "payload": {"endpoints": {}}}, handle)
    assert SpoolCorruptor(random.Random(3)).corrupt_document(path)
    with open(path) as handle:
        with pytest.raises(json.JSONDecodeError):
            json.load(handle)


def test_corruptor_handles_missing_targets(tmp_path):
    corruptor = SpoolCorruptor(random.Random(4))
    assert corruptor.corrupt_file(str(tmp_path / "gone.jsonl"), "tear") is None
    assert corruptor.corrupt_spool(str(tmp_path / "nodir")) is None
    assert corruptor.corrupt_document(str(tmp_path / "gone.json")) is False
    assert corruptor.corrupted == []


# -- ClockPerturber ---------------------------------------------------------


def test_perturber_clock_is_monotone_and_skews_forward():
    perturber = ClockPerturber(random.Random(5), max_skew_s=0.5)
    readings = [perturber.clock()]
    jumps = []
    for _ in range(20):
        jumps.append(perturber.perturb())
        readings.append(perturber.clock())
    assert all(jump >= 0.0 for jump in jumps)
    assert any(jump > 0.0 for jump in jumps)
    assert readings == sorted(readings)
    assert readings[-1] - readings[0] >= sum(jumps)


def test_perturber_wrapped_runner_preserves_results():
    perturber = ClockPerturber(random.Random(6), max_delay_s=0.001)
    seen = []

    def runner(payloads, trace=None):
        seen.append(list(payloads))
        return [payload * 2 for payload in payloads]

    wrapped = perturber.wrap_runner(runner)
    assert wrapped([1, 2, 3]) == [2, 4, 6]
    assert seen == [[1, 2, 3]]


# -- ChaosSchedule ----------------------------------------------------------


class _FakeTime:
    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_schedule_fires_in_order_and_records_errors():
    fake = _FakeTime()
    fired = []
    schedule = ChaosSchedule(seed=0, clock=fake.clock, sleep=fake.sleep)
    schedule.at(0.2, "second", lambda: fired.append("second") or "two")
    schedule.at(0.1, "first", lambda: fired.append("first") or "one")

    def boom():
        fired.append("boom")
        raise RuntimeError("actor crashed")

    schedule.at(0.3, "boom", boom)
    schedule.at(0.4, "last", lambda: fired.append("last"))
    log = schedule.run()
    assert fired == ["first", "second", "boom", "last"]
    assert [record["label"] for record in log] == [
        "first", "second", "boom", "last",
    ]
    boom_record = log[2]
    assert boom_record["error"] == repr(RuntimeError("actor crashed"))
    assert boom_record["result"] is None
    # The crash was contained: the entry after it still fired.
    assert log[3]["error"] is None
    assert schedule.describe()["errors"] == 1


def test_schedule_every_expands_a_deterministic_timeline():
    def timeline(seed):
        schedule = ChaosSchedule(seed=seed)
        schedule.every(1.0, "kill", lambda: None, until_s=5.0, jitter_s=0.3)
        schedule.every(
            2.0, "corrupt", lambda: None, until_s=5.0, start_s=0.5
        )
        return schedule.timeline

    assert timeline(11) == timeline(11)
    assert timeline(11) != timeline(12)  # jitter comes from the seed
    labels = [label for _at, label in timeline(11)]
    assert labels.count("kill") == 4
    assert labels.count("corrupt") == 3


def test_schedule_until_and_stop_cut_the_run_short():
    fake = _FakeTime()
    fired = []
    schedule = ChaosSchedule(seed=0, clock=fake.clock, sleep=fake.sleep)
    schedule.at(0.1, "early", lambda: fired.append("early"))
    schedule.at(5.0, "late", lambda: fired.append("late"))
    schedule.run(until_s=1.0)
    assert fired == ["early"]

    fake = _FakeTime()
    fired = []
    stopping = ChaosSchedule(seed=0, clock=fake.clock, sleep=fake.sleep)
    stopping.at(0.1, "one", lambda: fired.append("one"))
    stopping.at(0.2, "stop", stopping.stop)
    stopping.at(0.3, "never", lambda: fired.append("never"))
    stopping.run()
    assert fired == ["one"]


def test_schedule_run_in_thread_joins():
    schedule = ChaosSchedule(seed=0)
    fired = []
    schedule.at(0.0, "tick", lambda: fired.append("tick"))
    thread = schedule.run_in_thread()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert fired == ["tick"]
