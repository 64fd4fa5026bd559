"""Telemetry bus: ordering, bounded buffers, spool round trips, fork."""

import json
import os

from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.documents import pid_alive
from repro.cluster.spool import Event, SpoolFollower, SpoolWriter
from repro.telemetry.bus import TelemetryBus
from tests.strategies import QUICK_SETTINGS


def test_publish_is_inert_without_consumers():
    bus = TelemetryBus()
    assert not bus.active
    assert bus.publish("anything", value=1) is None


def test_subscription_receives_events_in_publish_order():
    bus = TelemetryBus(role="test")
    subscription = bus.subscribe(maxlen=64)
    for index in range(10):
        bus.publish("tick", index=index)
    events = subscription.drain()
    assert [event.data["index"] for event in events] == list(range(10))
    assert [event.seq for event in events] == list(range(1, 11))
    assert all(event.type == "tick" for event in events)
    assert all(event.source["pid"] == os.getpid() for event in events)


def test_type_filtered_subscription():
    bus = TelemetryBus()
    subscription = bus.subscribe(types={"wanted"})
    bus.publish("wanted", a=1)
    bus.publish("ignored", a=2)
    bus.publish("wanted", a=3)
    assert [event.data["a"] for event in subscription.drain()] == [1, 3]


def test_callback_subscriber_and_error_isolation():
    bus = TelemetryBus()
    seen = []

    def boom(event):
        raise RuntimeError("consumer bug")

    bus.subscribe(callback=boom)
    bus.subscribe(callback=seen.append)
    event = bus.publish("tick")
    assert event is not None
    assert [e.seq for e in seen] == [1]  # the broken consumer broke nothing


@given(
    maxlen=st.integers(min_value=1, max_value=16),
    count=st.integers(min_value=0, max_value=64),
)
@QUICK_SETTINGS
def test_bounded_buffer_evicts_oldest(maxlen, count):
    bus = TelemetryBus()
    subscription = bus.subscribe(maxlen=maxlen)
    for index in range(count):
        bus.publish("tick", index=index)
    events = subscription.drain()
    # The newest min(count, maxlen) events survive, oldest first.
    expected = list(range(count))[-maxlen:]
    assert [event.data["index"] for event in events] == expected
    assert subscription.dropped == max(0, count - maxlen)
    subscription.close()
    assert not bus.active  # last consumer gone -> publish is inert again


def test_event_json_round_trip():
    event = Event("t", at=123.5, source={"pid": 7, "role": "x"}, seq=3,
                  data={"a": [1, 2], "b": "s"})
    clone = Event.from_json(event.to_json())
    assert clone.describe() == event.describe()


def test_spool_round_trip(tmp_path):
    bus = TelemetryBus(role="writer")
    bus.attach_spool(str(tmp_path), role="writer")
    for index in range(5):
        bus.publish("tick", index=index)
    follower = SpoolFollower(str(tmp_path))
    events = follower.poll()
    assert [event.data["index"] for event in events] == list(range(5))
    # Incremental: a second poll sees only what was appended since.
    assert follower.poll() == []
    bus.publish("tick", index=5)
    assert [event.data["index"] for event in follower.poll()] == [5]
    bus.detach_spool()


def test_spool_ignores_torn_tail_and_junk(tmp_path):
    spool = SpoolWriter(str(tmp_path), role="w")
    spool.append(Event("a", 1.0, {"pid": 1}, 1, {}))
    follower = SpoolFollower(str(tmp_path))
    assert len(follower.poll()) == 1
    # A writer mid-line: the partial line must not be consumed yet.
    with open(spool.path, "a", encoding="utf-8") as handle:
        handle.write('{"type":"b","at":2.0,"so')
    assert follower.poll() == []
    with open(spool.path, "a", encoding="utf-8") as handle:
        handle.write('urce":{},"seq":2,"data":{}}\n')
        handle.write("not json at all\n")
    events = follower.poll()
    assert [event.type for event in events] == ["b"]  # junk line skipped
    spool.close()


def test_spool_rotation_keeps_events_readable(tmp_path):
    spool = SpoolWriter(str(tmp_path), role="w", rotate_bytes=400)
    follower = SpoolFollower(str(tmp_path))
    total = 24
    seen = []
    for index in range(total):
        spool.append(Event("tick", float(index), {"pid": 1}, index, {"i": index}))
        seen.extend(event.data["i"] for event in follower.poll())
    seen.extend(event.data["i"] for event in follower.poll())
    assert seen == list(range(total))
    names = sorted(os.listdir(tmp_path))
    assert any(name.endswith(".jsonl.old") for name in names)
    spool.close()


def test_spool_follower_skips_basenames(tmp_path):
    own = SpoolWriter(str(tmp_path), role="own")
    peer = SpoolWriter(str(tmp_path), role="peer")
    own.append(Event("mine", 1.0, {"pid": os.getpid()}, 1, {}))
    peer.append(Event("theirs", 2.0, {"pid": 0}, 1, {}))
    follower = SpoolFollower(
        str(tmp_path), skip_basenames={os.path.basename(own.path)}
    )
    assert [event.type for event in follower.poll()] == ["theirs"]
    own.close()
    peer.close()


def test_spool_round_trip_across_fork(tmp_path):
    """A forked child publishes into its own per-pid file, same directory."""
    if not hasattr(os, "fork"):  # pragma: no cover - platform
        import pytest

        pytest.skip("fork unavailable")
    bus = TelemetryBus(role="parent")
    bus.attach_spool(str(tmp_path), role="sweep")
    bus.subscribe(maxlen=8)  # a parent-side consumer the child must drop
    bus.publish("parent_event", stage="before-fork")
    pid = os.fork()
    if pid == 0:
        # Child: inherited subscribers dropped, spool kept and re-homed.
        try:
            bus.reset_after_fork(role="child")
            bus.publish("child_event", stage="in-child")
            os._exit(0)
        except BaseException:  # pragma: no cover - diagnosed via exit code
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    bus.publish("parent_event", stage="after-fork")
    events = SpoolFollower(str(tmp_path)).poll()
    by_type = {}
    for event in events:
        by_type.setdefault(event.type, []).append(event)
    assert len(by_type["parent_event"]) == 2
    assert len(by_type["child_event"]) == 1
    child_event = by_type["child_event"][0]
    assert child_event.source["pid"] == pid
    assert child_event.source["role"] == "child"
    # Two distinct per-pid spool files exist.
    files = [n for n in os.listdir(tmp_path) if n.endswith(".jsonl")]
    assert len(files) == 2
    bus.detach_spool()


def test_pid_alive():
    assert pid_alive(os.getpid())
    assert not pid_alive(0)
    # Spawn-and-reap: a just-dead pid reads as dead.
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    assert not pid_alive(pid)


def test_source_configuration_stamps_events():
    bus = TelemetryBus(role="serve")
    bus.configure_source(shard=3)
    subscription = bus.subscribe()
    bus.publish("tick")
    event = subscription.get(timeout=1.0)
    assert event.source["role"] == "serve"
    assert event.source["shard"] == 3


def test_spool_document_is_one_json_per_line(tmp_path):
    bus = TelemetryBus(role="w")
    bus.attach_spool(str(tmp_path), role="w")
    bus.publish("a", x=1)
    bus.publish("b", y="two")
    path = bus.spool_path
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert len(lines) == 2
    assert [json.loads(line)["type"] for line in lines] == ["a", "b"]
    bus.detach_spool()


def test_spool_corrupt_lines_are_counted_not_fatal(tmp_path):
    spool = SpoolWriter(str(tmp_path), role="w")
    spool.append(Event("a", 1.0, {"pid": 1}, 1, {}))
    follower = SpoolFollower(str(tmp_path))
    assert len(follower.poll()) == 1
    assert follower.stats() == {"corrupt_lines": 0, "corrupt_by_file": {}}
    with open(spool.path, "ab") as handle:
        handle.write(b"\xff\xfebinary junk\n")  # undecodable
        handle.write(b"[1, 2, 3]\n")  # valid JSON, not an object
        handle.write(b'{"no":"type field"}\n')  # object, wrong shape
        handle.write(b'{"type":"c","at":3.0,"source":{},"seq":3,"data":{}}\n')
    events = follower.poll()
    # The good line after the damage is still delivered...
    assert [event.type for event in events] == ["c"]
    # ...and every skipped line is on the books, attributed to its file.
    stats = follower.stats()
    assert stats["corrupt_lines"] == 3
    assert stats["corrupt_by_file"] == {os.path.basename(spool.path): 3}
    # Counters are cumulative across polls, not reset by them.
    spool.append(Event("d", 4.0, {"pid": 1}, 4, {}))
    assert [event.type for event in follower.poll()] == ["d"]
    assert follower.stats()["corrupt_lines"] == 3
    spool.close()


def test_spool_truncated_mid_line_resumes_at_next_newline(tmp_path):
    spool = SpoolWriter(str(tmp_path), role="w")
    for index in range(3):
        spool.append(Event("tick", float(index), {"pid": 1}, index, {"i": index}))
    follower = SpoolFollower(str(tmp_path))
    assert len(follower.poll()) == 3
    # A fault truncates the file mid-line below the follower's offset and
    # the writer appends again before the next poll, so the size grows
    # *past* the stored offset and the shrink is invisible.  The follower
    # seeks into the middle of the new line: that damaged window is lost
    # (counted corrupt), but the follower resyncs at its newline and
    # everything appended afterwards flows again.
    os.truncate(spool.path, os.path.getsize(spool.path) - 7)
    spool.append(Event("during", 9.0, {"pid": 1}, 9, {}))
    assert follower.poll() == []
    assert follower.stats()["corrupt_lines"] >= 1
    spool.append(Event("after", 10.0, {"pid": 1}, 10, {}))
    assert [event.type for event in follower.poll()] == ["after"]
    spool.close()
