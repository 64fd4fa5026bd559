"""Dynamic batcher: saturation, work-conserving dispatch, idle behavior,
lifecycle."""

import queue
import threading
import time

import pytest

from repro.serve.batcher import BatcherClosed, DynamicBatcher


class RecordingRunner:
    """Doubles each payload; records the batch splits it was handed."""

    def __init__(self, delay: float = 0.0):
        self.batches: list[list] = []
        self.delay = delay

    def __call__(self, payloads, trace=None):
        self.batches.append(list(payloads))
        if self.delay:
            time.sleep(self.delay)
        return [payload * 2 for payload in payloads]


def test_saturated_queue_fills_batches_to_max_batch():
    runner = RecordingRunner()
    batcher = DynamicBatcher(runner, max_batch=4, autostart=False)
    futures = [batcher.submit(i) for i in range(10)]
    batcher.start()
    assert [future.result(timeout=5) for future in futures] == [
        2 * i for i in range(10)
    ]
    batcher.close()
    assert [len(batch) for batch in runner.batches] == [4, 4, 2]
    # FIFO order is preserved across batches.
    assert [payload for batch in runner.batches for payload in batch] == list(
        range(10)
    )


class RecordingQueue(queue.Queue):
    """A request queue that records every timed wait on it."""

    def __init__(self):
        super().__init__()
        self.timed_waits: list[float] = []

    def get(self, block=True, timeout=None):
        if block and timeout is not None:
            self.timed_waits.append(timeout)
        return super().get(block, timeout)


def test_lone_request_on_idle_batcher_runs_alone_at_once():
    runner = RecordingRunner()
    batcher = DynamicBatcher(runner, max_batch=64, autostart=False)
    batcher._queue = RecordingQueue()
    batcher.start()
    assert batcher.submit(21).result(timeout=5) == 42
    assert batcher.submit(5).result(timeout=5) == 10
    batcher.close()
    assert runner.batches == [[21], [5]]
    # The worker blocks only while the queue is empty; it never holds a
    # request on a timer waiting for companions.
    assert batcher._queue.timed_waits == []


def test_requests_queued_behind_a_busy_runner_ride_together_in_edf_order():
    from repro.serve.deadline import Deadline

    entered = threading.Event()
    release = threading.Event()
    batches: list[list] = []

    def gated(payloads, trace=None):
        batches.append(list(payloads))
        if len(batches) == 1:
            entered.set()
            assert release.wait(5)
        return list(payloads)

    batcher = DynamicBatcher(gated, max_batch=4)
    head = batcher.submit("head")
    assert entered.wait(5)  # the only worker is busy with the lone head
    now = time.monotonic()
    # Queued while the runner is blocked, in arrival order.  Gathering
    # stops once the image budget is met (b + c + d = 4 images), EDF
    # packs those least-slack first, and e and f ride in the next batch.
    queued = [
        batcher.submit("b", deadline=Deadline(now + 100.0)),
        batcher.submit("c", deadline=Deadline(now + 10.0)),
        batcher.submit("d", size=2, deadline=Deadline(now + 1.0)),
        batcher.submit("e"),
        batcher.submit("f", deadline=Deadline(now + 50.0)),
    ]
    release.set()
    assert head.result(timeout=5) == "head"
    assert [future.result(timeout=5) for future in queued] == list("bcdef")
    batcher.close()
    assert batches == [["head"], ["d", "c", "b"], ["f", "e"]]


def test_empty_queue_idles_without_runner_calls():
    runner = RecordingRunner()
    batcher = DynamicBatcher(runner, max_batch=4)
    batcher.submit(1).result(timeout=5)
    calls_after_first = len(runner.batches)
    time.sleep(0.1)  # idle: the worker blocks on the queue, no polling
    assert len(runner.batches) == calls_after_first
    assert batcher.pending_images == 0
    batcher.close()


def test_micro_batch_requests_are_atomic_and_carry_over():
    runner = RecordingRunner()
    batcher = DynamicBatcher(runner, max_batch=4, autostart=False)
    sizes = [3, 2, 2, 1]
    futures = [batcher.submit(size, size=size) for size in sizes]
    batcher.start()
    for future, size in zip(futures, sizes):
        assert future.result(timeout=5) == 2 * size
    batcher.close()
    # 3 doesn't fit with 2 -> carry; 2+2 fits; 1 follows alone.
    assert runner.batches == [[3], [2, 2], [1]]


def test_oversized_request_runs_alone():
    runner = RecordingRunner()
    batcher = DynamicBatcher(runner, max_batch=4)
    assert batcher.submit(9, size=9).result(timeout=5) == 18
    batcher.close()
    assert runner.batches == [[9]]


def test_runner_error_propagates_to_every_request_of_the_batch():
    def failing(payloads, trace=None):
        raise ValueError("engine exploded")

    batcher = DynamicBatcher(failing, max_batch=4, autostart=False)
    futures = [batcher.submit(i) for i in range(3)]
    batcher.start()
    for future in futures:
        with pytest.raises(ValueError, match="engine exploded"):
            future.result(timeout=5)
    batcher.close()


def test_close_drain_executes_queued_requests():
    runner = RecordingRunner()
    batcher = DynamicBatcher(runner, max_batch=2, autostart=False)
    futures = [batcher.submit(i) for i in range(5)]
    batcher.start()
    batcher.close(drain=True)
    assert [future.result(timeout=5) for future in futures] == [
        0, 2, 4, 6, 8,
    ]
    assert batcher.pending_images == 0
    with pytest.raises(BatcherClosed):
        batcher.submit(1)


def test_close_without_drain_cancels_queued_requests():
    runner = RecordingRunner()
    batcher = DynamicBatcher(runner, max_batch=2, autostart=False)
    futures = [batcher.submit(i) for i in range(4)]
    batcher.close(drain=False)
    assert all(future.cancelled() for future in futures)
    assert batcher.pending_images == 0


def test_start_after_close_refuses():
    batcher = DynamicBatcher(RecordingRunner(), max_batch=2, autostart=False)
    batcher.close()
    with pytest.raises(BatcherClosed):
        batcher.start()


def test_multiple_workers_execute_batches_concurrently():
    barrier = threading.Barrier(2, timeout=5)

    def runner(payloads, trace=None):
        barrier.wait()  # requires two batches in flight at once
        return list(payloads)

    batcher = DynamicBatcher(runner, max_batch=1, workers=2)
    futures = [batcher.submit(index) for index in range(2)]
    assert [future.result(timeout=5) for future in futures] == [0, 1]
    batcher.close()


def test_multi_worker_close_drains_everything():
    runner = RecordingRunner()
    batcher = DynamicBatcher(
        runner, max_batch=2, workers=3, autostart=False
    )
    futures = [batcher.submit(index) for index in range(7)]
    batcher.start()
    batcher.close(drain=True)
    assert sorted(future.result(timeout=5) for future in futures) == [
        0, 2, 4, 6, 8, 10, 12,
    ]
    assert batcher.pending_images == 0


def test_on_batch_reports_sizes_and_waits():
    reports = []
    runner = RecordingRunner()
    batcher = DynamicBatcher(
        runner,
        max_batch=4,
        on_batch=reports.append,
        autostart=False,
    )
    futures = [batcher.submit(i, size=2) for i in range(3)]
    batcher.start()
    for future in futures:
        future.result(timeout=5)
    batcher.close()
    assert [report.num_images for report in reports] == [4, 2]
    assert [report.num_requests for report in reports] == [2, 1]
    for report in reports:
        assert len(report.queue_waits) == report.num_requests
        assert all(wait >= 0.0 for wait in report.queue_waits)
        assert report.service_seconds >= 0.0


def test_edf_packs_least_slack_first_under_overflow():
    from repro.serve.deadline import Deadline

    runner = RecordingRunner()
    batcher = DynamicBatcher(
        runner, max_batch=4, autostart=False
    )
    now = time.monotonic()
    # Arrival order: roomy deadline, mid deadline, none, nearest (a
    # micro-batch).  Together they gather past max_batch, so packing must
    # choose -- and EDF must choose the request closest to dying.
    batcher.submit("a", size=1, deadline=Deadline(now + 100.0))
    batcher.submit("b", size=1, deadline=Deadline(now + 10.0))
    batcher.submit("c", size=1)
    futures = batcher.submit("d", size=2, deadline=Deadline(now + 1.0))
    batcher.start()
    assert futures.result(timeout=5) == "dd"
    batcher.close()
    # Least slack packs first: d (1s), b (10s), a (100s) fill the image
    # budget; the deadline-less c carries to the next batch.
    assert runner.batches == [["d", "b", "a"], ["c"]]


def test_no_deadline_traffic_packs_in_arrival_order():
    sizes = [3, 2, 2, 1, 4, 1, 1, 2]
    runner = RecordingRunner()
    batcher = DynamicBatcher(runner, max_batch=4, autostart=False)
    futures = [
        batcher.submit(index, size=size) for index, size in enumerate(sizes)
    ]
    batcher.start()
    for future in futures:
        future.result(timeout=5)
    batcher.close()
    # EDF's sort is stable and every key ties at infinity: each batch
    # takes the next requests in arrival order until one does not fit.
    assert runner.batches == [[0], [1, 2], [3], [4], [5, 6, 7]]


def test_untraced_batch_calls_runner_with_trace_none():
    calls = []

    def runner(payloads, trace="not passed"):
        calls.append(trace)
        return list(payloads)

    batcher = DynamicBatcher(runner, max_batch=4)
    assert batcher.submit("x").result(timeout=5) == "x"
    batcher.close()
    assert calls == [None]


def test_draining_close_packs_leftovers_as_the_workers_do():
    """A close(drain=True) of a never-started batcher packs earliest
    deadline first, like the worker path, and still expires the dead."""
    from repro.serve.deadline import Deadline, DeadlineExceeded

    now = 1000.0
    requests = [  # (payload, images, deadline): x and y are already dead
        ("a", 1, None), ("b", 2, now + 50.0), ("x", 1, now - 1.0),
        ("c", 1, now + 5.0), ("d", 2, now + 20.0), ("y", 1, now - 2.0),
        ("e", 1, None), ("f", 3, now + 1.0),
    ]

    def serve(start_workers: bool):
        runner = RecordingRunner()
        batcher = DynamicBatcher(
            runner, max_batch=4, autostart=False, clock=lambda: now
        )
        futures = {
            payload: batcher.submit(
                payload, size=size,
                deadline=Deadline(at) if at is not None else None,
            )
            for payload, size, at in requests
        }
        if start_workers:
            batcher.start()
        batcher.close(drain=True)
        return runner.batches, batcher, futures

    drained, drained_batcher, futures = serve(start_workers=False)
    worked, worked_batcher, _ = serve(start_workers=True)
    assert drained == worked == [["c", "b", "a"], ["f"], ["d", "e"]]
    assert drained_batcher.expired_requests == worked_batcher.expired_requests == 2
    assert drained_batcher.pending_images == 0
    for dead in ("x", "y"):
        with pytest.raises(DeadlineExceeded):
            futures[dead].result(timeout=5)
    assert futures["f"].result(timeout=5) == "ff"
