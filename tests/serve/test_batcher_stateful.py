"""Stateful property test: the dynamic batcher's accounting is exact.

A ``RuleBasedStateMachine`` drives a *real* started ``DynamicBatcher``
(worker threads, real queue, real timing) through arbitrary interleavings
of submits (including oversized micro-batches), idle waits, and a final
drain-on-close, with a recording runner.  The invariants checked at
teardown are timing-independent -- however the worker happened to split
batches:

* every submitted request executed in **exactly one** batch (atomic: a
  request is never split, never duplicated, never lost);
* every batch respects ``max_batch`` unless it is a single oversized
  request (which must run alone);
* every future resolved exactly once, with its own request's result;
* after ``close(drain=True)`` nothing is left pending.
"""

from __future__ import annotations

import threading

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.serve.batcher import BatcherClosed, DynamicBatcher
from tests.strategies import STATE_MACHINE_SETTINGS, request_sizes

MAX_BATCH = 8


class BatcherMachine(RuleBasedStateMachine):
    @initialize(workers=st.integers(min_value=1, max_value=3))
    def setup(self, workers):
        self.batches: list[list[tuple[int, int]]] = []
        self.batches_lock = threading.Lock()

        def runner(payloads, trace=None):
            with self.batches_lock:
                self.batches.append(list(payloads))
            return [("result", payload[0]) for payload in payloads]

        self.batcher = DynamicBatcher(
            runner,
            max_batch=MAX_BATCH,
            workers=workers,
            name="stateful",
        )
        self.next_id = 0
        self.submitted: dict[int, tuple[int, object]] = {}  # id -> (size, fut)

    @rule(size=request_sizes(max_size=MAX_BATCH + 3))
    def submit(self, size):
        request_id = self.next_id
        self.next_id += 1
        future = self.batcher.submit((request_id, size), size=size)
        self.submitted[request_id] = (size, future)

    @rule()
    def let_workers_run(self):
        # A tiny real-time window in which workers may assemble batches at
        # whatever split the clock produces -- the invariants must hold
        # for all of them.
        import time

        time.sleep(0.002)

    def teardown(self):
        if not hasattr(self, "batcher"):
            return
        self.batcher.close(drain=True, timeout=30.0)
        try:
            self.batcher.submit((-1, 1), size=1)
        except BatcherClosed:
            pass
        else:  # pragma: no cover - contract violation
            raise AssertionError("submit accepted after close")
        assert self.batcher.pending_images == 0

        executed: dict[int, int] = {}
        for batch in self.batches:
            images = sum(size for _id, size in batch)
            assert len(batch) == 1 or images <= MAX_BATCH, (
                f"multi-request batch of {images} images exceeds "
                f"max_batch={MAX_BATCH}: {batch}"
            )
            for request_id, _size in batch:
                executed[request_id] = executed.get(request_id, 0) + 1

        for request_id, (size, future) in self.submitted.items():
            assert executed.get(request_id) == 1, (
                f"request {request_id} executed "
                f"{executed.get(request_id, 0)} times"
            )
            assert future.done(), f"request {request_id} future unresolved"
            assert future.result(timeout=0) == ("result", request_id)
        assert set(executed) == set(self.submitted), (
            "runner saw requests that were never submitted"
        )


TestBatcherMachine = BatcherMachine.TestCase
TestBatcherMachine.settings = STATE_MACHINE_SETTINGS
