"""Fixtures for the chaos lane (the serving provider around the tiny
harness), and ``closed_loop_capacity``, which tests import to size their
drives from the host's speed."""

from __future__ import annotations

import time

import pytest

from tests.serve.conftest import TinyHarnessProvider


@pytest.fixture
def tiny_provider(tiny_harness) -> TinyHarnessProvider:
    return TinyHarnessProvider(tiny_harness)


def closed_loop_capacity(stack, seconds=0.5):
    """Single-image requests per second the stack completes when it always
    has two full batches outstanding (no admission, no deadlines)."""
    images = stack.images
    window = 2 * stack.spec.max_batch
    pending = []
    completed = 0
    index = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        while len(pending) < window:
            at = index % images.shape[0]
            pending.append(stack.batcher.submit(images[at : at + 1], size=1))
            index += 1
        pending.pop(0).result(timeout=30.0)
        completed += 1
    elapsed = time.perf_counter() - started
    for future in pending:
        future.result(timeout=30.0)
    return completed / elapsed
