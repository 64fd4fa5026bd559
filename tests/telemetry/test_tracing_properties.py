"""Property tests: span trees stay well-formed under concurrent batching.

Two layers of invariants:

* **Pure tree machinery** -- for any forest of spans whose parents exist,
  :func:`build_tree` places every span exactly once, promotes nothing to
  an orphan, and orders children by start time.
* **The live batcher** -- requests traced through a concurrent
  :class:`DynamicBatcher` (several workers, racing batches) always yield
  per-trace span trees with a single root, acyclic parent chains, no
  orphans, and child intervals inside their parent's (small epsilon for
  the wall/monotonic clock stitch).
"""

from __future__ import annotations

import os
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serve.batcher import DynamicBatcher
from repro.telemetry.tracing import (
    Tracer,
    build_tree,
    group_spans,
    summarize_trace,
)
from tests.strategies import QUICK_SETTINGS, STANDARD_SETTINGS

pytestmark = pytest.mark.trace

#: Queue-wait spans stitch a monotonic duration onto a wall-clock start,
#: so containment checks allow this much slack (seconds).
CLOCK_EPSILON = 0.05


# -- pure tree machinery ---------------------------------------------------

@st.composite
def span_forests(draw):
    """A forest: every parent id points at an earlier span (or None)."""
    count = draw(st.integers(min_value=1, max_value=24))
    spans = []
    for index in range(count):
        parent = None
        if index and draw(st.booleans()):
            parent = spans[draw(st.integers(0, index - 1))]["span_id"]
        spans.append({
            "trace_id": "t",
            "span_id": f"s{index}",
            "parent_id": parent,
            "name": f"n{index}",
            "start": draw(st.floats(0.0, 100.0, allow_nan=False,
                                    allow_infinity=False)),
            "duration_ms": draw(st.floats(0.0, 1000.0, allow_nan=False,
                                          allow_infinity=False)),
            "status": "ok",
        })
    return spans


def _flatten(nodes):
    for node in nodes:
        yield node["span"]
        yield from _flatten(node["children"])


@QUICK_SETTINGS
@given(spans=span_forests())
def test_build_tree_places_every_span_exactly_once(spans):
    roots = build_tree(spans)
    seen = [s["span_id"] for s in _flatten(roots)]
    assert sorted(seen) == sorted(s["span_id"] for s in spans)
    assert len(seen) == len(set(seen))
    # Parents all exist, so nothing was promoted to an orphan.
    assert not any(s.get("orphan") for s in _flatten(roots))
    expected_roots = sum(1 for s in spans if s["parent_id"] is None)
    assert len(roots) == expected_roots


@QUICK_SETTINGS
@given(spans=span_forests())
def test_children_are_ordered_by_start(spans):
    def check(nodes):
        starts = [n["span"]["start"] for n in nodes]
        assert starts == sorted(starts)
        for node in nodes:
            check(node["children"])

    check(build_tree(spans))


@QUICK_SETTINGS
@given(spans=span_forests())
def test_group_and_summarize_are_total(spans):
    grouped = group_spans(spans)
    assert list(grouped) == ["t"]
    summary = summarize_trace("t", grouped["t"])
    assert summary["spans"] == len(spans)
    assert summary["duration_ms"] >= 0.0
    # Every span's interval sits inside the summary's envelope.
    t0 = summary["start"]
    t1 = t0 + summary["duration_ms"] / 1000.0
    for span in spans:
        assert span["start"] >= t0 - 1e-9
        assert span["start"] + span["duration_ms"] / 1000.0 <= t1 + 1e-6


# -- the live batcher ------------------------------------------------------

class Collector:
    def __init__(self):
        self.spans: list[dict] = []

    def __call__(self, type, **data):
        self.spans.append(data)  # list.append is atomic; workers race here


def _engine_runner(payloads, trace=None):
    """A fake engine: fills the trace carrier like a real replica does."""
    now = time.time()
    if trace is not None:
        trace["engine"] = {
            "start": now,
            "duration_s": 0.002,
            "pid": os.getpid(),
            "level": 0,
            "layers": [("conv1", now, 0.001), ("fc", now + 0.001, 0.001)],
        }
    return payloads


def _assert_well_formed(trace_id, spans):
    by_id = {s["span_id"]: s for s in spans}
    roots = [s for s in spans if s["parent_id"] is None]
    assert len(roots) == 1, f"{trace_id}: roots {[r['name'] for r in roots]}"
    root = roots[0]

    # Acyclic: every parent chain reaches the root in <= len(spans) hops,
    # and no parent id dangles (no orphans).
    for span in spans:
        hops = 0
        current = span
        while current["parent_id"] is not None:
            assert current["parent_id"] in by_id, \
                f"{trace_id}: {current['name']} orphaned"
            current = by_id[current["parent_id"]]
            hops += 1
            assert hops <= len(spans), f"{trace_id}: parent cycle"
        assert current is root

    # Child intervals sit inside their parent's (clock-stitch epsilon).
    for span in spans:
        parent = by_id.get(span["parent_id"] or "")
        if parent is None:
            continue
        assert span["start"] >= parent["start"] - CLOCK_EPSILON
        span_end = span["start"] + span["duration_ms"] / 1000.0
        parent_end = parent["start"] + parent["duration_ms"] / 1000.0
        assert span_end <= parent_end + CLOCK_EPSILON

    assert not any(n.get("orphan") for n in spans)


@STANDARD_SETTINGS
@given(
    requests=st.integers(min_value=1, max_value=10),
    max_batch=st.integers(min_value=1, max_value=6),
    workers=st.integers(min_value=1, max_value=3),
)
def test_concurrent_batching_yields_well_formed_trees(
    requests, max_batch, workers
):
    out = Collector()
    tracer = Tracer(publish=out, sample_rate=1.0)
    batcher = DynamicBatcher(
        _engine_runner,
        max_batch=max_batch,
        workers=workers,
        tracer=tracer,
        name="prop",
    )
    try:
        contexts, roots, futures = [], [], []
        for index in range(requests):
            context = tracer.trace()
            root = tracer.start_span(
                context, "request", root=True, endpoint="prop"
            )
            futures.append(batcher.submit([index], trace=context))
            contexts.append(context)
            roots.append(root)
        for future, root, index in zip(futures, roots, range(requests)):
            assert future.result(timeout=30) == [index]
            root.finish()
    finally:
        batcher.close()

    grouped = group_spans(out.spans)
    assert len(grouped) == requests  # every trace id distinct + present
    for context in contexts:
        spans = grouped[context.trace_id]
        names = [s["name"] for s in spans]
        for required in ("request", "queue_wait", "batch",
                         "engine_compute", "layer:conv1", "layer:fc"):
            assert required in names, f"missing {required} in {names}"
        _assert_well_formed(context.trace_id, spans)

    # Batches that carried several traced requests link their peers.
    for spans in grouped.values():
        batch_span = next(s for s in spans if s["name"] == "batch")
        for link in batch_span.get("links", []):
            assert link["span_id"] != batch_span["parent_id"]
            assert link["trace_id"] in grouped
