"""Chaos conformance for tracing (PR 10): a trace survives a replica kill.

Degradation contract: **a traced request whose replica is reaped still
ends as one complete, well-formed trace** -- the failed attempt's spans
carry the error and the ``replica_respawn`` gap annotation, the retried
attempt (same trace id, as a client re-sending its ``X-Trace-Id`` would)
carries the full engine subtree, and no span is orphaned.

The fault is seeded (same victims every run) and the kill happens
before the submit, so the first batch deterministically hits a dead
worker.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.chaos.actors import ProcessReaper
from repro.chaos.invariants import InvariantChecker
from repro.eval.parallel import fork_available
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.tracing import SPAN_EVENT, Tracer, build_tree, group_spans

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.trace,
    pytest.mark.skipif(
        not fork_available(), reason="fork start method unavailable"
    ),
]

SEED = 20260809


def _make_stack(tiny_harness, tiny_provider, **overrides):
    from repro.chaos.drive import ServingStack
    from repro.serve.server import ServeConfig

    params = dict(
        config=ServeConfig(fork_workers=2),
        threads=2,
        max_batch=8,
        max_pending=32,
        provider=tiny_provider,
        images=tiny_harness.eval_images,
    )
    params.update(overrides)
    return ServingStack(**params)


def test_traced_request_survives_replica_kill(tiny_harness, tiny_provider):
    stack = _make_stack(tiny_harness, tiny_provider)
    reaper = ProcessReaper(random.Random(SEED))
    checker = InvariantChecker()

    bus = TelemetryBus(role="chaos")
    spans: list[dict] = []
    bus.subscribe(
        callback=lambda event: spans.append(dict(event.data)),
        types={SPAN_EVENT},
    )
    tracer = Tracer(publish=bus.publish, sample_rate=1.0)
    stack.batcher.tracer = tracer

    image = stack.images[:1]
    try:
        # -- healthy baseline: the stack serves before the fault --------
        warm = stack.batcher.submit(image).result(timeout=120)
        checker.check("warm_served", warm is not None, "no baseline result")

        # -- fault: reap every worker, then send ONE traced request -----
        pids = stack.replica_pids()
        checker.check("had_workers", len(pids) >= 2, f"pids {pids}")
        for pid in pids:
            reaper.kill(pid)

        context = tracer.trace()
        root = tracer.start_span(
            context, "request", root=True, endpoint=stack.spec.name
        )
        attempts = 0
        deadline = time.monotonic() + 120.0
        result = None
        while time.monotonic() < deadline:
            attempts += 1
            try:
                result = stack.batcher.submit(image, trace=context).result(
                    timeout=120
                )
                break
            except RuntimeError:
                # A client retry re-sends the same X-Trace-Id: the retry
                # rides the same trace, so the final waterfall shows the
                # respawn gap it survived.
                continue
        root.finish()
        checker.check("request_survived", result is not None,
                      f"no result after {attempts} attempts")

        # -- one complete trace ------------------------------------------
        grouped = group_spans(spans)
        checker.check(
            "one_trace", list(grouped) == [context.trace_id],
            f"traces {list(grouped)}",
        )
        trace = grouped.get(context.trace_id, [])
        names = [s["name"] for s in trace]
        for required in ("request", "queue_wait", "batch", "engine_compute"):
            checker.check(f"has_{required}", required in names,
                          f"names {names}")
        checker.check(
            "has_layers", any(n.startswith("layer:") for n in names),
            f"names {names}",
        )

        # -- the respawn gap is annotated in-trace -----------------------
        respawns = [s for s in trace if s["name"] == "replica_respawn"]
        checker.check("respawn_annotated", len(respawns) >= 1,
                      f"names {names}, attempts {attempts}")
        if respawns:
            checker.check(
                "respawn_marked_error",
                all(s.get("status") == "error" for s in respawns),
                f"respawns {respawns}",
            )
            checker.check(
                "respawn_names_the_victim",
                all(s.get("pid") in pids or s.get("pid") is None
                    for s in respawns),
                f"respawns {respawns}, victims {pids}",
            )

        # -- failed attempts are visible, not vanished -------------------
        failed_batches = [
            s for s in trace
            if s["name"] == "batch" and s.get("status") == "error"
        ]
        checker.check(
            "failed_attempt_traced",
            attempts == 1 or len(failed_batches) >= 1,
            f"attempts {attempts}, batch statuses "
            f"{[s.get('status') for s in trace if s['name'] == 'batch']}",
        )

        # -- well-formed: single root, no orphans, no dangling parents ---
        by_id = {s["span_id"]: s for s in trace}
        roots = [s for s in trace if not s.get("parent_id")]
        checker.check("single_root", [r["name"] for r in roots] == ["request"],
                      f"roots {[r['name'] for r in roots]}")
        dangling = [
            s["name"] for s in trace
            if s.get("parent_id") and s["parent_id"] not in by_id
        ]
        checker.check("no_orphans", dangling == [], f"dangling {dangling}")
        tree = build_tree(trace)
        checker.check(
            "tree_has_one_root_node", len(tree) == 1,
            f"tree roots {[n['span']['name'] for n in tree]}",
        )

        # -- the successful attempt computed in a (respawned) worker -----
        engines = [s for s in trace if s["name"] == "engine_compute"]
        checker.check(
            "engine_ran_in_a_worker",
            any(s.get("pid") not in (None, os.getpid()) for s in engines),
            f"engine pids {[s.get('pid') for s in engines]}",
        )
        checker.assert_all()
    finally:
        stack.close()
