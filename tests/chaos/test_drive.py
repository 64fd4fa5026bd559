"""The chaos serving stacks run the production endpoint wiring (tier-1).

:class:`~repro.chaos.drive.ServingStack` is a real ``NBSMTServer`` without
a listener: its batcher, metrics and governor are the ones the server's
own endpoint assembly built, so the chaos and soak lanes measure what
production runs.
"""

from __future__ import annotations

import time

from repro.chaos.drive import ServingStack
from repro.telemetry import bus as telemetry_bus


def test_serving_stack_carries_the_production_wiring(
    tiny_harness, tiny_provider
):
    stack = ServingStack(
        threads=2,
        max_batch=4,
        provider=tiny_provider,
        images=tiny_harness.eval_images,
    )
    name = stack.spec.name
    bus = telemetry_bus.get_bus()
    served = []

    def callback(event):
        if event.type == "batch_served":
            served.append(event)

    bus.subscribe(callback=callback)
    try:
        server = stack.server
        assert stack.batcher is server.batchers[name]
        assert stack.metrics is server.metrics.endpoint(name)
        assert stack.admission is stack.registry.admission(name)
        assert server.governors[name].batcher is stack.batcher
        assert stack.batcher.tracer is server.tracer is not None
        assert stack.batcher.workers == stack.pool.replica_count(name)

        logits, level = stack.batcher.submit(
            stack.images[:1], size=1
        ).result(timeout=120)
        assert logits.shape[0] == 1 and level == 0
        deadline = time.monotonic() + 10.0
        while not served and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [(e.data["endpoint"], e.data["images"]) for e in served] == [
            (name, 1)
        ]
    finally:
        bus.unsubscribe(callback)
        stack.close()
