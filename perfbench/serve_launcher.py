"""Traced launch of ``repro.cli serve`` for the ``serve-http`` workload.

Usage: ``python perfbench/serve_launcher.py OUT.json serve MODEL [options]``

Wraps the serving layers' public calls -- ``DynamicBatcher.submit`` and
its ``on_batch`` hook, ``EnginePool.runner_for``,
``AdmissionController.try_admit``, ``QuantizedModel.forward`` and
``NBSMTEngine.matmul`` -- then runs the unmodified CLI in this process.
Every record is a timestamp on ``time.monotonic()`` (one clock for every
process on the machine), so the load generator can line them up with its
own request times.  Records stay in memory and are written to ``OUT.json``
when the server shuts down.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import benchlib


def install(records: dict) -> None:
    from repro.core.engine import NBSMTEngine
    from repro.quant.qmodel import QuantizedModel
    from repro.serve.batcher import DynamicBatcher
    from repro.serve.pool import EnginePool
    from repro.serve.registry import AdmissionController

    submits, batches, runs = records["submits"], records["batches"], records["runs"]
    forwards, engine, admits = records["forwards"], records["engine"], records["admits"]

    submit = DynamicBatcher.submit

    def traced_submit(self, payload, size=1, deadline=None, trace=None):
        entry = [getattr(trace, "trace_id", None), time.monotonic(), None, size]
        submits.append(entry)
        future = submit(self, payload, size=size, deadline=deadline, trace=trace)
        future.add_done_callback(
            lambda _future, entry=entry: entry.__setitem__(2, time.monotonic())
        )
        return future

    init = DynamicBatcher.__init__

    def traced_init(self, runner, *, on_batch=None, **kwargs):
        def traced_on_batch(report):
            batches.append([time.monotonic(), report.num_images,
                            report.service_seconds, list(report.queue_waits)])
            if on_batch is not None:
                on_batch(report)

        init(self, runner, on_batch=traced_on_batch, **kwargs)

    runner_for = EnginePool.runner_for

    def traced_runner_for(self, endpoint, metrics=None, with_point=False):
        run_batch = runner_for(self, endpoint, metrics=metrics,
                               with_point=with_point)

        def traced_run_batch(payloads, trace=None):
            started = time.monotonic()
            results = run_batch(payloads, trace=trace)
            runs.append([started, time.monotonic(),
                         sum(int(p.shape[0]) for p in payloads)])
            return results

        return traced_run_batch

    try_admit = AdmissionController.try_admit

    def traced_try_admit(self, images=1):
        admitted = try_admit(self, images)
        admits.append([time.monotonic(), bool(admitted)])
        return admitted

    forward = QuantizedModel.forward

    def traced_forward(self, images):
        started = time.monotonic()
        out = forward(self, images)
        forwards.append([started, time.monotonic(), int(images.shape[0])])
        return out

    matmul = NBSMTEngine.matmul

    def traced_matmul(self, x_q, w_q, ctx):
        started = time.monotonic()
        out = matmul(self, x_q, w_q, ctx)
        engine.append([ctx.name, started, time.monotonic(),
                       int(x_q.shape[0]) * int(x_q.shape[1]) * int(w_q.shape[1])])
        return out

    DynamicBatcher.submit = traced_submit
    DynamicBatcher.__init__ = traced_init
    EnginePool.runner_for = traced_runner_for
    AdmissionController.try_admit = traced_try_admit
    QuantizedModel.forward = traced_forward
    NBSMTEngine.matmul = traced_matmul


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    records: dict = {name: [] for name in
                     ("submits", "batches", "runs", "forwards", "engine", "admits")}
    install(records)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        benchlib.write_json(out, records)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
