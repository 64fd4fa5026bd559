"""One evaluation process of the ``eval-4t`` / ``eval-2t`` workloads.

Started fresh by ``run.py`` so that its set-up (imports, checkpoint load,
calibration, one untimed pass) and its peak RSS belong to it alone.  It
runs a closed loop of ``SysmtHarness.evaluate_nbsmt`` passes over the
seed-ordered validation images, checks every pass against the recorded
digests in ``golden.json`` and writes its measurements to ``--out``.

With ``--trace 1`` the passes run through a recording ``NBSMTEngine``
(passed as ``evaluate_nbsmt(engine=...)``) and a timed model forward, so
the pass time splits into harness, quantized-model and engine self time.
Spans stay in memory and are written to ``--spans`` at exit.
"""

from __future__ import annotations

import time

T_STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
from pathlib import Path  # noqa: E402

import benchlib  # noqa: E402

MODEL = "resnet18"
POLICY = "S+A"
#: The fast experiment scale's harness configuration.
CALIBRATION_IMAGES = 128
BATCH_SIZE = 64


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--images", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds of timed passes (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--record", action="store_true",
                        help="write the warm pass's digests instead of "
                        "checking them (regenerates golden.json entries)")
    return parser.parse_args(argv)


def pass_digests(logits, accuracy, layer_stats) -> dict:
    from repro.serve.conformance import logits_digest

    return {
        "logits_sha256": logits_digest(logits),
        "accuracy": accuracy,
        "layer_stats": {
            name: stats.to_payload() for name, stats in sorted(layer_stats.items())
        },
    }


def mismatches(found: dict, expected: dict) -> list[str]:
    problems = []
    for key in ("logits_sha256", "accuracy"):
        if found[key] != expected[key]:
            problems.append(f"{key} {found[key]!r} != {expected[key]!r}")
    if json.loads(json.dumps(found["layer_stats"])) != expected["layer_stats"]:
        problems.append("per-layer SMTStatistics counters differ")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import numpy as np

    benchlib.guard_training()
    from repro.core.engine import NBSMTEngine
    from repro.eval.harness import SysmtHarness
    from repro.models.zoo import load_trained_model

    workload = f"eval-{args.threads}t"
    expected = None
    if not args.record:
        expected = json.loads(benchlib.GOLDEN.read_text())[workload]

    trained = load_trained_model(MODEL, fast=True)
    order = np.random.default_rng(args.seed).permutation(args.images)
    images = trained.dataset.val_images[: args.images][order]
    labels = trained.dataset.val_labels[: args.images][order]
    harness = SysmtHarness(
        trained,
        eval_images=images,
        eval_labels=labels,
        max_eval_images=args.images,
        calibration_images=CALIBRATION_IMAGES,
        batch_size=BATCH_SIZE,
    )
    batches = math.ceil(args.images / BATCH_SIZE)

    # The model forward is the one call every pass makes per batch; keeping
    # its output is how the logits reach the digest check.
    spans: list[tuple] = []
    outputs: list = []
    model = trained.model
    forward = model.forward

    def kept_forward(x):
        started = time.monotonic()
        y = forward(x)
        if args.trace:
            spans.append(("quant.qmodel", "", started, time.monotonic(),
                          int(x.shape[0])))
        outputs.append(y)
        return y

    model.forward = kept_forward

    class RecordingEngine(NBSMTEngine):
        def matmul(self, x_q, w_q, ctx):
            started = time.monotonic()
            out = super().matmul(x_q, w_q, ctx)
            spans.append(("core.engine", ctx.name, started, time.monotonic(),
                          int(x_q.shape[0]) * int(x_q.shape[1]) * int(w_q.shape[1])))
            return out

    references: list[float] = []
    reference_wall = [0.0]

    def reference() -> None:
        # A reference sample around every timed pass tracks the host's core
        # speed through the run (see benchlib.reference_cpu_s).
        started = time.monotonic()
        references.append(benchlib.reference_cpu_s())
        reference_wall[0] += time.monotonic() - started

    def one_pass() -> tuple[float, float, dict]:
        outputs.clear()
        engine = RecordingEngine(POLICY, collect_stats=True) if args.trace else None
        cpu_started = time.process_time()
        started = time.monotonic()
        result = harness.evaluate_nbsmt(threads=args.threads, policy=POLICY,
                                        engine=engine)
        ended = time.monotonic()
        cpu_s = time.process_time() - cpu_started
        if args.trace:
            spans.append(("eval.harness", "", started, ended, args.images))
        # The first pass also runs the harness's MAC-count probe forward;
        # the evaluation batches come first.
        logits = np.empty((args.images, outputs[0].shape[1]), dtype=np.float32)
        logits[order] = np.vstack(outputs[:batches])
        return ended - started, cpu_s, pass_digests(logits, result.accuracy,
                                                    result.layer_stats)

    warm_seconds, _, warm_digests = one_pass()
    record: dict = {"warm_pass_s": warm_seconds}
    if args.record:
        record["digests"] = warm_digests
    else:
        record["warm_problems"] = mismatches(warm_digests, expected)
    t_warm = time.monotonic()
    record["t_started"] = T_STARTED
    record["t_warm"] = t_warm
    spans.clear()

    # Start another pass unless it would end more than half a pass past the
    # budget, so the timed window matches the budget to within half a pass.
    # Requiring whole passes to fit would leave a third of a 15 s eval-2t
    # budget unmeasured, since its passes take about 5 s.
    passes = []
    window_start = time.monotonic()
    last = warm_seconds
    while not passes or (time.monotonic() - window_start) + last / 2 <= args.budget:
        reference()
        last, cpu_s, digests = one_pass()
        problems = [] if args.record else mismatches(digests, expected)
        passes.append({"seconds": last, "cpu_s": cpu_s, "images": args.images,
                       "problems": problems})
    window_end = time.monotonic()
    window_references_s = reference_wall[0]
    reference()

    record.update(
        passes=passes,
        reference_s=references,
        window_s=window_end - window_start,
        vm_hwm_mb=benchlib.vm_hwm_mb(),
        blas_threads=benchlib.blas_threads(),
    )
    if args.trace:
        record["trace"] = summarize(
            spans, window_end - window_start - window_references_s)
        if args.spans:
            benchlib.write_json(Path(args.spans), spans)
    benchlib.write_json(Path(args.out), record)
    return 0


def summarize(spans: list[tuple], window_s: float) -> dict:
    """Busy time per layer over the timed passes (seconds, counts)."""
    engine = [s for s in spans if s[0] == "core.engine"]
    forwards = [s for s in spans if s[0] == "quant.qmodel"]
    passes = [s for s in spans if s[0] == "eval.harness"]
    per_layer: dict[str, float] = {}
    for _, name, start, end, _ in engine:
        per_layer[name] = per_layer.get(name, 0.0) + (end - start)
    engine_s = sum(end - start for _, _, start, end, _ in engine)
    forward_s = sum(end - start for _, _, start, end, _ in forwards)
    pass_s = sum(end - start for _, _, start, end, _ in passes)
    return {
        "window_s": window_s,
        "passes": len(passes),
        "images": sum(s[4] for s in passes),
        "forwards": len(forwards),
        "engine_calls": len(engine),
        "engine_macs": sum(s[4] for s in engine),
        "engine_s": engine_s,
        "layer_engine_s": per_layer,
        "qmodel_self_s": forward_s - engine_s,
        "harness_self_s": pass_s - forward_s,
    }


if __name__ == "__main__":
    raise SystemExit(main())
