"""Golden-trace serving conformance: pin the engines at every ladder rung.

The serving subsystem promises that *what* is computed never depends on
*how* it is served: at any fixed operating point, batched serving is
bit-identical to ``SysmtHarness.evaluate_nbsmt`` under that point's thread
assignment.  This module makes the promise checkable against history, not
just against the current code: it builds a deterministic reference stack
(a tiny CNN trained from fixed seeds on a fixed synthetic dataset, the
same recipe the test suite's ``tiny_harness`` uses) and records, for every
rung of its throttle ladder, the logits digest, the accuracy and the exact
per-layer :class:`~repro.core.smt.SMTStatistics` counters.

The committed fixture (``tests/serve/golden/tinynet_ladder.json``) turns
quantization/engine regressions into loud tier-1 failures instead of
silently shifted accuracy: any change to calibration, packing, the
factorized fast paths or the statistics contraction that alters a single
logit bit or counter shows up as a digest/counter diff at the offending
rung.

Regenerate after an *intentional* numerical change::

    PYTHONPATH=src python -m repro.serve.conformance \
        --write tests/serve/golden/tinynet_ladder.json

The digests hash raw float32 logits bytes, so they are pinned to this
container's numpy/BLAS; the statistics counters are integers (plus two
repr-round-tripped float sums) and are stable anywhere.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.engine import NBSMTEngine
from repro.eval.throttle import OperatingLadder, operating_ladder

SCHEMA_VERSION = 1

#: Engine configuration of the conformance stack (the paper's 4T operating
#: regime with the S+A policy; the ladder slows the top-MSE layers to 2T).
BASE_THREADS = 4
SLOW_THREADS = 2
LADDER_RUNGS = 3
POLICY = "S+A"


def default_fixture_path() -> Path:
    """``tests/serve/golden/tinynet_ladder.json`` at the repo root."""
    return (
        Path(__file__).resolve().parents[3]
        / "tests"
        / "serve"
        / "golden"
        / "tinynet_ladder.json"
    )


# ---------------------------------------------------------------------------
# Deterministic reference stack (the test suite's tiny harness, importable)
# ---------------------------------------------------------------------------


def reference_dataset():
    """The tiny synthetic dataset the conformance model trains on."""
    from repro.nn import SyntheticImageDataset
    from repro.nn.data import DatasetConfig

    return SyntheticImageDataset(
        DatasetConfig(
            train_size=256, val_size=96, image_size=16, num_classes=6, seed=7
        )
    )


def reference_model(dataset):
    """The tiny CNN, trained for three epochs from fixed seeds."""
    from repro.nn import (
        GlobalAvgPool2d,
        Linear,
        MaxPool2d,
        Sequential,
        TrainConfig,
        Trainer,
    )
    from repro.nn.layers.combine import conv_bn_relu

    model = Sequential(
        conv_bn_relu(3, 8, 3, seed=11),
        MaxPool2d(2),
        conv_bn_relu(8, 16, 3, seed=12),
        conv_bn_relu(16, 16, 3, seed=13),
        MaxPool2d(2),
        GlobalAvgPool2d(),
        Linear(16, dataset.num_classes, seed=14),
    )
    trainer = Trainer(model, TrainConfig(epochs=3, batch_size=64, lr=0.1, seed=3))
    trainer.fit(
        dataset.train_images,
        dataset.train_labels,
        dataset.val_images,
        dataset.val_labels,
    )
    return model


def reference_trained():
    """The reference model wrapped as a zoo ``TrainedModel`` entry."""
    from repro.models.zoo import TrainedModel
    from repro.nn.train import evaluate_accuracy

    dataset = reference_dataset()
    model = reference_model(dataset)
    accuracy = evaluate_accuracy(model, dataset.val_images, dataset.val_labels)
    return TrainedModel(
        name="tinynet",
        model=model,
        dataset=dataset,
        fp32_accuracy=accuracy,
        train_config={},
    )


def reference_harness():
    """The calibrated harness the traces (and the test suite) run on."""
    from repro.eval.harness import SysmtHarness

    return SysmtHarness(
        reference_trained(),
        max_eval_images=96,
        calibration_images=96,
        batch_size=48,
    )


def reference_ladder(harness) -> OperatingLadder:
    """The conformance throttle ladder (measured accuracy per rung)."""
    return operating_ladder(
        harness,
        base_threads=BASE_THREADS,
        slow_threads=SLOW_THREADS,
        rungs=LADDER_RUNGS,
        policy=POLICY,
        measure_accuracy=True,
    )


# ---------------------------------------------------------------------------
# Trace computation
# ---------------------------------------------------------------------------


def trace_run(harness, threads, policy: str = POLICY):
    """Logits, per-layer stats and accuracy of one fixed-point run.

    Exactly the configuration sequence ``evaluate_nbsmt`` applies, but
    keeping the logits: the evaluation set is forwarded in the harness's
    batch partition, so serving the same images through a ``max_batch ==
    batch_size`` batcher coalesces into the identical engine calls.
    """
    engine = NBSMTEngine(policy, collect_stats=True)
    qmodel = harness.qmodel
    qmodel.set_threads(dict(threads) if not isinstance(threads, int) else threads)
    harness.clear_permutations()
    qmodel.set_engine(engine)
    qmodel.clear_stats()
    blocks = []
    images = harness.eval_images
    for start in range(0, images.shape[0], harness.batch_size):
        blocks.append(qmodel.forward(images[start : start + harness.batch_size]))
    logits = np.vstack(blocks)
    accuracy = float((logits.argmax(axis=1) == harness.eval_labels).mean())
    return logits, dict(engine.layer_stats), accuracy


def logits_digest(logits: np.ndarray) -> str:
    """SHA-256 over the raw float32 logits bytes (C-contiguous)."""
    data = np.ascontiguousarray(logits.astype(np.float32, copy=False))
    return hashlib.sha256(data.tobytes()).hexdigest()


def _dataset_digest(harness) -> str:
    data = np.ascontiguousarray(harness.eval_images.astype(np.float32))
    return hashlib.sha256(data.tobytes()).hexdigest()


def compute_traces(harness=None) -> dict:
    """The full golden-trace fixture document for the reference stack."""
    if harness is None:
        harness = reference_harness()
    ladder = reference_ladder(harness)
    rungs = []
    for point in ladder.points:
        logits, layer_stats, accuracy = trace_run(harness, point.threads)
        rungs.append(
            {
                "level": point.level,
                "slowed_layers": list(point.slowed_layers),
                "threads": dict(point.threads),
                "expected_speedup": point.expected_speedup,
                "expected_mse": point.expected_mse,
                "accuracy": accuracy,
                "logits_shape": list(logits.shape),
                "logits_sha256": logits_digest(logits),
                "layer_stats": {
                    name: stats.to_payload()
                    for name, stats in layer_stats.items()
                },
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "model": "tinynet",
        "policy": POLICY,
        "base_threads": BASE_THREADS,
        "slow_threads": SLOW_THREADS,
        "eval_images": int(harness.eval_images.shape[0]),
        "batch_size": int(harness.batch_size),
        "numpy_version": np.__version__,
        "eval_images_sha256": _dataset_digest(harness),
        "rungs": rungs,
    }


def verify_traces(fixture: dict, harness=None) -> list[str]:
    """Diff live engine output against a fixture; returns mismatches.

    An empty list means every rung reproduced its committed logits digest,
    accuracy and per-layer statistics counters bit-for-bit.
    """
    if harness is None:
        harness = reference_harness()
    mismatches: list[str] = []
    if fixture.get("schema_version") != SCHEMA_VERSION:
        mismatches.append(
            f"schema version {fixture.get('schema_version')} != {SCHEMA_VERSION}"
        )
        return mismatches
    if _dataset_digest(harness) != fixture["eval_images_sha256"]:
        mismatches.append(
            "evaluation images differ from the fixture's dataset "
            "(the synthetic data pipeline changed)"
        )
        return mismatches
    for rung in fixture["rungs"]:
        label = f"rung {rung['level']} (slowed={rung['slowed_layers']})"
        logits, layer_stats, accuracy = trace_run(harness, rung["threads"])
        digest = logits_digest(logits)
        if digest != rung["logits_sha256"]:
            mismatches.append(
                f"{label}: logits digest {digest[:12]}... != "
                f"{rung['logits_sha256'][:12]}..."
            )
        if accuracy != rung["accuracy"]:
            mismatches.append(
                f"{label}: accuracy {accuracy} != {rung['accuracy']}"
            )
        live = {name: stats.to_payload() for name, stats in layer_stats.items()}
        expected = rung["layer_stats"]
        if set(live) != set(expected):
            mismatches.append(
                f"{label}: layer set {sorted(live)} != {sorted(expected)}"
            )
            continue
        for name in sorted(live):
            for counter, value in expected[name].items():
                if live[name].get(counter) != value:
                    mismatches.append(
                        f"{label}: {name}.{counter} "
                        f"{live[name].get(counter)} != {value}"
                    )
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write",
        metavar="PATH",
        default=None,
        help="regenerate the fixture at PATH (use after intentional "
        "numerical changes)",
    )
    parser.add_argument(
        "--check",
        metavar="PATH",
        default=None,
        help="verify the live engines against the fixture at PATH "
        "(default when no --write is given)",
    )
    args = parser.parse_args(argv)
    if args.write:
        path = Path(args.write)
        path.parent.mkdir(parents=True, exist_ok=True)
        fixture = compute_traces()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(fixture, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path} ({len(fixture['rungs'])} rungs)")
        return 0
    path = Path(args.check) if args.check else default_fixture_path()
    with open(path, encoding="utf-8") as handle:
        fixture = json.load(handle)
    mismatches = verify_traces(fixture)
    if mismatches:
        for mismatch in mismatches:
            print(f"MISMATCH: {mismatch}")
        return 1
    print(f"{path}: all {len(fixture['rungs'])} rungs bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
