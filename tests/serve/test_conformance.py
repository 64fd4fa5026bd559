"""Golden-trace conformance: live engines vs the committed fixture.

``tests/serve/golden/tinynet_ladder.json`` pins, for every rung of the
reference model's throttle ladder, the logits digest, accuracy and exact
per-layer ``SMTStatistics`` counters.  These tests diff the live stack
against it, so a quantization/engine/statistics regression fails loudly at
the offending rung instead of silently shifting accuracy -- and the same
fixture anchors the serving path: a batcher pinned at a rung must produce
the committed digest bit for bit.

The fixture is pinned to this container's numpy/BLAS (float32 GEMMs).
After an *intentional* numerical change, regenerate with::

    PYTHONPATH=src python -m repro.serve.conformance \
        --write tests/serve/golden/tinynet_ladder.json
"""

import json

import numpy as np
import pytest

from repro.serve import conformance
from repro.serve.batcher import DynamicBatcher
from repro.serve.pool import EnginePool
from repro.serve.registry import ModelSpec, ServeRegistry


@pytest.fixture(scope="session")
def golden_fixture() -> dict:
    path = conformance.default_fixture_path()
    assert path.exists(), (
        f"missing golden fixture {path}; regenerate with "
        "python -m repro.serve.conformance --write <path>"
    )
    with open(path, encoding="utf-8") as handle:
        fixture = json.load(handle)
    if fixture.get("numpy_version") != np.__version__:
        # The digests hash raw float32 GEMM outputs, which are pinned to
        # the numpy/BLAS that generated the fixture.  On a different
        # environment a few-ULP summation difference is not a regression:
        # skip instead of failing tier-1, and regenerate the fixture to
        # re-arm the suite for that environment.
        pytest.skip(
            f"golden fixture generated under numpy "
            f"{fixture.get('numpy_version')} != running {np.__version__}; "
            "regenerate with python -m repro.serve.conformance --write "
            f"{path}"
        )
    return fixture


def test_fixture_matches_reference_ladder(tiny_harness, golden_fixture):
    """The committed rungs are exactly the reference ladder's points."""
    ladder = conformance.reference_ladder(tiny_harness)
    assert len(ladder) == len(golden_fixture["rungs"])
    for point, rung in zip(ladder.points, golden_fixture["rungs"]):
        assert point.level == rung["level"]
        assert list(point.slowed_layers) == rung["slowed_layers"]
        assert dict(point.threads) == {
            name: int(threads) for name, threads in rung["threads"].items()
        }
        assert point.expected_speedup == rung["expected_speedup"]
        assert point.expected_mse == rung["expected_mse"]
        assert point.expected_accuracy == rung["accuracy"]


def test_engines_reproduce_golden_traces(tiny_harness, golden_fixture):
    """Every rung: live logits digest + stats counters == the fixture."""
    mismatches = conformance.verify_traces(golden_fixture, tiny_harness)
    assert mismatches == []


def test_serving_at_fixed_rung_matches_golden_traces(
    tiny_harness, tiny_provider, golden_fixture
):
    """Batched serving pinned at each rung reproduces the committed digest.

    ``max_batch == harness.batch_size`` makes the pre-filled batcher
    coalesce single-image requests into exactly the fixture's batch
    partition, so the digests must match bit for bit -- adaptivity only
    ever changes *which* rung serves a request, never what a rung computes.
    """
    registry = ServeRegistry()
    spec = registry.register(
        ModelSpec(
            name="tinynet",
            model="resnet18",  # registry-valid alias; the provider ignores it
            threads=conformance.BASE_THREADS,
            slow_threads=conformance.SLOW_THREADS,
            policy=conformance.POLICY,
            ladder_rungs=conformance.LADDER_RUNGS,
            max_batch=tiny_harness.batch_size,
        )
    )
    pool = EnginePool(registry, provider=tiny_provider)
    images = tiny_harness.eval_images
    try:
        for rung in golden_fixture["rungs"]:
            pool.set_operating_point(spec.name, rung["level"])
            batcher = DynamicBatcher(
                pool.runner_for(spec.name, with_point=True),
                max_batch=spec.max_batch,
                autostart=False,
            )
            futures = [
                batcher.submit(images[index : index + 1])
                for index in range(images.shape[0])
            ]
            batcher.start()
            results = [future.result(timeout=300) for future in futures]
            batcher.close()
            served = np.vstack([logits for logits, _level in results])
            assert all(level == rung["level"] for _logits, level in results)
            assert conformance.logits_digest(served) == rung["logits_sha256"]
            accuracy = float(
                (served.argmax(axis=1) == tiny_harness.eval_labels).mean()
            )
            assert accuracy == rung["accuracy"]
    finally:
        pool.close()
