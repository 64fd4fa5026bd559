"""Shared fixtures for the test suite.

Heavyweight artifacts (the fast-trained zoo model and its harness) are
session-scoped and cached on disk under ``artifacts/`` so repeated test runs
do not re-train.

The tiny reference stack (dataset, trained CNN, harness) is built by
:mod:`repro.serve.conformance` -- the same deterministic recipe that
produced the committed golden serving traces -- so the fixtures and the
conformance suite are guaranteed to exercise the identical model.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.serve import conformance
from repro.utils.rng import new_rng


@pytest.fixture
def rng() -> np.random.Generator:
    return new_rng(1234)


def make_quantized_pair(
    rng: np.random.Generator,
    m: int = 48,
    k: int = 64,
    n: int = 24,
    act_sparsity: float = 0.5,
    wgt_sparsity: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """Random quantized activation/weight matrices with bell-shaped values."""
    x = np.clip(np.rint(np.abs(rng.normal(0.0, 30.0, (m, k)))), 0, 255)
    x[rng.random((m, k)) < act_sparsity] = 0
    w = np.clip(np.rint(rng.normal(0.0, 25.0, (k, n))), -127, 127)
    w[rng.random((k, n)) < wgt_sparsity] = 0
    return x.astype(np.int64), w.astype(np.int64)


@pytest.fixture
def quantized_pair(rng) -> tuple[np.ndarray, np.ndarray]:
    return make_quantized_pair(rng)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A very small dataset for fast end-to-end tests."""
    return conformance.reference_dataset()


@pytest.fixture(scope="session")
def tiny_trained_model(tiny_dataset):
    """A tiny CNN trained for a couple of epochs on the tiny dataset."""
    return conformance.reference_model(tiny_dataset)


@pytest.fixture(scope="session")
def tiny_trained_entry(tiny_dataset, tiny_trained_model):
    """A TrainedModel wrapper around the tiny CNN (for harness-level tests)."""
    from repro.models.zoo import TrainedModel
    from repro.nn.train import evaluate_accuracy

    accuracy = evaluate_accuracy(
        tiny_trained_model, tiny_dataset.val_images, tiny_dataset.val_labels
    )
    return TrainedModel(
        name="tinynet",
        model=tiny_trained_model,
        dataset=tiny_dataset,
        fp32_accuracy=accuracy,
        train_config={},
    )


@pytest.fixture(scope="session")
def tiny_harness(tiny_trained_entry):
    """A harness over its own copy of the tiny CNN, so tests that wrap or
    calibrate ``tiny_trained_entry.model`` never meet its hooks."""
    from dataclasses import replace

    from repro.eval.harness import SysmtHarness

    harness = SysmtHarness(
        replace(tiny_trained_entry, model=copy.deepcopy(tiny_trained_entry.model)),
        max_eval_images=96,
        calibration_images=96,
        batch_size=48,
    )
    yield harness
    harness.close()
