"""Harness LRU: each harness owns its model, so eviction just drops it."""

import copy
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest

from repro.eval.experiments import common
from repro.eval.macs import model_mac_counts
from repro.serve.pool import InlineReplica
from repro.serve.registry import ModelSpec


class FakeHarness:
    """Stands in for a SysmtHarness in the cache (only close() is touched)."""

    def __init__(self, name: str):
        self.name = name
        self.closed = 0

    def close(self) -> None:
        self.closed += 1


@pytest.fixture
def pristine_cache(monkeypatch):
    """Run against an empty cache; the real one is restored afterwards."""
    monkeypatch.setattr(common, "_HARNESS_CACHE", OrderedDict())


@pytest.fixture
def tiny_zoo(pristine_cache, monkeypatch, tiny_trained_entry):
    """A zoo that loads a fresh copy of the tiny CNN on every call, as the
    disk-backed zoo loads a fresh model from every checkpoint read."""

    def load(name, fast):
        return replace(
            tiny_trained_entry, model=copy.deepcopy(tiny_trained_entry.model)
        )

    monkeypatch.setattr(common, "load_trained_model", load)


def seed_cache(*names: str) -> dict[str, FakeHarness]:
    harnesses = {}
    for name in names:
        harness = FakeHarness(name)
        common._HARNESS_CACHE[(name, "fast")] = harness
        harnesses[name] = harness
    return harnesses


def test_eviction_drops_harness_without_closing(pristine_cache, monkeypatch):
    monkeypatch.setattr(common, "HARNESS_CACHE_LIMIT", 1)
    harnesses = seed_cache("a", "b")
    # Touching "b" trims the LRU to one entry, evicting "a".
    assert common.get_harness("b", "fast") is harnesses["b"]
    assert list(common._HARNESS_CACHE) == [("b", "fast")]
    assert harnesses["a"].closed == 0


def test_clear_drops_harnesses_without_closing(pristine_cache):
    harnesses = seed_cache("a", "b")
    common.clear_harness_cache()
    assert not common._HARNESS_CACHE
    assert all(harness.closed == 0 for harness in harnesses.values())


def test_trained_model_is_not_the_harness_model(tiny_zoo):
    harness = common.get_harness("tinynet", "fast")
    trained = common.get_trained_model("tinynet", "fast")
    assert trained.model is not harness.trained.model
    assert not any(
        hasattr(module.matmul_fn, "prepare_input")
        for module in trained.model.modules()
        if hasattr(module, "matmul_fn")
    )
    # A Table I MAC-count probe on it leaves the harness's counters alone.
    model_mac_counts(
        trained.model, image_size=trained.dataset.config.image_size
    )
    assert not any(harness.qmodel.collect_stats().values())


def test_replica_keeps_serving_an_evicted_harness(tiny_zoo, monkeypatch):
    monkeypatch.setattr(common, "HARNESS_CACHE_LIMIT", 1)
    replica = InlineReplica(
        ModelSpec(name="tinynet", model="resnet18", threads=2, policy="S+A"),
        lambda spec: common.get_harness("tinynet", "fast"),
        warm=False,
    )
    images = replica.harness.eval_images[:4]
    before, _, _ = replica.infer(images)
    common.get_harness("other", "fast")  # evicts the replica's harness
    assert ("tinynet", "fast") not in common._HARNESS_CACHE
    qmodel = replica.harness.qmodel
    assert all(
        layer.module.matmul_fn is layer.hook for layer in qmodel.layers.values()
    )
    after, _, _ = replica.infer(images)
    replica.close()
    np.testing.assert_array_equal(after, before)
    with qmodel.float_execution():
        float_logits = qmodel.model(images)
    assert not np.array_equal(after, float_logits)
