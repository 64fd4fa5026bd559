"""Fixtures for the serving tests: a provider around the tiny harness."""

from __future__ import annotations

import pytest

from repro.core.engine import NBSMTEngine


def direct_reference(harness, images, threads=2, policy="S+A"):
    """What a fresh engine produces for the same images, harness-style."""
    engine = NBSMTEngine(policy, collect_stats=True)
    qmodel = harness.qmodel
    qmodel.set_threads(threads)
    harness.clear_permutations()
    qmodel.set_engine(engine)
    qmodel.clear_stats()
    return qmodel.forward(images), dict(engine.layer_stats)


@pytest.fixture(name="direct_reference")
def direct_reference_fixture():
    return direct_reference


class TinyHarnessProvider:
    """Hands out the session-scoped tiny harness; counts the calls."""

    def __init__(self, harness):
        self.harness = harness
        self.calls = 0

    def __call__(self, spec):
        self.calls += 1
        return self.harness


@pytest.fixture
def tiny_provider(tiny_harness) -> TinyHarnessProvider:
    return TinyHarnessProvider(tiny_harness)
