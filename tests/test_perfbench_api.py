"""The ``repro`` calls the ``perfbench/`` benchmark makes, pinned.

``perfbench`` drives the package from outside: it builds engines and
harnesses, and it wraps batcher, pool, admission, model and engine methods
with timing shims that forward their arguments by keyword.  Every call
below is bound against the live signature exactly as ``perfbench`` makes
it, so dropping or renaming an option it relies on fails here instead of
in a benchmark run.
"""

import dataclasses
import inspect

import pytest

from repro.core.engine import NBSMTEngine
from repro.core.policies import PackingPolicy
from repro.eval.experiments.common import get_harness
from repro.eval.harness import SysmtHarness
from repro.models.zoo import load_trained_model
from repro.quant.qmodel import QuantizedModel
from repro.serve.batcher import BatchReport, DynamicBatcher
from repro.serve.conformance import logits_digest
from repro.serve.pool import EnginePool
from repro.serve.registry import AdmissionController, ModelSpec
from repro.serve.server import ServeConfig

CALLS = [
    # perfbench/run.py (serve-http reference logits) and eval_worker.py.
    (NBSMTEngine, ("S+A",),
     {"collect_stats": True, "fast4t_impl": "stacked", "prune_blocks": True}),
    (NBSMTEngine.matmul, ("self", "x_q", "w_q", "ctx"), {}),
    (ModelSpec, (), {"name": "alexnet", "threads": 4, "max_batch": 8}),
    (EnginePool.runner_for, ("self", "endpoint"),
     {"metrics": None, "with_point": True}),
    (DynamicBatcher.__init__, ("self", "runner"), {"on_batch": None}),
    (DynamicBatcher.submit, ("self", "payload"),
     {"size": 1, "deadline": None, "trace": None}),
    (AdmissionController.try_admit, ("self",), {"images": 1}),
    (QuantizedModel.forward, ("self", "images"), {}),
    (SysmtHarness, ("trained",),
     {"eval_images": None, "eval_labels": None, "max_eval_images": 64,
      "calibration_images": 64, "batch_size": 32}),
    (SysmtHarness.evaluate_nbsmt, ("self",),
     {"threads": 4, "policy": "S+A", "engine": None}),
    (get_harness, ("alexnet", "fast"), {}),
    (load_trained_model, ("alexnet",), {"fast": True}),
    (logits_digest, ("logits",), {}),
]


@pytest.mark.parametrize(
    "function, args, kwargs", CALLS,
    ids=[call[0].__qualname__ for call in CALLS],
)
def test_perfbench_call_binds(function, args, kwargs):
    inspect.signature(function).bind(*args, **kwargs)


def test_engine_defaults_are_the_benchmarked_kernel():
    # eval_worker.py builds NBSMTEngine(policy, collect_stats=True) and so
    # measures whatever the defaults select.
    parameters = inspect.signature(NBSMTEngine).parameters
    assert parameters["fast4t_impl"].default == "stacked"
    assert parameters["prune_blocks"].default is True


def test_model_spec_builds_the_serving_engine():
    # perfbench/run.py builds its reference engine from the spec this way.
    spec = ModelSpec(name="alexnet", threads=4, max_batch=8)
    engine = NBSMTEngine(
        spec.resolved_policy(), collect_stats=spec.collect_stats,
        fast4t_impl=spec.fast4t_impl, prune_blocks=spec.prune_blocks,
    )
    assert isinstance(engine.policy, PackingPolicy)
    assert (engine.fast4t_impl, engine.prune_blocks) == ("stacked", True)


def test_batch_report_carries_the_timed_fields():
    names = {field.name for field in dataclasses.fields(BatchReport)}
    assert {"num_images", "service_seconds", "queue_waits"} <= names


def test_serve_command_line_builds_the_benchmarked_server(monkeypatch):
    # perfbench/run.py:start_server launches `python -m repro.cli` with
    # these arguments (on a free port; 0 here).  The server must get the
    # default config on that port, and the endpoint the spec perfbench
    # computes its reference logits from.
    from repro.cli import main
    from repro.serve import server as serve_server

    calls = []
    monkeypatch.setattr(
        serve_server, "run_server",
        lambda registry, config, **injected: calls.append((registry, config)),
    )
    argv = ["serve", "alexnet", "--threads", "2", "--max-batch", "8",
            "--port", "0"]
    assert main(argv) == 0
    [(registry, config)] = calls
    assert config == ServeConfig(port=0)
    assert registry.names() == ["alexnet"]
    assert registry.get("alexnet") == ModelSpec(
        name="alexnet", threads=2, max_batch=8
    )
