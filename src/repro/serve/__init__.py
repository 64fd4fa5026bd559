"""Online NB-SMT inference serving.

The batch-evaluation harness answers "what accuracy does this engine
configuration reach over a fixed evaluation set"; this package answers
"serve single-image (or micro-batch) prediction requests against the same
engines, at high throughput, without giving up the harness semantics".

The subsystem is assembled from five pieces:

* :mod:`repro.serve.registry` -- which models are served and with which
  NB-SMT engine configuration (threads, policy, reordering, throttled
  layers), plus per-endpoint admission control (backpressure).
* :mod:`repro.serve.pool` -- warm engine replicas: one calibrated
  :class:`~repro.quant.qmodel.QuantizedModel` plus one configured
  :class:`~repro.core.engine.NBSMTEngine` per model, taken from the
  experiment harness cache, optionally mirrored into persistent forked
  worker processes.
* :mod:`repro.serve.batcher` -- the dynamic batching scheduler: queued
  requests are coalesced into engine-sized batches under a latency budget.
* :mod:`repro.serve.metrics` -- per-endpoint latency quantiles, throughput,
  batch fill and aggregated :class:`~repro.core.smt.SMTStatistics`.
* :mod:`repro.serve.qos` -- the load-adaptive QoS layer: endpoints declare
  an ordered :class:`~repro.eval.throttle.OperatingLadder` of throttled
  operating points and a hysteretic controller walks it under load
  (degrade to faster rungs under sustained admission pressure, recover to
  the top rung when load subsides).
* :mod:`repro.serve.sharding` -- ``SO_REUSEPORT`` multi-process front-end
  sharding with whole-service metrics merging.
* :mod:`repro.serve.conformance` -- the golden-trace conformance suite:
  deterministic reference stack + committed per-rung logits digests and
  SMT statistics, diffed by a tier-1 test.
* :mod:`repro.serve.server` / :mod:`repro.serve.client` -- a stdlib
  ``asyncio`` HTTP front-end and a closed/open-loop load generator
  (``repro.cli serve`` / ``repro.cli client``).

Batched execution is bit-identical to running the same inputs through the
harness directly (same engines, same statistics); the test suite pins this
-- per throttle-ladder rung -- via the golden-trace conformance suite.
"""

from repro.serve.batcher import BatcherClosed, BatchReport, DynamicBatcher, QueueFull
from repro.serve.metrics import EndpointMetrics, LatencyHistogram, MetricsRegistry
from repro.serve.pool import EnginePool, ForkedReplica, InlineReplica
from repro.serve.qos import (
    EndpointGovernor,
    LoadSignal,
    QoSConfig,
    QoSController,
    Transition,
)
from repro.serve.registry import AdmissionController, ModelSpec, ServeRegistry
from repro.serve.server import NBSMTServer, ServeConfig

__all__ = [
    "AdmissionController",
    "BatchReport",
    "BatcherClosed",
    "DynamicBatcher",
    "EndpointGovernor",
    "EndpointMetrics",
    "EnginePool",
    "ForkedReplica",
    "InlineReplica",
    "LatencyHistogram",
    "LoadSignal",
    "MetricsRegistry",
    "ModelSpec",
    "NBSMTServer",
    "QoSConfig",
    "QoSController",
    "QueueFull",
    "ServeConfig",
    "ServeRegistry",
    "Transition",
]
