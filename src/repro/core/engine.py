"""Adapter exposing the NB-SMT executor as a quantized-matmul engine.

:class:`NBSMTEngine` plugs the functional executor of :mod:`repro.core.smt`
into :class:`repro.quant.qmodel.QuantizedModel`: each quantized convolution
layer's integer matmul is executed with the layer's configured thread count,
packing policy and (optional) K-dimension reordering permutation, and the
per-layer statistics are accumulated for later analysis (utilization, MSE,
collision breakdown).

One :class:`~repro.core.smt.NBSMTMatmul` executor is kept per (layer, thread
count) and reused across batches, so per-call setup work is paid once per
layer instead of once per batch.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.policies import PackingPolicy, get_policy
from repro.core.smt import NBSMTMatmul, SMTStatistics
from repro.quant.engine import LayerContext, exact_int_matmul


class NBSMTEngine:
    """Executes quantized matmuls under NB-SMT and records per-layer stats.

    Parameters
    ----------
    policy:
        Packing policy (name or object) used for every layer.
    default_threads:
        Thread count used when a layer context does not specify one.
    collect_stats:
        Accumulate :class:`SMTStatistics` per layer (needed for MSE,
        utilization and energy analyses; adds the cost of one exact matmul).
    force_reference:
        Use the chunked reference executor even for the fast-path thread
        counts.
    fast4t_impl:
        Forwarded to :class:`NBSMTMatmul` (``"stacked"``, the only value
        accepted).
    prune_blocks:
        Forwarded to :class:`NBSMTMatmul` (stack each 4-thread error block
        only over the K rows where its weight pattern occurs; bit-exact, on
        by default).
    """

    def __init__(
        self,
        policy: PackingPolicy | str = "S+A",
        default_threads: int = 2,
        collect_stats: bool = True,
        force_reference: bool = False,
        fast4t_impl: str = "stacked",
        prune_blocks: bool = True,
    ):
        self.policy = get_policy(policy) if isinstance(policy, str) else policy
        self.default_threads = default_threads
        self.collect_stats = collect_stats
        self.force_reference = force_reference
        self.fast4t_impl = fast4t_impl
        self.prune_blocks = prune_blocks
        self.layer_stats: dict[str, SMTStatistics] = {}
        #: Per-layer wall timing of the current forward pass: a list of
        #: ``(layer_name, start_wall_s, duration_s)`` in execution order,
        #: the raw material of a trace's engine-compute child spans.
        self.layer_times: list[tuple[str, float, float]] = []
        self._executors: dict[tuple[str, int], NBSMTMatmul] = {}

    def reset_stats(self) -> None:
        self.layer_stats = {}
        self.layer_times = []

    def stats_for(self, layer_name: str) -> SMTStatistics:
        return self.layer_stats.setdefault(layer_name, SMTStatistics())

    def _executor_for(self, layer_name: str, threads: int) -> NBSMTMatmul:
        key = (layer_name, threads)
        executor = self._executors.get(key)
        if executor is None:
            executor = self._executors[key] = NBSMTMatmul(
                threads,
                self.policy,
                collect_stats=self.collect_stats,
                force_reference=self.force_reference,
                fast4t_impl=self.fast4t_impl,
                prune_blocks=self.prune_blocks,
            )
        return executor

    def matmul(
        self, x_q: np.ndarray, w_q: np.ndarray, ctx: LayerContext
    ) -> np.ndarray:
        # The wall-clock start places the span; the duration comes from the
        # monotonic clock, so a stepped wall clock cannot make it negative.
        wall_started = time.time()
        started = time.monotonic()
        out = self._matmul(x_q, w_q, ctx)
        if len(self.layer_times) < 4096:  # bounded if stats never reset
            self.layer_times.append(
                (ctx.name, wall_started, time.monotonic() - started)
            )
        return out

    def _matmul(
        self, x_q: np.ndarray, w_q: np.ndarray, ctx: LayerContext
    ) -> np.ndarray:
        threads = ctx.threads if ctx.threads else self.default_threads
        if threads <= 1:
            ctx.add_stat("macs", x_q.shape[0] * x_q.shape[1] * w_q.shape[1])
            ctx.add_stat("issue_slots", x_q.shape[0] * x_q.shape[1] * w_q.shape[1])
            if self.collect_stats:
                executor = self._executor_for(ctx.name, 1)
                out = executor.matmul(x_q, w_q)
                self.stats_for(ctx.name).merge(executor.stats)
                executor.reset_stats()
                return out
            return exact_int_matmul(x_q, w_q)

        executor = self._executor_for(ctx.name, threads)
        out = executor.matmul(x_q, w_q, permutation=ctx.permutation)
        ctx.add_stat("macs", x_q.shape[0] * x_q.shape[1] * w_q.shape[1])
        ctx.add_stat(
            "issue_slots",
            x_q.shape[0] * (-(-x_q.shape[1] // threads)) * w_q.shape[1],
        )
        if self.collect_stats:
            self.stats_for(ctx.name).merge(executor.stats)
            executor.reset_stats()
        return out
