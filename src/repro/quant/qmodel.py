"""Quantized model executor.

Wraps a trained floating-point model and replaces the matrix multiplication
inside selected convolution (and optionally linear) layers with a quantized
integer execution carried out by a pluggable engine.  This mirrors the
paper's simulator: "the convolution operations are mapped to matrix
multiplication operations to fit the hardware simulator" (Section V-A), and
the first convolution layer and the fully-connected layers are left intact.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.nn.layers.conv import Conv2d
from repro.nn.layers.linear import Linear
from repro.nn.module import Module
from repro.nn.train import evaluate_accuracy
from repro.quant.calibration import CalibrationResult
from repro.quant.engine import ExactEngine, IntMatmulEngine, LayerContext
from repro.quant.quantizer import (
    dequantize,
    quantize_activations,
    quantize_weights_per_channel,
)


@dataclass
class QuantConfig:
    """Which layers are quantized and with how many bits."""

    act_bits: int = 8
    wgt_bits: int = 8
    skip_first_conv: bool = True
    include_linear: bool = False
    depthwise_single_thread: bool = True


@dataclass
class QuantizedLayer:
    """Book-keeping for one layer executed by the quantized engine."""

    name: str
    module: Module
    kind: str
    context: LayerContext
    original_matmul: object = None
    engine: IntMatmulEngine | None = None
    hook: object = None


def _is_depthwise(module: Module) -> bool:
    return isinstance(module, Conv2d) and module.groups > 1


class QuantizedModel:
    """Executes a model with quantized convolutions through an engine.

    The wrapper is installed on construction and removed by :meth:`remove`
    (or by using the instance as a context manager).  The underlying model's
    floating-point parameters are never modified.
    """

    def __init__(
        self,
        model: Module,
        calibration: CalibrationResult,
        engine: IntMatmulEngine | None = None,
        config: QuantConfig | None = None,
    ):
        self.model = model
        self.calibration = calibration
        self.config = config or QuantConfig()
        self.default_engine: IntMatmulEngine = engine or ExactEngine()
        self.layers: dict[str, QuantizedLayer] = {}
        self._select_layers()
        self._install()

    # -- layer selection / installation ------------------------------------
    def _select_layers(self) -> None:
        first_conv_seen = False
        for name, module in self.model.named_modules():
            if isinstance(module, Conv2d):
                if self.config.skip_first_conv and not first_conv_seen:
                    first_conv_seen = True
                    continue
                first_conv_seen = True
                if name not in self.calibration.act_scales:
                    raise KeyError(f"layer {name!r} missing from calibration result")
                threads = 1 if (
                    self.config.depthwise_single_thread and _is_depthwise(module)
                ) else 2
                context = LayerContext(name=name, kind="conv", threads=threads)
                self.layers[name] = QuantizedLayer(name, module, "conv", context)
            elif self.config.include_linear and isinstance(module, Linear):
                if name not in self.calibration.act_scales:
                    raise KeyError(f"layer {name!r} missing from calibration result")
                context = LayerContext(name=name, kind="linear", threads=1)
                self.layers[name] = QuantizedLayer(name, module, "linear", context)

    def _make_hook(self, layer: QuantizedLayer):
        act_scale = self.calibration.scale_for(layer.name)
        config = self.config
        weight_cache: dict[str, object] = {}

        def weight_fingerprint(weight_2d: np.ndarray) -> tuple:
            # Position-weighted projections make the fingerprint sensitive
            # to row/column permutations and sign-balanced edits that a
            # plain sum would miss; collisions would need a mutation
            # crafted against the cached random projection vectors.
            probes = weight_cache.get("probes")
            if probes is None or probes[0].shape[0] != weight_2d.shape[0]:
                rng = np.random.default_rng(0x5EED)
                probes = (
                    rng.standard_normal(weight_2d.shape[0]),
                    rng.standard_normal(weight_2d.shape[1]),
                )
                weight_cache["probes"] = probes
            row_probe, col_probe = probes
            return (
                weight_2d.shape,
                weight_2d.dtype,
                float(weight_2d.sum()),
                float(row_probe @ weight_2d @ col_probe),
            )

        def prepare_input(x: np.ndarray) -> np.ndarray:
            return quantize_activations(x, act_scale, bits=config.act_bits).values

        def hook(cols: np.ndarray, weight_2d: np.ndarray) -> np.ndarray:
            engine = layer.engine or self.default_engine
            # Conv2d lowers prepare_input(x), so its columns arrive already
            # quantized; float columns come from linear layers and from
            # foreign wrappers that call this hook themselves.
            x_q = cols if cols.dtype == np.uint8 else prepare_input(cols)
            # Weights do not change during evaluation, so their per-channel
            # quantization is cached; the fingerprint refreshes it when they
            # are mutated in place (e.g. by pruning).
            fingerprint = weight_fingerprint(weight_2d)
            if weight_cache.get("fingerprint") != fingerprint:
                weight_cache["fingerprint"] = fingerprint
                weight_cache["quant"] = quantize_weights_per_channel(
                    weight_2d, bits=config.wgt_bits
                )
            w_q = weight_cache["quant"]
            accumulators = engine.matmul(x_q, w_q.values, layer.context)
            return dequantize(accumulators, act_scale, w_q.scales)

        hook.prepare_input = prepare_input
        return hook

    def _install(self) -> None:
        """Install this wrapper's hooks over the layers' float matmuls.

        One wrapper per model: a layer that already carries a quantization
        hook (one with ``prepare_input``) is refused, so hooks never stack
        and every hook's ``original_matmul`` is the float function.
        """
        hooked = [
            name for name, layer in self.layers.items()
            if hasattr(layer.module.matmul_fn, "prepare_input")
        ]
        if hooked:
            raise ValueError(
                f"layers {hooked} already carry a quantization hook; "
                "remove() the installed QuantizedModel first"
            )
        for layer in self.layers.values():
            layer.original_matmul = layer.module.matmul_fn
            layer.hook = self._make_hook(layer)
            layer.module.matmul_fn = layer.hook

    def ensure_installed(self) -> None:
        """Re-install the hooks that :meth:`remove` took out.

        Only modules holding their float function are re-hooked; a probe
        installed over the hook (e.g. by ``model_mac_counts``) stays.
        """
        for layer in self.layers.values():
            if layer.module.matmul_fn is layer.original_matmul:
                layer.module.matmul_fn = layer.hook

    def remove(self) -> None:
        """Restore the original floating-point matmuls."""
        for layer in self.layers.values():
            if layer.module.matmul_fn is layer.hook:
                layer.module.matmul_fn = layer.original_matmul

    def __enter__(self) -> "QuantizedModel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()

    @contextmanager
    def float_execution(self):
        """Temporarily run the wrapped model with its float matmuls."""
        installed = {
            name: layer.module.matmul_fn for name, layer in self.layers.items()
        }
        try:
            for layer in self.layers.values():
                layer.module.matmul_fn = layer.original_matmul
            yield self
        finally:
            for name, layer in self.layers.items():
                layer.module.matmul_fn = installed[name]

    # -- configuration -------------------------------------------------------
    def layer_names(self) -> list[str]:
        return list(self.layers)

    def set_engine(
        self, engine: IntMatmulEngine, layer_names: list[str] | None = None
    ) -> None:
        """Set the engine for all layers (default) or a subset."""
        if layer_names is None:
            self.default_engine = engine
            for layer in self.layers.values():
                layer.engine = None
            return
        for name in layer_names:
            self.layers[name].engine = engine

    def set_threads(self, threads: int | dict[str, int]) -> None:
        """Set the NB-SMT thread count globally or per layer."""
        if isinstance(threads, int):
            for layer in self.layers.values():
                if self.config.depthwise_single_thread and _is_depthwise(layer.module):
                    layer.context.threads = 1
                else:
                    layer.context.threads = threads
            return
        for name, count in threads.items():
            self.layers[name].context.threads = count

    def thread_assignment(self) -> dict[str, int]:
        return {name: layer.context.threads for name, layer in self.layers.items()}

    def set_permutations(self, permutations: dict[str, np.ndarray | None]) -> None:
        """Install per-layer K-dimension reordering permutations."""
        for name, permutation in permutations.items():
            if name in self.layers:
                self.layers[name].context.permutation = permutation

    def clear_stats(self) -> None:
        for layer in self.layers.values():
            layer.context.stats = {}

    def collect_stats(self) -> dict[str, dict[str, float]]:
        return {name: dict(layer.context.stats) for name, layer in self.layers.items()}

    def warm(self, images: np.ndarray) -> None:
        """Prime the quantized execution path without polluting statistics.

        Runs one forward pass through the installed hooks so that every
        per-layer cache on the serving hot path is populated before real
        traffic arrives: the per-channel weight-quantization cache, the
        engine's per-(layer, threads) executors and their lookup tables,
        and the BLAS/im2col scratch allocations.  Context statistics
        accumulated by the warm-up are discarded (engine-side statistics
        are the caller's to reset -- the engine may be shared).
        """
        self.ensure_installed()
        self.model.eval()
        self.model(images)
        self.clear_stats()

    # -- evaluation -------------------------------------------------------------
    def evaluate(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        batch_size: int = 64,
        workers: int = 1,
    ) -> float:
        """Top-1 accuracy of the quantized model.

        ``workers > 1`` shards the images across a process pool (fork-based;
        falls back to serial execution where fork is unavailable) and merges
        the per-shard statistics back into this process: per-layer context
        stats always, and the default engine's NB-SMT layer statistics when
        it collects any (engines installed as per-layer overrides only
        contribute context stats).
        """
        self.ensure_installed()
        if workers > 1:
            from repro.eval.parallel import evaluate_sharded

            engine = self.default_engine
            return evaluate_sharded(
                self,
                images,
                labels,
                batch_size=batch_size,
                workers=workers,
                # Reduce the default engine's per-layer NB-SMT statistics
                # back into this process (per-layer engine overrides keep
                # only their context stats, as documented).
                engine=engine if hasattr(engine, "layer_stats") else None,
            )
        return evaluate_accuracy(self.model, images, labels, batch_size=batch_size)

    def forward(self, images: np.ndarray) -> np.ndarray:
        self.ensure_installed()
        self.model.eval()
        return self.model(images)
