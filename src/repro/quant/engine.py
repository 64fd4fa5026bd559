"""Integer matmul engine interface.

A quantized convolution/linear layer is executed as an integer matrix
multiplication between unsigned 8-bit activations ``X`` (shape ``(M, K)``)
and signed 8-bit weights ``W`` (shape ``(K, N)``).  The *engine* decides how
that multiplication is carried out:

* :class:`ExactEngine` -- the conventional accelerator: every MAC is an exact
  8b-8b operation (the paper's OS-SA baseline).
* :class:`repro.core.engine.NBSMTEngine` -- the paper's contribution: T
  threads share each MAC and collide into reduced-precision operations.
* :class:`repro.quant.robustness.ReducedPrecisionEngine` -- the whole-model
  worst-case reduction of Fig. 7 (A4W8 / A8W4 / A4W4).

Engines receive a :class:`LayerContext` describing the layer being executed
so they can apply per-layer settings (thread count, reordering permutation)
and record per-layer statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np


@dataclass
class LayerContext:
    """Per-layer execution context handed to the matmul engine.

    Attributes
    ----------
    name:
        Qualified module name of the layer inside its model.
    kind:
        ``"conv"`` or ``"linear"``.
    threads:
        Number of NB-SMT threads this layer runs with (1 = conventional).
    permutation:
        Optional reordering permutation of the K dimension (Section IV-B);
        ``None`` means natural order.
    stats:
        Free-form dictionary engines may use to accumulate per-layer
        statistics (collision counts, utilization, MSE, MAC breakdown...).
    """

    name: str
    kind: str = "conv"
    threads: int = 2
    permutation: np.ndarray | None = None
    stats: dict[str, float] = field(default_factory=dict)

    def add_stat(self, key: str, value: float) -> None:
        self.stats[key] = self.stats.get(key, 0.0) + float(value)


class IntMatmulEngine(Protocol):
    """Anything that can execute the quantized ``X @ W`` product."""

    def matmul(
        self, x_q: np.ndarray, w_q: np.ndarray, ctx: LayerContext
    ) -> np.ndarray:
        """Return integer accumulators of shape ``(M, N)``.

        ``x_q`` holds unsigned 8-bit activation values and ``w_q`` signed
        8-bit weight values in ``[-127, 127]``.
        :class:`~repro.quant.qmodel.QuantizedModel` passes uint8 activations
        and int32 weights, but engines must accept any integer dtypes and
        widen before arithmetic that could wrap (``uint8 @ int8``
        accumulates in int16).
        """
        ...  # pragma: no cover - protocol signature only


def exact_int_matmul(x_q: np.ndarray, w_q: np.ndarray) -> np.ndarray:
    """Exact integer matmul computed in float64 (lossless for 8-bit operands).

    Both operands are widened to float64 first, so any integer dtypes work.
    """
    return np.rint(x_q.astype(np.float64) @ w_q.astype(np.float64)).astype(np.int64)


class ExactEngine:
    """The conventional accelerator: exact 8b-8b MACs, no threads, no noise."""

    def matmul(
        self, x_q: np.ndarray, w_q: np.ndarray, ctx: LayerContext
    ) -> np.ndarray:
        ctx.add_stat("macs", x_q.shape[0] * x_q.shape[1] * w_q.shape[1])
        return exact_int_matmul(x_q, w_q)
