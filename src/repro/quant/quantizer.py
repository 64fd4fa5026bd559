"""Uniform min-max quantization primitives.

Conventions follow the paper (Section V-A):

* **Activations** are quantized per layer with a symmetric *unsigned* 8-bit
  quantizer: ``q = clip(round(x / scale), 0, 255)``.  Activations feeding the
  NB-SMT layers are post-ReLU and therefore non-negative.
* **Weights** are quantized per kernel (per output channel) with a symmetric
  *signed* 8-bit quantizer: ``q = clip(round(w / scale), -127, 127)``.

Each dot product is therefore rescaled by exactly two factors -- the layer's
activation scale and the kernel's weight scale -- which is what makes the
hardware implementation efficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Number of levels used for unsigned activations (8 bits).
ACT_QMAX = 255
#: Extreme magnitude for signed weights (8 bits, symmetric, no -128).
WGT_QMAX = 127


@dataclass
class QuantizedTensor:
    """An integer tensor together with the scale that dequantizes it."""

    values: np.ndarray
    scale: float

    def dequantize(self) -> np.ndarray:
        return self.values.astype(np.float32) * self.scale


@dataclass
class WeightQuantization:
    """Per-output-channel quantized weights for one layer."""

    values: np.ndarray          # int32 storage of values in [-127, 127], shape (K, N)
    scales: np.ndarray          # shape (N,)

    def dequantize(self) -> np.ndarray:
        return self.values.astype(np.float32) * self.scales[None, :]


def activation_scale(max_value: float, bits: int = 8) -> float:
    """Scale mapping ``[0, max_value]`` onto the unsigned integer grid."""
    qmax = 2**bits - 1
    if max_value <= 0:
        return 1.0
    return float(max_value) / qmax


def quantize_activations(
    x: np.ndarray, scale: float, bits: int = 8
) -> QuantizedTensor:
    """Quantize activations to unsigned ``bits``-bit integers (``bits <= 8``).

    The values are stored as uint8.  Negative inputs are clipped to zero;
    the NB-SMT layers only ever see post-ReLU activations, so this clipping
    is a no-op in practice.  Zero maps to zero, so quantizing a feature map
    and then lowering it (zero padding included) equals lowering and then
    quantizing.
    """
    if bits > 8:
        raise ValueError(f"activations are stored as uint8; got bits={bits}")
    q = x / scale
    np.rint(q, out=q)
    np.clip(q, 0, 2**bits - 1, out=q)
    return QuantizedTensor(q.astype(np.uint8), scale)


def quantize_weights_per_channel(
    weight_2d: np.ndarray, bits: int = 8
) -> WeightQuantization:
    """Quantize a ``(K, N)`` weight matrix symmetrically per output channel."""
    qmax = 2 ** (bits - 1) - 1
    max_abs = np.abs(weight_2d).max(axis=0)
    scales = np.where(max_abs > 0, max_abs / qmax, 1.0)
    q = np.clip(np.rint(weight_2d / scales[None, :]), -qmax, qmax)
    return WeightQuantization(q.astype(np.int32), scales.astype(np.float64))


def dequantize(
    accumulators: np.ndarray, act_scale: float, weight_scales: np.ndarray
) -> np.ndarray:
    """Rescale integer matmul accumulators back to floating point.

    ``accumulators`` has shape ``(M, N)``; each column ``n`` is scaled by the
    activation scale times the weight scale of output channel ``n``.
    """
    out = accumulators.astype(np.float64)
    out *= act_scale
    out *= weight_scales[None, :]
    return out.astype(np.float32)
