"""Composite blocks: residual, inception and dense connectivity.

These blocks give the scaled-down model zoo the same structural motifs as
the paper's evaluated CNNs (ResNet skip connections, GoogLeNet inception
branches, DenseNet feature reuse) without a general autograd graph: each
block implements its own branch-aware backward pass.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers.activation import ReLU
from repro.nn.module import Module, Sequential


class Concat(Module):
    """Concatenate the outputs of several branches along the channel axis.

    All branches receive the same input and must produce outputs with equal
    batch and spatial dimensions.
    """

    def __init__(self, *branches: Module):
        super().__init__()
        self.branches = list(branches)
        for index, branch in enumerate(branches):
            self._modules[f"branch{index}"] = branch
        self._split_sizes: list[int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        outputs = [branch(x) for branch in self.branches]
        self._split_sizes = [out.shape[1] for out in outputs]
        return np.concatenate(outputs, axis=1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._split_sizes is None:
            raise RuntimeError("backward called before forward")
        grads = np.split(grad_out, np.cumsum(self._split_sizes)[:-1], axis=1)
        grad_in = None
        for branch, grad in zip(self.branches, grads):
            branch_grad = branch.backward(np.ascontiguousarray(grad))
            grad_in = branch_grad if grad_in is None else grad_in + branch_grad
        self._split_sizes = None
        return grad_in


class ResidualBlock(Module):
    """``out = relu(body(x) + shortcut(x))`` -- the ResNet basic motif.

    The ``shortcut`` defaults to identity; pass a projection (1x1 conv +
    batch norm) when the body changes the channel count or stride.
    """

    def __init__(self, body: Module, shortcut: Module | None = None):
        super().__init__()
        self.body = body
        self.shortcut = shortcut
        self.relu = ReLU()

    def forward(self, x: np.ndarray) -> np.ndarray:
        main = self.body(x)
        skip = self.shortcut(x) if self.shortcut is not None else x
        if main.shape != skip.shape:
            raise ValueError(
                f"residual shapes differ: body {main.shape} vs shortcut {skip.shape}"
            )
        if not self.training and _owns_sum_buffer(main, x, skip):
            main += skip
            return self.relu(main)
        return self.relu(main + skip)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_sum = self.relu.backward(grad_out)
        grad_main = self.body.backward(grad_sum)
        if self.shortcut is not None:
            grad_skip = self.shortcut.backward(grad_sum)
        else:
            grad_skip = grad_sum
        return grad_main + grad_skip


def _owns_sum_buffer(main: np.ndarray, x: np.ndarray, skip: np.ndarray) -> bool:
    """Whether ``main += skip`` equals ``main + skip`` and clobbers nothing.

    The body's output must be a fresh array of its own (not the block's
    input, not a view), of the sum's dtype, and laid out like ``skip``, so
    that the sum keeps the memory order ``main + skip`` would allocate.
    """
    return (
        main is not x
        and main.flags.owndata
        and main.flags.writeable
        and main.dtype == np.result_type(main, skip)
        and main.strides == skip.strides
    )


class InceptionBlock(Concat):
    """A GoogLeNet-style block: parallel branches concatenated channel-wise.

    This is :class:`Concat` under a name that mirrors the model it is used in;
    the branches are typically 1x1, 3x3 and 5x5 convolution towers.
    """


class DenseBlock(Module):
    """DenseNet-style block: each layer sees the concatenation of all
    previous feature maps, and the block output is the concatenation of the
    input with every layer's output.
    """

    def __init__(self, layers: list[Module]):
        super().__init__()
        self.layers = list(layers)
        for index, layer in enumerate(self.layers):
            self._modules[f"layer{index}"] = layer
        self._channel_history: list[int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        features = x
        self._channel_history = [x.shape[1]]
        for layer in self.layers:
            new = layer(features)
            self._channel_history.append(new.shape[1])
            features = np.concatenate([features, new], axis=1)
        return features

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._channel_history is None:
            raise RuntimeError("backward called before forward")
        history = self._channel_history
        grad_features = grad_out
        for index in range(len(self.layers) - 1, -1, -1):
            prefix_channels = sum(history[: index + 1])
            grad_prefix = grad_features[:, :prefix_channels]
            grad_new = grad_features[:, prefix_channels:]
            grad_from_layer = self.layers[index].backward(
                np.ascontiguousarray(grad_new)
            )
            grad_features = np.ascontiguousarray(grad_prefix) + grad_from_layer
        self._channel_history = None
        return grad_features


def conv_bn_relu(
    in_channels: int,
    out_channels: int,
    kernel_size: int,
    stride: int = 1,
    padding: int | None = None,
    groups: int = 1,
    seed: int | None = None,
) -> Sequential:
    """Convenience builder for the ubiquitous conv -> batch norm -> ReLU stack."""
    from repro.nn.layers.conv import Conv2d
    from repro.nn.layers.norm import BatchNorm2d

    if padding is None:
        padding = kernel_size // 2
    return Sequential(
        Conv2d(
            in_channels,
            out_channels,
            kernel_size,
            stride=stride,
            padding=padding,
            bias=False,
            groups=groups,
            seed=seed,
        ),
        BatchNorm2d(out_channels),
        ReLU(),
    )
