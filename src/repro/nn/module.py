"""Module/parameter system with explicit forward and backward passes.

The design intentionally mirrors a minimal subset of ``torch.nn``: modules
auto-register child modules and parameters assigned as attributes, expose
``named_modules`` / ``parameters`` for traversal, and carry a ``training``
flag.  Backward passes are hand-written per layer; each module caches what it
needs during a training-mode ``forward`` and releases it after ``backward``.
An eval-mode ``forward`` keeps no backward state, so a ``backward`` after it
raises :meth:`Module.no_backward_state`.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np


class Parameter:
    """A trainable array together with its gradient accumulator."""

    def __init__(self, value: np.ndarray, requires_grad: bool = True):
        self.value = np.asarray(value, dtype=np.float32)
        self.grad = np.zeros_like(self.value)
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(shape={self.value.shape})"


class Module:
    """Base class of all layers and composite blocks."""

    def __init__(self):
        self.training = True
        self._modules: dict[str, "Module"] = {}
        self._params: dict[str, Parameter] = {}

    # -- attribute-based registration --------------------------------------
    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        elif isinstance(value, Parameter):
            self.__dict__.setdefault("_params", {})[name] = value
        object.__setattr__(self, name, value)

    # -- computation --------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def no_backward_state(self) -> RuntimeError:
        """The error ``backward`` raises without a training-mode forward."""
        return RuntimeError(
            f"{type(self).__name__}.backward needs a training-mode forward "
            "first (an eval-mode forward keeps no backward state)"
        )

    # -- traversal -----------------------------------------------------------
    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` pairs, depth-first, self first."""
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._params.items():
            yield (f"{prefix}.{name}" if prefix else name), param
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_parameters(child_prefix)

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(param.size for param in self.parameters())

    # -- mode / gradient management -------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- (de)serialization -----------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of qualified parameter names to value copies."""
        state = {name: param.value.copy() for name, param in self.named_parameters()}
        for name, module in self.named_modules():
            for buffer_name, buffer in getattr(module, "_buffers", {}).items():
                key = f"{name}.{buffer_name}" if name else buffer_name
                state[key] = np.array(buffer, copy=True)
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load values saved by :meth:`state_dict` (shapes must match)."""
        params = dict(self.named_parameters())
        buffers: dict[str, tuple[Module, str]] = {}
        for name, module in self.named_modules():
            for buffer_name in getattr(module, "_buffers", {}):
                key = f"{name}.{buffer_name}" if name else buffer_name
                buffers[key] = (module, buffer_name)
        for key, value in state.items():
            if key in params:
                if params[key].value.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for parameter {key!r}: "
                        f"{params[key].value.shape} vs {value.shape}"
                    )
                params[key].value[...] = value
            elif key in buffers:
                module, buffer_name = buffers[key]
                module._buffers[buffer_name] = np.array(value, copy=True)
                object.__setattr__(module, buffer_name, module._buffers[buffer_name])
            else:
                raise KeyError(f"unexpected key in state dict: {key!r}")


class Sequential(Module):
    """Run child modules in order; backward runs them in reverse."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for index, layer in enumerate(layers):
            self._modules[str(index)] = layer

    def append(self, layer: Module) -> "Sequential":
        self._modules[str(len(self.layers))] = layer
        self.layers.append(layer)
        return self

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out
