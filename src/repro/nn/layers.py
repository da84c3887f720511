"""Basic neural network layers built on the autograd engine.

Layers with parameters carry two forwards: :meth:`forward` on
:class:`~repro.nn.tensor.Tensor` (autograd; the training path and the
reference) and ``infer`` on raw ndarrays (the no-grad inference path).
``infer`` reads ``param.data`` at call time and performs the same
floating-point operations on the same operands as ``forward``, so the
two agree bitwise and a weight update is visible to the next call.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["Linear", "Embedding", "LayerNorm", "Dropout", "ReLU", "GELU", "Sequential"]


class Linear(Module):
    """Affine transform ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.weight = Parameter(init.xavier_uniform(rng, in_features, out_features))
        self.bias = Parameter(init.zeros((out_features,)))

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias

    def infer(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight.data
        out += self.bias.data
        return out


class Embedding(Module):
    """Token embedding table indexed by integer ids."""

    def __init__(self, num_embeddings: int, embedding_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.weight = Parameter(init.normal(rng, (num_embeddings, embedding_dim)))

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding_lookup(self.weight, indices)

    def infer(self, indices: np.ndarray) -> np.ndarray:
        return self.weight.data[np.asarray(indices)]


class LayerNorm(Module):
    """Layer normalization over the last dimension with learned affine."""

    def __init__(self, hidden_size: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.weight = Parameter(init.ones((hidden_size,)))
        self.bias = Parameter(init.zeros((hidden_size,)))
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)

    def infer(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Normalize ``x``; ``out=x`` normalizes in place."""
        return F.layer_norm_(x, self.weight.data, self.bias.data, eps=self.eps, out=out)


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        self.p = p
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self._rng, self.training)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)


class Sequential(Module):
    """Chain modules, feeding each output to the next module."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: list[Module] = []
        for index, module in enumerate(modules):
            setattr(self, f"layer_{index}", module)
            self._order.append(module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._order:
            x = module(x)
        return x
