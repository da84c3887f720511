"""Classifier heads of the ADTD model (paper Sec. 4.3).

Each head is a fully-connected network with one ReLU hidden layer and a
sigmoid output estimating per-type probabilities. The metadata classifier
consumes ``Encode_L^{M_t} ⊕ M_n``; the content classifier consumes
``Encode_L^{D} ⊕ Encode_L^{M_t} ⊕ M_n`` — the asymmetric dependency again.
Heads emit *logits*; apply sigmoid outside (the loss wants logits).
"""

from __future__ import annotations

import numpy as np

from .. import nn

__all__ = ["ClassifierHead"]


class ClassifierHead(nn.Module):
    """Two-layer feed-forward multi-label classifier."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        num_labels: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.hidden = nn.Linear(input_dim, hidden_dim, rng)
        self.output = nn.Linear(hidden_dim, num_labels, rng)

    def forward(self, features: nn.Tensor) -> nn.Tensor:
        return self.output(self.hidden(features).relu())

    def infer(self, features: np.ndarray) -> np.ndarray:
        hidden = self.hidden.infer(features)
        return self.output.infer(nn.functional.relu_(hidden, out=hidden))
