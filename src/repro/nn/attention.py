"""Multi-head attention supporting both self- and cross-attention.

The TASTE content tower needs a Transformer block usable as ``T_i(Q, K, V)``
where the query states come from the content stream while the key/value
states are the concatenation of metadata and content latent representations
(paper Sec. 4.2.3). The attention module therefore takes separate query and
key/value inputs.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .layers import Dropout, Linear
from .module import Module
from .tensor import Tensor

__all__ = ["MultiHeadAttention"]


class MultiHeadAttention(Module):
    """Scaled dot-product multi-head attention.

    Parameters
    ----------
    hidden_size:
        Model width ``H``; must be divisible by ``num_heads``.
    num_heads:
        Number of attention heads ``A``.
    dropout_p:
        Dropout probability applied to attention weights during training.
    rng:
        Random generator used for weight initialization and dropout.
    """

    def __init__(
        self,
        hidden_size: int,
        num_heads: int,
        dropout_p: float,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        if hidden_size % num_heads != 0:
            raise ValueError(
                f"hidden_size ({hidden_size}) must be divisible by num_heads ({num_heads})"
            )
        self.hidden_size = hidden_size
        self.num_heads = num_heads
        self.head_dim = hidden_size // num_heads
        self.query_proj = Linear(hidden_size, hidden_size, rng)
        self.key_proj = Linear(hidden_size, hidden_size, rng)
        self.value_proj = Linear(hidden_size, hidden_size, rng)
        self.output_proj = Linear(hidden_size, hidden_size, rng)
        self.attn_dropout = Dropout(dropout_p, rng)

    def _split_heads(self, x: Tensor) -> Tensor:
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(1, 2)

    def _merge_heads(self, x: Tensor) -> Tensor:
        batch, _, seq, _ = x.shape
        return x.transpose(1, 2).reshape(batch, seq, self.hidden_size)

    def forward(
        self,
        query_states: Tensor,
        kv_states: Tensor,
        attention_mask: np.ndarray | None = None,
    ) -> Tensor:
        """Attend ``query_states`` over ``kv_states``.

        Parameters
        ----------
        query_states:
            Shape ``(batch, query_len, hidden)``.
        kv_states:
            Shape ``(batch, kv_len, hidden)``; pass the query states again
            for plain self-attention.
        attention_mask:
            Optional additive mask broadcastable to
            ``(batch, heads, query_len, kv_len)``; use
            :func:`repro.nn.functional.additive_attention_mask` to build one
            from key padding.
        """
        query = self._split_heads(self.query_proj(query_states))
        key = self._split_heads(self.key_proj(kv_states))
        value = self._split_heads(self.value_proj(kv_states))

        scores = query @ key.transpose(2, 3) * (1.0 / np.sqrt(self.head_dim))
        if attention_mask is not None:
            scores = scores + Tensor(attention_mask)
        weights = F.softmax(scores, axis=-1)
        weights = self.attn_dropout(weights)
        context = self._merge_heads(weights @ value)
        return self.output_proj(context)

    def infer(
        self,
        query_states: np.ndarray,
        kv_states: np.ndarray,
        attention_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """No-grad :meth:`forward` on raw ndarrays (bitwise identical)."""
        batch, query_len, _ = query_states.shape
        kv_len = kv_states.shape[1]
        heads, head_dim = self.num_heads, self.head_dim
        query = self.query_proj.infer(query_states).reshape(batch, query_len, heads, head_dim)
        key = self.key_proj.infer(kv_states).reshape(batch, kv_len, heads, head_dim)
        value = self.value_proj.infer(kv_states).reshape(batch, kv_len, heads, head_dim)
        scores = query.swapaxes(1, 2) @ key.swapaxes(1, 2).swapaxes(2, 3)
        # forward() multiplies by a Tensor, which casts the scale to float32.
        scores *= np.float32(1.0 / np.sqrt(head_dim))
        if attention_mask is not None:
            scores += attention_mask
        F.softmax_(scores, out=scores)
        context = (scores @ value.swapaxes(1, 2)).swapaxes(1, 2)
        return self.output_proj.infer(context.reshape(batch, query_len, self.hidden_size))
