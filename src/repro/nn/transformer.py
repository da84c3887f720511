"""Transformer encoder blocks and stacks (BERT-style, post-LayerNorm).

A :class:`TransformerBlock` is written so the same parameter set can be
invoked either as self-attention (metadata tower) or as the asymmetric
``T_i(Q, K, V)`` form the TASTE content tower needs, where ``K``/``V`` come
from a different (longer) sequence than ``Q``. This is exactly how the paper
shares Transformer parameters between the two towers (Sec. 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functional as F
from .attention import MultiHeadAttention
from .layers import Dropout, LayerNorm, Linear
from .module import Module, ModuleList
from .tensor import Tensor

__all__ = ["EncoderConfig", "TransformerBlock", "TransformerEncoder"]


@dataclass(frozen=True)
class EncoderConfig:
    """Hyper-parameters of a BERT-style encoder (paper Sec. 2.3 notation).

    Attributes
    ----------
    num_layers:
        ``L`` — number of Transformer blocks.
    num_heads:
        ``A`` — attention heads per block.
    hidden_size:
        ``H`` — model width.
    intermediate_size:
        ``I`` — feed-forward inner width.
    max_seq_len:
        ``W_max`` — maximum input length (used by position embeddings).
    vocab_size:
        Token vocabulary size for the embedding layer.
    dropout_p:
        Dropout probability for attention weights and hidden states.
    """

    num_layers: int = 2
    num_heads: int = 4
    hidden_size: int = 64
    intermediate_size: int = 128
    max_seq_len: int = 256
    vocab_size: int = 2048
    dropout_p: float = 0.1

    @staticmethod
    def paper() -> "EncoderConfig":
        """The TinyBERT-sized configuration used in the paper (14.5M params)."""
        return EncoderConfig(
            num_layers=4,
            num_heads=12,
            hidden_size=312,
            intermediate_size=1200,
            max_seq_len=512,
            vocab_size=30522,
        )


class TransformerBlock(Module):
    """One encoder block: attention + feed-forward, each with residual + LN."""

    def __init__(self, config: EncoderConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.attention = MultiHeadAttention(
            config.hidden_size, config.num_heads, config.dropout_p, rng
        )
        self.attention_norm = LayerNorm(config.hidden_size)
        self.ffn_in = Linear(config.hidden_size, config.intermediate_size, rng)
        self.ffn_out = Linear(config.intermediate_size, config.hidden_size, rng)
        self.ffn_norm = LayerNorm(config.hidden_size)
        self.hidden_dropout = Dropout(config.dropout_p, rng)

    def forward(
        self,
        query_states: Tensor,
        kv_states: Tensor | None = None,
        attention_mask: np.ndarray | None = None,
    ) -> Tensor:
        """Run the block as ``T(Q, K, V)``.

        ``kv_states=None`` means plain self-attention (``K = V = Q``). The
        residual connection always follows the query path, so the output has
        the query sequence length regardless of the key/value length.
        """
        if kv_states is None:
            kv_states = query_states
        attn = self.attention(query_states, kv_states, attention_mask)
        hidden = self.attention_norm(query_states + self.hidden_dropout(attn))
        ffn = self.ffn_out(F.gelu(self.ffn_in(hidden)))
        return self.ffn_norm(hidden + self.hidden_dropout(ffn))

    def infer(
        self,
        query_states: np.ndarray,
        kv_states: np.ndarray | None = None,
        attention_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """No-grad :meth:`forward` on raw ndarrays (bitwise identical).

        Writes only to buffers it allocated, never to its inputs, so the
        caller may keep ``query_states`` (the metadata tower keeps every
        layer's output for the latent cache).
        """
        if kv_states is None:
            kv_states = query_states
        hidden = self.attention.infer(query_states, kv_states, attention_mask)
        hidden += query_states
        self.attention_norm.infer(hidden, out=hidden)
        ffn = self.ffn_in.infer(hidden)
        F.gelu_(ffn, out=ffn)
        ffn = self.ffn_out.infer(ffn)
        ffn += hidden
        return self.ffn_norm.infer(ffn, out=ffn)


class TransformerEncoder(Module):
    """A stack of :class:`TransformerBlock` usable layer-by-layer.

    The TASTE towers need per-layer access (the content tower consumes the
    metadata tower's layer-``i-1`` output at its layer ``i``), so blocks are
    exposed via :attr:`blocks` in addition to the whole-stack
    :meth:`forward`.
    """

    def __init__(self, config: EncoderConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        self.blocks = ModuleList(
            [TransformerBlock(config, rng) for _ in range(config.num_layers)]
        )

    def forward(
        self, hidden: Tensor, attention_mask: np.ndarray | None = None
    ) -> Tensor:
        for block in self.blocks:
            hidden = block(hidden, attention_mask=attention_mask)
        return hidden

    def forward_with_layer_outputs(
        self, hidden: Tensor, attention_mask: np.ndarray | None = None
    ) -> list[Tensor]:
        """Return ``[layer_0_input, layer_1_output, ..., layer_L_output]``.

        Index ``i`` holds ``Encode_i`` in the paper's notation, with index 0
        being the embedding output. This is what the metadata tower stores
        into the latent cache.
        """
        outputs = [hidden]
        for block in self.blocks:
            hidden = block(hidden, attention_mask=attention_mask)
            outputs.append(hidden)
        return outputs
