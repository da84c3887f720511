"""A compact numpy-based deep learning stack.

Stands in for PyTorch + HuggingFace transformers in this offline
reproduction: reverse-mode autograd, Transformer encoder blocks with self-
and cross-attention, Adam, the paper's loss functions and checkpointing.
"""

from .attention import MultiHeadAttention
from .layers import Dropout, Embedding, GELU, LayerNorm, Linear, ReLU, Sequential
from .losses import AutomaticWeightedLoss, bce_with_logits, masked_cross_entropy
from .memo import ArrayKeyLRU
from .module import Module, ModuleList, Parameter
from .optim import SGD, Adam, WarmupLinearSchedule, clip_grad_norm
from .serialization import load_checkpoint, load_state, save_checkpoint
from .tensor import Tensor, is_grad_enabled, no_grad
from .transformer import EncoderConfig, TransformerBlock, TransformerEncoder
from . import functional

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "ArrayKeyLRU",
    "Module",
    "ModuleList",
    "Parameter",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "ReLU",
    "GELU",
    "Sequential",
    "MultiHeadAttention",
    "EncoderConfig",
    "TransformerBlock",
    "TransformerEncoder",
    "SGD",
    "Adam",
    "WarmupLinearSchedule",
    "clip_grad_norm",
    "bce_with_logits",
    "masked_cross_entropy",
    "AutomaticWeightedLoss",
    "save_checkpoint",
    "load_checkpoint",
    "load_state",
    "functional",
]
