"""Multi-task fine-tuning of the ADTD model (paper Sec. 4.3-4.4, 6.1.3).

Both towers are trained jointly: the metadata classifier's multi-label BCE
and the content classifier's multi-label BCE are combined with the
automatic weighted loss, so the shared Transformer blocks serve Phase 1 and
Phase 2 simultaneously (multi-task learning).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..datagen.tables import Table
from ..features.encoding import Batch, EncodedTable, Featurizer, collate
from ..obs import NULL_TRACER, Tracer
from .adtd import ADTDModel

__all__ = ["TrainConfig", "TrainHistory", "fine_tune", "encode_training_tables", "task_losses"]


@dataclass(frozen=True)
class TrainConfig:
    """Fine-tuning hyper-parameters."""

    epochs: int = 20
    batch_size: int = 8
    learning_rate: float = 3e-3
    weight_decay: float = 1e-4
    grad_clip: float = 5.0
    warmup_fraction: float = 0.1
    seed: int = 0
    # Ablation switch: False replaces the automatic weighted loss (paper
    # Sec. 4.4) with a plain unweighted sum of the two task losses.
    automatic_weighting: bool = True


@dataclass
class TrainHistory:
    """Per-epoch training record."""

    epoch_losses: list[float] = field(default_factory=list)
    meta_losses: list[float] = field(default_factory=list)
    content_losses: list[float] = field(default_factory=list)
    seconds: float = 0.0


def encode_training_tables(
    featurizer: Featurizer, tables: list[Table]
) -> list[EncodedTable]:
    """Split wide tables by ``l`` and encode with content and labels."""
    threshold = featurizer.config.column_split_threshold
    encoded = []
    for table in tables:
        for chunk in table.split(threshold):
            encoded.append(featurizer.encode_offline(chunk))
    return encoded


def task_losses(model: ADTDModel, batch: Batch) -> tuple[nn.Tensor, nn.Tensor]:
    """The two tasks' BCE losses for one labeled batch.

    The metadata loss covers every real column; the content loss covers
    columns whose content is present in the batch.
    """
    if batch.labels is None:
        raise ValueError("task_losses requires a labeled batch")
    meta_logits, content_logits = model(batch)
    column_mask = batch.column_mask.astype(np.float32)[..., None]
    content_mask = (batch.column_mask & (batch.val_positions >= 0)).astype(np.float32)[..., None]
    meta_loss = nn.bce_with_logits(meta_logits, batch.labels, mask=column_mask)
    content_loss = nn.bce_with_logits(content_logits, batch.labels, mask=content_mask)
    return meta_loss, content_loss


def fine_tune(
    model: ADTDModel,
    featurizer: Featurizer,
    tables: list[Table],
    config: TrainConfig | None = None,
    tracer: Tracer | None = None,
) -> TrainHistory:
    """Fine-tune the whole ADTD model on labeled tables.

    Returns the loss history. The model is left in eval mode. With a
    ``tracer``, the run emits a ``train`` span plus one ``train.epoch``
    span per epoch (carrying the epoch index and mean loss).
    """
    config = config or TrainConfig()
    tracer = tracer if tracer is not None else NULL_TRACER
    rng = np.random.default_rng(config.seed)
    encoded = encode_training_tables(featurizer, tables)
    if not encoded:
        raise ValueError("no tables to train on")

    optimizer = nn.Adam(
        model.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay
    )
    steps_per_epoch = (len(encoded) + config.batch_size - 1) // config.batch_size
    total_steps = max(steps_per_epoch * config.epochs, 1)
    schedule = nn.WarmupLinearSchedule(
        optimizer, int(config.warmup_fraction * total_steps), total_steps
    )

    history = TrainHistory()
    started = time.perf_counter()
    model.train()
    with tracer.span("train", epochs=config.epochs, num_chunks=len(encoded)):
        for epoch in range(config.epochs):
            with tracer.span("train.epoch", epoch=epoch) as epoch_span:
                order = rng.permutation(len(encoded))
                epoch_total, epoch_meta, epoch_content, batches = 0.0, 0.0, 0.0, 0
                for start in range(0, len(order), config.batch_size):
                    batch_tables = [
                        encoded[int(i)] for i in order[start : start + config.batch_size]
                    ]
                    batch = collate(batch_tables)
                    meta_loss, content_loss = task_losses(model, batch)
                    if config.automatic_weighting:
                        loss = model.task_loss([meta_loss, content_loss])
                    else:
                        loss = meta_loss + content_loss
                    model.zero_grad()
                    loss.backward()
                    nn.clip_grad_norm(model.parameters(), config.grad_clip)
                    optimizer.step()
                    schedule.step()
                    epoch_total += loss.item()
                    epoch_meta += meta_loss.item()
                    epoch_content += content_loss.item()
                    batches += 1
                epoch_span.set(loss=epoch_total / batches)
            history.epoch_losses.append(epoch_total / batches)
            history.meta_losses.append(epoch_meta / batches)
            history.content_losses.append(epoch_content / batches)
    history.seconds = time.perf_counter() - started
    model.eval()
    return history
