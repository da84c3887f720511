"""Online adaptation to user feedback about detection results.

The paper's second future-work direction (Sec. 8): make the model adapt to
user corrections. Cloud catalog products surface detected types to users,
who confirm or fix them; this module turns those signals into bounded
online updates.

Design:

* a :class:`FeedbackBuffer` accumulates corrections — each is a table, a
  column, and the user-asserted set of types (confirmations are
  corrections that match the current prediction; they reinforce);
* :func:`apply_feedback` replays the buffer for a few low-learning-rate
  steps, computing the multi-task loss **only on the corrected columns**
  (other columns of the same table are masked out, so unrelated knowledge
  is disturbed as little as possible).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..datagen.tables import Table
from ..features.encoding import Batch, EncodedTable, Featurizer, collate
from .adtd import ADTDModel

__all__ = ["FeedbackExample", "FeedbackBuffer", "FeedbackStats", "apply_feedback"]


@dataclass(frozen=True)
class FeedbackExample:
    """One user correction: this column of this table has these types."""

    table: Table
    column_name: str
    correct_types: tuple[str, ...]


@dataclass
class FeedbackBuffer:
    """A bounded FIFO buffer of user corrections."""

    capacity: int = 256
    examples: list[FeedbackExample] = field(default_factory=list)

    def record(self, table: Table, column_name: str, correct_types: list[str]) -> None:
        names = {column.name for column in table.columns}
        if column_name not in names:
            raise KeyError(f"table {table.name!r} has no column {column_name!r}")
        self.examples.append(
            FeedbackExample(table, column_name, tuple(correct_types))
        )
        if len(self.examples) > self.capacity:
            del self.examples[: len(self.examples) - self.capacity]

    def __len__(self) -> int:
        return len(self.examples)

    def clear(self) -> None:
        self.examples.clear()


@dataclass
class FeedbackStats:
    """Outcome of one feedback-application pass."""

    examples: int
    steps: int
    initial_loss: float
    final_loss: float


def _encode_with_correction(
    featurizer: Featurizer, example: FeedbackExample
) -> tuple[EncodedTable, int]:
    """Encode the example's table with the corrected label substituted."""
    labels = [list(column.types) for column in example.table.columns]
    column_index = next(
        i for i, column in enumerate(example.table.columns)
        if column.name == example.column_name
    )
    labels[column_index] = list(example.correct_types)
    metadata_table = example.table
    encoded = featurizer.encode_offline(metadata_table, with_labels=False)
    encoded.labels = np.stack(
        [featurizer.registry.labels_to_vector(names) for names in labels]
    )
    return encoded, column_index


def _correction_mask(batch: Batch, corrected: list[int]) -> np.ndarray:
    """0/1 mask selecting only the corrected column of each batch row."""
    mask = np.zeros(batch.column_mask.shape, dtype=np.float32)
    for row, column_index in enumerate(corrected):
        mask[row, column_index] = 1.0
    return mask[..., None]


def apply_feedback(
    model: ADTDModel,
    featurizer: Featurizer,
    buffer: FeedbackBuffer,
    steps: int = 10,
    learning_rate: float = 5e-4,
    batch_size: int = 8,
    seed: int = 0,
) -> FeedbackStats:
    """Run a few online update steps over the feedback buffer.

    The loss combines both towers (the metadata tower must learn the
    correction too — it is what serves privacy-mode tenants) but covers
    only the corrected columns. The model is returned to eval mode.
    """
    if not buffer.examples:
        return FeedbackStats(0, 0, 0.0, 0.0)

    encoded_pairs = [
        _encode_with_correction(featurizer, example) for example in buffer.examples
    ]
    optimizer = nn.Adam(model.parameters(), lr=learning_rate)
    rng = np.random.default_rng(seed)

    initial_loss = final_loss = 0.0
    model.train()
    for step in range(steps):
        picks = rng.integers(0, len(encoded_pairs), size=min(batch_size, len(encoded_pairs)))
        chosen = [encoded_pairs[int(i)] for i in picks]
        batch = collate([encoded for encoded, _ in chosen])
        mask = _correction_mask(batch, [index for _, index in chosen])

        meta_logits, content_logits = model(batch)
        loss = nn.bce_with_logits(meta_logits, batch.labels, mask=mask) + nn.bce_with_logits(
            content_logits, batch.labels, mask=mask
        )
        model.zero_grad()
        loss.backward()
        nn.clip_grad_norm(model.parameters(), 1.0)
        optimizer.step()

        if step == 0:
            initial_loss = loss.item()
        final_loss = loss.item()
    model.eval()
    return FeedbackStats(len(buffer), steps, initial_loss, final_loss)
