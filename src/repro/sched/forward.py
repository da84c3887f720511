"""Width-bucketed batched forward passes for the ADTD model.

The batcher coalesces chunks from different tables into one collated
forward. For that to be *safe* — batched and unbatched runs must produce
bitwise-identical predictions — the padded sequence widths a chunk sees
must not depend on which batch it rode in: float32 reductions regroup
when the padded width changes, shifting results by ~1e-6, which is
enough to flip a threshold decision. Two mechanisms guarantee identical
widths:

* every path (sequential, pipelined-unbatched, batched) quantizes padded
  widths with :func:`bucket_width` before collating, and
* the batcher only coalesces requests whose quantized widths already
  match (:func:`group_requests`), so collation never re-pads a row.

Adding *rows* is free: extra tables in the batch dimension and extra
padded columns in the column dimension never change a real row's
arithmetic (each row's reductions run over its own axis), which is what
makes cross-table batching exact. Forwards run on whatever thread calls
them — the model's raw-ndarray ``infer_*`` forward, or its autograd
``Tensor`` forward under ``no_grad`` as the reference; per-request results are sliced back out as
contiguous copies so a request never pins its whole batch in memory —
including the per-request :class:`~repro.core.latent_cache.CachedEncoding`
slices that keep Phase-2 cross-attention semantics unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..core.adtd import ADTDModel
from ..core.latent_cache import CachedEncoding
from ..features.encoding import Batch, EncodedTable, collate
from ..nn.functional import stable_sigmoid

__all__ = [
    "bucket_width",
    "Phase1Request",
    "Phase1Result",
    "Phase2Request",
    "Phase2Result",
    "run_phase1",
    "run_phase2",
    "group_requests",
    "run_grouped",
]


def bucket_width(length: int, quantum: int, cap: int | None = None) -> int:
    """Quantize a sequence length up onto a geometric bucket ladder.

    Buckets start at ``quantum`` and grow by ~1.5x, each rung rounded up
    to a multiple of ``quantum`` (16 -> 16, 32, 48, 80, 128, 192, ...).
    A geometric ladder keeps the number of distinct widths small — so
    requests from different tables actually land in shared buckets and
    coalesce — while bounding padding waste at ~33% of the sequence.
    Linear quantization would waste less padding but shred medium-length
    content sequences across dozens of buckets, defeating batching.

    Capped at ``cap`` (the encoder's ``max_seq_len``) so bucketing never
    asks the model for a longer sequence than it supports; lengths at or
    above the cap keep their exact width.
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    width = quantum
    while width < length:
        width = -(-(width + width // 2) // quantum) * quantum
    if cap is not None and width > cap:
        width = max(length, min(width, cap))
    return width


@dataclass
class Phase1Request:
    """One chunk's metadata-tower classification request."""

    encoded: EncodedTable
    meta_width: int

    @property
    def num_columns(self) -> int:
        return self.encoded.num_columns

    @property
    def group_key(self) -> tuple:
        return (1, self.meta_width)


@dataclass
class Phase1Result:
    """Per-chunk Phase-1 output: probabilities + a cache-ready encoding."""

    probs: np.ndarray  # (C, num_labels)
    encoding: CachedEncoding


@dataclass
class Phase2Request:
    """One chunk's content-tower verification request.

    ``cached`` carries the chunk's Phase-1 latents when the cache held
    them; ``None`` (or a width-incompatible entry) makes the forward
    recompute the metadata tower for the whole batch — bitwise equal to
    the cached latents, since the same tokens at the same width go
    through the same eval-mode arithmetic.
    """

    encoded: EncodedTable
    meta_width: int
    content_width: int
    cached: CachedEncoding | None = None

    @property
    def num_columns(self) -> int:
        return self.encoded.num_columns

    @property
    def group_key(self) -> tuple:
        return (2, self.meta_width, self.content_width)


@dataclass
class Phase2Result:
    """Per-chunk Phase-2 output: content-classifier probabilities."""

    probs: np.ndarray  # (C, num_labels)


def request_cost(request: "Phase1Request | Phase2Request") -> int:
    """Batch-budget cost of a request, in columns."""
    return max(request.num_columns, 1)


def _phase1_results(
    requests: list[Phase1Request],
    batch: Batch,
    logits_np: np.ndarray,
    layer_arrays: list[np.ndarray],
) -> list[Phase1Result]:
    """Slice per-request results (contiguous copies) out of batch outputs."""
    probs = stable_sigmoid(logits_np)
    results: list[Phase1Result] = []
    for row, request in enumerate(requests):
        cols = request.num_columns
        # Real copies, not np.ascontiguousarray: a single-row slice of a
        # C-contiguous batch output is already contiguous, so that would
        # return a *view* pinning the whole batch in the latent cache.
        encoding = CachedEncoding(
            layer_outputs=[array[row : row + 1].copy() for array in layer_arrays],
            meta_mask=batch.meta_mask[row : row + 1].copy(),
            col_positions=batch.col_positions[row : row + 1, :cols].copy(),
            numeric=batch.numeric[row : row + 1, :cols].copy(),
            meta_logits=logits_np[row : row + 1, :cols].copy(),
        )
        results.append(Phase1Result(probs=probs[row, :cols].copy(), encoding=encoding))
    return results


def run_phase1(
    model: ADTDModel, requests: list[Phase1Request], reference: bool = False
) -> list[Phase1Result]:
    """One collated metadata-tower forward over same-width requests.

    Runs :meth:`ADTDModel.infer_phase1`; ``reference=True`` runs the
    autograd ``Tensor`` forward under ``no_grad`` instead. Both read the
    live weights and agree bitwise.
    """
    if not requests:
        return []
    meta_width = requests[0].meta_width
    if any(r.meta_width != meta_width for r in requests):
        raise ValueError("phase-1 batch mixes meta widths; group_requests() first")
    batch = collate([r.encoded for r in requests], meta_width=meta_width)
    if not reference:
        logits_np, layer_arrays = model.infer_phase1(batch)
        return _phase1_results(requests, batch, logits_np, layer_arrays)
    with nn.no_grad():
        meta_layers = model.encode_metadata(batch)
        logits = model.meta_logits(batch, meta_layers)
    layer_arrays = [layer.numpy() for layer in meta_layers]
    return _phase1_results(requests, batch, logits.numpy(), layer_arrays)


def run_phase2(
    model: ADTDModel, requests: list[Phase2Request], reference: bool = False
) -> list[Phase2Result]:
    """One collated content-tower forward over same-width requests.

    Uses the requests' cached Phase-1 latents when *all* of them hold a
    width-usable entry; any miss recomputes the metadata tower for the
    whole batch, which is bitwise equal to the cached latents.
    ``reference`` selects the forward as in :func:`run_phase1`.
    """
    if not requests:
        return []
    meta_width = requests[0].meta_width
    content_width = requests[0].content_width
    if any(
        r.meta_width != meta_width or r.content_width != content_width for r in requests
    ):
        raise ValueError("phase-2 batch mixes widths; group_requests() first")
    batch = collate(
        [r.encoded for r in requests],
        meta_width=meta_width,
        content_width=content_width,
    )
    cached = None
    if all(r.cached is not None and r.cached.usable_at(meta_width) for r in requests):
        num_layers = len(requests[0].cached.layer_outputs)
        cached = [
            np.concatenate([r.cached.layer_outputs[i] for r in requests], axis=0)
            for i in range(num_layers)
        ]
    if not reference:
        meta_layers = cached if cached is not None else model.infer_metadata(batch)
        return _phase2_results(requests, model.infer_phase2(batch, meta_layers))
    with nn.no_grad():
        if cached is not None:
            meta_layers = [nn.Tensor(layer) for layer in cached]
        else:
            meta_layers = model.encode_metadata(batch)
        content_hidden = model.encode_content(batch, meta_layers)
        logits = model.content_logits(batch, meta_layers, content_hidden)
    return _phase2_results(requests, logits.numpy())


def _phase2_results(
    requests: list[Phase2Request], logits_np: np.ndarray
) -> list[Phase2Result]:
    """Slice per-request phase-2 probabilities (copies) out of batch logits."""
    probs = stable_sigmoid(logits_np)
    return [
        Phase2Result(probs=probs[row, : request.num_columns].copy())
        for row, request in enumerate(requests)
    ]


def group_requests(
    requests: list["Phase1Request | Phase2Request"],
) -> list[tuple[list[int], list["Phase1Request | Phase2Request"]]]:
    """Partition requests into width-compatible forward groups.

    Returns ``(indices, subset)`` pairs where ``indices`` maps each
    subset entry back to its position in ``requests``. Groups preserve
    submission order within themselves.
    """
    groups: dict[tuple, tuple[list[int], list]] = {}
    for index, request in enumerate(requests):
        indices, subset = groups.setdefault(request.group_key, ([], []))
        indices.append(index)
        subset.append(request)
    return list(groups.values())


def run_group(
    model: ADTDModel,
    subset: list["Phase1Request | Phase2Request"],
    reference: bool = False,
) -> list["Phase1Result | Phase2Result"]:
    """Run one width-compatible group through the right forward."""
    if isinstance(subset[0], Phase1Request):
        return run_phase1(model, subset, reference=reference)
    return run_phase2(model, subset, reference=reference)


def run_grouped(
    model: ADTDModel,
    requests: list["Phase1Request | Phase2Request"],
    coalesce: bool = True,
    reference: bool = False,
) -> list["Phase1Result | Phase2Result"]:
    """Run a mixed request list, returning results in submission order.

    ``coalesce=False`` runs every request as its own batch-of-1 forward —
    the unbatched reference path (and the ``batching.enabled=False``
    configuration). Widths are bucketed either way, so both modes produce
    bitwise-identical results. ``reference=True`` runs the autograd
    ``Tensor`` forward instead of the raw-ndarray one (see
    :func:`run_phase1`).
    """
    results: list = [None] * len(requests)
    if coalesce:
        for indices, subset in group_requests(requests):
            for index, result in zip(indices, run_group(model, subset, reference)):
                results[index] = result
    else:
        for index, request in enumerate(requests):
            results[index] = run_group(model, [request], reference)[0]
    return results
