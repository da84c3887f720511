"""Perf gate: the raw-ndarray inference forward vs the ``Tensor`` reference.

Runs the paper's Fig. 4 S2 regime — wide cloud tables split into many
small chunks — through ``run_grouped`` twice per trial: once through the
autograd ``Tensor`` forward under ``no_grad`` (``reference=True``) and
once through the models' ``infer_phase1``/``infer_phase2``, with
identical requests. Results go to ``BENCH_compile.json`` at the repo
root (atomic write; CI uploads it as an artifact).

The gate is **capability**: the infer path must beat the reference by
>= 1.25x in at least one of the interleaved trials (best-of-N guards
against transient load penalizing one arm). The workload runs
batch-of-1 forwards on purpose: that is where skipping the ``Tensor``
wrapping and module dispatch pays — per-forward object churn dominates
small chunks, while big coalesced batches are GEMM-bound either way (the
batching gate next door covers those). Predictions must be bitwise
identical between the two arms; a perf win that changes results is a
bug, not a win.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import nn
from repro.core import ADTDConfig, ADTDModel
from repro.datagen import TableGenConfig, default_registry, generate_table
from repro.features import (
    FeatureConfig,
    Featurizer,
    corpus_texts,
    first_non_empty,
    offline_metadata,
    split_metadata,
)
from repro.sched import Phase1Request, Phase2Request, bucket_width, run_grouped
from repro.text import Tokenizer

from _harness import result_path, write_result_atomic

RESULT_PATH = result_path("compile")

NUM_TABLES = 32
TRIALS = 5
MIN_SPEEDUP = 1.25  # capability gate, best trial


@pytest.fixture(scope="module")
def workload():
    """Chunked Phase-1 + Phase-2 requests over a wide-table corpus.

    Chunking mirrors the detector's split pipeline (``split_metadata``
    at the featurizer's ``column_split_threshold``), so request widths
    land on the same bucket ladder the detector pads to.
    """
    registry = default_registry()
    rng = np.random.default_rng(0)
    table_config = TableGenConfig(
        min_columns=24,
        max_columns=48,
        min_rows=20,
        max_rows=30,
        ambiguous_name_prob=0.9,
        comment_prob=0.15,
    )
    tables = [
        generate_table(registry, table_config, rng, table_id=index)
        for index in range(NUM_TABLES)
    ]
    tokenizer = Tokenizer.train(corpus_texts(tables), max_size=1500)
    featurizer = Featurizer(
        tokenizer, registry, FeatureConfig(column_split_threshold=4)
    )
    encoder = nn.EncoderConfig(
        num_layers=2,
        num_heads=2,
        hidden_size=32,
        intermediate_size=64,
        max_seq_len=512,
        vocab_size=len(tokenizer),
        dropout_p=0.0,
    )
    model = ADTDModel(
        ADTDConfig(encoder, num_labels=registry.num_labels), seed=0
    )
    model.eval()

    def width(length):
        return bucket_width(length, 16, cap=encoder.max_seq_len)

    requests = []
    for table in tables:
        metadata = offline_metadata(
            table, with_histogram=featurizer.config.use_histogram
        )
        offset = 0
        for chunk in split_metadata(
            metadata, featurizer.config.column_split_threshold
        ):
            num_columns = len(chunk.columns)
            meta_encoded = featurizer.encode(chunk)
            requests.append(
                Phase1Request(
                    encoded=meta_encoded,
                    meta_width=width(len(meta_encoded.meta.token_ids)),
                )
            )
            content = {
                local: first_non_empty(
                    table.columns[offset + local].values[
                        : featurizer.config.scan_rows
                    ],
                    featurizer.config.cells_per_column,
                )
                for local in range(num_columns)
            }
            full_encoded = featurizer.encode(chunk, content)
            requests.append(
                Phase2Request(
                    encoded=full_encoded,
                    meta_width=width(len(full_encoded.meta.token_ids)),
                    content_width=width(len(full_encoded.content.token_ids)),
                )
            )
            offset += num_columns
    return model, requests


def _run(model, requests, reference):
    """Time one full pass of batch-of-1 forwards through one forward."""
    started = time.perf_counter()
    results = run_grouped(model, requests, coalesce=False, reference=reference)
    return time.perf_counter() - started, results


def test_compile_throughput(workload):
    model, requests = workload
    num_columns = sum(request.num_columns for request in requests)
    # Warm up both arms (memo caches, allocator).
    _, reference = _run(model, requests, True)
    _, infer = _run(model, requests, False)
    assert all(
        ref.probs.tobytes() == got.probs.tobytes()
        for ref, got in zip(reference, infer)
    ), "infer predictions diverged from the Tensor reference — the perf win is void"

    pairs = []
    for _ in range(TRIALS):
        reference_seconds, _ = _run(model, requests, True)
        infer_seconds, _ = _run(model, requests, False)
        pairs.append((reference_seconds, infer_seconds))

    best_reference = min(ref for ref, _ in pairs)
    best_infer = min(inf for _, inf in pairs)
    best_speedup = max(ref / inf for ref, inf in pairs)
    result = {
        "num_tables": NUM_TABLES,
        "num_requests": len(requests),
        "num_columns": num_columns,
        "trials": TRIALS,
        "reference_cols_per_sec": round(num_columns / best_reference, 1),
        "infer_cols_per_sec": round(num_columns / best_infer, 1),
        "best_speedup": round(best_speedup, 3),
        "pairs": [
            {"reference_seconds": round(ref, 4), "infer_seconds": round(inf, 4)}
            for ref, inf in pairs
        ],
    }
    write_result_atomic(RESULT_PATH, result)

    assert best_speedup >= MIN_SPEEDUP, (
        f"infer speedup {best_speedup:.2f}x never reached "
        f"{MIN_SPEEDUP:.2f}x across {TRIALS} trials: {result['pairs']}"
    )
