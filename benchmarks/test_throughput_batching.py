"""Perf gate: cross-table adaptive batching throughput (columns/second).

Runs the pipelined detector over a wide-table corpus twice per trial —
batching on vs. off — with everything else identical, and records
columns/second to ``BENCH_throughput.json`` at the repo root. Two gates:

* **capability** — the batched run must beat the unbatched run by >= 20%
  in at least one of the interleaved trials (best-of-N guards against a
  transient load burst penalizing one arm of a single pair);
* **regression** — batched columns/second must stay above 70% of the
  committed conservative baseline (``throughput_baseline.json``).

The workload is deliberately wide tables with a small column-split
threshold: that is the paper's S2 regime (huge cloud tables split into
many chunks), and it is where batching matters — each infer stage
submits several short-sequence chunks that coalesce into one forward.
Predictions must be bitwise identical between the two modes; a perf win
that changes results is a bug, not a win.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.core import (
    ADTDConfig,
    ADTDModel,
    BatchingConfig,
    CompileConfig,
    DetectorConfig,
    TasteDetector,
    ThresholdPolicy,
)
from repro.datagen import TableGenConfig, default_registry, generate_table
from repro.db import CloudDatabaseServer, CostModel
from repro.features import FeatureConfig, Featurizer, corpus_texts
from repro.text import Tokenizer

from _harness import result_path, write_result_atomic

RESULT_PATH = result_path("throughput")
BASELINE_PATH = Path(__file__).resolve().parent / "throughput_baseline.json"

NUM_TABLES = 32
TRIALS = 5
MIN_SPEEDUP = 1.20  # capability gate, best trial
REGRESSION_FACTOR = 0.70  # regression gate vs committed baseline


@pytest.fixture(scope="module")
def workload():
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
    return tables, featurizer, model


def _run(tables, featurizer, model, batching_enabled, compiled=False):
    server = CloudDatabaseServer.from_tables(tables, CostModel(time_scale=0.0))
    detector = TasteDetector(
        model,
        featurizer,
        ThresholdPolicy(0.1, 0.9),
        config=DetectorConfig(
            pipelined=True,
            prep_workers=6,
            infer_workers=4,
            batching=BatchingConfig(enabled=batching_enabled),
            compile=CompileConfig(enabled=compiled),
        ),
    )
    started = time.perf_counter()
    report = detector.detect(server)
    return time.perf_counter() - started, report


def _prediction_bytes(report):
    return sorted(
        (p.table_name, p.column_name, p.phase, tuple(p.admitted_types),
         p.probabilities.tobytes())
        for table in report.tables
        for p in table.predictions
    )


def test_throughput_batching(workload):
    tables, featurizer, model = workload
    # Warm up both paths (memo caches, token cache, thread pools).
    _, warm_on = _run(tables, featurizer, model, True)
    _, warm_off = _run(tables, featurizer, model, False)
    assert _prediction_bytes(warm_on) == _prediction_bytes(warm_off), (
        "batched and unbatched predictions diverged — the perf win is void"
    )
    # The batched/unbatched arms run the Tensor reference forward
    # (compile.enabled=False). The "compiled" variant, the raw-ndarray
    # infer forward, rides along for the record (gated separately in
    # test_compile_throughput.py) but must agree bitwise here too.
    _, warm_compiled = _run(tables, featurizer, model, True, compiled=True)
    assert _prediction_bytes(warm_compiled) == _prediction_bytes(warm_on), (
        "infer predictions diverged from the reference — the perf win is void"
    )
    num_columns = warm_on.num_columns

    pairs = []
    compiled_seconds = []
    for _ in range(TRIALS):
        on_seconds, _ = _run(tables, featurizer, model, True)
        off_seconds, _ = _run(tables, featurizer, model, False)
        comp_seconds, _ = _run(tables, featurizer, model, True, compiled=True)
        pairs.append((on_seconds, off_seconds))
        compiled_seconds.append(comp_seconds)

    best_on = min(on for on, _ in pairs)
    best_off = min(off for _, off in pairs)
    total_on = sum(on for on, _ in pairs)
    total_off = sum(off for _, off in pairs)
    best_speedup = max(off / on for on, off in pairs)
    result = {
        "num_tables": NUM_TABLES,
        "num_columns": num_columns,
        "trials": TRIALS,
        "batched_cols_per_sec": round(num_columns / best_on, 1),
        "unbatched_cols_per_sec": round(num_columns / best_off, 1),
        "compiled_cols_per_sec": round(num_columns / min(compiled_seconds), 1),
        "best_speedup": round(best_speedup, 3),
        "overall_speedup": round(total_off / total_on, 3),
        "pairs": [
            {"batched_seconds": round(on, 4), "unbatched_seconds": round(off, 4)}
            for on, off in pairs
        ],
        "compiled_seconds": [round(s, 4) for s in compiled_seconds],
    }
    write_result_atomic(RESULT_PATH, result)

    assert best_speedup >= MIN_SPEEDUP, (
        f"batching speedup {best_speedup:.2f}x never reached "
        f"{MIN_SPEEDUP:.2f}x across {TRIALS} trials: {result['pairs']}"
    )
    baseline = json.loads(BASELINE_PATH.read_text())
    floor = baseline["batched_cols_per_sec"] * REGRESSION_FACTOR
    assert result["batched_cols_per_sec"] >= floor, (
        f"batched throughput {result['batched_cols_per_sec']} cols/s regressed "
        f"more than {1 - REGRESSION_FACTOR:.0%} below the committed baseline "
        f"{baseline['batched_cols_per_sec']} cols/s"
    )
