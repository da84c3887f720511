"""Tests for repro.sched: width bucketing, the cross-table inference
batcher, the no-grad memo caches, and — the load-bearing property —
bitwise equivalence of sequential, pipelined-unbatched and batched runs."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import (
    BatchingConfig,
    DetectOptions,
    DetectorConfig,
    TasteDetector,
    ThresholdPolicy,
)
from repro.db import CloudDatabaseServer, CostModel
from repro.faults import FaultPlan, FaultRule
from repro.features.encoding import TokenEncodeCache
from repro.nn import ArrayKeyLRU
from repro.obs.metrics import MetricsRegistry
from repro.sched import (
    InferenceBatcher,
    Phase1Request,
    Phase1Result,
    bucket_width,
    group_requests,
    run_grouped,
)

FAST = CostModel(time_scale=0.0)


# ----------------------------------------------------------------------
# Width bucketing + config validation
# ----------------------------------------------------------------------
class TestBucketWidth:
    def test_rounds_up_to_quantum(self):
        assert bucket_width(0, 16) == 16
        assert bucket_width(1, 16) == 16
        assert bucket_width(16, 16) == 16
        assert bucket_width(17, 16) == 32
        assert bucket_width(129, 64) == 192

    def test_cap_never_truncates_real_length(self):
        # Under the cap: normal quantization, clipped to the cap.
        assert bucket_width(90, 16, cap=96) == 96
        # Over the cap the exact length survives (the encoder itself
        # decides whether to reject it; bucketing must not lie about it).
        assert bucket_width(100, 16, cap=96) == 100

    def test_monotonic_in_length(self):
        widths = [bucket_width(n, 16, cap=512) for n in range(0, 600, 7)]
        assert widths == sorted(widths)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            bucket_width(-1, 16)


class TestBatchingConfig:
    def test_defaults_valid(self):
        config = BatchingConfig()
        assert config.enabled and config.adaptive
        assert config.max_batch_cols >= 1 and config.pad_quantum >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_cols": 0},
            {"max_wait_ms": -1.0},
            {"pad_quantum": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BatchingConfig(**kwargs)

    def test_replace_revalidates(self):
        config = BatchingConfig()
        assert config.replace(max_batch_cols=8).max_batch_cols == 8
        with pytest.raises(ValueError):
            config.replace(pad_quantum=-2)


# ----------------------------------------------------------------------
# Featurizer token-id memo
# ----------------------------------------------------------------------
class TestTokenEncodeCache:
    def test_hit_and_miss_counting(self, tokenizer):
        cache = TokenEncodeCache(tokenizer, capacity=8)
        first = cache.encode("customer email address")
        again = cache.encode("customer email address")
        other = cache.encode("customer phone number")
        assert first == again == tokenizer.encode("customer email address")
        assert other == tokenizer.encode("customer phone number")
        assert cache.hits == 1 and cache.misses == 2

    def test_returns_fresh_lists(self, tokenizer):
        cache = TokenEncodeCache(tokenizer, capacity=8)
        ids = cache.encode("customer email address")
        ids.append(-1)  # caller-side mutation must not poison the cache
        assert cache.encode("customer email address") == ids[:-1]

    def test_distinct_options_are_distinct_entries(self, tokenizer):
        cache = TokenEncodeCache(tokenizer, capacity=8)
        cache.encode("email address", max_len=4)
        cache.encode("email address", max_len=8)
        assert cache.misses == 2 and cache.hits == 0

    def test_capacity_evicts_lru(self, tokenizer):
        cache = TokenEncodeCache(tokenizer, capacity=2)
        cache.encode("alpha")
        cache.encode("beta")
        cache.encode("gamma")  # evicts "alpha"
        cache.encode("alpha")
        assert cache.hits == 0 and cache.misses == 4


# ----------------------------------------------------------------------
# Array-keyed kernel memo
# ----------------------------------------------------------------------
class TestArrayKeyLRU:
    def test_builds_once_per_key(self):
        memo = ArrayKeyLRU("test", capacity=4)
        calls = []

        def build(array):
            calls.append(1)
            return array * 2.0

        key = np.arange(4, dtype=np.float32)
        first = memo.get(key, build)
        second = memo.get(key.copy(), build)  # equal content, new object
        assert len(calls) == 1
        assert first is second
        np.testing.assert_array_equal(first, key * 2.0)
        assert memo.hits == 1 and memo.misses == 1

    def test_cached_arrays_are_read_only(self):
        memo = ArrayKeyLRU("test", capacity=4)
        built = memo.get(np.ones(3), lambda a: a + 1.0)
        assert not built.flags.writeable

    def test_capacity_evicts(self):
        memo = ArrayKeyLRU("test", capacity=2)
        for value in (1.0, 2.0, 3.0):
            memo.get(np.full(2, value), lambda a: a.copy())
        memo.get(np.full(2, 1.0), lambda a: a.copy())  # was evicted
        assert memo.misses == 4 and len(memo) == 2

    def test_tuple_keys(self):
        memo = ArrayKeyLRU("test", capacity=4)
        a, b = np.arange(3), np.arange(3, 6)
        memo.get((a, b), lambda x, y: x + y)
        memo.get((a, b), lambda x, y: x + y)
        memo.get((b, a), lambda x, y: x + y)  # order matters
        assert memo.hits == 1 and memo.misses == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            ArrayKeyLRU("bad", capacity=0)

    def test_eviction_counted(self):
        memo = ArrayKeyLRU("evict-test", capacity=2)
        for value in range(4):
            memo.get(np.full(2, value), lambda a: a.copy())
        assert len(memo) == 2
        assert memo.evictions == 2

    def test_capacity_enforced_under_concurrent_inserts(self):
        memo = ArrayKeyLRU("race-test", capacity=8)
        errors = []

        def hammer(worker):
            try:
                for i in range(50):
                    memo.get(np.full(3, worker * 1000 + i), lambda a: a.copy())
                    assert len(memo) <= 8
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(memo) <= 8
        assert memo.evictions >= 6 * 50 - 8

    def test_racing_same_key_returns_one_entry(self):
        memo = ArrayKeyLRU("same-key", capacity=4)
        barrier = threading.Barrier(4)
        results = []

        def build(a):
            return a * 2.0

        def worker():
            barrier.wait()
            results.append(memo.get(np.arange(5.0), build))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(memo) == 1
        assert all(r is results[0] for r in results)
        assert memo.hits + memo.misses == 4


# ----------------------------------------------------------------------
# Batcher mechanics (driven directly, no executor)
# ----------------------------------------------------------------------
def _phase1_requests(featurizer, tables, quantum=16):
    requests = []
    for table in tables:
        encoded = featurizer.encode_offline(table, with_content=False, with_labels=False)
        width = bucket_width(len(encoded.meta.token_ids), quantum, cap=512)
        requests.append(Phase1Request(encoded=encoded, meta_width=width))
    return requests


class TestInferenceBatcher:
    def test_submit_outside_serving_raises(self, untrained_model, featurizer, tiny_corpus):
        batcher = InferenceBatcher(
            untrained_model, BatchingConfig(), metrics=MetricsRegistry()
        )
        request = _phase1_requests(featurizer, tiny_corpus.tables[:1])[0]
        with pytest.raises(RuntimeError, match="not serving"):
            batcher.submit(request)

    def test_results_match_local_forwards_bitwise(
        self, untrained_model, featurizer, tiny_corpus
    ):
        requests = _phase1_requests(featurizer, tiny_corpus.tables[:4])
        reference = run_grouped(untrained_model, requests, coalesce=False)
        batcher = InferenceBatcher(
            untrained_model, BatchingConfig(), metrics=MetricsRegistry()
        )
        with batcher.serving():
            batched = batcher.run(requests)
        assert all(isinstance(result, Phase1Result) for result in batched)
        for ref, got in zip(reference, batched):
            assert ref.probs.tobytes() == got.probs.tobytes()
            assert ref.encoding.meta_logits.tobytes() == got.encoding.meta_logits.tobytes()
            for ref_layer, got_layer in zip(
                ref.encoding.layer_outputs, got.encoding.layer_outputs
            ):
                assert ref_layer.tobytes() == got_layer.tobytes()

    def test_full_flush_when_cols_exceed_budget(
        self, untrained_model, featurizer, tiny_corpus
    ):
        metrics = MetricsRegistry()
        config = BatchingConfig(max_batch_cols=2, max_wait_ms=500.0, adaptive=False)
        batcher = InferenceBatcher(untrained_model, config, metrics=metrics)
        requests = _phase1_requests(featurizer, tiny_corpus.tables[:3])
        with batcher.serving():
            batcher.run(requests)
        assert metrics.counter("sched.flush_reason", reason="full").value >= 1

    def test_timeout_flush_when_not_adaptive(
        self, untrained_model, featurizer, tiny_corpus
    ):
        metrics = MetricsRegistry()
        config = BatchingConfig(max_batch_cols=10_000, max_wait_ms=5.0, adaptive=False)
        batcher = InferenceBatcher(untrained_model, config, metrics=metrics)
        requests = _phase1_requests(featurizer, tiny_corpus.tables[:2])
        with batcher.serving():
            batcher.run(requests)
        assert metrics.counter("sched.flush_reason", reason="timeout").value >= 1

    def test_idle_flush_beats_long_timeout(
        self, untrained_model, featurizer, tiny_corpus
    ):
        metrics = MetricsRegistry()
        # Timeout alone would stall each flush for 10s; the adaptive idle
        # rule (no prep backlog, all infer stages already waiting) must
        # flush immediately instead. The 60s join timeout is the failure
        # detector: a hang here means the idle rule regressed.
        config = BatchingConfig(max_batch_cols=10_000, max_wait_ms=10_000.0)
        batcher = InferenceBatcher(untrained_model, config, metrics=metrics)
        requests = _phase1_requests(featurizer, tiny_corpus.tables[:2])
        results = []
        with batcher.serving():
            batcher.note_state(0, 1)
            thread = threading.Thread(
                target=lambda: results.extend(batcher.run(requests))
            )
            thread.start()
            thread.join(timeout=60.0)
            assert not thread.is_alive(), "idle flush never fired"
        assert len(results) == len(requests)
        assert metrics.counter("sched.flush_reason", reason="idle").value >= 1

    def test_failed_forward_fails_only_its_batch(
        self, untrained_model, featurizer, tiny_corpus
    ):
        batcher = InferenceBatcher(
            untrained_model,
            BatchingConfig(max_wait_ms=1.0),
            metrics=MetricsRegistry(),
        )
        bad = Phase1Request(encoded=None, meta_width=16)  # forward will raise
        good = _phase1_requests(featurizer, tiny_corpus.tables[:1])
        with batcher.serving():
            with pytest.raises(Exception):
                batcher.run([bad])
            # The compute thread survived the failed batch and still
            # serves later submitters.
            results = batcher.run(good)
        assert len(results) == 1 and isinstance(results[0], Phase1Result)

    def test_abandoned_future_does_not_wedge_others(
        self, untrained_model, featurizer, tiny_corpus
    ):
        """A submitter killed after submit() (retry give-up) must not block
        the batcher: other submitters keep getting results and shutdown
        still drains."""
        batcher = InferenceBatcher(
            untrained_model,
            BatchingConfig(max_wait_ms=2.0),
            metrics=MetricsRegistry(),
        )
        requests = _phase1_requests(featurizer, tiny_corpus.tables[:6])
        outcomes: dict[int, int] = {}
        lock = threading.Lock()

        def submitter(index: int, abandon: bool) -> None:
            futures = batcher.submit_many([requests[index]])
            if abandon:
                return  # simulates a job killed by retry give-up
            result = futures[0].result(timeout=30.0)
            with lock:
                outcomes[index] = len(result.probs)

        with batcher.serving():
            threads = [
                threading.Thread(target=submitter, args=(i, i % 3 == 0))
                for i in range(len(requests))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        waited = [i for i in range(len(requests)) if i % 3 != 0]
        assert sorted(outcomes) == waited
        assert not batcher.is_serving()

    def test_stress_many_threads_with_giveups_never_deadlocks(
        self, untrained_model, featurizer, tiny_corpus
    ):
        batcher = InferenceBatcher(
            untrained_model,
            BatchingConfig(max_batch_cols=16, max_wait_ms=1.0),
            metrics=MetricsRegistry(),
        )
        requests = _phase1_requests(featurizer, tiny_corpus.tables[:8])
        errors: list[BaseException] = []
        completed = []
        lock = threading.Lock()

        def hammer(worker: int) -> None:
            try:
                for round_index in range(5):
                    request = requests[(worker + round_index) % len(requests)]
                    futures = batcher.submit_many([request])
                    if (worker + round_index) % 4 == 0:
                        continue  # abandon: the give-up path
                    futures[0].result(timeout=30.0)
                    with lock:
                        completed.append((worker, round_index))
            except BaseException as error:  # pragma: no cover - failure path
                with lock:
                    errors.append(error)

        with batcher.serving():
            threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            stuck = [thread for thread in threads if thread.is_alive()]
            assert not stuck, f"{len(stuck)} submitter threads deadlocked"
        assert not errors
        assert len(completed) == 8 * 5 - sum(
            1 for w in range(8) for r in range(5) if (w + r) % 4 == 0
        )

    def test_group_requests_partitions_by_width(self, featurizer, tiny_corpus):
        requests = _phase1_requests(featurizer, tiny_corpus.tables[:6])
        groups = group_requests(requests)
        recovered = [None] * len(requests)
        for indices, subset in groups:
            widths = {r.meta_width for r in subset}
            assert len(widths) == 1
            for index, request in zip(indices, subset):
                recovered[index] = request
        assert recovered == requests


# ----------------------------------------------------------------------
# End-to-end equivalence: the whole point of width bucketing
# ----------------------------------------------------------------------
def _detect(model, featurizer, tables, config, options=None):
    server = CloudDatabaseServer.from_tables(tables, FAST)
    detector = TasteDetector(
        model, featurizer, ThresholdPolicy(0.3, 0.7), config=config
    )
    report = detector.detect(server, options=options)
    return detector, report


def _assert_reports_bitwise_equal(report_a, report_b):
    preds_a = sorted(
        (p for t in report_a.tables for p in t.predictions),
        key=lambda p: (p.table_name, p.column_name),
    )
    preds_b = sorted(
        (p for t in report_b.tables for p in t.predictions),
        key=lambda p: (p.table_name, p.column_name),
    )
    assert len(preds_a) == len(preds_b)
    for a, b in zip(preds_a, preds_b):
        assert (a.table_name, a.column_name) == (b.table_name, b.column_name)
        assert a.phase == b.phase
        assert a.admitted_types == b.admitted_types
        assert a.probabilities.tobytes() == b.probabilities.tobytes()


def _assert_caches_bitwise_equal(cache_a, cache_b):
    keys_a, keys_b = sorted(cache_a._store), sorted(cache_b._store)
    assert keys_a == keys_b
    for key in keys_a:
        entry_a, entry_b = cache_a._store[key], cache_b._store[key]
        assert len(entry_a.layer_outputs) == len(entry_b.layer_outputs)
        for layer_a, layer_b in zip(entry_a.layer_outputs, entry_b.layer_outputs):
            assert layer_a.tobytes() == layer_b.tobytes()
        assert entry_a.meta_mask.tobytes() == entry_b.meta_mask.tobytes()
        assert entry_a.col_positions.tobytes() == entry_b.col_positions.tobytes()
        assert entry_a.numeric.tobytes() == entry_b.numeric.tobytes()
        assert entry_a.meta_logits.tobytes() == entry_b.meta_logits.tobytes()


class TestBatchedEquivalence:
    def test_sequential_vs_pipelined_batched_bitwise(
        self, trained_model, featurizer, tiny_corpus
    ):
        tables = tiny_corpus.train[:10]
        seq_detector, seq_report = _detect(
            trained_model, featurizer, tables, DetectorConfig(pipelined=False)
        )
        bat_detector, bat_report = _detect(
            trained_model,
            featurizer,
            tables,
            DetectorConfig(pipelined=True, infer_workers=2),
        )
        assert bat_detector.batcher is not None
        _assert_reports_bitwise_equal(seq_report, bat_report)
        _assert_caches_bitwise_equal(seq_detector.cache, bat_detector.cache)

    def test_pipelined_unbatched_matches_batched(
        self, trained_model, featurizer, tiny_corpus
    ):
        tables = tiny_corpus.train[:10]
        off_detector, off_report = _detect(
            trained_model,
            featurizer,
            tables,
            DetectorConfig(
                pipelined=True,
                infer_workers=2,
                batching=BatchingConfig(enabled=False),
            ),
        )
        assert off_detector.batcher is None
        _, on_report = _detect(
            trained_model,
            featurizer,
            tables,
            DetectorConfig(pipelined=True, infer_workers=2),
        )
        _assert_reports_bitwise_equal(off_report, on_report)

    def test_equivalence_under_fault_plan(
        self, untrained_model, featurizer, tiny_corpus
    ):
        """Deterministic faults perturb timing and retries, never results:
        both executors recover the same transient faults identically and
        degrade the same give-up table to its Phase-1 prediction."""
        tables = tiny_corpus.train[:8]
        recovered = tables[0].name  # 2 faults < 3 retry attempts: recovers
        doomed = tables[1].name  # every attempt faults: gives up, degrades
        plan = FaultPlan(
            rules=(
                FaultRule(
                    "fetch_values",
                    "latency",
                    probability=1.0,
                    delay=0.002,
                ),
                FaultRule(
                    "fetch_values",
                    "transient",
                    probability=1.0,
                    max_faults=2,
                    tables=(recovered,),
                ),
                FaultRule(
                    "fetch_values",
                    "transient",
                    probability=1.0,
                    tables=(doomed,),
                ),
            )
        )
        _, seq_report = _detect(
            untrained_model,
            featurizer,
            tables,
            DetectorConfig(pipelined=False),
            options=DetectOptions(fault_plan=plan),
        )
        _, bat_report = _detect(
            untrained_model,
            featurizer,
            tables,
            DetectorConfig(pipelined=True, infer_workers=2),
            options=DetectOptions(fault_plan=plan),
        )
        assert seq_report.giveups == bat_report.giveups >= 1
        degraded_seq = {t.table_name for t in seq_report.tables if t.degraded}
        degraded_bat = {t.table_name for t in bat_report.tables if t.degraded}
        assert degraded_seq == degraded_bat == {doomed}
        _assert_reports_bitwise_equal(seq_report, bat_report)
