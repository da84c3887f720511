"""Tests for fault injection, retries, graceful degradation and the config API."""

from __future__ import annotations

import threading
import time
import warnings

import pytest

from repro.core import (
    DetectOptions,
    DetectorConfig,
    RuntimeConfig,
    TasteDetector,
    ThresholdPolicy,
)
from repro.db import CloudDatabaseServer, CostModel
from repro.faults import (
    ConnectionDroppedError,
    DeadlineExceededError,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RetryGiveUpError,
    RetryPolicy,
    TransientDBError,
)
from repro.obs import MetricsRegistry, Tracer

FAST = CostModel(time_scale=0.0)

# Zero-backoff policy: keeps retry-heavy tests instant without changing
# the attempt accounting under test.
INSTANT = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0)


@pytest.fixture()
def server(tiny_corpus):
    return CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)


def make_detector(model, featurizer, *, plan_metrics=None, **runtime_kwargs):
    runtime_kwargs.setdefault("retry_policy", INSTANT)
    runtime_kwargs.setdefault("tracer", Tracer(enabled=False))
    if plan_metrics is not None:
        runtime_kwargs.setdefault("metrics", plan_metrics)
    return TasteDetector(
        model,
        featurizer,
        # Wide uncertainty band: with an untrained model every column's
        # probabilities hover near 0.5, so every table goes through Phase 2.
        ThresholdPolicy(0.1, 0.9),
        config=DetectorConfig(pipelined=False),
        runtime=RuntimeConfig(**runtime_kwargs),
    )


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_success_needs_no_retry(self):
        calls = []
        result = RetryPolicy().run(lambda: calls.append(1) or "ok")
        assert result == "ok"
        assert len(calls) == 1

    def test_retries_then_succeeds(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientDBError("boom")
            return "recovered"

        retried = []
        policy = RetryPolicy(max_attempts=4, base_delay=0.0, max_delay=0.0)
        result = policy.run(flaky, on_retry=lambda e, n, d: retried.append((n, d)))
        assert result == "recovered"
        assert len(attempts) == 3
        assert [n for n, _ in retried] == [1, 2]

    def test_give_up_raises_with_cause(self):
        def always_fails():
            raise TransientDBError("down")

        gave_up = []
        with pytest.raises(RetryGiveUpError) as excinfo:
            INSTANT.run(
                always_fails,
                label="meta",
                on_giveup=lambda e, n: gave_up.append(n),
            )
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.__cause__, TransientDBError)
        assert "meta" in str(excinfo.value)
        assert gave_up == [3]

    def test_non_retryable_propagates_unchanged(self):
        calls = []

        def broken():
            calls.append(1)
            raise KeyError("not a fault")

        with pytest.raises(KeyError):
            INSTANT.run(broken)
        assert len(calls) == 1  # no retry for non-fault errors

    def test_backoff_caps_at_max_delay(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=0.04, multiplier=2.0)
        delays = [policy.backoff_delay(i) for i in range(5)]
        assert delays == [0.01, 0.02, 0.04, 0.04, 0.04]

    def test_jittered_schedule_is_deterministic(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.001, max_delay=1.0, jitter=0.5, seed=42
        )

        def schedule():
            delays = []

            def always_fails():
                raise TransientDBError("x")

            with pytest.raises(RetryGiveUpError):
                policy.run(
                    always_fails,
                    on_retry=lambda e, n, d: delays.append(d),
                    sleep=lambda s: None,
                )
            return delays

        first, second = schedule(), schedule()
        assert first == second
        assert len(first) == 3
        assert all(d >= 0.001 for d in first)

    def test_deadline_exceeded(self):
        clock = iter([0.0, 10.0, 20.0, 30.0, 40.0, 50.0])
        policy = RetryPolicy(
            max_attempts=10, base_delay=0.0, max_delay=0.0, deadline=5.0
        )

        def always_fails():
            raise TransientDBError("slow")

        with pytest.raises(DeadlineExceededError) as excinfo:
            policy.run(always_fails, clock=lambda: next(clock), sleep=lambda s: None)
        assert isinstance(excinfo.value, RetryGiveUpError)  # one except clause catches both
        assert excinfo.value.attempts == 1

    def test_with_deadline_returns_copy(self):
        policy = RetryPolicy()
        assert policy.deadline is None
        assert policy.with_deadline(2.0).deadline == 2.0
        assert policy.deadline is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -1.0},
            {"multiplier": 0.5},
            {"jitter": -0.1},
            {"deadline": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


# ---------------------------------------------------------------------------
# FaultRule / FaultPlan / FaultInjector
# ---------------------------------------------------------------------------
class TestFaultRules:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"operation": "nope", "kind": "transient"},
            {"operation": "fetch_values", "kind": "nope"},
            {"operation": "fetch_values", "kind": "transient", "probability": 1.5},
            {"operation": "fetch_values", "kind": "latency"},  # zero delay
            {"operation": "fetch_metadata", "kind": "throttle", "delay": 0.1},
            {"operation": "fetch_values", "kind": "transient", "max_faults": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultRule(**kwargs)

    def test_table_restricted_rule_never_matches_tableless_ops(self):
        rule = FaultRule("*", "transient", tables=("orders",))
        assert rule.matches("fetch_metadata", "orders")
        assert not rule.matches("fetch_metadata", "users")
        assert not rule.matches("connect", None)

    def test_exact_fault_counts_with_max_faults(self, server):
        plan = FaultPlan(
            rules=(FaultRule("fetch_metadata", "transient", max_faults=2),)
        )
        injector = plan.build(metrics=MetricsRegistry())
        connection = injector.connect(server)
        table = server.database.table_names()[0]
        for _ in range(2):
            with pytest.raises(TransientDBError):
                connection.fetch_metadata(table)
        # Cap reached: the third attempt goes through.
        assert connection.fetch_metadata(table).name == table
        assert injector.fired == (2,)
        assert injector.total_fired == 2

    def test_failed_attempts_charge_nothing(self, server):
        plan = FaultPlan(
            rules=(FaultRule("fetch_metadata", "transient", max_faults=3),)
        )
        connection = plan.build(metrics=MetricsRegistry()).connect(server)
        table = server.database.table_names()[0]
        for _ in range(3):
            with pytest.raises(TransientDBError):
                connection.fetch_metadata(table)
        assert server.ledger.metadata_requests == 0  # faults fire pre-charge
        connection.fetch_metadata(table)
        assert server.ledger.metadata_requests == 1

    def test_drop_then_transparent_reconnect(self, server):
        plan = FaultPlan(rules=(FaultRule("fetch_values", "drop", max_faults=1),))
        connection = plan.build(metrics=MetricsRegistry()).connect(server)
        table = server.database.table_names()[0]
        column = connection.fetch_metadata(table).columns[0].column_name
        assert server.ledger.connections_opened == 1
        with pytest.raises(ConnectionDroppedError):
            connection.fetch_values(table, [column], limit=2)
        values = connection.fetch_values(table, [column], limit=2)
        assert column in values
        assert connection.reconnects == 1
        assert server.ledger.connections_opened == 2  # reconnect pays connect cost

    def test_injected_latency_accounted_outside_ledger(self, server):
        plan = FaultPlan(
            rules=(FaultRule("fetch_metadata", "latency", delay=0.25, max_faults=1),)
        )
        metrics = MetricsRegistry()
        injector = plan.build(metrics=metrics)
        connection = injector.connect(server)
        simulated_before = server.ledger.simulated_seconds
        connection.fetch_metadata(server.database.table_names()[0])
        assert injector.injected_latency == pytest.approx(0.25)
        assert metrics.counter("faults.injected_latency_seconds").value == pytest.approx(0.25)
        # The ledger charges the normal metadata cost only — injected delay
        # is accounted by the injector, never billed to the database.
        normal_cost = server.ledger.simulated_seconds - simulated_before
        assert normal_cost < 0.25

    def test_throttle_scales_with_column_count(self, server):
        plan = FaultPlan(
            rules=(FaultRule("fetch_values", "throttle", delay=0.01, max_faults=1),)
        )
        injector = plan.build(metrics=MetricsRegistry())
        connection = injector.connect(server)
        table = server.database.table_names()[0]
        columns = [c.column_name for c in connection.fetch_metadata(table).columns[:3]]
        connection.fetch_values(table, columns, limit=2)
        assert injector.injected_latency == pytest.approx(0.01 * len(columns))

    def test_probabilistic_stream_reproducible(self, server):
        def fired_sequence():
            plan = FaultPlan(
                seed=9, rules=(FaultRule("fetch_metadata", "transient", probability=0.5),)
            )
            connection = plan.build(metrics=MetricsRegistry()).connect(server)
            outcomes = []
            for name in server.database.table_names():
                try:
                    connection.fetch_metadata(name)
                    outcomes.append(False)
                except TransientDBError:
                    outcomes.append(True)
            return outcomes

        assert fired_sequence() == fired_sequence()

    def test_probabilistic_draws_independent_of_call_order(self, server):
        """Which calls fault is a property of each table's own calls, not of
        the order concurrent workers reach the injector in."""

        def outcomes(names):
            plan = FaultPlan(
                seed=9, rules=(FaultRule("fetch_metadata", "transient", probability=0.5),)
            )
            connection = plan.build(metrics=MetricsRegistry()).connect(server)
            fired = {}
            for name in names:
                for _ in range(2):  # a retry draws that table's next outcome
                    try:
                        connection.fetch_metadata(name)
                        fired.setdefault(name, []).append(False)
                    except TransientDBError:
                        fired.setdefault(name, []).append(True)
            return fired

        names = server.database.table_names()
        forward, backward = outcomes(names), outcomes(names[::-1])
        assert forward == backward
        assert any(any(calls) for calls in forward.values())
        assert not all(all(calls) for calls in forward.values())

    def test_injected_metric_labelled_by_kind(self, server):
        metrics = MetricsRegistry()
        plan = FaultPlan(rules=(FaultRule("fetch_metadata", "transient", max_faults=2),))
        connection = plan.build(metrics=metrics).connect(server)
        for _ in range(2):
            with pytest.raises(TransientDBError):
                connection.fetch_metadata(server.database.table_names()[0])
        assert metrics.counter("faults.injected", kind="transient").value == 2
        assert metrics.counter("faults.injected", kind="drop").value == 0


class TestSharedFaultyConnection:
    """The prep workers of one detect() share one fault-wrapped connection."""

    def test_call_on_connection_dropped_by_another_thread_is_retryable(self, server):
        first, second = server.database.table_names()[:2]
        second_dropped = threading.Event()

        class PausingInjector(FaultInjector):
            # Holds the first table's call between taking the live
            # connection and using it, until the second table's call has
            # dropped that connection.
            def before(self, operation, table, cost_model, scale=1):
                super().before(operation, table, cost_model, scale)
                if operation == "fetch_metadata" and table == first:
                    assert second_dropped.wait(timeout=10.0)

        plan = FaultPlan(rules=(FaultRule("fetch_metadata", "drop", tables=(second,)),))
        connection = PausingInjector(plan, metrics=MetricsRegistry()).connect(server)
        errors = []

        def fetch_first():
            try:
                connection.fetch_metadata(first)
            except Exception as error:  # recorded for the assertion below
                errors.append(error)

        thread = threading.Thread(target=fetch_first)
        thread.start()
        with pytest.raises(ConnectionDroppedError):
            connection.fetch_metadata(second)
        second_dropped.set()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert len(errors) == 1 and isinstance(errors[0], ConnectionDroppedError)
        # The retry reconnects once and goes through.
        assert connection.fetch_metadata(first).name == first
        assert connection.reconnects == 1

    def test_concurrent_reconnects_open_one_connection(self, server):
        class SlowConnectInjector(FaultInjector):
            # A slow reconnect: every waiting thread arrives while it runs.
            def before(self, operation, table, cost_model, scale=1):
                super().before(operation, table, cost_model, scale)
                if operation == "connect":
                    time.sleep(0.05)

        plan = FaultPlan(rules=(FaultRule("fetch_values", "drop", max_faults=1),))
        connection = SlowConnectInjector(plan, metrics=MetricsRegistry()).connect(server)
        table = server.database.table_names()[0]
        column = connection.fetch_metadata(table).columns[0].column_name
        with pytest.raises(ConnectionDroppedError):
            connection.fetch_values(table, [column], limit=1)
        opened = server.ledger.connections_opened
        barrier = threading.Barrier(8)
        errors = []

        def fetch():
            barrier.wait(timeout=10.0)
            try:
                connection.fetch_metadata(table)
            except Exception as error:  # recorded for the assertion below
                errors.append(error)

        threads = [threading.Thread(target=fetch) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert connection.reconnects == 1
        assert server.ledger.connections_opened == opened + 1


# ---------------------------------------------------------------------------
# DetectorConfig validation (incl. the sample_seed satellite)
# ---------------------------------------------------------------------------
class TestDetectorConfig:
    def test_negative_sample_seed_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="sample_seed"):
            DetectorConfig(sample_seed=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scan_method": "random"},
            {"prep_workers": 0},
            {"infer_workers": 0},
            {"cache_capacity": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DetectorConfig(**kwargs)

    def test_replace_revalidates(self):
        config = DetectorConfig()
        assert config.replace(pipelined=False).pipelined is False
        with pytest.raises(ValueError):
            config.replace(sample_seed=-5)


# ---------------------------------------------------------------------------
# Legacy keyword shim
# ---------------------------------------------------------------------------
class TestLegacyShim:
    def test_legacy_kwargs_work_with_one_warning(self, untrained_model, featurizer):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            detector = TasteDetector(
                untrained_model, featurizer, pipelined=False, scan_method="sample"
            )
        deprecations = [w for w in caught if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 1
        assert detector.config.pipelined is False
        assert detector.config.scan_method == "sample"

    def test_legacy_runtime_kwargs(self, untrained_model, featurizer):
        metrics = MetricsRegistry()
        tracer = Tracer(enabled=False)
        with pytest.deprecated_call():
            detector = TasteDetector(
                untrained_model, featurizer, tracer=tracer, metrics=metrics
            )
        assert detector.metrics is metrics
        assert detector.tracer is tracer

    def test_unknown_kwarg_raises(self, untrained_model, featurizer):
        with pytest.raises(TypeError, match="unexpected keyword"):
            TasteDetector(untrained_model, featurizer, pipelnied=True)

    def test_mixing_config_and_legacy_raises(self, untrained_model, featurizer):
        with pytest.raises(TypeError, match="not both"):
            TasteDetector(
                untrained_model, featurizer, config=DetectorConfig(), pipelined=False
            )

    def test_new_api_emits_no_warning(self, untrained_model, featurizer):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            TasteDetector(untrained_model, featurizer, config=DetectorConfig())
        assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]


# ---------------------------------------------------------------------------
# End-to-end resilience: detect() under fault plans
# ---------------------------------------------------------------------------
class TestGracefulDegradation:
    def test_phase2_giveup_degrades_to_phase1(
        self, untrained_model, featurizer, server, tiny_corpus
    ):
        metrics = MetricsRegistry()
        detector = make_detector(untrained_model, featurizer, metrics=metrics)
        plan = FaultPlan.transient(1.0)  # every content scan fails, always
        report = detector.detect(server, options=DetectOptions(fault_plan=plan))

        expected = sorted(t.name for t in tiny_corpus.test)
        assert sorted(t.table_name for t in report.tables) == expected
        # Untrained model => every table had uncertain columns => every
        # table attempted Phase 2 and degraded.
        assert sorted(report.degraded_tables()) == expected
        assert report.failed_tables() == []
        assert not report.ok
        # All predictions fell back to metadata-only.
        assert all(p.phase == 1 for p in report.predictions)
        assert any(p.degraded for p in report.predictions)
        # Exact, deterministic accounting: 3 attempts => 2 retries per table.
        per_table = INSTANT.max_attempts - 1
        assert report.retries == per_table * len(expected)
        assert report.giveups == len(expected)
        assert metrics.counter("faults.retries", stage="p2.prep").value == report.retries
        assert metrics.counter("faults.giveups", stage="p2.prep").value == len(expected)
        assert metrics.counter("detector.tables_degraded").value == len(expected)
        summary = report.failure_summary()
        assert sorted(summary["degraded"]) == expected
        assert summary["degraded_columns"] == sum(1 for p in report.predictions if p.degraded)
        assert set(summary["errors"]) == set(expected)

    def test_phase1_giveup_marks_table_failed(
        self, untrained_model, featurizer, server, tiny_corpus
    ):
        metrics = MetricsRegistry()
        detector = make_detector(untrained_model, featurizer, metrics=metrics)
        target = tiny_corpus.test[0].name
        plan = FaultPlan(
            rules=(FaultRule("fetch_metadata", "transient", tables=(target,)),)
        )
        report = detector.detect(server, options=DetectOptions(fault_plan=plan))
        assert report.failed_tables() == [target]
        failed = next(t for t in report.tables if t.table_name == target)
        assert failed.predictions == []
        assert failed.error is not None
        assert metrics.counter("detector.tables_failed").value == 1
        # Every other table is untouched and fully predicted.
        others = [t for t in report.tables if t.table_name != target]
        assert all(t.predictions for t in others)

    def test_degrade_false_raises(self, untrained_model, featurizer, server):
        detector = make_detector(untrained_model, featurizer, degrade=False)
        plan = FaultPlan.transient(1.0)
        with pytest.raises(RetryGiveUpError):
            detector.detect(server, options=DetectOptions(fault_plan=plan))

    def test_connect_giveup_raises_even_when_degrading(
        self, untrained_model, featurizer, server
    ):
        metrics = MetricsRegistry()
        detector = make_detector(untrained_model, featurizer, metrics=metrics)
        plan = FaultPlan(rules=(FaultRule("connect", "transient"),))
        with pytest.raises(RetryGiveUpError):
            detector.detect(server, options=DetectOptions(fault_plan=plan))
        assert metrics.counter("faults.giveups", stage="connect").value == 1

    def test_recovered_drop_keeps_report_ok(
        self, untrained_model, featurizer, server, tiny_corpus
    ):
        detector = make_detector(untrained_model, featurizer)
        plan = FaultPlan(rules=(FaultRule("fetch_values", "drop", max_faults=1),))
        report = detector.detect(server, options=DetectOptions(fault_plan=plan))
        assert report.ok  # the drop was retried away, not degraded
        assert report.retries == 1
        assert report.faults_injected == 1
        assert server.ledger.connections_opened == 2

    def test_retried_run_charges_like_fault_free_run(
        self, untrained_model, featurizer, tiny_corpus
    ):
        def run(plan):
            server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
            detector = make_detector(untrained_model, featurizer)
            options = DetectOptions(fault_plan=plan) if plan is not None else None
            report = detector.detect(server, options=options)
            return report.cost

        clean = run(None)
        faulted = run(
            FaultPlan(rules=(FaultRule("fetch_metadata", "transient", max_faults=2),))
        )
        # Retried-away transient faults leave the charged work identical:
        # failed attempts billed nothing, the eventual success billed once.
        for key in ("metadata_requests", "scan_queries", "rows_read", "connections_opened"):
            assert faulted[key] == clean[key], key

    def test_no_faults_plan_is_inert(self, untrained_model, featurizer, server):
        detector = make_detector(untrained_model, featurizer)
        report = detector.detect(
            server, options=DetectOptions(fault_plan=FaultPlan.transient(0.0))
        )
        assert report.ok
        assert report.faults_injected == 0
        assert report.retries == 0
        assert report.failure_summary()["ok"] is True


class TestPipelineUnderFaults:
    def test_pipelined_run_completes_with_zero_wait_timeouts(
        self, untrained_model, featurizer, tiny_corpus
    ):
        metrics = MetricsRegistry()
        server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
        detector = TasteDetector(
            untrained_model,
            featurizer,
            ThresholdPolicy(0.1, 0.9),
            config=DetectorConfig(pipelined=True),
            runtime=RuntimeConfig(
                metrics=metrics, retry_policy=INSTANT, tracer=Tracer(enabled=False)
            ),
        )
        plan = FaultPlan.chaos(rate=0.2, seed=3, delay=1e-4)
        report = detector.detect(server, options=DetectOptions(fault_plan=plan))
        expected = sorted(t.name for t in tiny_corpus.test)
        assert sorted(t.table_name for t in report.tables) == expected
        # Degraded/failed tables must not wedge the executor: a healthy
        # drain records zero stalled waits.
        assert metrics.counter("pipeline.wait_timeouts").value == 0
