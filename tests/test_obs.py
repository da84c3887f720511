"""Tests for the observability substrate (repro.obs) and its wiring
through the two-phase pipeline: span nesting, contextvar propagation
across the executor's thread pools, the metrics registry under
concurrency, and the JSONL/timeline exporters."""

from __future__ import annotations

import threading

import pytest

from repro.core import (
    DetectOptions,
    DetectorConfig,
    RuntimeConfig,
    TasteDetector,
    ThresholdPolicy,
)
from repro.db import CloudDatabaseServer, CostModel
from repro.obs import (
    NULL_METRICS,
    NULL_SPAN,
    MetricsRegistry,
    Tracer,
    current_span,
    read_spans_jsonl,
    render_timeline,
    write_spans_jsonl,
)


# ----------------------------------------------------------------------
# Tracer / spans
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_records_timing_and_attributes(self):
        tracer = Tracer()
        with tracer.span("work", table="t0") as span:
            span.set(rows=5)
        (finished,) = tracer.spans()
        assert finished is span
        assert finished.end >= finished.start
        assert finished.duration >= 0
        assert finished.attributes == {"table": "t0", "rows": 5}

    def test_nesting_links_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is None
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert tracer.root_of(inner) is outer

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_disabled_tracer_returns_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("ignored", table="t")
        assert span is NULL_SPAN
        with span as entered:
            assert entered.set(x=1) is entered
        assert len(tracer) == 0

    def test_exception_is_recorded_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = tracer.spans()
        assert "ValueError" in span.attributes["error"]
        assert span.end is not None

    def test_find_and_reset(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [s.name for s in tracer.find("a")] == ["a"]
        tracer.reset()
        assert len(tracer) == 0

    def test_thread_name_captured(self):
        tracer = Tracer()
        done = threading.Event()

        def work():
            with tracer.span("threaded"):
                pass
            done.set()

        threading.Thread(target=work, name="my-worker").start()
        assert done.wait(5)
        assert tracer.spans()[0].thread == "my-worker"


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_get_or_create_and_labels(self):
        registry = MetricsRegistry()
        registry.counter("hits", cache="a").inc()
        registry.counter("hits", cache="a").inc(2)
        registry.counter("hits", cache="b").inc()
        snapshot = registry.snapshot()
        assert snapshot["hits{cache=a}"]["value"] == 3
        assert snapshot["hits{cache=b}"]["value"] == 1

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_tracks_peak(self):
        gauge = MetricsRegistry().gauge("in_flight")
        gauge.inc()
        gauge.inc()
        gauge.dec()
        assert gauge.value == 1
        assert gauge.peak == 2

    def test_histogram_stats_and_buckets(self):
        hist = MetricsRegistry().histogram("lat", buckets=(0.01, 0.1))
        for v in (0.005, 0.05, 0.5):
            hist.observe(v)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["min"] == 0.005 and snap["max"] == 0.5
        assert snap["mean"] == pytest.approx(0.185, abs=1e-9)
        assert snap["buckets"] == {"0.01": 1, "0.1": 1, "+Inf": 1}

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_null_registry_records_nothing(self):
        NULL_METRICS.counter("c").inc()
        NULL_METRICS.gauge("g").set(5)
        NULL_METRICS.histogram("h").observe(1.0)
        assert NULL_METRICS.snapshot() == {}

    def test_concurrent_labeled_increments(self):
        """N threads hammering labeled counters: no lost updates."""
        registry = MetricsRegistry()
        threads_n, per_thread = 8, 500

        def work(index: int) -> None:
            for _ in range(per_thread):
                registry.counter("ops", worker=index % 2).inc()
                registry.histogram("obs", worker=index % 2).observe(0.001)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = sum(
            registry.counter("ops", worker=w).value for w in (0, 1)
        )
        assert total == threads_n * per_thread
        counts = sum(registry.histogram("obs", worker=w).count for w in (0, 1))
        assert counts == threads_n * per_thread


# ----------------------------------------------------------------------
# Export: JSONL + timeline
# ----------------------------------------------------------------------
class TestExport:
    def _traced(self):
        tracer = Tracer()
        with tracer.span("detect"):
            with tracer.span("stage.p1.prep", table="t0", stage="p1.prep", kind="prep"):
                pass
            with tracer.span("stage.p1.infer", table="t0", stage="p1.infer", kind="infer"):
                pass
        return tracer

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = self._traced()
        path = write_spans_jsonl(tracer.spans(), tmp_path / "spans.jsonl")
        records = read_spans_jsonl(path)
        assert len(records) == 3
        by_name = {r["name"]: r for r in records}
        assert by_name["stage.p1.prep"]["parent_id"] == by_name["detect"]["span_id"]
        assert by_name["stage.p1.prep"]["attributes"]["table"] == "t0"

    def test_timeline_renders_stage_spans(self, tmp_path):
        tracer = self._traced()
        art = render_timeline(tracer.spans())
        assert "t0" in art and "p1.prep" in art and "p1.infer" in art
        assert "=" in art and "#" in art
        # Renders identically from the JSONL artifact.
        path = write_spans_jsonl(tracer.spans(), tmp_path / "spans.jsonl")
        assert render_timeline(read_spans_jsonl(path)) == art

    def test_timeline_empty(self):
        assert "no stage spans" in render_timeline([])


# ----------------------------------------------------------------------
# Trace propagation through the pipelined detector (Definition 5.1)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_run(request):
    """One pipelined detection over >= 4 tables with real (tiny) sleeps."""
    trained_model = request.getfixturevalue("trained_model")
    featurizer = request.getfixturevalue("featurizer")
    tiny_corpus = request.getfixturevalue("tiny_corpus")
    cost_model = CostModel(
        connect_latency=2e-3,
        round_trip_latency=2e-3,
        metadata_per_table=1e-3,
        scan_fixed=6e-3,
        scan_per_row=1e-4,
        time_scale=1.0,
    )
    registry = MetricsRegistry()
    server = CloudDatabaseServer.from_tables(
        tiny_corpus.tables[:6], cost_model, metrics=registry
    )
    detector = TasteDetector(
        trained_model,
        featurizer,
        ThresholdPolicy(0.0, 1.0),  # force Phase 2 for every column
        pipelined=True,
        tracer=Tracer(),
        metrics=registry,
    )
    report = detector.detect(server)
    assert len(report.tables) >= 4, "fixture corpus too small for overlap test"
    return detector, server, registry, report


class TestTracePropagation:
    def test_spans_from_both_pools_share_root(self, traced_run):
        detector, _, _, _ = traced_run
        tracer = detector.tracer
        (root,) = tracer.find("detect")
        stage_spans = [s for s in tracer.spans() if "stage" in s.attributes]
        assert stage_spans, "no stage spans recorded"
        threads = {span.thread for span in stage_spans}
        assert any(t.startswith("taste-prep") for t in threads)
        assert any(t.startswith("taste-infer") for t in threads)
        for span in stage_spans:
            assert tracer.root_of(span) is root

    def test_stages_never_overlap_within_a_table(self, traced_run):
        detector, _, _, _ = traced_run
        by_table: dict[str, list] = {}
        for span in detector.tracer.spans():
            if "stage" in span.attributes:
                by_table.setdefault(span.attributes["table"], []).append(span)
        assert len(by_table) >= 4
        for spans in by_table.values():
            spans.sort(key=lambda s: s.start)
            for earlier, later in zip(spans, spans[1:]):
                assert later.start >= earlier.end - 1e-6

    def test_stages_overlap_across_tables(self, traced_run):
        """The pipelining invariant: some prep stage of one table runs
        while an infer stage of another is in flight (paper Fig. 4)."""
        detector, _, _, _ = traced_run
        stage_spans = [
            s for s in detector.tracer.spans() if "stage" in s.attributes
        ]
        preps = [s for s in stage_spans if s.attributes["kind"] == "prep"]
        infers = [s for s in stage_spans if s.attributes["kind"] == "infer"]
        overlapping = any(
            p.attributes["table"] != i.attributes["table"]
            and p.start < i.end
            and i.start < p.end
            for p in preps
            for i in infers
        )
        assert overlapping

    def test_metrics_consistent_with_ledger(self, traced_run):
        _, server, registry, report = traced_run
        snapshot = registry.snapshot()
        round_trips = sum(
            snapshot[f"db.round_trips{{op={op}}}"]["value"]
            for op in ("connect", "metadata", "scan")
            if f"db.round_trips{{op={op}}}" in snapshot
        )
        assert round_trips == server.ledger.round_trips
        assert snapshot["db.rows_read"]["value"] == server.ledger.rows_read
        assert snapshot["cache.hits"]["value"] == report.cache_hits > 0
        assert snapshot["pipeline.in_flight{pool=prep}"]["peak"] >= 1
        assert snapshot["pipeline.in_flight{pool=infer}"]["peak"] >= 1
        assert snapshot["pipeline.queue_wait_seconds{pool=prep}"]["count"] > 0
        assert snapshot["pipeline.wait_timeouts"]["value"] == 0
        stage_hist = snapshot["pipeline.stage_seconds{stage=p1.prep}"]
        assert stage_hist["count"] == len(report.tables)

    def test_trace_out_artifact_renders_timeline(
        self, trained_model, featurizer, tiny_corpus, tmp_path
    ):
        server = CloudDatabaseServer.from_tables(
            tiny_corpus.tables[:4], CostModel(time_scale=0.0)
        )
        detector = TasteDetector(
            trained_model, featurizer, ThresholdPolicy(0.1, 0.9),
            pipelined=True, tracer=Tracer(), metrics=MetricsRegistry(),
        )
        path = tmp_path / "run.jsonl"
        report = detector.detect(server, trace_out=path)
        records = read_spans_jsonl(path)
        assert len(records) == len(detector.tracer.spans())
        art = render_timeline(records)
        for table in report.tables:
            assert table.table_name in art

    def test_trace_out_holds_only_this_run(
        self, trained_model, featurizer, tiny_corpus, tmp_path
    ):
        server = CloudDatabaseServer.from_tables(
            tiny_corpus.tables[:4], CostModel(time_scale=0.0)
        )
        detector = TasteDetector(
            trained_model, featurizer, ThresholdPolicy(0.1, 0.9),
            config=DetectorConfig(pipelined=True),
            runtime=RuntimeConfig(tracer=Tracer(), metrics=MetricsRegistry()),
        )
        detector.detect(server, options=DetectOptions(trace_out=tmp_path / "first.jsonl"))
        first_ids = {span.span_id for span in detector.tracer.spans()}
        detector.detect(server, options=DetectOptions(trace_out=tmp_path / "second.jsonl"))
        second = read_spans_jsonl(tmp_path / "second.jsonl")
        roots = [record for record in second if record["name"] == "detect"]
        assert len(roots) == 1
        assert not first_ids & {record["span_id"] for record in second}
        assert len(second) == len(detector.tracer.spans()) - len(first_ids)
        assert len(read_spans_jsonl(tmp_path / "first.jsonl")) == len(first_ids)

    def test_stage_seconds_populated_from_spans(self, traced_run):
        detector, _, _, report = traced_run
        by_table = {
            s.attributes["table"]: s
            for s in detector.tracer.spans()
            if s.attributes.get("stage") == "p1.prep"
        }
        for table in report.tables:
            assert table.prepare1_seconds == pytest.approx(
                by_table[table.table_name].duration
            )
            assert table.prepare1_seconds > 0

    def test_disabled_tracer_still_times_stages(
        self, trained_model, featurizer, tiny_corpus
    ):
        server = CloudDatabaseServer.from_tables(
            tiny_corpus.test, CostModel(time_scale=0.0)
        )
        detector = TasteDetector(
            trained_model, featurizer, ThresholdPolicy(0.1, 0.9),
            pipelined=False, tracer=Tracer(enabled=False), metrics=NULL_METRICS,
        )
        report = detector.detect(server)
        assert len(detector.tracer.spans()) == 0
        assert all(t.infer1_seconds > 0 for t in report.tables)
