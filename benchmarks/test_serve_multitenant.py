"""Benchmark: multi-tenant serving vs back-to-back direct detection.

Two claims of the serving layer are measured with a tiny untrained model
(no checkpoints, runs in seconds):

* **Throughput** — K tenants submitting J jobs each through one shared
  warm service must not be slower than a generous multiple of running
  the same jobs back-to-back with direct ``detect()`` calls. The service
  adds admission control, per-job bookkeeping and fair scheduling; what
  it must *not* add is serialization (jobs interleave on the shared
  pipeline) or cold-start costs (the model and batcher stay warm).

* **Chaos resilience** — a mixed fault storm pushed *through the
  service* (per-job fault plans) still yields a complete, marked report
  for every job: every requested table present, failures only as
  degraded/failed markers, never a crashed job or a wedged scheduler.

Numbers are written to ``BENCH_serve.json`` at the repo root for the CI
artifact.
"""

from __future__ import annotations

import threading
import time

from repro import nn
from repro.core import (
    ADTDConfig,
    ADTDModel,
    DetectorConfig,
    RuntimeConfig,
    TasteDetector,
    ThresholdPolicy,
)
from repro.datagen import make_wikitable_corpus
from repro.db import CloudDatabaseServer, CostModel
from repro.faults import FaultPlan
from repro.features import FeatureConfig, Featurizer, corpus_texts
from repro.obs import MetricsRegistry, Tracer
from repro.serve import DetectionService, ServiceConfig, TenantQuota
from repro.text import Tokenizer

from _harness import result_path, write_result_atomic

TENANTS = 4
JOBS_PER_TENANT = 3
TABLES_PER_JOB = 5
# The service path may not be slower than this multiple of the direct
# path (generous: it shares one pipeline between all tenants while the
# direct loop gets it exclusively, and CI machines are noisy).
MAX_SLOWDOWN = 2.5


def _bundle():
    corpus = make_wikitable_corpus(num_tables=40)
    tokenizer = Tokenizer.train(corpus_texts(corpus.tables), max_size=800)
    encoder = nn.EncoderConfig(
        num_layers=1,
        num_heads=2,
        hidden_size=32,
        intermediate_size=64,
        max_seq_len=512,
        vocab_size=len(tokenizer),
        dropout_p=0.0,
    )
    model = ADTDModel(
        ADTDConfig(encoder, num_labels=corpus.registry.num_labels), seed=0
    )
    featurizer = Featurizer(tokenizer, corpus.registry, FeatureConfig())
    return model, featurizer, corpus


def _detector(model, featurizer):
    return TasteDetector(
        model,
        featurizer,
        ThresholdPolicy(0.1, 0.9),
        config=DetectorConfig(pipelined=True),
        runtime=RuntimeConfig(tracer=Tracer(enabled=False), metrics=MetricsRegistry()),
    )


def test_service_throughput_vs_direct(tmp_path):
    model, featurizer, corpus = _bundle()
    names = [t.name for t in corpus.tables[:TABLES_PER_JOB]]
    total_jobs = TENANTS * JOBS_PER_TENANT

    # Direct path: the same jobs, back to back, one warm detector.
    direct = _detector(model, featurizer)
    direct_server = CloudDatabaseServer.from_tables(corpus.tables, CostModel(time_scale=0.0))
    direct.detect(direct_server, names)  # warmup (caches, lazy inits)
    started = time.perf_counter()
    for _ in range(total_jobs):
        direct.detect(direct_server, names)
    direct_wall = time.perf_counter() - started

    # Service path: the same job mix from TENANTS concurrent clients.
    served = _detector(model, featurizer)
    config = ServiceConfig(
        max_queue_depth=total_jobs + 1,
        default_quota=TenantQuota(rate_tables_per_s=10_000.0, burst_tables=10_000),
    )
    servers = {
        f"tenant-{i}": CloudDatabaseServer.from_tables(corpus.tables, CostModel(time_scale=0.0))
        for i in range(TENANTS)
    }
    errors: list[BaseException] = []

    def client(tenant):
        try:
            for _ in range(JOBS_PER_TENANT):
                handle = service.submit(tenant, servers[tenant], names)
                report = handle.result(timeout=300.0)
                assert len(report.tables) == len(names)
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    with DetectionService(served, config) as service:
        service.submit("tenant-0", servers["tenant-0"], names).result(timeout=300.0)
        started = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(tenant,)) for tenant in servers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service_wall = time.perf_counter() - started

    assert not errors
    slowdown = service_wall / direct_wall if direct_wall > 0 else 1.0
    record = {
        "tenants": TENANTS,
        "jobs": total_jobs,
        "tables_per_job": TABLES_PER_JOB,
        "direct_wall_seconds": direct_wall,
        "service_wall_seconds": service_wall,
        "service_vs_direct": slowdown,
    }
    write_result_atomic(result_path("serve"), record)
    assert slowdown <= MAX_SLOWDOWN, (
        f"service path {slowdown:.2f}x slower than direct detect "
        f"(limit {MAX_SLOWDOWN}x): {record}"
    )


def test_chaos_sweep_through_service():
    model, featurizer, corpus = _bundle()
    names = [t.name for t in corpus.tables[:4]]
    detector = _detector(model, featurizer)
    with DetectionService(detector) as service:
        for rate in (0.1, 0.3, 0.5):
            plan = FaultPlan.chaos(rate=rate, seed=11, delay=1e-4)
            handle = service.submit(
                "chaos", CloudDatabaseServer.from_tables(corpus.tables, CostModel(time_scale=0.0)),
                names,
                fault_plan=plan,
            )
            report = handle.result(timeout=300.0)
            # Complete report, PR 4 semantics: every table present, the
            # storm visible only as degraded/failed markers and retries.
            assert len(report.tables) == len(names)
            assert {t.table_name for t in report.tables} == set(names)
            for table in report.tables:
                assert table.predictions or table.failed
