"""The benchmark's workloads: set-up, warm-up and the timed passes.

Every workload runs a *trained* ADTD model over held-out tables drawn
from the same generator as its training tables, so Phase-2 routing scans
only the columns Phase 1 is unsure about (the paper's Fig. 5 regime):

* ``catalog-git-io`` — repeated direct ``detect()`` over GitTables-like
  tables with the paper's 5 ms round trips slept: metadata round trips
  and the S1/S2 overlap dominate, and almost nothing is scanned.
* ``serve-wiki-io`` — an open loop of Poisson job arrivals from two
  tenants into one :class:`~repro.serve.DetectionService`, paper I/O on,
  a third of the columns scanned: admission, fair scheduling, pool
  acquires, and a batcher that sees sparse arrivals instead of a dense
  backlog.

``catalog-wiki-cpu`` (repeated ``detect()`` over WikiTable-like tables
with I/O off) runs by name but is not in ``BENCHMARK.json``: it is
CPU-bound, and its wall-clock figures swung by more than any allowed
bound between runs on a shared 2-vCPU host.

Set-up builds everything in-process: corpora, tokenizer, a fine-tuned
model and the sequential eager reference run that every timed pass and
every served job is compared against, byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import nn
from repro.core import (
    ADTDConfig,
    ADTDModel,
    DetectorConfig,
    RuntimeConfig,
    TasteDetector,
    ThresholdPolicy,
    TrainConfig,
    fine_tune,
)
from repro.core.config import BatchingConfig, CompileConfig
from repro.core.results import TableResult
from repro.datagen import Table, make_gittables_corpus, make_wikitable_corpus
from repro.db import CloudDatabaseServer, CostModel
from repro.errors import Overloaded
from repro.experiments.common import paper_cost_model
from repro.features import FeatureConfig, Featurizer, corpus_texts
from repro.metrics import ground_truth_map
from repro.obs import MetricsRegistry, Tracer
from repro.serve import DetectionService, JobStatus, ServiceConfig
from repro.text import Tokenizer

from checks import MicroF1, check_tables, reference_signatures, scan_share

# --- model recipe: a 1-layer, H=32 ADTD fine-tuned for 600 steps ------
# The training corpus and the weight init use a fixed seed: the model is
# the deployed system under test, not an input. The workload seed varies
# the held-out tables and the arrival schedule. (Seed-dependent models
# moved the GitTables-like scan share by +-20% between seeds, swamping
# every bound.)
TRAIN_SEED = 0
TRAIN_TABLES = 200
TRAIN_EPOCHS = 12
TRAIN_BATCH = 4
TRAIN_LR = 1e-2
VOCAB_SIZE = 1500

# --- serve-wiki-io traffic ----------------------------------------------
TENANTS = ("tenant-a", "tenant-b")
ARRIVALS_PER_S = 4.0
MIN_JOBS = 100  # >= 10 samples beyond p90
LARGE_JOB_SHARE = 0.2
SMALL_JOB_TABLES = (1, 4)
LARGE_JOB_TABLES = (12, 20)
WARMUP_JOB_TABLES = 20  # the warm-up pass: one job of this many tables per tenant
POLL_S = 0.002  # generator's JobHandle.status() polling interval
MAX_GEN_LAG_MS = 50.0  # a later submit than this invalidates the run
DRAIN_TIMEOUT_S = 60.0
# Arrival times, job sizes and tenants are one fixed trace; the workload
# seed picks the tables. Random traces moved p90 by +-30% between seeds.
TRACE_SEED = 0


class SetupError(RuntimeError):
    """Set-up left the workload's regime (or could not build it)."""


class InvalidRun(RuntimeError):
    """The measurement itself is unusable (e.g. the generator fell behind)."""


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str  # "catalog" or "serve"
    corpus: Callable
    cost_model: Callable[[], CostModel]
    held_tables: int  # per tenant
    scan_band: tuple[float, float]  # allowed scanned_frac of the reference
    slo_ms: float  # latency limit of slo_frac


WORKLOADS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="catalog-git-io",
            kind="catalog",
            corpus=make_gittables_corpus,
            cost_model=paper_cost_model,
            held_tables=400,
            scan_band=(0.01, 0.10),
            slo_ms=60.0,
        ),
        Spec(
            name="serve-wiki-io",
            kind="serve",
            corpus=make_wikitable_corpus,
            cost_model=paper_cost_model,
            held_tables=300,
            scan_band=(0.2, 0.5),
            slo_ms=800.0,
        ),
        # Not in BENCHMARK.json: I/O off makes it CPU-bound, and its wall-clock
        # figures moved with host CPU steal beyond the largest allowed bound.
        # Run it by name to see compute-layer changes end to end.
        Spec(
            name="catalog-wiki-cpu",
            kind="catalog",
            corpus=make_wikitable_corpus,
            cost_model=lambda: CostModel(time_scale=0.0),
            held_tables=300,
            scan_band=(0.2, 0.5),
            slo_ms=60.0,
        ),
    )
}


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Tenant:
    name: str
    tables: list[Table]
    truth: dict[tuple[str, str], list[str]]
    reference: dict[str, tuple] = field(default_factory=dict)

    @property
    def table_names(self) -> list[str]:
        return [table.name for table in self.tables]


@dataclass
class Setup:
    spec: Spec
    seed: int
    model: ADTDModel
    tokenizer: Tokenizer
    registry: object
    tenants: list[Tenant]
    reference_scan: float


def held_out_seed(seed: int, tenant_index: int) -> int:
    """Generator seed of a tenant's held-out tables (never TRAIN_SEED)."""
    return 1_000 + 10 * seed + tenant_index


def featurizer_for(setup: Setup) -> Featurizer:
    """A fresh featurizer (cold token-encode cache) for the trained model."""
    return Featurizer(setup.tokenizer, setup.registry, FeatureConfig())


def quiet_runtime(metrics: MetricsRegistry) -> RuntimeConfig:
    # The default RuntimeConfig keeps every tracer span forever, so a
    # long-lived detector slows down and grows; untraced runs disable it.
    return RuntimeConfig(tracer=Tracer(enabled=False), metrics=metrics)


def reference_detector(model: ADTDModel, featurizer: Featurizer) -> TasteDetector:
    """Sequential, eager, unbatched: the run every timed result must equal."""
    config = DetectorConfig(
        pipelined=False,
        batching=BatchingConfig(enabled=False),
        compile=CompileConfig(enabled=False),
    )
    return TasteDetector(
        model, featurizer, ThresholdPolicy(), config=config, runtime=quiet_runtime(MetricsRegistry())
    )


def run_reference(setup: Setup, featurizer: Featurizer) -> list[list[TableResult]]:
    """One sequential eager pass per tenant, compute-only (no sleeps)."""
    detector = reference_detector(setup.model, featurizer)
    reports = []
    for tenant in setup.tenants:
        server = CloudDatabaseServer.from_tables(
            tenant.tables, CostModel(time_scale=0.0), metrics=MetricsRegistry()
        )
        reports.append(detector.detect(server, tenant.table_names).tables)
    return reports


def build(spec: Spec, seed: int) -> Setup:
    """Generate data, train the model, run the reference; check the regime."""
    corpus = spec.corpus(num_tables=TRAIN_TABLES, seed=TRAIN_SEED)
    tokenizer = Tokenizer.train(corpus_texts(corpus.tables), max_size=VOCAB_SIZE)
    encoder = nn.EncoderConfig(
        num_layers=1,
        num_heads=2,
        hidden_size=32,
        intermediate_size=64,
        max_seq_len=512,
        vocab_size=len(tokenizer),
        dropout_p=0.0,
    )
    model = ADTDModel(ADTDConfig(encoder, num_labels=corpus.registry.num_labels), seed=TRAIN_SEED)
    fine_tune(
        model,
        Featurizer(tokenizer, corpus.registry, FeatureConfig()),
        corpus.tables,
        TrainConfig(
            epochs=TRAIN_EPOCHS,
            batch_size=TRAIN_BATCH,
            learning_rate=TRAIN_LR,
            seed=TRAIN_SEED,
        ),
    )
    tenant_names = TENANTS if spec.kind == "serve" else ("catalog",)
    tenants = []
    for index, name in enumerate(tenant_names):
        tables = spec.corpus(
            num_tables=spec.held_tables, seed=held_out_seed(seed, index)
        ).tables
        tenants.append(Tenant(name, tables, ground_truth_map(tables)))
    setup = Setup(spec, seed, model, tokenizer, corpus.registry, tenants, 0.0)
    scanned = total = 0
    for tenant, results in zip(tenants, run_reference(setup, featurizer_for(setup))):
        tenant.reference = reference_signatures(results)
        problems = check_tables(results, tenant.table_names, tenant.reference)
        if problems:
            raise SetupError(f"reference run is not clean: {sorted(problems.items())[:3]}")
        tenant_scanned, tenant_total = scan_share(results)
        scanned += tenant_scanned
        total += tenant_total
    setup.reference_scan = scanned / total
    low, high = spec.scan_band
    if not low <= setup.reference_scan <= high:
        raise SetupError(
            f"{spec.name}: reference scanned_frac {setup.reference_scan:.3f} is outside "
            f"[{low}, {high}]; the trained model left the paper's regime"
        )
    return setup


# ----------------------------------------------------------------------
# Shared bookkeeping of the timed part
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What the timed part of one run measured."""

    warmup_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # untraced measurement
    pass_walls: list[float] = field(default_factory=list)
    pass_columns: list[int] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    slo_met: int = 0
    scanned: int = 0
    columns: int = 0
    f1: MicroF1 = field(default_factory=MicroF1)
    jobs_sent: int = 0
    jobs_shed: int = 0
    gen_lag_max_ms: float = 0.0
    # tracing overhead: the same cost measured untraced and traced
    # (catalog: pass wall seconds; serve: mean job latency per schedule)
    overhead_base: list[float] = field(default_factory=list)
    overhead_traced: list[float] = field(default_factory=list)
    # traced measurement (trace runs only)
    traced_units: int = 0  # passes or schedules under the recorder
    traced_scanned: int = 0
    registry_delta: dict[str, float] = field(default_factory=dict)
    encode_hits: int = 0
    encode_misses: int = 0
    totals: dict[str, float] = field(default_factory=dict)

    def record_problems(self, owner: str, problems: dict[str, str]) -> None:
        self.problems += [f"{owner}{name}: {why}" for name, why in problems.items()]


def flatten(snapshot: dict[str, dict]) -> dict[str, float]:
    """Registry snapshot -> ``{series: value}`` (histograms as sum/count)."""
    flat: dict[str, float] = {}
    for key, state in snapshot.items():
        if state["type"] == "histogram":
            flat[f"{key}.sum"] = state["sum"]
            flat[f"{key}.count"] = state["count"]
        elif state["type"] == "gauge":
            flat[f"{key}.value"] = state["value"]
            flat[f"{key}.peak"] = state["peak"]
        else:
            flat[key] = state["value"]
    return flat


def add_delta(target: dict[str, float], before: dict[str, float], after: dict[str, float]) -> None:
    for key, value in after.items():
        target[key] = target.get(key, 0.0) + value - before.get(key, 0.0)


def table_latency_ms(result: TableResult) -> float:
    """A catalog table's latency: the sum of its four stage times."""
    return 1e3 * (
        result.prepare1_seconds
        + result.infer1_seconds
        + result.prepare2_seconds
        + result.infer2_seconds
    )


# ----------------------------------------------------------------------
# Catalog workloads
# ----------------------------------------------------------------------
def run_catalog(setup: Setup, seconds: float, recorder=None) -> Outcome:
    """Warm-up pass, then repeated ``detect()`` passes for ``seconds``.

    With a ``recorder``, passes alternate untraced/traced so the tracing
    overhead is measured on the same warm detector.
    """
    spec, tenant = setup.spec, setup.tenants[0]
    names = tenant.table_names
    outcome = Outcome()
    registry = MetricsRegistry()
    started = time.perf_counter()
    detector = TasteDetector(
        setup.model, featurizer_for(setup), ThresholdPolicy(),
        config=DetectorConfig(), runtime=quiet_runtime(registry),
    )
    server = CloudDatabaseServer.from_tables(tenant.tables, spec.cost_model(), metrics=registry)
    report = detector.detect(server, names)
    outcome.warmup_s = time.perf_counter() - started
    outcome.record_problems("warm-up ", check_tables(report.tables, names, tenant.reference))

    encode_cache = detector.featurizer.encode_cache
    deadline = time.perf_counter() + seconds
    passes_needed = 1 if recorder is None else 2
    index = 0
    while True:
        traced = recorder is not None and index % 2 == 1
        server.reset_ledger()
        if traced:
            before = flatten(registry.snapshot())
            hits, misses = encode_cache.hits, encode_cache.misses
            with recorder.window(f"pass-{index}"):
                pass_started = time.perf_counter()
                report = detector.detect(server, names)
                wall = time.perf_counter() - pass_started
            add_delta(outcome.registry_delta, before, flatten(registry.snapshot()))
            outcome.encode_hits += encode_cache.hits - hits
            outcome.encode_misses += encode_cache.misses - misses
        else:
            pass_started = time.perf_counter()
            report = detector.detect(server, names)
            wall = time.perf_counter() - pass_started
        problems = check_tables(report.tables, names, tenant.reference)
        outcome.record_problems(f"pass {index} ", problems)
        outcome.attempted += len(names)
        outcome.failed += len(problems)
        scanned, columns = scan_share(report.tables)
        if traced:
            outcome.overhead_traced.append(wall)
            outcome.traced_units += 1
            outcome.traced_scanned += scanned
        else:
            outcome.overhead_base.append(wall)
            outcome.pass_walls.append(wall)
            outcome.pass_columns.append(columns)
            outcome.scanned += scanned
            outcome.columns += columns
            for result in report.tables:
                latency = table_latency_ms(result)
                outcome.latencies_ms.append(latency)
                outcome.slo_met += result.table_name not in problems and latency <= spec.slo_ms
            outcome.f1.add(report.tables, tenant.truth)
        index += 1
        # Start another pass only if it is expected to end in the window.
        if index >= passes_needed and time.perf_counter() + wall > deadline:
            break
    outcome.totals = flatten(registry.snapshot())
    return outcome


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduledJob:
    at: float  # seconds after the schedule starts
    tenant: str
    tables: tuple[str, ...]


def _balanced(rng: np.random.Generator, count: int, low: int, high: int) -> list[int]:
    """``count`` integers spread evenly over ``[low, high]``, shuffled."""
    values = low + (np.arange(count) * (high - low + 1)) // max(count, 1)
    return [int(v) for v in rng.permutation(values)]


def make_schedule(
    seed: int, count: int, rate: float, tables: dict[str, list[str]]
) -> list[ScheduledJob]:
    """Open-loop schedule: a fixed traffic trace filled with seeded tables.

    The trace — ``count`` Poisson arrivals at ``rate`` (a Poisson process
    conditioned on ``count`` arrivals in ``count / rate`` seconds), which
    jobs are large, their sizes and tenants — is drawn from
    :data:`TRACE_SEED`; ``seed`` draws which tables each job asks for.
    The mix is exact: ``LARGE_JOB_SHARE`` of the jobs are large, sizes are
    spread evenly over their ranges, and the tenants take equal turns.
    """
    trace = np.random.default_rng([TRACE_SEED, count])
    times = np.sort(trace.uniform(0.0, count / rate, size=count))
    num_large = round(LARGE_JOB_SHARE * count)
    large_sizes = _balanced(trace, num_large, *LARGE_JOB_TABLES)
    small_sizes = _balanced(trace, count - num_large, *SMALL_JOB_TABLES)
    is_large = trace.permutation(np.arange(count) < num_large)
    tenants = sorted(tables)
    owners = trace.permutation([tenants[i % len(tenants)] for i in range(count)])
    choice = np.random.default_rng([seed, 0x5EB])
    jobs = []
    for i in range(count):
        size = large_sizes.pop() if is_large[i] else small_sizes.pop()
        tenant = str(owners[i])
        chosen = choice.choice(len(tables[tenant]), size=size, replace=False)
        jobs.append(
            ScheduledJob(float(times[i]), tenant, tuple(tables[tenant][j] for j in sorted(chosen)))
        )
    return jobs


@dataclass
class _Sent:
    job: ScheduledJob
    due: float
    handle: object


def drive(service, servers, tenants, schedule, outcome: Outcome, slo_ms: float, measured: bool) -> tuple[list[float], float]:
    """Submit ``schedule`` open-loop from this thread and collect results.

    Latency runs from each job's *scheduled* send time to the poll that
    saw it finish, so a stalled generator still charges later jobs. Every
    job is checked against the reference; shed and failed jobs are
    failures and SLO misses. ``measured=False`` (the traced half of a
    trace run) skips the end-to-end accumulators. Returns the per-job
    latencies (ms) and the span from the schedule start to the last
    completion.
    """
    start = time.perf_counter() + 0.01
    pending: list[_Sent] = []
    latencies: list[float] = []
    last_done = start
    lag_max = 0.0
    sent = 0
    by_name = {tenant.name: tenant for tenant in tenants}
    while sent < len(schedule) or pending:
        now = time.perf_counter()
        while sent < len(schedule) and start + schedule[sent].at <= now:
            job = schedule[sent]
            due = start + job.at
            sent += 1
            lag_max = max(lag_max, now - due)
            outcome.attempted += 1
            outcome.jobs_sent += 1
            try:
                handle = service.submit(job.tenant, servers[job.tenant], list(job.tables))
            except Overloaded:
                outcome.jobs_shed += 1
                outcome.failed += 1
                continue
            pending.append(_Sent(job, due, handle))
            now = time.perf_counter()
        if time.perf_counter() - start > schedule[-1].at + DRAIN_TIMEOUT_S:
            raise InvalidRun(f"{len(pending)} jobs still running {DRAIN_TIMEOUT_S}s after the schedule")
        still: list[_Sent] = []
        polled = time.perf_counter()
        for item in pending:
            if item.handle.status() not in (JobStatus.COMPLETED, JobStatus.CANCELLED):
                still.append(item)
                continue
            latency_ms = 1e3 * (polled - item.due)
            last_done = max(last_done, polled)
            latencies.append(latency_ms)
            tenant = by_name[item.job.tenant]
            report = item.handle.result()
            problems = check_tables(report.tables, list(item.job.tables), tenant.reference)
            outcome.record_problems(f"{item.handle.job_id} ", problems)
            outcome.failed += bool(problems)
            scanned, columns = scan_share(report.tables)
            if not measured:
                outcome.traced_scanned += scanned
                continue
            outcome.latencies_ms.append(latency_ms)
            outcome.slo_met += (not problems) and latency_ms <= slo_ms
            outcome.scanned += scanned
            outcome.columns += columns
            outcome.f1.add(report.tables, tenant.truth)
        pending = still
        wake = polled + POLL_S
        if sent < len(schedule):
            wake = min(wake, start + schedule[sent].at)
        delay = wake - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
    outcome.gen_lag_max_ms = max(outcome.gen_lag_max_ms, 1e3 * lag_max)
    if 1e3 * lag_max > MAX_GEN_LAG_MS:
        raise InvalidRun(
            f"generator ran {1e3 * lag_max:.1f} ms late (bound {MAX_GEN_LAG_MS} ms)"
        )
    return latencies, last_done - start


def run_serve(setup: Setup, seconds: float, recorder=None) -> Outcome:
    """Warm the service with one job per tenant, then run the schedule.

    With a ``recorder`` the first half of the schedule runs twice: untraced,
    then under the recorder, to measure the tracing overhead.
    """
    spec = setup.spec
    outcome = Outcome()
    registry = MetricsRegistry()
    count = max(MIN_JOBS, round(ARRIVALS_PER_S * seconds))
    names = {tenant.name: tenant.table_names for tenant in setup.tenants}
    schedule = make_schedule(setup.seed, count, ARRIVALS_PER_S, names)

    started = time.perf_counter()
    detector = TasteDetector(
        setup.model, featurizer_for(setup), ThresholdPolicy(),
        config=DetectorConfig(), runtime=quiet_runtime(registry),
    )
    servers = {
        tenant.name: CloudDatabaseServer.from_tables(tenant.tables, spec.cost_model(), metrics=registry)
        for tenant in setup.tenants
    }
    service = DetectionService(detector, ServiceConfig())
    service.start()
    try:
        warmup = {
            tenant.name: tenant.table_names[:WARMUP_JOB_TABLES] for tenant in setup.tenants
        }
        handles = [
            (tenant, service.submit(tenant.name, servers[tenant.name], warmup[tenant.name]))
            for tenant in setup.tenants
        ]
        for tenant, handle in handles:
            report = handle.result(timeout=DRAIN_TIMEOUT_S)
            outcome.record_problems(
                "warm-up ", check_tables(report.tables, warmup[tenant.name], tenant.reference)
            )
        outcome.warmup_s = time.perf_counter() - started

        encode_cache = detector.featurizer.encode_cache
        if recorder is None:
            _, span = drive(service, servers, setup.tenants, schedule, outcome, spec.slo_ms, True)
            outcome.pass_walls.append(span)
            outcome.pass_columns.append(outcome.columns)
        else:
            # The same half-schedule twice, untraced then traced, so the
            # overhead compares identical offered work.
            half = schedule[: len(schedule) // 2]
            base, _ = drive(service, servers, setup.tenants, half, outcome, spec.slo_ms, True)
            outcome.overhead_base.append(sum(base) / len(base))
            before = flatten(registry.snapshot())
            hits, misses = encode_cache.hits, encode_cache.misses
            with recorder.window("schedule-traced"):
                traced, _ = drive(service, servers, setup.tenants, half, outcome, spec.slo_ms, False)
            add_delta(outcome.registry_delta, before, flatten(registry.snapshot()))
            outcome.encode_hits += encode_cache.hits - hits
            outcome.encode_misses += encode_cache.misses - misses
            outcome.overhead_traced.append(sum(traced) / len(traced))
            outcome.traced_units = 1
    finally:
        service.stop()
    outcome.totals = flatten(registry.snapshot())
    return outcome
