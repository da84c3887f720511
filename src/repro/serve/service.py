"""The multi-tenant detection service (the paper's cloud deployment).

:class:`DetectionService` owns one warm :class:`~repro.core.TasteDetector`
— its model weights, latent cache, and shared
:class:`~repro.sched.InferenceBatcher` — and serves concurrent
``submit()`` calls from many client threads, the way the paper's ECS
service answers detection requests from many tenant databases without
re-instantiating the model per request.

Architecture, in one paragraph: ``submit()`` runs admission control
(per-tenant token buckets, bounded job queue) and enqueues a
:class:`~repro.serve.job.Job` — a batch of ordinary
:class:`~repro.core.phases.TableJob` stage machines. A dedicated
dispatch thread runs :meth:`PipelinedExecutor.run_source` over
:class:`_ServiceSource`, which interleaves the table jobs of *all*
live jobs in fairness order (priority first, then least-served tenant),
so one tenant's 500-table job cannot starve another's 2-table job.
Database connections come from per-server bounded
:class:`~repro.db.pool.ConnectionPool`\\ s, acquired lazily on the prep
worker thread with the job's deadline and cancellation wired into the
blocking acquire. Stage completions stream per-table results to
:class:`~repro.serve.job.JobHandle` holders; deadline expiry and stage
give-ups degrade tables with the exact semantics of a direct
``detect()`` run, so a partial service result is a valid (marked)
detection report.

Everything mutable synchronizes on **one** condition —
``_ServiceSource.condition`` — shared by the dispatch loop, the worker
completion callbacks, submitters, cancellers and result waiters. The
connection pools' internal locks nest strictly inside it.
"""

from __future__ import annotations

import itertools
import threading
import time

from ..core.config import DetectOptions
from ..core.detector import TasteDetector
from ..core.phases import TableJob
from ..core.pipeline import PipelinedExecutor, ReadyQueues
from ..core.results import DetectionReport
from ..db.connection import Connection
from ..db.pool import ConnectionPool
from ..db.server import CloudDatabaseServer
from ..errors import Overloaded, RetryGiveUpError, ServiceError
from ..faults.plan import FaultInjector, FaultPlan
from .admission import AdmissionController
from .config import ServiceConfig
from .job import Job, JobHandle, JobStatus

__all__ = ["DetectionService"]


class _JobConnection:
    """Connection facade handed to a job's :class:`TableJob`\\ s.

    Acquires the real connection lazily — on the first prep stage, on a
    ``taste-prep`` worker thread — so a queued job holds no connection
    while it waits, and a cancelled-before-start job never touches the
    pool at all. Pooled acquires block with the job's remaining deadline
    as the timeout and the job's cancellation flag as the abort probe.
    Jobs running under a :class:`~repro.faults.FaultPlan` bypass the pool
    and get a dedicated fault-wrapped connection (fault rules are
    per-job; a pooled connection shared with other jobs must not inherit
    them).
    """

    def __init__(
        self,
        job: Job,
        detector: TasteDetector,
        pool: ConnectionPool,
        injector: FaultInjector | None,
        acquire_timeout: float,
    ) -> None:
        self._job = job
        self._detector = detector
        self._pool = pool
        self._injector = injector
        self._acquire_timeout = acquire_timeout
        self._connection: Connection | None = None
        self._pooled = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _acquire(self) -> Connection:
        if self._injector is not None:
            # Dedicated fault-wrapped connection, retried under the
            # detector's policy exactly like the direct detect() path.
            return self._detector._connect(self._job.server, self._injector)
        timeout = self._acquire_timeout
        remaining = self._job.deadline_remaining()
        if remaining is not None:
            timeout = min(timeout, max(0.001, remaining))
        return self._pool.acquire(
            block=True, timeout=timeout, abort=self._job.abort_probe
        )

    def _ensure(self) -> Connection:
        with self._lock:
            if self._connection is None:
                connection = self._acquire()
                self._connection = connection
                self._pooled = self._injector is None
            return self._connection

    # ------------------------------------------------------------------
    # The Connection surface the stage machines use.
    # ------------------------------------------------------------------
    def fetch_metadata(self, table_name: str):
        return self._ensure().fetch_metadata(table_name)

    def fetch_values(self, table_name: str, columns, limit, sample_seed=None):
        return self._ensure().fetch_values(
            table_name, columns, limit=limit, sample_seed=sample_seed
        )

    def list_tables(self):
        return self._ensure().list_tables()

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Return the pooled connection (or close the dedicated one)."""
        with self._lock:
            connection = self._connection
            self._connection = None
            pooled = self._pooled
            self._pooled = False
        if connection is None:
            return
        if pooled:
            self._pool.release(connection)
        else:
            connection.close()


class _ServiceSource:
    """The long-lived :class:`~repro.core.pipeline.JobSource` of a service.

    Owns the service-wide condition and all job bookkeeping. Protocol
    methods run with the condition held (the dispatch loop guarantees
    it); the service-facing methods (:meth:`enqueue`, :meth:`cancel`,
    :meth:`shutdown`) take it themselves.
    """

    def __init__(self, service: "DetectionService") -> None:
        self.condition = threading.Condition()
        self._service = service
        self.active: list[Job] = []
        self.stopping = False
        self.dispatch_error: BaseException | None = None
        self._job_of: dict[int, Job] = {}  # id(TableJob) -> Job
        # id(TableJob) -> ((priority, tenant), (deadline, job seq, index)):
        # within a group, earliest deadline, then oldest job, then table
        # order; groups are ranked live by _rank.
        self._key_of: dict[int, tuple[tuple, tuple]] = {}
        self.ready = ReadyQueues(self._dispatch_key, self._rank)
        self._tenant_served: dict[str, int] = {}
        self._streamed_ids: dict[int, set[int]] = {}  # id(Job) -> ids streamed

    # ------------------------------------------------------------------
    # JobSource protocol (called with the condition held)
    # ------------------------------------------------------------------
    def _dispatch_key(self, table_job: TableJob) -> tuple[tuple, tuple]:
        return self._key_of[id(table_job)]

    def _rank(self, group: tuple) -> tuple:
        """Fairness order of a (priority, tenant) group: priority first,
        then the tenant that has been served the fewest stages."""
        priority, tenant = group
        return (-priority, self._tenant_served.get(tenant, 0))

    def poll(self) -> None:
        now = time.monotonic()
        for job in list(self.active):
            if (
                not job.finished
                and not job.cancel_requested
                and job.deadline_passed(now)
            ):
                self._expire(job)

    def finished(self) -> bool:
        return self.stopping and not self.active

    def aborted(self) -> bool:
        return False

    def note_dispatch(self, table_job: TableJob, kind: str) -> None:
        job = self._job_of.get(id(table_job))
        if job is None:
            return
        job.running_ids.add(id(table_job))
        if job.status == JobStatus.QUEUED:
            job.status = JobStatus.RUNNING
        self._tenant_served[job.tenant] = self._tenant_served.get(job.tenant, 0) + 1

    def note_stage_complete(self, table_job: TableJob) -> None:
        job = self._job_of.get(id(table_job))
        if job is None:
            return
        job.running_ids.discard(id(table_job))
        if not table_job.done:
            if job.cancel_requested:
                # Skip the remaining stages silently; the table is simply
                # never delivered.
                table_job.completed_stages = table_job.num_stages
            elif job.deadline_passed():
                self._expire(job)
                if not table_job.done:
                    self._give_up_expired(table_job)
        if table_job.done:
            self._stream(job, table_job)
        self._maybe_finalize(job)

    def note_stage_error(self, table_job: TableJob, error: BaseException) -> None:
        job = self._job_of.get(id(table_job))
        if job is None:
            return
        job.running_ids.discard(id(table_job))
        if not table_job.done:
            if job.cancel_requested:
                table_job.completed_stages = table_job.num_stages
            else:
                # Per-table give-up with PR 4 semantics: a failed first
                # stage marks the table failed, a later stage degrades it
                # back to its Phase-1 predictions. The job — and the
                # service — keeps going.
                table_job._give_up(
                    table_job.completed_stages, error, self._service.metrics
                )
        if table_job.done:
            self._stream(job, table_job)
        self._maybe_finalize(job)

    # ------------------------------------------------------------------
    # Internals (condition held)
    # ------------------------------------------------------------------
    def _give_up_expired(self, table_job: TableJob) -> None:
        table_job._give_up(
            table_job.completed_stages,
            RetryGiveUpError("job deadline expired"),
            self._service.metrics,
        )

    def _expire(self, job: Job) -> None:
        """Deadline passed: degrade every stage that is not mid-flight."""
        if job.expired or job.cancel_requested or job.finished:
            return
        job.expired = True
        self._service.metrics.counter("serve.expired", tenant=job.tenant).inc()
        for table_job in job.table_jobs:
            if table_job.done:
                continue
            if job.is_running(table_job):
                continue  # its current stage finishes; completion degrades it
            with self.condition:  # re-entrant: callers hold it already
                self.ready.discard(table_job)
            self._give_up_expired(table_job)
            self._stream(job, table_job)
        self._maybe_finalize(job)

    def _stream(self, job: Job, table_job: TableJob) -> None:
        if job.cancel_requested:
            return
        # Re-entrant (callers hold the condition); see _maybe_finalize.
        with self.condition:
            streamed = self._streamed_ids.setdefault(id(job), set())
            if id(table_job) in streamed:
                return
            streamed.add(id(table_job))
            job.streamed.append(table_job.result)
            self.condition.notify_all()

    def _maybe_finalize(self, job: Job) -> None:
        if job.finished or job.inflight > 0:
            return
        if not all(table_job.done for table_job in job.table_jobs):
            return
        # Callers already hold the condition; it wraps an RLock, so this
        # re-entrant acquisition just makes the guarded writes explicit.
        with self.condition:
            self._service._finalize_job(job)
            self.active.remove(job)
            self._streamed_ids.pop(id(job), None)
            for table_job in job.table_jobs:
                self._job_of.pop(id(table_job), None)
                self._key_of.pop(id(table_job), None)
            self.condition.notify_all()

    # ------------------------------------------------------------------
    # Service-facing entry points (take the condition themselves)
    # ------------------------------------------------------------------
    def enqueue(self, job: Job) -> None:
        with self.condition:
            if self.stopping:
                raise ServiceError("service is stopping; no new jobs accepted")
            if self.dispatch_error is not None:
                raise ServiceError(
                    f"service dispatch loop died: {self.dispatch_error!r}"
                )
            if len(self.active) >= self._service.config.max_queue_depth:
                self._service.metrics.counter(
                    "serve.rejected", reason="queue", tenant=job.tenant
                ).inc()
                raise Overloaded(
                    f"job queue is full ({self._service.config.max_queue_depth} "
                    "jobs queued or running)",
                    reason="queue",
                )
            self.active.append(job)
            group = (job.priority, job.tenant)
            urgency = job.deadline_at if job.deadline_at is not None else float("inf")
            now = time.perf_counter()
            for index, table_job in enumerate(job.table_jobs):
                self._job_of[id(table_job)] = job
                self._key_of[id(table_job)] = (group, (urgency, job.seq, index))
                self.ready.push(table_job, now)
            self.condition.notify_all()

    def cancel(self, job: Job) -> bool:
        with self.condition:
            if job.finished:
                return False
            job.cancel_requested = True
            for table_job in job.table_jobs:
                if not table_job.done and not job.is_running(table_job):
                    self.ready.discard(table_job)
                    table_job.completed_stages = table_job.num_stages
            self._service.metrics.counter("serve.cancelled", tenant=job.tenant).inc()
            self._maybe_finalize(job)
            self.condition.notify_all()
        # Outside the condition: kick any acquire blocked on the pool so
        # its abort probe sees the flag now, not at the next release.
        self._service._pool_for(job.server).wake_waiters()
        return True

    def shutdown(self, drain: bool) -> list[Job]:
        with self.condition:
            self.stopping = True
            victims = [] if drain else list(self.active)
            self.condition.notify_all()
        return victims

    def fail_all(self, error: BaseException) -> None:
        """Dispatch loop died: fail every live job so waiters wake."""
        with self.condition:
            self.dispatch_error = error
            for job in list(self.active):
                job.error = ServiceError(
                    f"service dispatch loop died while job {job.job_id} was "
                    f"live: {error!r}"
                )
                job.status = JobStatus.COMPLETED
                job.finished_perf = time.perf_counter()
            self.active.clear()
            self.condition.notify_all()


class DetectionService:
    """A shared, warm, multi-tenant front end over one detector.

    Usage::

        service = DetectionService(detector, ServiceConfig(...))
        with service:                      # start() / stop(drain=True)
            handle = service.submit("tenant-a", server, tables)
            for table_result in handle.stream():
                ...
            report = handle.result(timeout=30.0)

    The detector must be pipelined (``DetectorConfig(pipelined=True)``,
    the default): the service is the long-lived continuation of the
    pipelined executor, and a sequential detector has no stage
    interleaving to schedule.
    """

    def __init__(
        self, detector: TasteDetector, config: ServiceConfig | None = None
    ) -> None:
        if not detector.config.pipelined:
            raise ValueError(
                "DetectionService requires a pipelined detector "
                "(DetectorConfig(pipelined=True))"
            )
        self.detector = detector
        self.config = config if config is not None else ServiceConfig()
        self.metrics = detector.metrics
        self.tracer = detector.tracer
        self._admission = AdmissionController(self.config, self.metrics)
        self._source = _ServiceSource(self)
        # The service's own instance of the same executor machinery; the
        # batcher is shared with the detector (nested serving counts), so
        # direct detect() calls and service jobs coalesce identically.
        self._executor = PipelinedExecutor(
            detector.config.prep_workers,
            detector.config.infer_workers,
            wait_timeout=self.config.dispatch_wait_timeout,
            batcher=detector.batcher,
        )
        self._pools: dict[int, ConnectionPool] = {}
        self._pools_lock = threading.Lock()
        self._queue_depth_gauge = self.metrics.gauge("serve.queue_depth")
        self._seq = itertools.count(1)
        self._thread: threading.Thread | None = None
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "DetectionService":
        if self._thread is not None:
            raise ServiceError("service already started")
        if self._stopped:
            raise ServiceError("service was stopped; build a new one")
        if self.detector.batcher is not None:
            self.detector.batcher.start()
        self._thread = threading.Thread(
            target=self._dispatch, name="taste-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the service: drain (default) or cancel live jobs, then join."""
        if self._thread is None or self._stopped:
            return
        victims = self._source.shutdown(drain)
        for job in victims:
            self._source.cancel(job)
        self._thread.join()
        self._stopped = True
        if self.detector.batcher is not None:
            self.detector.batcher.stop()
        with self._pools_lock:
            pools = list(self._pools.values())
        for pool in pools:
            pool.close()

    def __enter__(self) -> "DetectionService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop(drain=True)

    def _dispatch(self) -> None:
        try:
            self._executor.run_source(self._source, metrics=self.metrics)
        except BaseException as error:  # defensive: loop must not die silently
            self._source.fail_all(error)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        server: CloudDatabaseServer,
        tables: list[str],
        priority: int | None = None,
        deadline: float | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> JobHandle:
        """Admit and enqueue a detection job; returns immediately.

        ``tables`` must be explicit (a queued job holds no connection, so
        there is nothing to list "all tables" against). ``priority`` —
        higher dispatches first; ``deadline`` — seconds from now, after
        which unstarted work degrades and the partial report is returned;
        ``fault_plan`` — per-job chaos, as in
        :class:`~repro.core.config.DetectOptions`.

        Raises :class:`~repro.errors.Overloaded` (``reason="quota"`` or
        ``"queue"``) when admission sheds the job, and
        :class:`~repro.errors.ServiceError` when the service is not
        running.
        """
        if self._thread is None or self._stopped:
            raise ServiceError("service is not running; call start() first")
        if not tables:
            raise ValueError("tables must be a non-empty list of table names")
        self._admission.admit(tenant, len(tables))
        seq = next(self._seq)
        job = Job(
            job_id=f"{tenant}-{seq}",
            seq=seq,
            tenant=tenant,
            server=server,
            table_names=list(tables),
            priority=priority if priority is not None else self.config.default_priority,
            deadline_at=(
                time.monotonic() + deadline
                if deadline is not None
                else (
                    time.monotonic() + self.config.default_deadline
                    if self.config.default_deadline is not None
                    else None
                )
            ),
            fault_plan=fault_plan,
            condition=self._source.condition,
        )
        injector = (
            fault_plan.build(metrics=self.metrics) if fault_plan is not None else None
        )
        job.injector = injector
        connection = _JobConnection(
            job,
            self.detector,
            self._pool_for(server),
            injector,
            self.config.acquire_timeout,
        )
        job.connection = connection
        scope = f"{tenant}@{id(server):x}/"
        job.table_jobs = [
            TableJob(
                self.detector,
                connection,
                name,
                cache_scope=scope,
                span_attrs={"job": job.job_id, "tenant": tenant},
            )
            for name in job.table_names
        ]
        self._source.enqueue(job)
        self.metrics.counter("serve.admitted", tenant=tenant).inc()
        self._queue_depth_gauge.set(self.queue_depth)
        return JobHandle(job, cancel=self._source.cancel)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Jobs queued or running right now."""
        with self._source.condition:
            return len(self._source.active)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _pool_for(self, server: CloudDatabaseServer) -> ConnectionPool:
        with self._pools_lock:
            pool = self._pools.get(id(server))
            if pool is None:
                pool = ConnectionPool(
                    server,
                    max_size=self.config.pool_size,
                    retry_policy=self.detector.retry_policy,
                    metrics=self.metrics,
                )
                self._pools[id(server)] = pool
            return pool

    def _finalize_job(self, job: Job) -> None:
        """Close out a job whose stages have all finished (condition held)."""
        job.connection.finalize()
        job.finished_perf = time.perf_counter()
        if job.cancel_requested:
            job.status = JobStatus.CANCELLED
        else:
            job.status = JobStatus.COMPLETED
            job.report = self._build_report(job)
        self.metrics.histogram("serve.job_seconds", tenant=job.tenant).observe(
            job.finished_perf - job.submitted_perf
        )
        self._queue_depth_gauge.set(len(self._source.active) - 1)
        self.tracer.interval(
            "serve.job",
            job.submitted_perf,
            job.finished_perf,
            tenant=job.tenant,
            job=job.job_id,
            status=job.status,
        )

    def _build_report(self, job: Job) -> DetectionReport:
        results = [table_job.result for table_job in job.table_jobs]
        detector = self.detector
        return DetectionReport(
            tables=results,
            wall_seconds=(job.finished_perf or job.submitted_perf)
            - job.submitted_perf,
            cost=job.server.ledger.snapshot(),
            cache_hits=detector.cache.hits,
            cache_misses=detector.cache.misses,
            cache_evictions=detector.cache.evictions,
            cache_disabled_lookups=detector.cache.disabled_lookups,
            retries=sum(result.retries for result in results),
            giveups=sum(
                1 for result in results if result.degraded or result.failed
            ),
            faults_injected=(
                job.injector.total_fired if job.injector is not None else 0
            ),
        )
