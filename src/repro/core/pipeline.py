"""Pipelined execution of TASTE over many tables (paper Sec. 5, Algorithm 1).

Data-preparation stages (I/O + CPU) and inference stages (model compute)
use different resources, so interleaving them across tables raises
utilization: while table A is in inference, table B's content fetch can be
in flight. Two thread pools (``TP1`` for preparation, ``TP2`` for
inference) drain a queue of stages; a stage is *eligible* once all previous
stages of the same table have finished (Definition 5.1).

The dispatch loop is event-driven: a worker whose stage completes puts
the job on the ready queue of its next stage's kind and notifies the
condition, and the loop — blocked in ``condition.wait()`` until then
— hands queued stages to free workers. A wakeup therefore costs
O(dispatches), never a pass over every job (a long ``wait_timeout``
remains as a safety net only; timeouts are counted in the
``pipeline.wait_timeouts`` metric and a healthy run records zero).
Stage callables run inside a copy of the dispatcher's :mod:`contextvars`
context, so tracer spans opened on worker threads parent to the run's
root span.

Where jobs come from is abstracted behind :class:`JobSource` so the same
loop serves two callers: the one-shot :meth:`PipelinedExecutor.run` (a
static list of jobs, exit when drained, first failure aborts) and the
long-lived :class:`~repro.serve.DetectionService` (jobs arrive and are
cancelled while the loop runs; per-table failures are absorbed into the
table's result instead of killing the loop).

``SequentialExecutor`` is the ablation baseline: tables processed one by
one, stages strictly in order, no overlap.
"""

from __future__ import annotations

import contextvars
import heapq
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Hashable, Protocol

from ..obs import NULL_METRICS
from ..obs.metrics import MetricsRegistry, NullMetricsRegistry, global_registry
from .phases import TableJob

if TYPE_CHECKING:
    from ..sched.batcher import InferenceBatcher

__all__ = ["JobSource", "PipelinedExecutor", "ReadyQueues", "SequentialExecutor"]


class SequentialExecutor:
    """Runs every stage of every table in order, with no concurrency."""

    def run(
        self,
        jobs: list[TableJob],
        metrics: MetricsRegistry | NullMetricsRegistry | None = None,
    ) -> None:
        for job in jobs:
            while not job.done:
                job.run_next_stage()


#: The two resource kinds of Algorithm 1: TP1 (``prep``) and TP2 (``infer``).
KINDS = ("prep", "infer")


class ReadyQueues:
    """The jobs whose next stage is eligible (Definition 5.1), one queue per kind.

    A job sits in at most one queue: the queue of its next stage's kind,
    from the moment that stage becomes eligible until the loop dispatches
    it. ``key(job)`` returns ``(group, order)`` and a pop takes the job
    with the smallest ``(rank(group), order)``. ``order`` is fixed per
    job; ``rank`` is read at pop time, so a source whose preference moves
    as work is served (the service's least-served tenant) stays exact
    without re-sorting anything. Groups are few — one for ``detect()``,
    one per (priority, tenant) for the service — so a pop costs
    O(groups + log n), not a pass over the jobs.

    Not thread-safe by itself: every call happens with the source's
    condition held.
    """

    def __init__(
        self,
        key: Callable[[TableJob], tuple[Hashable, tuple]],
        rank: Callable[[Hashable], tuple] = lambda group: (),
    ) -> None:
        self._key = key
        self._rank = rank
        # kind -> group -> heap of (order, entry, eligible_since, job)
        self._heaps: dict[str, dict[Hashable, list]] = {kind: {} for kind in KINDS}
        # id(job) -> (entry, kind) of its one live heap entry; a heap item
        # whose entry number is not here was discarded and is skipped on pop.
        self._live: dict[int, tuple[int, str]] = {}
        self._counts = dict.fromkeys(KINDS, 0)
        self._entries = itertools.count()

    def push(self, job: TableJob, eligible_since: float) -> None:
        """Queue ``job``'s next stage, eligible since ``eligible_since``."""
        kind = job.next_stage_kind()
        group, order = self._key(job)
        entry = next(self._entries)
        heap = self._heaps[kind].setdefault(group, [])
        heapq.heappush(heap, (order, entry, eligible_since, job))
        self._live[id(job)] = (entry, kind)
        self._counts[kind] += 1

    def discard(self, job: TableJob) -> None:
        """Drop ``job`` if queued (it was finished without being dispatched)."""
        live = self._live.pop(id(job), None)
        if live is not None:
            self._counts[live[1]] -= 1

    def count(self, kind: str) -> int:
        """Jobs waiting for a ``kind`` worker."""
        return self._counts[kind]

    def _is_live(self, item: tuple) -> bool:
        _, entry, _, job = item
        live = self._live.get(id(job))
        return live is not None and live[0] == entry

    def pop(self, kind: str) -> tuple[TableJob, float] | None:
        """The first eligible ``kind`` stage and when it became eligible."""
        groups = self._heaps[kind]
        best: tuple[tuple, list] | None = None
        for group, heap in list(groups.items()):
            while heap and not self._is_live(heap[0]):
                heapq.heappop(heap)
            if not heap:
                del groups[group]
                continue
            candidate = (self._rank(group), heap[0][0])
            if best is None or candidate < best[0]:
                best = (candidate, heap)
        if best is None:
            return None
        _, _, eligible_since, job = heapq.heappop(best[1])
        del self._live[id(job)]
        self._counts[kind] -= 1
        return job, eligible_since


class JobSource(Protocol):
    """Where the dispatch loop gets its jobs and reports their progress.

    The source owns ``condition`` — the one lock of the whole dispatch
    loop — and ``ready``, the queues the loop dispatches from. Every
    method below is called *with that condition held*. The loop itself
    re-queues a job whose stage finished and that has stages left; a
    source that adds jobs, or finishes queued ones, from other threads
    must take the same condition, ``push``/``discard`` them on ``ready``
    and ``notify_all()``.
    """

    condition: threading.Condition
    ready: ReadyQueues

    def poll(self) -> None:
        """Apply time-driven changes (deadline expiry) before a dispatch pass."""
        ...

    def finished(self) -> bool:
        """True when a drained loop (nothing queued/running) should exit."""
        ...

    def aborted(self) -> bool:
        """True when the loop should stop immediately (fatal failure)."""
        ...

    def note_dispatch(self, job: TableJob, kind: str) -> None:
        """A stage of ``job`` was just handed to the ``kind`` pool."""
        ...

    def note_stage_complete(self, job: TableJob) -> None:
        """A stage of ``job`` finished normally."""
        ...

    def note_stage_error(self, job: TableJob, error: BaseException) -> None:
        """A stage of ``job`` raised ``error`` out of ``run_next_stage``."""
        ...


class _StaticSource:
    """The one-shot source behind :meth:`PipelinedExecutor.run`.

    A fixed job list, drained to completion in list order; the first
    stage failure aborts the loop and is re-raised to the caller.
    """

    def __init__(self, jobs: list[TableJob]) -> None:
        self.condition = threading.Condition()
        index = {id(job): position for position, job in enumerate(jobs)}
        self.ready = ReadyQueues(lambda job: (None, index[id(job)]))
        self.failures: list[BaseException] = []
        now = time.perf_counter()
        for job in jobs:
            if not job.done:
                self.ready.push(job, now)

    def poll(self) -> None:
        return None

    def finished(self) -> bool:
        return True

    def aborted(self) -> bool:
        return bool(self.failures)

    def note_dispatch(self, job: TableJob, kind: str) -> None:
        return None

    def note_stage_complete(self, job: TableJob) -> None:
        return None

    def note_stage_error(self, job: TableJob, error: BaseException) -> None:
        self.failures.append(error)


class PipelinedExecutor:
    """Algorithm 1: per-kind ready queues drained by two thread pools.

    Parameters
    ----------
    prep_workers:
        Size of TP1 (data-preparation pool: metadata fetch, content scan
        and featurization — mostly waiting on database round trips).
    infer_workers:
        Size of TP2 (inference pool).
    wait_timeout:
        Safety-net timeout for the dispatch loop's ``condition.wait``.
        Workers always notify on completion, so with work outstanding
        this should never fire; a firing with stages pending or running
        increments ``pipeline.wait_timeouts``. (An idle long-lived source
        waiting for new jobs times out routinely; that is not a stall and
        is not counted.)
    batcher:
        Optional :class:`~repro.sched.InferenceBatcher`. When set, the
        executor serves it for the duration of each run and feeds it
        backlog hints (how many prep/infer stages are in flight or
        queued) so the batcher can flush adaptively: grow batches
        while more submitters are coming, flush immediately once the
        pipeline's tail leaves no prep work anywhere.
    """

    def __init__(
        self,
        prep_workers: int = 2,
        infer_workers: int = 2,
        wait_timeout: float = 5.0,
        batcher: "InferenceBatcher | None" = None,
    ) -> None:
        if prep_workers < 1 or infer_workers < 1:
            raise ValueError("both thread pools need at least one worker")
        self.prep_workers = prep_workers
        self.infer_workers = infer_workers
        self.wait_timeout = wait_timeout
        self.batcher = batcher

    def run(
        self,
        jobs: list[TableJob],
        metrics: MetricsRegistry | NullMetricsRegistry | None = None,
    ) -> None:
        if not jobs:
            return
        source = _StaticSource(jobs)
        if self.batcher is not None:
            # Serve the batcher for exactly this run; the context exits
            # (draining the queue and joining the compute thread) only
            # after both worker pools have finished, so no submitter can
            # ever block on a stopped batcher.
            with self.batcher.serving():
                self.batcher.note_state(len(jobs), 0)
                self.run_source(source, metrics)
        else:
            self.run_source(source, metrics)
        if source.failures:
            raise source.failures[0]

    def run_source(
        self,
        source: JobSource,
        metrics: MetricsRegistry | NullMetricsRegistry | None = None,
    ) -> None:
        """Drain ``source`` through the two thread pools until it finishes.

        The long-lived entry point: the loop keeps waiting on the
        source's condition while ``finished()`` is false, so a service
        can keep enqueuing jobs. Each wakeup hands the first queued stage
        of each kind to every free worker; a worker re-queues its job
        when the stage completes. In-flight counts are local; the only
        shared lock is ``source.condition``.
        """
        metrics = metrics if metrics is not None else global_registry()
        in_flight_gauges = {
            kind: metrics.gauge("pipeline.in_flight", pool=kind) for kind in KINDS
        }
        dispatch_counters = {
            kind: metrics.counter("pipeline.dispatches", pool=kind) for kind in KINDS
        }
        queue_wait = {
            kind: metrics.histogram("pipeline.queue_wait_seconds", pool=kind)
            for kind in KINDS
        }
        wakeups = metrics.counter("pipeline.wakeups")
        wait_timeouts = metrics.counter("pipeline.wait_timeouts")
        dispatch_seconds = metrics.histogram("pipeline.dispatch_seconds")

        condition = source.condition
        ready = source.ready
        in_flight = dict.fromkeys(KINDS, 0)

        def worker(job: TableJob, kind: str) -> None:
            error: BaseException | None = None
            try:
                job.run_next_stage()
            except BaseException as stage_error:  # routed to the source
                error = stage_error
            finally:
                with condition:
                    in_flight[kind] -= 1
                    in_flight_gauges[kind].set(in_flight[kind])
                    if error is None:
                        source.note_stage_complete(job)
                    else:
                        source.note_stage_error(job, error)
                    if not job.done:
                        ready.push(job, time.perf_counter())
                    condition.notify_all()

        limits = {"prep": self.prep_workers, "infer": self.infer_workers}
        with ThreadPoolExecutor(self.prep_workers, thread_name_prefix="taste-prep") as tp1, \
                ThreadPoolExecutor(self.infer_workers, thread_name_prefix="taste-infer") as tp2:
            pools = {"prep": tp1, "infer": tp2}
            with condition:
                while not source.aborted():
                    source.poll()
                    pass_started = time.perf_counter()
                    for kind in KINDS:
                        # First eligible stage of each kind, in source order,
                        # for every free worker (Algorithm 1 lines 8-19).
                        while in_flight[kind] < limits[kind]:
                            popped = ready.pop(kind)
                            if popped is None:
                                break
                            job, eligible_since = popped
                            queue_wait[kind].observe(time.perf_counter() - eligible_since)
                            in_flight[kind] += 1
                            in_flight_gauges[kind].set(in_flight[kind])
                            dispatch_counters[kind].inc()
                            source.note_dispatch(job, kind)
                            # Run the stage inside the dispatcher's context so
                            # spans opened on the worker thread keep the run's
                            # root span as an ancestor.
                            context = contextvars.copy_context()
                            pools[kind].submit(context.run, worker, job, kind)
                    dispatch_seconds.observe(time.perf_counter() - pass_started)
                    if self.batcher is not None:
                        # prep backlog: stages running or queued (how much
                        # future infer work exists). infer backlog: stages
                        # that can still submit before the next flush — the
                        # running ones. Queued infer stages only start after
                        # a flush frees a worker, so counting them would make
                        # the batcher wait on itself.
                        self.batcher.note_state(
                            in_flight["prep"] + ready.count("prep"), in_flight["infer"]
                        )
                    outstanding = sum(in_flight.values()) + sum(
                        ready.count(kind) for kind in KINDS
                    )
                    if not outstanding and source.finished():
                        break
                    # Event-driven wait: workers notify on completion, so a
                    # timeout with work outstanding is a stall. An idle
                    # long-lived source (nothing queued or running, waiting
                    # for submissions) times out as a matter of course and
                    # is not counted.
                    notified = condition.wait(timeout=self.wait_timeout)
                    wakeups.inc()
                    if not notified and outstanding:
                        wait_timeouts.inc()
