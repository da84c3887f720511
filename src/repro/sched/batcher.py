"""The adaptive cross-table inference batcher.

:class:`InferenceBatcher` is shared by every infer stage of a pipelined
run. Stages submit :class:`~repro.sched.forward.Phase1Request` /
:class:`~repro.sched.forward.Phase2Request` objects and block on the
returned :class:`BatchFuture`; a dedicated compute thread coalesces
queued requests — across *tables* — into collated forward passes and
publishes per-request slices back. Centralizing the model forward on one
thread also stops the infer pool's workers from fighting each other for
the GIL inside numpy: workers spend their time blocked in ``wait()``
while one thread runs large matmuls.

Flush policy (per the ``(max_batch_cols, max_wait_ms)`` contract of
:class:`~repro.core.config.BatchingConfig`):

* ``full`` — queued cost reached ``max_batch_cols`` columns;
* ``timeout`` — the oldest queued request aged past ``max_wait_ms``;
* ``idle`` — adaptive early flush: the executor's backlog hints
  (:meth:`InferenceBatcher.note_state`) show every *running* infer stage
  already blocked on this batcher, so no further request can arrive
  before a flush frees an infer slot — waiting any longer is pure
  latency;
* ``drain`` — the batcher is stopping and clears what is queued.

Under backlog the policy grows batches naturally: while a forward is
running, new requests pile up in the queue and the next flush takes all
of them (up to ``max_batch_cols``).

Liveness is defended in both directions: submitters waiting on a future
poll the compute thread's health (a crashed thread fails their futures
instead of hanging them), and the compute thread never waits on a
*specific* future submitter — a job killed mid-flight (e.g. by retry
give-up) simply never submits again, and the timeout/idle flushes keep
the queue moving for everyone else.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from ..obs.metrics import MetricsRegistry, NullMetricsRegistry, global_registry
from .forward import Phase1Request, Phase2Request, request_cost, run_group

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.adtd import ADTDModel
    from ..core.config import BatchingConfig

__all__ = ["InferenceBatcher", "BatchFuture"]

_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
# How often a blocked submitter rechecks the compute thread's health.
_LIVENESS_POLL_SECONDS = 0.25

_Request = "Phase1Request | Phase2Request"


class _Ticket:
    """Internal queue entry; one per submitted request."""

    __slots__ = ("request", "cost", "enqueued_at", "result", "error", "done")

    def __init__(self, request, cost: int, enqueued_at: float) -> None:
        self.request = request
        self.cost = cost
        self.enqueued_at = enqueued_at
        self.result = None
        self.error: BaseException | None = None
        self.done = False


class BatchFuture:
    """Handle to one submitted request's eventual result."""

    __slots__ = ("_batcher", "_ticket")

    def __init__(self, batcher: "InferenceBatcher", ticket: _Ticket) -> None:
        self._batcher = batcher
        self._ticket = ticket

    def done(self) -> bool:
        with self._batcher._cond:
            return self._ticket.done

    def result(self, timeout: float | None = None):
        """Block until the batch carrying this request ran; return the slice.

        Raises the forward pass's exception if its batch failed, and
        :class:`RuntimeError` if the batcher died or ``timeout`` expired.
        """
        return self._batcher._wait(self._ticket, timeout)


class InferenceBatcher:
    """Coalesces infer-stage requests from many tables into shared forwards."""

    def __init__(
        self,
        model: "ADTDModel",
        config: "BatchingConfig",
        metrics: MetricsRegistry | NullMetricsRegistry | None = None,
        reference: bool = False,
    ) -> None:
        metrics = metrics if metrics is not None else global_registry()
        self.model = model
        self.config = config
        # Forward selection for every group (see repro.sched.forward.run_phase1).
        self.reference = reference
        self._cond = threading.Condition()
        # --- everything below self._cond is guarded by it ---
        self._queue: deque[_Ticket] = deque()
        self._serving = 0  # nesting count of start()/stop() pairs
        self._thread: threading.Thread | None = None
        self._crashed: BaseException | None = None
        self._waiting_submitters = 0
        self._prep_backlog = 0
        self._infer_backlog = 0
        # Metric handles, hoisted once (never resolved on the hot path).
        self._batch_cols_hist = metrics.histogram(
            "sched.batch_cols", buckets=_BATCH_SIZE_BUCKETS
        )
        self._batch_requests_hist = metrics.histogram(
            "sched.batch_requests", buckets=_BATCH_SIZE_BUCKETS
        )
        self._queue_wait_hist = metrics.histogram("sched.queue_wait_seconds")
        self._flush_counters = {
            reason: metrics.counter("sched.flush_reason", reason=reason)
            for reason in ("full", "timeout", "idle", "drain")
        }
        self._forward_counter = metrics.counter("sched.forwards")
        self._submit_counter = metrics.counter("sched.requests")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin serving; nested starts share one compute thread."""
        with self._cond:
            self._serving += 1
            self._crashed = None
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._serve, name="taste-batcher", daemon=True
                )
                self._thread.start()

    def stop(self) -> None:
        """Leave serving mode; the last stop drains the queue and joins."""
        with self._cond:
            self._serving -= 1
            if self._serving > 0:
                return
            thread = self._thread
            self._cond.notify_all()
        if thread is not None:
            thread.join()
        with self._cond:
            self._thread = None

    @contextmanager
    def serving(self) -> Iterator["InferenceBatcher"]:
        self.start()
        try:
            yield self
        finally:
            self.stop()

    def is_serving(self) -> bool:
        with self._cond:
            return (
                self._serving > 0
                and self._thread is not None
                and self._thread.is_alive()
            )

    # ------------------------------------------------------------------
    # Executor hints (adaptive flush)
    # ------------------------------------------------------------------
    def note_state(self, prep_backlog: int, infer_backlog: int) -> None:
        """Update the executor's backlog snapshot.

        ``prep_backlog`` counts prep stages in flight or dispatchable;
        ``infer_backlog`` counts infer stages *running* on the infer pool
        (dispatchable ones cannot submit until a flush frees a slot). The
        compute thread flushes early ("idle") once every running infer
        stage is already blocked on this batcher.
        """
        with self._cond:
            self._prep_backlog = prep_backlog
            # Only the infer backlog feeds the flush decision; waking the
            # compute thread for anything else is a wasted GIL handoff.
            if infer_backlog != self._infer_backlog:
                self._infer_backlog = infer_backlog
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: _Request) -> BatchFuture:
        return self.submit_many([request])[0]

    def submit_many(self, requests: list[_Request]) -> list[BatchFuture]:
        """Enqueue several requests atomically (one stage's chunks)."""
        now = time.perf_counter()
        with self._cond:
            if self._serving <= 0:
                raise RuntimeError("InferenceBatcher is not serving; use serving()/start()")
            if self._crashed is not None:
                raise RuntimeError("InferenceBatcher compute thread crashed") from self._crashed
            tickets = [
                _Ticket(request, request_cost(request), now) for request in requests
            ]
            self._queue.extend(tickets)
            self._cond.notify_all()
        self._submit_counter.inc(len(requests))
        return [BatchFuture(self, ticket) for ticket in tickets]

    def run(self, requests: list[_Request]) -> list:
        """Submit a stage's requests and block for all results, in order."""
        futures = self.submit_many(requests)
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Waiting (submitter side)
    # ------------------------------------------------------------------
    def _wait(self, ticket: _Ticket, timeout: float | None):
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._cond:
            self._waiting_submitters += 1
            self._cond.notify_all()  # the idle heuristic counts waiters
            try:
                while not ticket.done:
                    if self._crashed is not None:
                        raise RuntimeError(
                            "InferenceBatcher compute thread crashed"
                        ) from self._crashed
                    if self._thread is None or not self._thread.is_alive():
                        raise RuntimeError(
                            "InferenceBatcher is not running; request abandoned"
                        )
                    remaining = _LIVENESS_POLL_SECONDS
                    if deadline is not None:
                        remaining = min(remaining, deadline - time.perf_counter())
                        if remaining <= 0:
                            raise TimeoutError("timed out waiting for batched inference")
                    self._cond.wait(timeout=remaining)
            finally:
                self._waiting_submitters -= 1
        if ticket.error is not None:
            raise ticket.error
        return ticket.result

    # ------------------------------------------------------------------
    # Compute thread
    # ------------------------------------------------------------------
    def _serve(self) -> None:
        try:
            while True:
                with self._cond:
                    reason = self._await_flush()
                    if reason is None:
                        return
                    tickets = self._pop_batch()
                self._flush_counters[reason].inc()
                self._run_tickets(tickets)
        except BaseException as error:  # defensive: fail waiters, not silence
            with self._cond:
                self._crashed = error
                while self._queue:
                    ticket = self._queue.popleft()
                    ticket.error = error
                    ticket.done = True
                self._cond.notify_all()

    def _await_flush(self) -> str | None:
        """Block (cond held) until a flush is due; None means shut down."""
        while True:
            if self._queue:
                reason = self._flush_reason()
                if reason is not None:
                    return reason
                oldest = self._queue[0].enqueued_at
                deadline = oldest + self.config.max_wait_ms / 1000.0
                self._cond.wait(timeout=max(deadline - time.perf_counter(), 0.0))
            else:
                if self._serving <= 0:
                    return None
                self._cond.wait()

    def _flush_reason(self) -> str | None:
        if self._serving <= 0:
            return "drain"
        cols = sum(ticket.cost for ticket in self._queue)
        if cols >= self.config.max_batch_cols:
            return "full"
        age = time.perf_counter() - self._queue[0].enqueued_at
        if age >= self.config.max_wait_ms / 1000.0:
            return "timeout"
        if self.config.adaptive and self._infer_backlog <= self._waiting_submitters:
            # Every infer stage that could still contribute to this batch is
            # already blocked on us; waiting longer is pure latency. (Stages
            # the executor has not yet started can only start after a flush
            # frees an infer slot, so they never justify waiting.)
            return "idle"
        return None

    def _pop_batch(self) -> list[_Ticket]:
        """Take the FIFO prefix fitting in ``max_batch_cols`` (cond held)."""
        tickets: list[_Ticket] = []
        cols = 0
        while self._queue:
            ticket = self._queue[0]
            if tickets and cols + ticket.cost > self.config.max_batch_cols:
                break
            self._queue.popleft()
            tickets.append(ticket)
            cols += ticket.cost
        return tickets

    def _run_tickets(self, tickets: list[_Ticket]) -> None:
        """Run a popped flush: one forward per width-compatible group."""
        now = time.perf_counter()
        for ticket in tickets:
            self._queue_wait_hist.observe(now - ticket.enqueued_at)
        groups: dict[tuple, list[_Ticket]] = {}
        for ticket in tickets:
            groups.setdefault(ticket.request.group_key, []).append(ticket)
        for group in groups.values():
            self._forward_counter.inc()
            self._batch_requests_hist.observe(len(group))
            self._batch_cols_hist.observe(sum(ticket.cost for ticket in group))
            try:
                results = run_group(
                    self.model, [ticket.request for ticket in group], self.reference
                )
            except BaseException as error:
                with self._cond:
                    for ticket in group:
                        ticket.error = error
                        ticket.done = True
                    self._cond.notify_all()
            else:
                with self._cond:
                    for ticket, result in zip(group, results):
                        ticket.result = result
                        ticket.done = True
                    self._cond.notify_all()
