"""Tests for Algorithm 1's pipelined executor (with duck-typed fake jobs)."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.core import PipelinedExecutor, SequentialExecutor
from repro.core.pipeline import ReadyQueues
from repro.obs import MetricsRegistry


class FakeJob:
    """Duck-typed stand-in for TableJob: four stages, recorded ordering."""

    STAGE_KINDS = ("prep", "infer", "prep", "infer")

    def __init__(self, name: str, log: list, lock: threading.Lock, delay: float = 0.0,
                 fail_at: int | None = None):
        self.name = name
        self.log = log
        self.lock = lock
        self.delay = delay
        self.fail_at = fail_at
        self.completed_stages = 0
        self.kind_calls = 0

    @property
    def num_stages(self) -> int:
        return 4

    @property
    def done(self) -> bool:
        return self.completed_stages >= 4

    def next_stage_kind(self):
        self.kind_calls += 1
        return None if self.done else self.STAGE_KINDS[self.completed_stages]

    def run_next_stage(self) -> None:
        stage = self.completed_stages
        if self.fail_at == stage:
            raise RuntimeError(f"{self.name} fails at stage {stage}")
        if self.delay:
            time.sleep(self.delay)
        with self.lock:
            self.log.append((self.name, stage))
        self.completed_stages = stage + 1


@pytest.fixture()
def make_jobs():
    def factory(count: int, delay: float = 0.0, fail=None):
        log: list = []
        lock = threading.Lock()
        jobs = [
            FakeJob(f"t{i}", log, lock, delay, fail_at=fail if i == 0 else None)
            for i in range(count)
        ]
        return jobs, log

    return factory


class RecordingSource:
    """A one-shot JobSource over a fixed job list that counts every call
    into it and records, for each dispatch, whether the dispatched job was
    the first eligible one of that kind in list order."""

    def __init__(self, jobs: list[FakeJob]):
        self.condition = threading.Condition()
        self.jobs = jobs
        position = {id(job): index for index, job in enumerate(jobs)}
        self.ready = ReadyQueues(lambda job: (None, position[id(job)]))
        now = time.perf_counter()
        for job in jobs:
            self.ready.push(job, now)
        self.running: set[int] = set()
        self.calls = 0
        self.first_eligible: list[bool] = []

    def poll(self):
        self.calls += 1

    def finished(self):
        self.calls += 1
        return True

    def aborted(self):
        self.calls += 1
        return False

    def note_dispatch(self, job, kind):
        self.calls += 1
        # Algorithm 1 lines 8-19, evaluated from scratch on the job list
        # (without next_stage_kind(), so the call counts stay the loop's).
        first = next(
            candidate
            for candidate in self.jobs
            if id(candidate) not in self.running
            and not candidate.done
            and FakeJob.STAGE_KINDS[candidate.completed_stages] == kind
        )
        self.first_eligible.append(job is first)
        self.running.add(id(job))

    def note_stage_complete(self, job):
        self.calls += 1
        self.running.discard(id(job))

    def note_stage_error(self, job, error):
        self.calls += 1
        self.running.discard(id(job))


class TestSequentialExecutor:
    def test_all_stages_run_in_order(self, make_jobs):
        jobs, log = make_jobs(3)
        SequentialExecutor().run(jobs)
        assert all(job.done for job in jobs)
        # strictly table-by-table
        assert log == [(f"t{i}", s) for i in range(3) for s in range(4)]


class TestPipelinedExecutor:
    def test_all_jobs_complete(self, make_jobs):
        jobs, log = make_jobs(5)
        PipelinedExecutor(2, 2).run(jobs)
        assert all(job.done for job in jobs)
        assert len(log) == 20

    def test_per_job_stage_order_preserved(self, make_jobs):
        jobs, log = make_jobs(4, delay=0.002)
        PipelinedExecutor(2, 2).run(jobs)
        per_job: dict[str, list[int]] = {}
        for name, stage in log:
            per_job.setdefault(name, []).append(stage)
        for stages in per_job.values():
            assert stages == [0, 1, 2, 3]

    def test_empty_job_list(self):
        PipelinedExecutor().run([])

    def test_exception_propagates(self, make_jobs):
        jobs, _ = make_jobs(3, fail=1)
        with pytest.raises(RuntimeError, match="t0 fails"):
            PipelinedExecutor(1, 1).run(jobs)

    def test_invalid_worker_counts(self):
        with pytest.raises(ValueError):
            PipelinedExecutor(0, 1)
        with pytest.raises(ValueError):
            PipelinedExecutor(1, 0)

    def test_pipelining_overlaps_stage_kinds(self, make_jobs):
        """With delays, prep of a later table runs before infer of an
        earlier one finishes — i.e. stages of different tables interleave."""
        jobs, log = make_jobs(4, delay=0.01)
        PipelinedExecutor(2, 2).run(jobs)
        names_in_order = [name for name, _ in log]
        # interleaved: not all of t0's stages happen before t1 starts
        first_t1 = names_in_order.index("t1")
        last_t0 = len(names_in_order) - 1 - names_in_order[::-1].index("t0")
        assert first_t1 < last_t0

    def test_no_spurious_wakeups(self, make_jobs):
        """The dispatch loop is event-driven, not polling: a 4-table run
        must never hit the safety-net wait timeout, and the loop wakes at
        most once per stage completion (16 completions here)."""
        jobs, _ = make_jobs(4, delay=0.005)
        registry = MetricsRegistry()
        PipelinedExecutor(2, 2).run(jobs, metrics=registry)
        assert all(job.done for job in jobs)
        snapshot = registry.snapshot()
        assert snapshot["pipeline.wait_timeouts"]["value"] == 0
        assert snapshot["pipeline.wakeups"]["value"] <= 16
        assert (
            snapshot["pipeline.dispatches{pool=prep}"]["value"]
            == snapshot["pipeline.dispatches{pool=infer}"]["value"]
            == 8
        )

    def test_queue_wait_histogram_recorded(self, make_jobs):
        jobs, _ = make_jobs(3, delay=0.002)
        registry = MetricsRegistry()
        PipelinedExecutor(2, 2).run(jobs, metrics=registry)
        for pool in ("prep", "infer"):
            hist = registry.histogram("pipeline.queue_wait_seconds", pool=pool)
            assert hist.count == 6  # two stages of each kind per table

    def test_faster_than_sequential_with_io_delays(self, make_jobs):
        delay = 0.01
        jobs_seq, _ = make_jobs(6, delay=delay)
        jobs_pipe, _ = make_jobs(6, delay=delay)

        started = time.perf_counter()
        SequentialExecutor().run(jobs_seq)
        sequential_time = time.perf_counter() - started

        started = time.perf_counter()
        PipelinedExecutor(2, 2).run(jobs_pipe)
        pipelined_time = time.perf_counter() - started

        assert pipelined_time < sequential_time

    def test_dispatches_first_eligible_stage_in_source_order(self, make_jobs):
        jobs, _ = make_jobs(12)
        rng = random.Random(5)
        for job in jobs:
            job.delay = rng.choice((0.0, 0.001, 0.004))
        source = RecordingSource(jobs)
        PipelinedExecutor(3, 2).run_source(source, metrics=MetricsRegistry())
        assert all(job.done for job in jobs)
        assert len(source.first_eligible) == 4 * len(jobs)
        assert all(source.first_eligible)

    @pytest.mark.parametrize("count", [50, 400])
    def test_dispatch_work_is_linear_in_stages(self, make_jobs, count):
        """Each stage costs the loop O(1) job and source calls: no pass
        over the job list per wakeup."""
        jobs, _ = make_jobs(count)
        source = RecordingSource(jobs)
        registry = MetricsRegistry()
        PipelinedExecutor(2, 2).run_source(source, metrics=registry)
        stages = 4 * count
        assert all(job.done for job in jobs)
        assert sum(job.kind_calls for job in jobs) == stages
        wakeups = registry.counter("pipeline.wakeups").value
        assert wakeups <= stages
        # aborted + poll + finished per wakeup (and the first pass), plus
        # one dispatch and one completion note per stage.
        assert source.calls <= 3 * (wakeups + 1) + 2 * stages


class TestReadyQueues:
    def test_group_rank_is_read_at_pop_time(self, make_jobs):
        jobs, _ = make_jobs(4)
        served = {"a": 0, "b": 0}
        groups = {id(jobs[0]): "a", id(jobs[1]): "a", id(jobs[2]): "b", id(jobs[3]): "b"}
        queues = ReadyQueues(
            lambda job: (groups[id(job)], (jobs.index(job),)),
            rank=lambda group: (served[group],),
        )
        for job in jobs:
            queues.push(job, 0.0)
        order = []
        while (popped := queues.pop("prep")) is not None:
            job, _ = popped
            order.append(job.name)
            served[groups[id(job)]] += 1
        # Least-served group first, then list order within a group.
        assert order == ["t0", "t2", "t1", "t3"]

    def test_discarded_job_is_skipped_and_uncounted(self, make_jobs):
        jobs, _ = make_jobs(3)
        queues = ReadyQueues(lambda job: (None, jobs.index(job)))
        for job in jobs:
            queues.push(job, 0.0)
        queues.discard(jobs[0])
        assert queues.count("prep") == 2
        assert queues.pop("prep")[0] is jobs[1]
        assert queues.count("prep") == 1
        assert queues.pop("infer") is None
