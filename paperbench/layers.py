"""Layer timing from outside the program.

:class:`Recorder` patches the public entry points of each ``repro.*``
layer with thin timing wrappers while it is active, and restores them on
exit, so nothing under ``src/`` changes and untraced passes run the
program untouched. Each wrapped call becomes one span: name, start, end,
the span that was open on the same thread when it started (its parent),
the table or job it served, and how many columns it carried. Spans stay
in memory and are written as JSONL when the run ends.

A layer's *self time* is its span's duration minus the durations of the
wrapped calls nested directly inside it on the same thread (e.g. a
``TableJob.prepare_phase1`` minus its metadata fetch and featurization).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.core.phases import TableJob
from repro.db.connection import Connection
from repro.db.pool import ConnectionPool
from repro.features.encoding import Featurizer
from repro.sched import forward as sched_forward
from repro.sched.batcher import InferenceBatcher
from repro.serve.service import DetectionService

__all__ = ["SpanRecord", "Recorder", "self_times", "summarize"]


@dataclass
class SpanRecord:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request_id: str | None
    columns: int
    thread: str
    window: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def _table_job_id(args: tuple, result: Any) -> str:
    job: TableJob = args[0]
    owner = job.span_attrs.get("job")
    return f"{owner}/{job.table_name}" if owner else job.table_name


def _requests_id(requests: list) -> str:
    return ",".join(sorted({request.encoded.table_name for request in requests}))


def _requests_columns(requests: list) -> int:
    return sum(request.num_columns for request in requests)


# (owner, attribute, span name, request id of the call, columns it carried)
_TARGETS: list[tuple[Any, str, str, Callable | None, Callable | None]] = [
    (Connection, "fetch_metadata", "db.metadata", lambda a, r: a[1], None),
    (Connection, "fetch_values", "db.scan", lambda a, r: a[1], lambda a: len(a[2])),
    (ConnectionPool, "acquire", "db.pool.acquire", None, None),
    (Featurizer, "encode", "features.encode", lambda a, r: a[1].name, lambda a: len(a[1].columns)),
    (sched_forward, "collate", "features.collate", lambda a, r: ",".join(sorted({t.table_name for t in a[0]})), lambda a: sum(t.num_columns for t in a[0])),
    (sched_forward, "run_phase1", "sched.p1_forward", lambda a, r: _requests_id(a[1]), lambda a: _requests_columns(a[1])),
    (sched_forward, "run_phase2", "sched.p2_forward", lambda a, r: _requests_id(a[1]), lambda a: _requests_columns(a[1])),
    (InferenceBatcher, "run", "sched.batcher.run", lambda a, r: _requests_id(a[1]), lambda a: _requests_columns(a[1])),
    (TableJob, "prepare_phase1", "core.p1_prep", _table_job_id, None),
    (TableJob, "infer_phase1", "core.p1_infer", _table_job_id, None),
    (TableJob, "prepare_phase2", "core.p2_prep", _table_job_id, None),
    (TableJob, "infer_phase2", "core.p2_infer", _table_job_id, None),
    (DetectionService, "submit", "serve.submit", lambda a, r: r.job_id if r is not None else a[1], None),
]

SPAN_NAMES = tuple(name for _, _, name, _, _ in _TARGETS)


class Recorder:
    """Collects wrapper spans; :meth:`window` patches the layers in and out.

    Usage::

        recorder = Recorder()
        with recorder.window("pass-3"):
            detector.detect(server)
        recorder.write_jsonl(path)
    """

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._label = ""
        self._originals: list[tuple[Any, str, Any]] = []
        self.origin = time.perf_counter()

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, request_id, columns):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            with recorder._lock:
                span_id = next(recorder._ids)
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                record = SpanRecord(
                    span_id=span_id,
                    name=name,
                    start=start - recorder.origin,
                    end=end - recorder.origin,
                    parent=parent,
                    request_id=request_id(args, result) if request_id else None,
                    columns=columns(args) if columns else 0,
                    thread=threading.current_thread().name,
                    window=recorder._label,
                )
                with recorder._lock:
                    recorder.spans.append(record)

        return wrapper

    def install(self, label: str) -> None:
        if self._originals:
            raise RuntimeError("recorder already installed")
        self._label = label
        for owner, attribute, name, request_id, columns in _TARGETS:
            original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, request_id, columns))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    @contextmanager
    def window(self, label: str) -> Iterator["Recorder"]:
        """Wrappers active for the block, their spans tagged with ``label``."""
        self.install(label)
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    def select(self, predicate: Callable[[str], bool]) -> list[SpanRecord]:
        with self._lock:
            return [span for span in self.spans if predicate(span.window)]

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            spans = list(self.spans)
        with path.open("w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans: list[SpanRecord]) -> dict[int, float]:
    """``{span id: duration minus its direct children's durations}``."""
    nested: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            nested[span.parent] += span.duration
    return {span.span_id: span.duration - nested[span.span_id] for span in spans}


def summarize(spans: list[SpanRecord]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds, columns."""
    own = self_times(spans)
    summary: dict[str, dict[str, float]] = {
        name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "columns": 0}
        for name in SPAN_NAMES
    }
    for span in spans:
        entry = summary[span.name]
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += own[span.span_id]
        entry["columns"] += span.columns
    return summary
