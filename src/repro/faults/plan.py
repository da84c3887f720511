"""Deterministic fault injection for the simulated cloud database.

A :class:`FaultPlan` is a seeded, declarative description of *what goes
wrong*: each :class:`FaultRule` targets an operation class (metadata
fetch, content scan, connect, ...) and fires with a given probability,
adding latency, raising a :class:`~repro.faults.errors.TransientDBError`,
dropping the connection, or throttling scans. Building the plan yields a
:class:`FaultInjector`. Each probabilistic draw is a hash of (plan seed,
rule, operation, table, that table's call count for the operation), so
every run with the same plan reproduces the same faults on the same
calls, whatever order concurrent workers reach the injector in.

Faults fire *before* the underlying :class:`~repro.db.connection.Connection`
operation runs, so a failed attempt charges nothing to the
:class:`~repro.db.cost.CostLedger` — the ledger's semantics (what a
successful round trip costs and counts) are unchanged, and a fully retried
run converges to the same charged totals as a fault-free one, plus any
reconnects. Injected latency sleeps through the cost model's scaled clock
but is accounted separately (``faults.injected_latency_seconds``), never
in the ledger.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, TypeVar

from ..db.connection import Connection, ConnectionClosedError
from ..obs.metrics import MetricsRegistry, NullMetricsRegistry, global_registry
from .errors import ConnectionDroppedError, TransientDBError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.schema import TableMetadata
    from ..db.server import CloudDatabaseServer

_T = TypeVar("_T")

__all__ = ["FaultRule", "FaultPlan", "FaultInjector", "FaultyConnection", "OPERATIONS", "KINDS"]

#: Operation classes a rule can target; ``"*"`` matches any of them.
OPERATIONS = (
    "connect",
    "list_tables",
    "fetch_metadata",
    "fetch_values",
    "analyze_table",
    "execute",
)

#: What happens when a rule fires.
KINDS = ("latency", "transient", "drop", "throttle")


@dataclass(frozen=True)
class FaultRule:
    """One kind of trouble, aimed at one class of operation.

    Parameters
    ----------
    operation:
        One of :data:`OPERATIONS`, or ``"*"`` for all of them.
    kind:
        ``"latency"`` sleeps ``delay`` extra seconds and lets the call
        proceed; ``"transient"`` raises :class:`TransientDBError`;
        ``"drop"`` kills the connection (raises
        :class:`ConnectionDroppedError`; the next operation transparently
        reconnects, paying connect latency); ``"throttle"`` sleeps
        ``delay`` *per requested column* on content scans (a slow-scan
        brake) and only matches ``fetch_values``.
    probability:
        Chance the rule fires on a matching operation; the draw is keyed
        on the plan seed, the rule, the operation, the table and how many
        times this operation ran on that table before.
    delay:
        Seconds of injected latency (``latency``/``throttle`` kinds).
    max_faults:
        Optional cap on total firings; with ``probability=1.0`` this gives
        exact, scheduler-independent fault counts.
    tables:
        Optional restriction to specific table names (operations without a
        table, like ``connect``, never match a table-restricted rule).
    """

    operation: str
    kind: str
    probability: float = 1.0
    delay: float = 0.0
    max_faults: int | None = None
    tables: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.operation != "*" and self.operation not in OPERATIONS:
            raise ValueError(
                f"operation must be '*' or one of {OPERATIONS}, got {self.operation!r}"
            )
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if self.kind in ("latency", "throttle") and self.delay == 0:
            raise ValueError(f"kind {self.kind!r} needs a positive delay")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError("max_faults must be non-negative")
        if self.kind == "throttle" and self.operation not in ("fetch_values", "*"):
            raise ValueError("throttle rules only apply to fetch_values")

    def matches(self, operation: str, table: str | None) -> bool:
        if self.kind == "throttle" and operation != "fetch_values":
            return False
        if self.operation != "*" and self.operation != operation:
            return False
        if self.tables is not None:
            return table is not None and table in self.tables
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault rules; ``build()`` yields the live injector."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def build(
        self, metrics: MetricsRegistry | NullMetricsRegistry | None = None
    ) -> "FaultInjector":
        return FaultInjector(self, metrics=metrics)

    # ------------------------------------------------------------------
    # Convenience plans
    # ------------------------------------------------------------------
    @staticmethod
    def transient(
        rate: float, seed: int = 0, operations: tuple[str, ...] = ("fetch_values",)
    ) -> "FaultPlan":
        """Each targeted operation fails transiently with probability ``rate``."""
        return FaultPlan(
            seed=seed,
            rules=tuple(
                FaultRule(operation=op, kind="transient", probability=rate)
                for op in operations
            ),
        )

    @staticmethod
    def chaos(rate: float, seed: int = 0, delay: float = 2e-3) -> "FaultPlan":
        """A mixed storm: transient query errors, slow scans, rare drops."""
        return FaultPlan(
            seed=seed,
            rules=(
                FaultRule("fetch_metadata", "transient", probability=rate),
                FaultRule("fetch_values", "transient", probability=rate),
                FaultRule("fetch_values", "drop", probability=rate / 4),
                FaultRule("fetch_values", "latency", probability=rate, delay=delay),
            ),
        )


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against live operations (thread-safe).

    A probabilistic rule's draw for one call is a hash of (plan seed,
    rule index, operation, table, call number), where the call number
    counts earlier calls of that operation on that table. A table's
    calls run one stage at a time, so which of its calls fault is fixed
    by the plan alone, independent of thread interleaving. (Table-less
    operations such as ``connect`` share one count, so under concurrency
    *which* caller draws the n-th outcome still depends on timing.) A
    ``max_faults`` cap is first come, first served.
    """

    def __init__(
        self,
        plan: FaultPlan,
        metrics: MetricsRegistry | NullMetricsRegistry | None = None,
    ) -> None:
        self.plan = plan
        self.metrics = metrics if metrics is not None else global_registry()
        self._lock = threading.Lock()
        self._calls: dict[tuple[str, str | None], int] = {}
        self._fired = [0] * len(plan.rules)
        self._injected_latency = 0.0
        self._counters = {
            kind: self.metrics.counter("faults.injected", kind=kind) for kind in KINDS
        }
        self._latency_total = self.metrics.counter("faults.injected_latency_seconds")

    # ------------------------------------------------------------------
    @property
    def fired(self) -> tuple[int, ...]:
        """Per-rule firing counts (plan order)."""
        with self._lock:
            return tuple(self._fired)

    @property
    def total_fired(self) -> int:
        with self._lock:
            return sum(self._fired)

    @property
    def injected_latency(self) -> float:
        """Total injected sleep seconds (simulated clock, pre-scaling)."""
        with self._lock:
            return self._injected_latency

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "fired": list(self._fired),
                "total_fired": sum(self._fired),
                "injected_latency_seconds": self._injected_latency,
            }

    # ------------------------------------------------------------------
    def connect(self, server: "CloudDatabaseServer") -> "FaultyConnection":
        """Open a fault-wrapped connection (the injection entry point)."""
        self.before("connect", None, server.cost_model)
        return FaultyConnection(server, self)

    def before(self, operation: str, table: str | None, cost_model: Any, scale: int = 1) -> None:
        """Evaluate every matching rule ahead of one operation.

        Latency-kind rules sleep (through ``cost_model.sleep`` so the
        global ``time_scale`` applies) and let the operation proceed;
        error-kind rules raise. ``scale`` multiplies throttle delays (the
        number of columns a scan requests).
        """
        with self._lock:
            call = self._calls.get((operation, table), 0)
            self._calls[(operation, table)] = call + 1
        for index, rule in enumerate(self.plan.rules):
            if not rule.matches(operation, table):
                continue
            if rule.probability < 1.0:
                if self._draw(index, operation, table, call) >= rule.probability:
                    continue
            with self._lock:
                if rule.max_faults is not None and self._fired[index] >= rule.max_faults:
                    continue
                self._fired[index] += 1
                if rule.kind in ("latency", "throttle"):
                    delay = rule.delay * (scale if rule.kind == "throttle" else 1)
                    self._injected_latency += delay
            self._counters[rule.kind].inc()
            if rule.kind in ("latency", "throttle"):
                self._latency_total.inc(delay)
                cost_model.sleep(delay)
                continue
            if rule.kind == "transient":
                raise TransientDBError(
                    f"injected transient failure on {operation}"
                    + (f" ({table})" if table else "")
                )
            raise ConnectionDroppedError(
                f"injected connection drop on {operation}"
                + (f" ({table})" if table else "")
            )

    def _draw(self, index: int, operation: str, table: str | None, call: int) -> float:
        """Uniform [0, 1) outcome of rule ``index`` on one call."""
        key = f"{self.plan.seed}|{index}|{operation}|{table}|{call}".encode()
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0**64


class FaultyConnection:
    """A :class:`Connection` proxy that runs every operation past the injector.

    Presents the same typed API as :class:`~repro.db.connection.Connection`.
    After an injected drop the inner connection is discarded; the next
    operation transparently reconnects through the server (charging the
    usual connect latency, and itself subject to ``connect`` fault rules).

    Thread-safe: the prep workers of one ``detect()`` share a connection.
    Reconnecting is atomic (one reconnect per drop, however many threads
    need it), and a call that was already under way on a connection
    another thread's drop closed fails with the retryable
    :class:`ConnectionDroppedError`, as it would against a real server.
    """

    def __init__(self, server: "CloudDatabaseServer", injector: FaultInjector) -> None:
        self._server = server
        self._injector = injector
        self._lock = threading.Lock()
        self._inner: Connection | None = server.connect()
        self._closed = False
        self.reconnects = 0

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            inner, self._inner = self._inner, None
            self._closed = True
        if inner is not None:
            inner.close()

    def __enter__(self) -> "FaultyConnection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _live(self) -> Connection:
        with self._lock:
            if self._closed:
                raise ConnectionClosedError("connection is closed")
            if self._inner is None:
                # Reconnect after a drop; the reconnect can fault too.
                self._injector.before("connect", None, self._server.cost_model)
                self._inner = self._server.connect()
                self.reconnects += 1
            return self._inner

    def _call(
        self,
        operation: str,
        table: str | None,
        call: Callable[[Connection], _T],
        scale: int = 1,
    ) -> _T:
        inner = self._live()
        try:
            self._injector.before(operation, table, self._server.cost_model, scale)
        except ConnectionDroppedError:
            with self._lock:
                if self._inner is inner:
                    self._inner = None
            inner.close()
            raise
        try:
            return call(inner)
        except ConnectionClosedError as error:
            with self._lock:
                if self._closed:
                    raise
            # Another thread's drop closed it mid-call.
            raise ConnectionDroppedError(
                f"connection dropped under {operation}"
                + (f" ({table})" if table else "")
            ) from error

    # ------------------------------------------------------------------
    # Typed API (mirrors Connection)
    # ------------------------------------------------------------------
    def list_tables(self) -> list[str]:
        return self._call("list_tables", None, lambda inner: inner.list_tables())

    def fetch_metadata(self, table_name: str) -> "TableMetadata":
        return self._call(
            "fetch_metadata", table_name, lambda inner: inner.fetch_metadata(table_name)
        )

    def fetch_values(
        self,
        table_name: str,
        column_names: list[str],
        limit: int | None = None,
        sample_seed: int | None = None,
    ) -> dict[str, list[str]]:
        return self._call(
            "fetch_values",
            table_name,
            lambda inner: inner.fetch_values(table_name, column_names, limit, sample_seed),
            scale=max(len(column_names), 1),
        )

    def analyze_table(self, table_name: str, *args: Any, **kwargs: Any) -> None:
        self._call(
            "analyze_table",
            table_name,
            lambda inner: inner.analyze_table(table_name, *args, **kwargs),
        )

    def execute(self, sql: str) -> list[dict] | list[tuple]:
        return self._call("execute", None, lambda inner: inner.execute(sql))
