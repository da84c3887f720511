"""Configuration objects for the public detector API.

The original :class:`~repro.core.detector.TasteDetector` constructor grew
a dozen keyword arguments; this module replaces that surface with three
small frozen dataclasses:

* :class:`DetectorConfig` — *what* the detector does: caching, pipelining,
  pool sizes, scan method. Validated at construction time (e.g. a negative
  ``sample_seed`` is rejected here, not deep inside the engine's
  ``default_rng`` call).
* :class:`RuntimeConfig` — *how* it runs: tracer, metrics sink, the
  :class:`~repro.faults.RetryPolicy` applied to data-preparation stages,
  and whether fault give-ups degrade gracefully or raise.
* :class:`DetectOptions` — per-call options for ``detect()``: an optional
  :class:`~repro.faults.FaultPlan` and a trace artifact path.

Old keyword arguments keep working through a deprecation shim in the
detector (one :class:`DeprecationWarning` per legacy call).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..faults.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.plan import FaultPlan
    from ..obs.metrics import MetricsRegistry, NullMetricsRegistry
    from ..obs.trace import Tracer

__all__ = [
    "BatchingConfig",
    "CompileConfig",
    "DetectorConfig",
    "RuntimeConfig",
    "DetectOptions",
]

_SCAN_METHODS = ("first", "sample")


@dataclass(frozen=True)
class BatchingConfig:
    """Policy knobs of the cross-table inference batcher (``repro.sched``).

    ``max_batch_cols`` caps how many columns one collated forward may
    carry; ``max_wait_ms`` bounds how long the oldest queued request may
    age before a flush ("timeout"); ``adaptive=True`` additionally
    flushes as soon as no further submitters can arrive (the prep pool
    is idle and no infer stage is runnable — "idle" flush) instead of
    letting the tail of a run wait out the timeout. ``pad_quantum``
    quantizes padded sequence widths so requests from different tables
    land in shared width buckets; both the sequential and the batched
    path pad to the same quantum, which is what makes their float32
    results bitwise identical (summation order never changes).
    """

    enabled: bool = True
    max_batch_cols: int = 64
    max_wait_ms: float = 2.0
    pad_quantum: int = 16
    adaptive: bool = True

    def __post_init__(self) -> None:
        if self.max_batch_cols < 1:
            raise ValueError("max_batch_cols must be at least 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if self.pad_quantum < 1:
            raise ValueError("pad_quantum must be at least 1")

    def replace(self, **changes: Any) -> "BatchingConfig":
        """A modified copy (re-validated)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class CompileConfig:
    """Which model forward the detector's inference runs.

    ``enabled=True`` (the default) runs the raw-ndarray no-grad forward
    (``ADTDModel.infer_phase1``/``infer_phase2``); ``False`` runs the
    autograd ``Tensor`` forward under ``no_grad``, the reference it is
    bitwise identical to. The choice applies to one detector only.
    """

    enabled: bool = True

    def replace(self, **changes: Any) -> "CompileConfig":
        """A modified copy."""
        return replace(self, **changes)


@dataclass(frozen=True)
class DetectorConfig:
    """Behavioural knobs of the two-phase detector.

    ``scan_method`` is ``"first"`` (first-``m``-rows scan) or ``"sample"``
    (``ORDER BY RAND(seed)``), paper Sec. 6.1.2; ``sample_seed`` must be
    non-negative (MySQL's ``RAND`` and numpy's ``default_rng`` both reject
    negative seeds — we reject them here, at config time).
    ``prep_workers`` sizes TP1, the I/O stage: its threads mostly wait on
    database round trips, so it is sized for overlap, not for cores. Past
    4, the featurization its threads also run contends for the GIL and
    each table's stages take longer (see README, "Pipelined execution").
    """

    caching: bool = True
    pipelined: bool = True
    prep_workers: int = 4
    infer_workers: int = 2
    scan_method: str = "first"
    sample_seed: int = 0
    cache_capacity: int = 256
    batching: BatchingConfig = field(default_factory=BatchingConfig)
    compile: CompileConfig = field(default_factory=CompileConfig)

    def __post_init__(self) -> None:
        if self.scan_method not in _SCAN_METHODS:
            raise ValueError(
                f"scan_method must be 'first' or 'sample', got {self.scan_method!r}"
            )
        if self.sample_seed < 0:
            raise ValueError(
                f"sample_seed must be non-negative, got {self.sample_seed} "
                "(ORDER BY RAND(seed) and numpy's default_rng reject negative seeds)"
            )
        if self.prep_workers < 1 or self.infer_workers < 1:
            raise ValueError("both thread pools need at least one worker")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be at least 1")

    def replace(self, **changes: Any) -> "DetectorConfig":
        """A modified copy (re-validated)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class RuntimeConfig:
    """Execution environment of a detector: observability and resilience.

    ``tracer``/``metrics`` default to a fresh enabled tracer and the
    process-global registry (resolved by the detector, so the dataclass
    stays frozen and shareable). ``retry_policy`` is applied to every
    data-preparation stage and to connection setup; ``degrade=True`` turns
    exhausted retries into degraded/failed table markers instead of a
    raised exception. ``strict_api=True`` upgrades the legacy-kwarg shim
    from :class:`DeprecationWarning` to a hard
    :class:`~repro.errors.LegacyAPIError` (a ``TypeError``); the default
    stays permissive for one more release.
    """

    tracer: "Tracer | None" = None
    metrics: "MetricsRegistry | NullMetricsRegistry | None" = None
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    degrade: bool = True
    strict_api: bool = False

    def replace(self, **changes: Any) -> "RuntimeConfig":
        return replace(self, **changes)


@dataclass(frozen=True)
class DetectOptions:
    """Per-call options for :meth:`TasteDetector.detect`.

    ``fault_plan`` injects deterministic faults into the run's database
    traffic (see :mod:`repro.faults`); ``trace_out`` writes the run's
    spans as a JSONL artifact.
    """

    fault_plan: "FaultPlan | None" = None
    trace_out: str | Path | None = None

    def replace(self, **changes: Any) -> "DetectOptions":
        return replace(self, **changes)


def detector_config_field_names() -> tuple[str, ...]:
    """Names of :class:`DetectorConfig` fields (used by the legacy shim)."""
    return tuple(f.name for f in fields(DetectorConfig))
