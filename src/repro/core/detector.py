"""The TASTE detector: the public entry point of the framework.

Wires together the ADTD model, the featurizer, the (α, β) threshold policy,
the latent cache and an executor, and runs end-to-end detection against a
simulated cloud database server. See paper Fig. 1 for the flow.

Typical use::

    detector = TasteDetector(model, featurizer, ThresholdPolicy(0.1, 0.9))
    report = detector.detect(server, table_names)
    report.scanned_ratio()   # intrusiveness
    report.wall_seconds      # end-to-end execution time

Behaviour is configured through two frozen dataclasses
(:class:`~repro.core.config.DetectorConfig` for what the detector does,
:class:`~repro.core.config.RuntimeConfig` for observability and
resilience)::

    detector = TasteDetector(
        model, featurizer, ThresholdPolicy(0.1, 0.9),
        config=DetectorConfig(pipelined=False, scan_method="sample"),
        runtime=RuntimeConfig(retry_policy=RetryPolicy(max_attempts=5)),
    )
    report = detector.detect(server, options=DetectOptions(fault_plan=plan))

The pre-1.1 keyword arguments (``caching=``, ``pipelined=``, ...) still
work through a deprecation shim that emits one :class:`DeprecationWarning`
per legacy call; under ``RuntimeConfig(strict_api=True)`` the shim raises
:class:`~repro.errors.LegacyAPIError` instead (rule RPR403 flags in-repo
call sites).
"""

from __future__ import annotations

import time
import warnings
from pathlib import Path

from ..core.adtd import ADTDModel
from ..db.server import CloudDatabaseServer
from ..errors import LegacyAPIError, RetryGiveUpError
from ..faults.plan import FaultInjector
from ..features.encoding import Featurizer
from ..obs import Tracer, write_spans_jsonl
from ..obs.metrics import MetricsRegistry, NullMetricsRegistry, global_registry
from ..sched.batcher import InferenceBatcher
from ..sched.forward import Phase1Request, Phase1Result, Phase2Request, Phase2Result, bucket_width, run_grouped
from .config import DetectOptions, DetectorConfig, RuntimeConfig, detector_config_field_names
from .latent_cache import LatentCache
from .phases import TableJob
from .pipeline import PipelinedExecutor, SequentialExecutor
from .results import DetectionReport
from .thresholds import ThresholdPolicy

__all__ = ["TasteDetector"]

_CONFIG_KWARGS = set(detector_config_field_names())
_RUNTIME_KWARGS = {"tracer", "metrics"}


class TasteDetector:
    """Two-phase semantic type detector (the TASTE framework).

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.adtd.ADTDModel`.
    featurizer:
        Featurizer whose config carries ``n``/``m``/``l`` and the histogram
        switch; must use the tokenizer/registry the model was trained with.
    thresholds:
        The (α, β) certainty policy. ``ThresholdPolicy.privacy_mode()``
        yields the metadata-only variant ("TASTE without P2").
    config:
        A :class:`DetectorConfig` (caching, pipelining, workers, scan
        method). Defaults to ``DetectorConfig()``.
    runtime:
        A :class:`RuntimeConfig` (tracer, metrics, retry policy,
        degradation switch). Defaults to ``RuntimeConfig()`` — a fresh
        enabled tracer, the process-global metrics registry, and a
        3-attempt retry policy with graceful degradation.
    """

    def __init__(
        self,
        model: ADTDModel,
        featurizer: Featurizer,
        thresholds: ThresholdPolicy | None = None,
        *,
        config: DetectorConfig | None = None,
        runtime: RuntimeConfig | None = None,
        **legacy_kwargs: object,
    ) -> None:
        if legacy_kwargs:
            config, runtime = _shim_legacy_kwargs(legacy_kwargs, config, runtime)
        self.config = config if config is not None else DetectorConfig()
        self.runtime = runtime if runtime is not None else RuntimeConfig()
        self.model = model
        self.featurizer = featurizer
        self.thresholds = thresholds or ThresholdPolicy()
        self.tracer = self.runtime.tracer if self.runtime.tracer is not None else Tracer()
        self.metrics = (
            self.runtime.metrics if self.runtime.metrics is not None else global_registry()
        )
        self.retry_policy = self.runtime.retry_policy
        self.degrade = self.runtime.degrade
        self.cache = LatentCache(
            capacity=self.config.cache_capacity,
            enabled=self.config.caching,
            metrics=self.metrics,
        )
        # compile.enabled=False selects the autograd Tensor reference
        # forward for this detector only; the model itself holds no state.
        self._reference_forward = not self.config.compile.enabled
        # The cross-table batcher only helps when several tables are in
        # flight at once, i.e. under the pipelined executor; sequential
        # runs go through the same width-bucketed forwards locally.
        self.batcher = (
            InferenceBatcher(
                model,
                self.config.batching,
                metrics=self.metrics,
                reference=self._reference_forward,
            )
            if (self.config.batching.enabled and self.config.pipelined)
            else None
        )
        self._executor = (
            PipelinedExecutor(
                self.config.prep_workers,
                self.config.infer_workers,
                batcher=self.batcher,
            )
            if self.config.pipelined
            else SequentialExecutor()
        )
        self._width_cap = model.config.encoder.max_seq_len
        self.model.eval()

    # ------------------------------------------------------------------
    # Read-only views kept for callers that inspected the old attributes.
    # ------------------------------------------------------------------
    @property
    def pipelined(self) -> bool:
        return self.config.pipelined

    @property
    def scan_method(self) -> str:
        return self.config.scan_method

    @property
    def sample_seed(self) -> int:
        return self.config.sample_seed

    # ------------------------------------------------------------------
    # Inference dispatch (shared by the stage implementations)
    # ------------------------------------------------------------------
    def bucketed_width(self, length: int) -> int:
        """Quantized padded width for a sequence of ``length`` tokens.

        Every execution mode pads to the same quantized widths, which is
        what keeps sequential, pipelined-unbatched and batched runs
        bitwise identical (see :mod:`repro.sched.forward`).
        """
        return bucket_width(length, self.config.batching.pad_quantum, self._width_cap)

    def run_inference(
        self, requests: "list[Phase1Request | Phase2Request]"
    ) -> "list[Phase1Result | Phase2Result]":
        """Run a stage's chunk requests, returning results in order.

        Pipelined runs route through the shared :class:`InferenceBatcher`
        (coalescing with other tables' in-flight chunks); otherwise the
        requests run locally — still width-grouped, or one forward per
        request when ``batching.enabled`` is false (the unbatched
        reference path).
        """
        if not requests:
            return []
        batcher = self.batcher
        if batcher is not None and batcher.is_serving():
            return batcher.run(requests)
        return run_grouped(
            self.model,
            requests,
            coalesce=self.config.batching.enabled,
            reference=self._reference_forward,
        )

    # ------------------------------------------------------------------
    def detect(
        self,
        server: CloudDatabaseServer,
        table_names: list[str] | None = None,
        trace_out: str | Path | None = None,
        options: DetectOptions | None = None,
    ) -> DetectionReport:
        """Detect semantic types for ``table_names`` (default: all tables).

        Opens one connection for the batch (reused across tables, as the
        paper recommends), runs the four-stage jobs through the configured
        executor and returns a :class:`DetectionReport` with predictions,
        wall time and the database-side cost snapshot.

        ``options`` carries per-call settings: ``options.fault_plan``
        injects deterministic faults into the run's database traffic (the
        run then retries per the runtime's :class:`RetryPolicy` and, when
        retries are exhausted, degrades tables to their Phase-1 prediction
        instead of raising — see :meth:`DetectionReport.failure_summary`).
        ``trace_out`` (kwarg or option) writes this call's spans — the
        ``detect`` root and its descendants — as a JSONL artifact after
        the run.

        The whole run executes under a root ``detect`` span; every stage
        span of every table (from either thread pool) descends from it.
        """
        options = options if options is not None else DetectOptions()
        if trace_out is not None:
            options = options.replace(trace_out=trace_out)
        injector = (
            options.fault_plan.build(metrics=self.metrics)
            if options.fault_plan is not None
            else None
        )
        started = time.perf_counter()
        with self.tracer.span(
            "detect",
            pipelined=self.config.pipelined,
            scan_method=self.config.scan_method,
            faults=injector is not None,
        ) as root:
            connection = self._connect(server, injector)
            try:
                if table_names is None:
                    table_names = connection.list_tables()
                root.set(num_tables=len(table_names))
                jobs = [TableJob(self, connection, name) for name in table_names]
                self._executor.run(jobs, metrics=self.metrics)
            finally:
                connection.close()
        wall = time.perf_counter() - started
        if options.trace_out is not None:
            write_spans_jsonl(self.tracer.subtree(root), options.trace_out)
        results = [job.result for job in jobs]
        return DetectionReport(
            tables=results,
            wall_seconds=wall,
            cost=server.ledger.snapshot(),
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
            cache_evictions=self.cache.evictions,
            cache_disabled_lookups=self.cache.disabled_lookups,
            retries=sum(result.retries for result in results),
            giveups=sum(1 for result in results if result.degraded or result.failed),
            faults_injected=injector.total_fired if injector is not None else 0,
        )

    def detect_table(self, server: CloudDatabaseServer, table_name: str) -> DetectionReport:
        """Convenience wrapper for a single table."""
        return self.detect(server, [table_name])

    # ------------------------------------------------------------------
    def _connect(self, server: CloudDatabaseServer, injector: FaultInjector | None):
        """Open the batch connection, retried under the runtime policy.

        A connection that cannot be established even after retries raises
        :class:`~repro.faults.RetryGiveUpError` — with no connection there
        is nothing to degrade to.
        """
        factory = (lambda: injector.connect(server)) if injector is not None else server.connect
        retries = self.metrics.counter("faults.retries", stage="connect")
        try:
            return self.retry_policy.run(
                factory,
                label="connect",
                on_retry=lambda error, attempt, delay: retries.inc(),
            )
        except RetryGiveUpError:
            self.metrics.counter("faults.giveups", stage="connect").inc()
            raise


def _shim_legacy_kwargs(
    legacy_kwargs: dict[str, object],
    config: DetectorConfig | None,
    runtime: RuntimeConfig | None,
) -> tuple[DetectorConfig, RuntimeConfig]:
    """Map pre-1.1 keyword arguments onto the config objects (deprecated)."""
    unknown = set(legacy_kwargs) - _CONFIG_KWARGS - _RUNTIME_KWARGS
    if unknown:
        raise TypeError(
            f"TasteDetector got unexpected keyword arguments {sorted(unknown)}"
        )
    config_kwargs = {k: v for k, v in legacy_kwargs.items() if k in _CONFIG_KWARGS}
    runtime_kwargs = {k: v for k, v in legacy_kwargs.items() if k in _RUNTIME_KWARGS}
    if (config is not None and config_kwargs) or (runtime is not None and runtime_kwargs):
        raise TypeError(
            "pass either config=/runtime= objects or legacy keyword arguments, not both"
        )
    if runtime is not None and runtime.strict_api:
        raise LegacyAPIError(
            "TasteDetector legacy keyword argument(s) "
            f"{sorted(legacy_kwargs)} are rejected under "
            "RuntimeConfig(strict_api=True); pass config=DetectorConfig(...) "
            "/ runtime=RuntimeConfig(...) instead"
        )
    warnings.warn(
        "TasteDetector keyword arguments "
        f"({', '.join(sorted(legacy_kwargs))}) are deprecated; pass "
        "config=DetectorConfig(...) / runtime=RuntimeConfig(...) instead",
        DeprecationWarning,
        stacklevel=3,
    )
    if config_kwargs:
        config = DetectorConfig(**config_kwargs)  # type: ignore[arg-type]
    if runtime_kwargs:
        runtime = RuntimeConfig(**runtime_kwargs)  # type: ignore[arg-type]
    return (
        config if config is not None else DetectorConfig(),
        runtime if runtime is not None else RuntimeConfig(),
    )
