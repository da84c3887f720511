"""Pure helpers of the benchmark: the bitwise reference check, percentiles
and the accuracy and scan-share summaries computed from detection reports.

Nothing here touches the clock or the program's internals, so the helpers
are unit-tested on their own (``test_paperbench.py``).
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable

from repro.core.results import TableResult
from repro.metrics import micro_prf

__all__ = [
    "MIN_TAIL_SAMPLES",
    "table_signature",
    "reference_signatures",
    "check_tables",
    "percentile",
    "median",
    "scan_share",
    "MicroF1",
]

# A percentile is reported only when at least this many samples lie
# beyond it; fewer make the tail estimate a handful of outliers.
MIN_TAIL_SAMPLES = 10


def table_signature(result: TableResult) -> tuple:
    """Everything a detection decides for one table, as comparable bytes.

    Per column: name, phase, admitted types and the exact probability
    bytes (dtype included), so one flipped float32 bit is a mismatch.
    """
    return tuple(
        (
            prediction.column_name,
            prediction.phase,
            tuple(prediction.admitted_types),
            prediction.probabilities.dtype.str,
            prediction.probabilities.tobytes(),
        )
        for prediction in result.predictions
    )


def reference_signatures(tables: Iterable[TableResult]) -> dict[str, tuple]:
    """``{table name: signature}`` of a reference run."""
    return {result.table_name: table_signature(result) for result in tables}


def check_tables(
    results: list[TableResult],
    expected_names: list[str],
    reference: dict[str, tuple],
) -> dict[str, str]:
    """Problems of one report against the reference: ``{table: why}``.

    A table that is missing, unexpected, failed, degraded or differs in
    any decided byte from the sequential eager reference is a problem; an
    empty dict means the report is correct.
    """
    problems: dict[str, str] = {}
    expected = set(expected_names)
    seen = {result.table_name for result in results}
    for name in expected - seen:
        problems[name] = "missing from the report"
    for result in results:
        name = result.table_name
        if name not in expected:
            problems[name] = "not requested"
        elif result.failed or result.degraded:
            problems[name] = f"failed={result.failed} degraded={result.degraded} ({result.error})"
        elif name not in reference:
            problems[name] = "no reference result"
        elif table_signature(result) != reference[name]:
            problems[name] = "predictions differ from the reference"
    return problems


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Refuses (``ValueError``) when fewer than :data:`MIN_TAIL_SAMPLES`
    samples lie strictly beyond the returned rank: such a percentile would
    be set by a few outliers, not by the distribution.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    count = len(samples)
    rank = max(1, math.ceil(q / 100.0 * count))
    beyond = count - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {count} samples has {beyond} beyond it; "
            f"need at least {MIN_TAIL_SAMPLES}"
        )
    return sorted(samples)[rank - 1]


def median(samples: list[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def scan_share(results: Iterable[TableResult]) -> tuple[int, int]:
    """``(content-scanned columns, all columns)`` over ``results``."""
    scanned = total = 0
    for result in results:
        for prediction in result.predictions:
            total += 1
            scanned += prediction.phase == 2
    return scanned, total


class MicroF1:
    """Micro-F1 accumulated report by report against generator labels.

    Each :meth:`add` scores one report with :func:`repro.metrics.micro_prf`
    (``truth`` from :func:`repro.metrics.ground_truth_map`) and sums its
    true/false positive and false negative counts, so repeated passes and
    repeated jobs all count without keeping their reports.
    """

    def __init__(self) -> None:
        self.tp = self.fp = self.fn = 0

    def add(self, results: Iterable[TableResult], truth: dict[tuple[str, str], list[str]]) -> None:
        predicted = {
            (result.table_name, prediction.column_name): list(prediction.admitted_types)
            for result in results
            for prediction in result.predictions
        }
        score = micro_prf(predicted, {key: truth[key] for key in predicted})
        self.tp += score.true_positives
        self.fp += score.false_positives
        self.fn += score.false_negatives

    @property
    def value(self) -> float:
        denominator = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denominator if denominator else 0.0
