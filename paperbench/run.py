"""Paper-regime benchmark of the TASTE reproduction: one workload per run.

Run from the repository root::

    python3 paperbench/run.py --workload catalog-git-io --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` instead wraps each layer's public entry points (see
``layers.py``), alternates untraced and traced work on the same warm
detector, and reports the per-layer metrics; its spans are written as
JSONL under ``.paperbench_out/``. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; a readable
summary goes to standard error. See ``README.md`` for the workloads and
the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".paperbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "warmup_s": "s",
    "cols_per_s": "col/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "slo_frac": "frac",
    "scanned_frac": "frac",
    "micro_f1": "frac",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "db.metadata.calls": "count",
    "db.metadata.busy_s": "s",
    "db.scan.calls": "count",
    "db.scan.busy_s": "s",
    "db.rows_read": "rows",
    "db.pool.acquire_wait_s": "s",
    "features.encode.calls": "count",
    "features.encode.busy_s": "s",
    "features.collate.busy_s": "s",
    "features.encode_cache.hit_frac": "frac",
    "sched.p1_forward.calls": "count",
    "sched.p1_forward.busy_s": "s",
    "sched.p2_forward.calls": "count",
    "sched.p2_forward.busy_s": "s",
    "sched.forward.us_per_col": "us/col",
    "sched.batcher.wait_s": "s",
    "sched.requests_per_forward": "req/fwd",
    "sched.flush.idle": "count",
    "sched.flush.timeout": "count",
    "sched.flush.full": "count",
    "nn.compile.replay_frac": "frac",
    "nn.compile.builds": "count",
    "nn.compile.arena_bytes": "B",
    "core.p1_prep.busy_s": "s",
    "core.p1_infer.busy_s": "s",
    "core.p2_prep.busy_s": "s",
    "core.p2_infer.busy_s": "s",
    "core.prep_queue_wait_s": "s",
    "core.infer_queue_wait_s": "s",
    "core.latent_cache.hit_frac": "frac",
    "core.scanned_cols": "count",
    "serve.submit.busy_s": "s",
    "serve.jobs_sent": "count",
    "serve.jobs_shed": "count",
    "serve.queue_depth.peak": "jobs",
    "serve.gen_lag_max_ms": "ms",
    "obs.trace_overhead_frac": "frac",
    "ref.db.metadata.us_per_call": "us",
    "ref.db.scan.us_per_call": "us",
    "ref.features.encode.us_per_call": "us",
    "ref.features.collate.us_per_call": "us",
    "ref.sched.p1_forward.us_per_call": "us",
    "ref.sched.p2_forward.us_per_call": "us",
    "ref.sched.forward.us_per_col": "us/col",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _series_sum(flat: dict[str, float], name: str) -> float:
    """Sum over every labelled series of counter ``name``."""
    return sum(
        value for key, value in flat.items() if key == name or key.startswith(name + "{")
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(setup_s: float, outcome) -> dict[str, float]:
    from checks import median, percentile

    return {
        "setup_s": setup_s,
        "warmup_s": outcome.warmup_s,
        "cols_per_s": median(
            [columns / wall for columns, wall in zip(outcome.pass_columns, outcome.pass_walls)]
        ),
        "job_p50_ms": percentile(outcome.latencies_ms, 50),
        "job_p90_ms": percentile(outcome.latencies_ms, 90),
        "slo_frac": _ratio(outcome.slo_met, outcome.attempted),
        "scanned_frac": _ratio(outcome.scanned, outcome.columns),
        "micro_f1": outcome.f1.value,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer_metrics(outcome, recorder) -> dict[str, float]:
    from checks import median
    from layers import summarize

    units = max(outcome.traced_units, 1)
    run = summarize(recorder.select(lambda window: window != "reference"))
    ref = summarize(recorder.select(lambda window: window == "reference"))
    delta, totals = outcome.registry_delta, outcome.totals
    forward_s = run["sched.p1_forward"]["total_s"] + run["sched.p2_forward"]["total_s"]
    forward_cols = run["sched.p1_forward"]["columns"] + run["sched.p2_forward"]["columns"]
    ref_forward_s = ref["sched.p1_forward"]["total_s"] + ref["sched.p2_forward"]["total_s"]
    ref_forward_cols = ref["sched.p1_forward"]["columns"] + ref["sched.p2_forward"]["columns"]
    replays = _series_sum(delta, "nn.compile.replays")
    fallbacks = _series_sum(delta, "nn.compile.fallbacks")
    hits, misses = _series_sum(delta, "cache.hits"), _series_sum(delta, "cache.misses")

    def per_unit(value: float) -> float:
        return value / units

    def per_call_us(entry: dict) -> float:
        return 1e6 * _ratio(entry["self_s"], entry["calls"])

    return {
        "db.metadata.calls": per_unit(run["db.metadata"]["calls"]),
        "db.metadata.busy_s": per_unit(run["db.metadata"]["self_s"]),
        "db.scan.calls": per_unit(run["db.scan"]["calls"]),
        "db.scan.busy_s": per_unit(run["db.scan"]["self_s"]),
        "db.rows_read": per_unit(_series_sum(delta, "db.rows_read")),
        "db.pool.acquire_wait_s": per_unit(run["db.pool.acquire"]["self_s"]),
        "features.encode.calls": per_unit(run["features.encode"]["calls"]),
        "features.encode.busy_s": per_unit(run["features.encode"]["self_s"]),
        "features.collate.busy_s": per_unit(run["features.collate"]["self_s"]),
        "features.encode_cache.hit_frac": _ratio(
            outcome.encode_hits, outcome.encode_hits + outcome.encode_misses
        ),
        "sched.p1_forward.calls": per_unit(run["sched.p1_forward"]["calls"]),
        "sched.p1_forward.busy_s": per_unit(run["sched.p1_forward"]["self_s"]),
        "sched.p2_forward.calls": per_unit(run["sched.p2_forward"]["calls"]),
        "sched.p2_forward.busy_s": per_unit(run["sched.p2_forward"]["self_s"]),
        "sched.forward.us_per_col": 1e6 * _ratio(forward_s, forward_cols),
        "sched.batcher.wait_s": per_unit(run["sched.batcher.run"]["total_s"] - forward_s),
        "sched.requests_per_forward": _ratio(
            _series_sum(delta, "sched.requests"), _series_sum(delta, "sched.forwards")
        ),
        "sched.flush.idle": per_unit(delta.get("sched.flush_reason{reason=idle}", 0.0)),
        "sched.flush.timeout": per_unit(delta.get("sched.flush_reason{reason=timeout}", 0.0)),
        "sched.flush.full": per_unit(delta.get("sched.flush_reason{reason=full}", 0.0)),
        "nn.compile.replay_frac": _ratio(replays, replays + fallbacks),
        "nn.compile.builds": _series_sum(totals, "nn.compile.builds"),
        "nn.compile.arena_bytes": totals.get("nn.compile.arena_bytes.value", 0.0),
        "core.p1_prep.busy_s": per_unit(run["core.p1_prep"]["self_s"]),
        "core.p1_infer.busy_s": per_unit(run["core.p1_infer"]["self_s"]),
        "core.p2_prep.busy_s": per_unit(run["core.p2_prep"]["self_s"]),
        "core.p2_infer.busy_s": per_unit(run["core.p2_infer"]["self_s"]),
        "core.prep_queue_wait_s": per_unit(
            delta.get("pipeline.queue_wait_seconds{pool=prep}.sum", 0.0)
        ),
        "core.infer_queue_wait_s": per_unit(
            delta.get("pipeline.queue_wait_seconds{pool=infer}.sum", 0.0)
        ),
        "core.latent_cache.hit_frac": _ratio(hits, hits + misses),
        "core.scanned_cols": per_unit(outcome.traced_scanned),
        "serve.submit.busy_s": per_unit(run["serve.submit"]["self_s"]),
        "serve.jobs_sent": float(outcome.jobs_sent),
        "serve.jobs_shed": float(outcome.jobs_shed),
        "serve.queue_depth.peak": totals.get("serve.queue_depth.peak", 0.0),
        "serve.gen_lag_max_ms": outcome.gen_lag_max_ms,
        "obs.trace_overhead_frac": median(outcome.overhead_traced)
        / median(outcome.overhead_base)
        - 1.0,
        "ref.db.metadata.us_per_call": per_call_us(ref["db.metadata"]),
        "ref.db.scan.us_per_call": per_call_us(ref["db.scan"]),
        "ref.features.encode.us_per_call": per_call_us(ref["features.encode"]),
        "ref.features.collate.us_per_call": per_call_us(ref["features.collate"]),
        "ref.sched.p1_forward.us_per_call": per_call_us(ref["sched.p1_forward"]),
        "ref.sched.p2_forward.us_per_call": per_call_us(ref["sched.p2_forward"]),
        "ref.sched.forward.us_per_col": 1e6 * _ratio(ref_forward_s, ref_forward_cols),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"paperbench: the program's source ({SRC / 'repro'}) is missing; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from checks import check_tables
    from layers import Recorder

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(
            f"paperbench: unknown workload {args.workload!r}; "
            f"have {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    started = time.perf_counter()
    try:
        setup = workloads.build(spec, args.seed)
    except workloads.SetupError as error:
        print(f"paperbench: set-up failed: {error}", file=sys.stderr)
        return 3
    setup_s = time.perf_counter() - started

    recorder = None
    if args.trace:
        recorder = Recorder()
        with recorder.window("reference"):
            references = workloads.run_reference(setup, workloads.featurizer_for(setup))
    runner = workloads.run_serve if spec.kind == "serve" else workloads.run_catalog
    try:
        outcome = runner(setup, args.seconds, recorder)
    except workloads.InvalidRun as error:
        print(f"paperbench: run invalid: {error}", file=sys.stderr)
        return 4
    if args.trace:
        for tenant, results in zip(setup.tenants, references):
            outcome.record_problems(
                "traced reference ",
                check_tables(results, tenant.table_names, tenant.reference),
            )
        values = per_layer_metrics(outcome, recorder)
        units = PER_LAYER_UNITS
        spans_path = OUT_DIR / f"spans-{spec.name}-seed{args.seed}.jsonl"
        recorder.write_jsonl(spans_path)
        print(f"paperbench: {len(recorder.spans)} spans -> {spans_path}", file=sys.stderr)
    else:
        values = end_to_end_metrics(setup_s, outcome)
        units = END_TO_END_UNITS

    for line in outcome.problems[:20]:
        print(f"paperbench: MISMATCH {line}", file=sys.stderr)
    print(
        f"paperbench: {spec.name} seed={args.seed} reference scanned_frac="
        f"{setup.reference_scan:.4f} passes={len(outcome.pass_walls)} "
        f"latency samples={len(outcome.latencies_ms)} attempted={outcome.attempted} "
        f"failed={outcome.failed} problems={len(outcome.problems)}",
        file=sys.stderr,
    )
    for name, value in values.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}", file=sys.stderr)
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
