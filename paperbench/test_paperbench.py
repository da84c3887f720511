"""Tests of the benchmark's own helpers (not of the program).

Run from the repository root::

    python -m pytest -q paperbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.core.results import ColumnPrediction, TableResult  # noqa: E402


def _result(probabilities: list[float]) -> TableResult:
    predictions = [
        ColumnPrediction(
            table_name="t",
            column_name=f"c{i}",
            admitted_types=["city"] if p >= 0.9 else [],
            phase=1,
            probabilities=np.array([p, 1.0 - p], dtype=np.float32),
        )
        for i, p in enumerate(probabilities)
    ]
    return TableResult("t", predictions)


class TestReferenceCheck:
    def test_identical_report_passes(self):
        reference = checks.reference_signatures([_result([0.95, 0.3])])
        assert checks.check_tables([_result([0.95, 0.3])], ["t"], reference) == {}

    def test_one_flipped_probability_bit_is_caught(self):
        reference = checks.reference_signatures([_result([0.95, 0.3])])
        flipped = _result([0.95, 0.3])
        bits = flipped.predictions[1].probabilities.view(np.uint32)
        bits[0] ^= 1  # lowest mantissa bit: a 1-ulp change no threshold sees
        assert flipped.predictions[1].admitted_types == []
        problems = checks.check_tables([flipped], ["t"], reference)
        assert problems == {"t": "predictions differ from the reference"}

    def test_missing_and_degraded_tables_are_problems(self):
        reference = checks.reference_signatures([_result([0.95])])
        degraded = _result([0.95])
        degraded.degraded = True
        assert "t" in checks.check_tables([degraded], ["t"], reference)
        assert checks.check_tables([], ["t"], reference) == {"t": "missing from the report"}


def test_micro_f1_counts_every_report():
    truth = {("t", "c0"): ["city"], ("t", "c1"): ["city"]}
    tally = checks.MicroF1()
    tally.add([_result([0.95, 0.3])], truth)  # one hit, one miss
    assert tally.value == pytest.approx(2 / 3)
    tally.add([_result([0.95, 0.3])], truth)
    assert (tally.tp, tally.fp, tally.fn) == (2, 0, 2)
    assert tally.value == pytest.approx(2 / 3)


class TestPercentile:
    def test_refuses_fewer_than_ten_samples_beyond(self):
        with pytest.raises(ValueError, match="beyond"):
            checks.percentile(list(range(99)), 90)

    def test_accepts_exactly_ten_beyond(self):
        samples = [float(v) for v in range(100, 0, -1)]
        assert checks.percentile(samples, 90) == 90.0
        assert checks.percentile(samples, 50) == 50.0


class TestDeterminism:
    def test_same_seed_same_tables(self):
        spec = workloads.WORKLOADS["catalog-git-io"]
        seed = workloads.held_out_seed(7, 0)
        first = spec.corpus(num_tables=4, seed=seed).tables
        second = spec.corpus(num_tables=4, seed=seed).tables
        other = spec.corpus(num_tables=4, seed=workloads.held_out_seed(8, 0)).tables
        flat = lambda tables: [(t.name, [(c.name, c.types, c.values) for c in t.columns]) for t in tables]
        assert flat(first) == flat(second)
        assert flat(first) != flat(other)
        assert workloads.held_out_seed(0, 0) != workloads.TRAIN_SEED

    def test_same_seed_same_schedule(self):
        tables = {"a": [f"a{i}" for i in range(30)], "b": [f"b{i}" for i in range(30)]}
        first = workloads.make_schedule(3, 100, 5.0, tables)
        assert first == workloads.make_schedule(3, 100, 5.0, tables)
        other = workloads.make_schedule(4, 100, 5.0, tables)
        # One fixed traffic trace; the seed only changes the tables asked for.
        assert [job.at for job in first] == [job.at for job in other]
        assert [job.tables for job in first] != [job.tables for job in other]

    def test_schedule_mix_is_exact(self):
        tables = {"a": [f"a{i}" for i in range(30)], "b": [f"b{i}" for i in range(30)]}
        jobs = workloads.make_schedule(5, 100, 5.0, tables)
        sizes = [len(job.tables) for job in jobs]
        assert sum(size >= 12 for size in sizes) == 20
        assert min(sizes) == 1 and max(sizes) == 20
        assert sum(job.tenant == "a" for job in jobs) == 50
        times = [job.at for job in jobs]
        assert times == sorted(times) and times[-1] <= 100 / 5.0


class TestRecorder:
    def test_self_time_subtracts_direct_children(self):
        span = lambda i, parent, start, end: layers.SpanRecord(i, "x", start, end, parent, None, 0, "t", "w")
        spans = [span(1, None, 0.0, 1.0), span(2, 1, 0.1, 0.4), span(3, 2, 0.2, 0.3), span(4, 1, 0.5, 0.6)]
        own = layers.self_times(spans)
        assert own[1] == pytest.approx(0.6)
        assert own[2] == pytest.approx(0.2)
        assert own[3] == pytest.approx(0.1)

    def test_window_restores_the_program(self):
        from repro.sched import forward

        original = forward.run_phase1
        recorder = layers.Recorder()
        with recorder.window("w"):
            assert forward.run_phase1 is not original
        assert forward.run_phase1 is original


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "paperbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "paperbench/run.py", "--workload", "catalog-git-io",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
