"""Tests for the raw-ndarray inference forward (``infer`` / ``infer_phase*``).

The load-bearing property is bitwise identity: the plain-ndarray forward
must produce byte-for-byte the same outputs as the autograd ``Tensor``
forward run under ``no_grad`` (the reference), for every bucket width,
both phases, both phase-2 latent modes, at the ``detect()`` level and
through ``repro.serve`` — with and without an active fault plan — and
after the weights change underneath a live detector.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import nn
from repro.core import (
    ADTDConfig,
    ADTDModel,
    CompileConfig,
    DetectOptions,
    DetectorConfig,
    RuntimeConfig,
    TasteDetector,
    ThresholdPolicy,
    TrainConfig,
    fine_tune,
)
from repro.core.classifier import ClassifierHead
from repro.db import CloudDatabaseServer, CostModel
from repro.faults import FaultPlan, FaultRule
from repro.obs import MetricsRegistry
from repro.sched import Phase1Request, Phase2Request, bucket_width, run_grouped
from repro.serve import DetectionService

FAST = CostModel(time_scale=0.0)


def _ladder(quantum=16, cap=512):
    rungs, width = [], quantum
    while width < cap:
        rungs.append(width)
        width = -(-(width + width // 2) // quantum) * quantum
    rungs.append(cap)
    return rungs


def _phase1_requests(featurizer, tables):
    requests = []
    for table in tables:
        encoded = featurizer.encode_offline(table, with_content=False, with_labels=False)
        width = bucket_width(len(encoded.meta.token_ids), 16, cap=512)
        requests.append(Phase1Request(encoded=encoded, meta_width=width))
    return requests


def _phase2_requests(featurizer, tables, cached_results=None):
    requests = []
    for index, table in enumerate(tables):
        encoded = featurizer.encode_offline(table, with_labels=False)
        requests.append(
            Phase2Request(
                encoded=encoded,
                meta_width=bucket_width(len(encoded.meta.token_ids), 16, cap=512),
                content_width=bucket_width(len(encoded.content.token_ids), 16, cap=512),
                cached=cached_results[index].encoding if cached_results else None,
            )
        )
    return requests


def _assert_phase1_bitwise(reference, got):
    assert len(reference) == len(got)
    for ref, out in zip(reference, got):
        assert ref.probs.tobytes() == out.probs.tobytes()
        assert ref.encoding.meta_logits.tobytes() == out.encoding.meta_logits.tobytes()
        for ref_layer, out_layer in zip(
            ref.encoding.layer_outputs, out.encoding.layer_outputs
        ):
            assert ref_layer.tobytes() == out_layer.tobytes()


def _copy_model(model):
    twin = ADTDModel(model.config)
    twin.load_state_dict(model.state_dict())
    return twin.eval()


# ----------------------------------------------------------------------
# CompileConfig
# ----------------------------------------------------------------------
class TestCompileConfig:
    def test_defaults(self):
        assert CompileConfig().enabled
        assert [f.name for f in dataclasses.fields(CompileConfig)] == ["enabled"]

    def test_replace(self):
        assert not CompileConfig().replace(enabled=False).enabled
        assert not DetectorConfig(compile=CompileConfig(enabled=False)).compile.enabled


# ----------------------------------------------------------------------
# Bitwise equivalence, module level
# ----------------------------------------------------------------------
class TestModuleInfer:
    def test_every_module_matches_forward(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 5, 8)).astype(np.float32)
        kv = rng.standard_normal((2, 7, 8)).astype(np.float32)
        mask = nn.functional.additive_attention_mask(
            np.array([[True] * 7, [True] * 4 + [False] * 3])
        )
        config = nn.EncoderConfig(num_heads=2, hidden_size=8, intermediate_size=16)
        cases = [
            (nn.Linear(8, 3, rng), (x,)),
            (nn.LayerNorm(8), (x,)),
            (nn.MultiHeadAttention(8, 2, 0.0, rng), (x, kv, mask)),
            (nn.TransformerBlock(config, rng), (x, kv, mask)),
            (nn.TransformerBlock(config, rng), (x, None, None)),
            (ClassifierHead(8, 6, 4, rng), (x,)),
        ]
        for module, args in cases:
            module.eval()
            tensors = [nn.Tensor(a) if a is not None and a.ndim == 3 else a for a in args]
            with nn.no_grad():
                expected = module(*tensors).numpy()
            got = module.infer(*args)
            assert got.tobytes() == expected.tobytes(), type(module).__name__
        embedding = nn.Embedding(10, 8, rng)
        ids = rng.integers(0, 10, size=(2, 5))
        assert embedding.infer(ids).tobytes() == embedding(ids).numpy().tobytes()

    def test_infer_leaves_inputs_untouched(self):
        rng = np.random.default_rng(1)
        block = nn.TransformerBlock(
            nn.EncoderConfig(num_heads=2, hidden_size=8, intermediate_size=16), rng
        )
        x = rng.standard_normal((1, 4, 8)).astype(np.float32)
        before = x.copy()
        block.infer(x)
        assert x.tobytes() == before.tobytes()


# ----------------------------------------------------------------------
# Bitwise equivalence, forward level
# ----------------------------------------------------------------------
class TestBitwiseEquivalence:
    def test_phase1_every_bucket_width(self, untrained_model, featurizer, tiny_corpus):
        """The same chunk, padded to every ladder rung, matches bitwise."""
        encoded = featurizer.encode_offline(
            tiny_corpus.tables[0], with_content=False, with_labels=False
        )
        length = len(encoded.meta.token_ids)
        widths = [w for w in _ladder() if w >= length]
        assert len(widths) >= 4, "workload too long to sweep the ladder"
        requests = [Phase1Request(encoded=encoded, meta_width=w) for w in widths]
        reference = run_grouped(untrained_model, requests, coalesce=False, reference=True)
        got = run_grouped(untrained_model, requests, coalesce=False)
        _assert_phase1_bitwise(reference, got)

    def test_phase1_batched(self, untrained_model, featurizer, tiny_corpus):
        requests = _phase1_requests(featurizer, tiny_corpus.tables[:6])
        reference = run_grouped(untrained_model, requests, coalesce=False, reference=True)
        got = run_grouped(untrained_model, requests, coalesce=True)
        _assert_phase1_bitwise(reference, got)

    def test_phase2_cached_and_recompute(self, untrained_model, featurizer, tiny_corpus):
        tables = tiny_corpus.tables[:4]
        phase1 = run_grouped(
            untrained_model, _phase1_requests(featurizer, tables), coalesce=False
        )
        for cached in (None, phase1):
            requests = _phase2_requests(featurizer, tables, cached_results=cached)
            reference = run_grouped(
                untrained_model, requests, coalesce=False, reference=True
            )
            for coalesce in (False, True):
                got = run_grouped(untrained_model, requests, coalesce=coalesce)
                for ref, out in zip(reference, got):
                    assert ref.probs.tobytes() == out.probs.tobytes()


# ----------------------------------------------------------------------
# Grad-mode isolation
# ----------------------------------------------------------------------
class TestGradIsolation:
    def test_fine_tune_then_infer_matches_reference(
        self, tiny_encoder, tiny_corpus, featurizer
    ):
        model = ADTDModel(
            ADTDConfig(tiny_encoder, num_labels=tiny_corpus.registry.num_labels), seed=3
        )
        requests = _phase1_requests(featurizer, tiny_corpus.tables[:2])
        before = run_grouped(model, requests)
        fine_tune(
            model,
            featurizer,
            tiny_corpus.train[:4],
            TrainConfig(epochs=1, batch_size=4, learning_rate=1e-3),
        )
        after = run_grouped(model, requests)
        assert before[0].probs.tobytes() != after[0].probs.tobytes()
        _assert_phase1_bitwise(run_grouped(model, requests, reference=True), after)

    def test_grad_mode_unaffected_by_infer(self, untrained_model, featurizer, tiny_corpus):
        from repro.core.training import task_losses
        from repro.features.encoding import collate

        untrained_model.zero_grad()
        run_grouped(untrained_model, _phase1_requests(featurizer, tiny_corpus.tables[:1]))
        assert nn.is_grad_enabled()
        assert all(p.grad is None for p in untrained_model.parameters())
        encoded = featurizer.encode_offline(tiny_corpus.train[0])
        meta_loss, content_loss = task_losses(untrained_model, collate([encoded]))
        (meta_loss + content_loss).backward()
        grads = [p.grad for p in untrained_model.parameters()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in grads)
        untrained_model.zero_grad()


# ----------------------------------------------------------------------
# End-to-end: detect() and serve, with and without faults
# ----------------------------------------------------------------------
def _make_detector(model, featurizer, fast, pipelined=True):
    return TasteDetector(
        model,
        featurizer,
        ThresholdPolicy(0.1, 0.9),
        config=DetectorConfig(pipelined=pipelined, compile=CompileConfig(enabled=fast)),
        runtime=RuntimeConfig(metrics=MetricsRegistry()),
    )


def _report_bytes(report):
    return sorted(
        (p.table_name, p.column_name, tuple(p.admitted_types), p.phase,
         p.probabilities.tobytes())
        for p in report.predictions
    )


class TestEndToEnd:
    def test_detect_bitwise_infer_vs_reference(self, trained_model, featurizer, tiny_corpus):
        reports = {}
        for fast in (False, True):
            server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
            detector = _make_detector(trained_model, featurizer, fast)
            reports[fast] = detector.detect(server)
        assert _report_bytes(reports[True]) == _report_bytes(reports[False])

    def test_detect_bitwise_under_fault_plan(self, trained_model, featurizer, tiny_corpus):
        plan = FaultPlan(
            seed=7,
            rules=(FaultRule("fetch_values", "transient", probability=0.4),),
        )
        reports = {}
        # Fault draws are keyed per table call, so the pipelined executor
        # faults the same calls as the sequential one.
        for pipelined in (False, True):
            for fast in (False, True):
                server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
                detector = _make_detector(trained_model, featurizer, fast, pipelined)
                report = detector.detect(server, options=DetectOptions(fault_plan=plan))
                reports[pipelined, fast] = (
                    _report_bytes(report),
                    sorted((t.table_name, t.degraded, t.failed, t.retries) for t in report.tables),
                )
        expected = reports[False, False]
        assert all(report == expected for report in reports.values())
        assert any(degraded for _, degraded, _, _ in expected[1])

    def test_serve_bitwise_infer_vs_reference(self, trained_model, featurizer, tiny_corpus):
        names = [table.name for table in tiny_corpus.test[:6]]
        reports = {}
        for fast in (False, True):
            server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
            detector = _make_detector(trained_model, featurizer, fast)
            with DetectionService(detector) as service:
                handle = service.submit("tenant-a", server, names)
                reports[fast] = handle.result(timeout=60.0)
        assert _report_bytes(reports[True]) == _report_bytes(reports[False])

    def test_forward_choice_is_per_detector(
        self, trained_model, featurizer, tiny_corpus, monkeypatch
    ):
        """A reference detector must not change what another detector runs."""
        calls = []
        original = ADTDModel.infer_phase1

        def spy(self, batch):
            calls.append(1)
            return original(self, batch)

        monkeypatch.setattr(ADTDModel, "infer_phase1", spy)
        fast = _make_detector(trained_model, featurizer, True)
        reference = _make_detector(trained_model, featurizer, False)
        server = CloudDatabaseServer.from_tables(tiny_corpus.test[:3], FAST)
        reference.detect(server)
        assert calls == []
        fast.detect(server)
        assert calls


# ----------------------------------------------------------------------
# Weights that change under a live detector
# ----------------------------------------------------------------------
class TestStaleWeights:
    """``detect()`` always reflects the current weights, however they changed.

    After each mutation the default-config detector — built once, before
    the change — must equal a ``Tensor``-reference detector on a fresh
    copy of the new weights, byte for byte.
    """

    @pytest.fixture()
    def live(self, trained_model, featurizer, tiny_corpus):
        model = _copy_model(trained_model)
        detector = TasteDetector(
            model,
            featurizer,
            ThresholdPolicy(0.1, 0.9),
            runtime=RuntimeConfig(metrics=MetricsRegistry()),
        )
        before = detector.detect(CloudDatabaseServer.from_tables(tiny_corpus.test, FAST))
        return model, detector, _report_bytes(before)

    def _assert_matches_reference(self, model, detector, featurizer, tiny_corpus, before):
        got = _report_bytes(
            detector.detect(CloudDatabaseServer.from_tables(tiny_corpus.test, FAST))
        )
        reference = TasteDetector(
            _copy_model(model),
            featurizer,
            ThresholdPolicy(0.1, 0.9),
            config=DetectorConfig(compile=CompileConfig(enabled=False)),
            runtime=RuntimeConfig(metrics=MetricsRegistry()),
        )
        expected = _report_bytes(
            reference.detect(CloudDatabaseServer.from_tables(tiny_corpus.test, FAST))
        )
        assert expected != before, "the weight change did not move any prediction"
        assert got == expected

    @staticmethod
    def _perturbed(model, seed):
        rng = np.random.default_rng(seed)
        return {
            name: value + 0.05 * rng.standard_normal(value.shape).astype(np.float32)
            for name, value in model.state_dict().items()
        }

    def test_load_state_dict(self, live, featurizer, tiny_corpus):
        model, detector, before = live
        model.load_state_dict(self._perturbed(model, seed=1))
        self._assert_matches_reference(model, detector, featurizer, tiny_corpus, before)

    def test_in_place_step(self, live, featurizer, tiny_corpus):
        model, detector, before = live
        rng = np.random.default_rng(2)
        for param in model.parameters():
            param.data -= 0.05 * rng.standard_normal(param.data.shape).astype(np.float32)
        self._assert_matches_reference(model, detector, featurizer, tiny_corpus, before)

    def test_load_checkpoint(self, live, featurizer, tiny_corpus, tmp_path):
        model, detector, before = live
        donor = _copy_model(model)
        donor.load_state_dict(self._perturbed(model, seed=3))
        path = nn.save_checkpoint(donor, tmp_path / "perturbed.npz")
        nn.load_checkpoint(model, path)
        self._assert_matches_reference(model, detector, featurizer, tiny_corpus, before)
