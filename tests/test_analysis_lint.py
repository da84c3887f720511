"""Each lint rule fires on a synthetic bad example and stays quiet on the
fixed version; suppression, registry and emitters are covered too."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    lint_paths,
    read_findings_jsonl,
    registered_rules,
    render_findings,
    write_findings_jsonl,
)
from repro.analysis.__main__ import main


def _lint_source(tmp_path: Path, source: str) -> list:
    target = tmp_path / "example.py"
    target.write_text(source)
    return lint_paths([target])


def _rules_hit(findings: list) -> set[str]:
    return {finding.rule for finding in findings}


# ----------------------------------------------------------------------
# RPR1xx — autograd safety
# ----------------------------------------------------------------------
def test_rpr101_float_on_data(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def track(loss, total):\n"
        "    total += float(loss.data)\n"
        "    return total\n",
    )
    assert _rules_hit(findings) == {"RPR101"}
    assert findings[0].line == 2


def test_rpr101_clean_item(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def track(loss, total):\n"
        "    total += loss.item()\n"
        "    return total\n",
    )
    assert findings == []


def test_rpr102_data_mutation(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def clobber(t, u):\n"
        "    t.data[0] = 1.0\n"
        "    u.data = t.data\n",
    )
    assert [f.rule for f in findings] == ["RPR102", "RPR102"]


def test_rpr102_excluded_inside_nn(tmp_path):
    engine_dir = tmp_path / "repro" / "nn"
    engine_dir.mkdir(parents=True)
    target = engine_dir / "optim.py"
    target.write_text("def step(p, g):\n    p.data = p.data - g\n")
    assert lint_paths([target]) == []


def test_rpr103_model_call_without_no_grad(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def detect(self, batch):\n"
        "    logits = self.model(batch)\n"
        "    return logits\n",
    )
    assert _rules_hit(findings) == {"RPR103"}


def test_rpr103_clean_under_no_grad(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import repro.nn as nn\n"
        "def detect(self, batch):\n"
        "    self.model.eval()\n"
        "    with nn.no_grad():\n"
        "        logits = self.model(batch)\n"
        "    return logits\n",
    )
    assert findings == []


def test_rpr103_ignores_training_functions(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def train_model(self, batch):\n"
        "    return self.model(batch)\n",
    )
    assert findings == []


def test_rpr104_data_subscript(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def read(logits):\n"
        "    return logits.data[0]\n",
    )
    assert _rules_hit(findings) == {"RPR104"}


# ----------------------------------------------------------------------
# RPR2xx — concurrency hygiene
# ----------------------------------------------------------------------
_LOCKSET_BAD = """
import threading

class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0
        self.other = 0

    def locked_bump(self):
        with self._lock:
            self.count += 1

    def unlocked_bump(self):
        self.count += 1

    def unguarded_attr_is_fine(self):
        self.other += 1
"""


def test_rpr201_unlocked_guarded_write(tmp_path):
    findings = _lint_source(tmp_path, _LOCKSET_BAD)
    assert [f.rule for f in findings] == ["RPR201"]
    assert findings[0].context["attr"] == "count"
    # 'other' is never written under the lock, so it is not in the lockset.


def test_rpr201_dataclass_field_lock(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import threading\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class Cache:\n"
        "    hits: int = 0\n"
        "    _lock: threading.Lock = field(default_factory=threading.Lock)\n"
        "    def get(self):\n"
        "        with self._lock:\n"
        "            self.hits += 1\n"
        "    def sneaky_reset(self):\n"
        "        self.hits = 0\n",
    )
    assert [f.rule for f in findings] == ["RPR201"]


def test_rpr201_container_mutation(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import threading\n"
        "class Pool:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._idle = []\n"
        "    def release(self, conn):\n"
        "        with self._lock:\n"
        "            self._idle.append(conn)\n"
        "    def drop_all(self):\n"
        "        self._idle.clear()\n",
    )
    assert [f.rule for f in findings] == ["RPR201"]


def test_rpr202_bare_acquire(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def critical(lock):\n"
        "    lock.acquire()\n"
        "    lock.release()\n",
    )
    assert _rules_hit(findings) == {"RPR202"}


# ----------------------------------------------------------------------
# RPR3xx — observability hygiene
# ----------------------------------------------------------------------
def test_rpr301_span_discarded(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def run(tracer):\n"
        "    tracer.span('work')\n"
        "    do_work()\n",
    )
    assert _rules_hit(findings) == {"RPR301"}


def test_rpr301_with_span_is_clean(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def run(tracer):\n"
        "    with tracer.span('work'):\n"
        "        do_work()\n",
    )
    assert findings == []


def test_rpr302_metric_in_loop(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def run(metrics, items):\n"
        "    for item in items:\n"
        "        metrics.counter('hits').inc()\n",
    )
    assert _rules_hit(findings) == {"RPR302"}


def test_rpr302_hoisted_handle_is_clean(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def run(metrics, items):\n"
        "    hits = metrics.counter('hits')\n"
        "    for item in items:\n"
        "        hits.inc()\n",
    )
    assert findings == []


# ----------------------------------------------------------------------
# Engine machinery
# ----------------------------------------------------------------------
def test_noqa_suppresses_specific_rule(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def track(loss, total):\n"
        "    total += float(loss.data)  # noqa: RPR101\n"
        "    return total\n",
    )
    assert findings == []


def test_blanket_noqa_suppresses_everything(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def track(loss, total):\n"
        "    total += float(loss.data)  # noqa\n",
    )
    assert findings == []


def test_noqa_does_not_suppress_other_rules(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def track(loss, total):\n"
        "    total += float(loss.data)  # noqa: RPR999\n",
    )
    assert _rules_hit(findings) == {"RPR101"}


def test_syntax_error_reported_not_fatal(tmp_path):
    findings = _lint_source(tmp_path, "def broken(:\n")
    assert [f.rule for f in findings] == ["RPR000"]


def test_registry_has_all_documented_rules():
    ids = {rule.id for rule in registered_rules()}
    assert {
        "RPR101", "RPR102", "RPR103", "RPR104",
        "RPR201", "RPR202", "RPR301", "RPR302",
        "RPR501", "RPR502",
    } <= ids


def test_findings_jsonl_round_trip(tmp_path):
    finding = Finding(
        tool="lint", rule="RPR101", message="msg", path="a.py", line=3, col=7,
        context={"attr": "count"},
    )
    path = write_findings_jsonl([finding], tmp_path / "out" / "findings.jsonl")
    assert read_findings_jsonl(path) == [finding]
    record = json.loads(path.read_text().strip())
    assert record["rule"] == "RPR101" and record["line"] == 3


def test_render_findings_text():
    finding = Finding(tool="lint", rule="RPR101", message="msg", path="a.py", line=3)
    assert "a.py:3:0: RPR101" in render_findings([finding])
    assert render_findings([]) == "no findings"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_lint_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(loss):\n    return float(loss.data)\n")
    good = tmp_path / "good.py"
    good.write_text("def f(loss):\n    return loss.item()\n")

    assert main(["lint", str(bad)]) == 1
    assert "RPR101" in capsys.readouterr().out
    assert main(["lint", str(good)]) == 0


def test_cli_lint_jsonl_artifact(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(loss):\n    return float(loss.data)\n")
    out = tmp_path / "findings.jsonl"
    assert main(["lint", str(bad), "--format", "jsonl", "--out", str(out)]) == 1
    stdout = capsys.readouterr().out
    assert json.loads(stdout.strip())["rule"] == "RPR101"
    assert read_findings_jsonl(out)[0].rule == "RPR101"


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "RPR101" in out and "RPR302" in out


def test_cli_races_self_check(capsys):
    assert main(["races"]) == 0


@pytest.mark.parametrize("command", ["shapes"])
def test_cli_shapes_on_clean_dir(tmp_path, capsys, command):
    clean = tmp_path / "model.py"
    clean.write_text(
        "from repro.nn import EncoderConfig\n"
        "CFG = EncoderConfig(hidden_size=64, num_heads=4)\n"
    )
    assert main([command, str(tmp_path)]) == 0


# ----------------------------------------------------------------------
# RPR4xx — fault handling
# ----------------------------------------------------------------------
def test_rpr401_broad_except_around_db_call(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def fetch(connection, name):\n"
        "    try:\n"
        "        return connection.fetch_metadata(name)\n"
        "    except Exception:\n"
        "        return None\n",
    )
    assert _rules_hit(findings) == {"RPR402"}
    assert "fetch_metadata" in findings[0].message


def test_rpr401_bare_except(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def scan(pool):\n"
        "    try:\n"
        "        with pool.lease() as conn:\n"
        "            return conn.fetch_values('t', ['c'])\n"
        "    except:\n"
        "        return {}\n",
    )
    assert _rules_hit(findings) == {"RPR402"}


def test_rpr401_quiet_on_narrow_except(tmp_path):
    findings = _lint_source(
        tmp_path,
        "from repro.faults import RetryGiveUpError\n"
        "def fetch(connection, name):\n"
        "    try:\n"
        "        return connection.fetch_metadata(name)\n"
        "    except RetryGiveUpError:\n"
        "        return None\n",
    )
    assert findings == []


def test_rpr401_quiet_without_db_call(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def parse(blob):\n"
        "    try:\n"
        "        return int(blob)\n"
        "    except Exception:\n"
        "        return 0\n",
    )
    assert findings == []


def test_rpr403_legacy_detector_kwargs(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def build(model, featurizer):\n"
        "    return TasteDetector(model, featurizer, pipelined=False, metrics=None)\n",
    )
    assert _rules_hit(findings) == {"RPR403"}
    assert "pipelined" in findings[0].message
    assert "RuntimeConfig" in findings[0].message


def test_rpr403_attribute_callee_flagged(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def build(core, model, featurizer):\n"
        "    return core.TasteDetector(model, featurizer, scan_method='sample')\n",
    )
    assert _rules_hit(findings) == {"RPR403"}


def test_rpr403_quiet_on_config_style(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def build(model, featurizer, config, runtime):\n"
        "    return TasteDetector(model, featurizer, config=config, runtime=runtime)\n",
    )
    assert findings == []


def test_rpr403_quiet_on_other_callables(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def build(factory):\n"
        "    return factory(pipelined=False, metrics=None)\n",
    )
    assert findings == []


# ----------------------------------------------------------------------
# RPR5xx — inference throughput
# ----------------------------------------------------------------------
def test_rpr501_single_item_collate_in_loop(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def scan(model, chunks):\n"
        "    for chunk in chunks:\n"
        "        batch = collate([chunk])\n"
        "        model(batch)\n",
    )
    assert _rules_hit(findings) == {"RPR501"}


def test_rpr501_attribute_collate_in_while_loop(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def scan(features, queue, model):\n"
        "    while queue:\n"
        "        batch = features.collate([queue.pop()])\n"
        "        model(batch)\n",
    )
    assert _rules_hit(findings) == {"RPR501"}


def test_rpr501_quiet_on_multi_item_collate(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def scan(model, groups):\n"
        "    for group in groups:\n"
        "        batch = collate([encoded for encoded in group])\n"
        "        model(batch)\n",
    )
    assert findings == []


def test_rpr501_quiet_outside_loop(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def scan_one(model, chunk):\n"
        "    batch = collate([chunk])\n"
        "    return model(batch)\n",
    )
    assert findings == []


def test_rpr501_quiet_on_other_single_item_calls(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def scan(model, chunks):\n"
        "    for chunk in chunks:\n"
        "        model(stack([chunk]))\n",
    )
    assert findings == []


def test_rpr501_noqa(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def scan(model, chunks):\n"
        "    for chunk in chunks:\n"
        "        batch = collate([chunk])  # noqa: RPR501\n"
        "        model(batch)\n",
    )
    assert findings == []


# ----------------------------------------------------------------------
# RPR502 — fresh allocations in no-grad loops (repro/nn only)
# ----------------------------------------------------------------------
def _lint_nn_source(tmp_path: Path, source: str, name: str = "hot.py") -> list:
    target = tmp_path / "repro" / "nn" / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return lint_paths([target])


def test_rpr502_allocation_in_no_grad_loop(tmp_path):
    findings = _lint_nn_source(
        tmp_path,
        "import numpy as np\n"
        "def forward(model, batches):\n"
        "    with no_grad():\n"
        "        for batch in batches:\n"
        "            scratch = np.zeros(batch.shape)\n"
        "            model(batch, scratch)\n",
    )
    assert _rules_hit(findings) == {"RPR502"}
    assert findings[0].line == 5


def test_rpr502_concatenate_in_grad_disabled_branch(tmp_path):
    findings = _lint_nn_source(
        tmp_path,
        "import numpy as np\n"
        "def forward(layers, x):\n"
        "    if not is_grad_enabled():\n"
        "        for layer in layers:\n"
        "            x = np.concatenate([x, layer(x)], axis=-1)\n"
        "    return x\n",
    )
    assert _rules_hit(findings) == {"RPR502"}


def test_rpr502_quiet_on_grad_path_loop(tmp_path):
    findings = _lint_nn_source(
        tmp_path,
        "import numpy as np\n"
        "def backward(grads):\n"
        "    for grad in grads:\n"
        "        buffer = np.zeros(grad.shape)\n"
        "        buffer += grad\n",
    )
    assert findings == []


def test_rpr502_quiet_outside_loop_and_outside_nn(tmp_path):
    no_grad_but_hoisted = (
        "import numpy as np\n"
        "def forward(model, batches):\n"
        "    with no_grad():\n"
        "        scratch = np.zeros((8, 8))\n"
        "        for batch in batches:\n"
        "            model(batch, scratch)\n"
    )
    assert _lint_nn_source(tmp_path, no_grad_but_hoisted) == []
    in_loop_but_not_nn = (
        "import numpy as np\n"
        "def forward(model, batches):\n"
        "    with no_grad():\n"
        "        for batch in batches:\n"
        "            model(batch, np.zeros((8, 8)))\n"
    )
    assert _lint_source(tmp_path, in_loop_but_not_nn) == []


def test_rpr502_noqa(tmp_path):
    findings = _lint_nn_source(
        tmp_path,
        "import numpy as np\n"
        "def forward(model, batches):\n"
        "    with no_grad():\n"
        "        for batch in batches:\n"
        "            model(batch, np.zeros((8, 8)))  # noqa: RPR502\n",
    )
    assert findings == []
