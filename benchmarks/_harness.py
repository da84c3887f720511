"""Shared scaffolding of the perf benchmarks: where results go, and how.

Every benchmark publishes its numbers as ``BENCH_<name>.json`` at the
repository root (CI uploads them as artifacts), independent of the
directory pytest runs from.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def result_path(name: str) -> Path:
    """``BENCH_<name>.json`` at the repository root."""
    return REPO_ROOT / f"BENCH_{name}.json"


def write_result_atomic(path: Path, payload: dict) -> None:
    """Publish a result file atomically (temp file + ``os.replace``).

    CI consumers read these JSON artifacts while the suite may still be
    running; a plain ``write_text`` can expose a torn, half-written file.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
