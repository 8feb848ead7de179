"""The benchmark drives pwsync through its public and module-level names
(`pwsync.cli.simulate`, `write_run_csv`, paper-demo's outputs); one untimed
flagship round must still finish with every output check passing."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_flagship_workload_runs_and_checks():
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "flagship", "--seconds", "0", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, result.stderr
