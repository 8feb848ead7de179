"""The benchmark drives pwsync through its public and module-level names
(`pwsync.cli.simulate`, `write_run_csv`, paper-demo's outputs, the fields of
`ThresholdReport`); one untimed round of each workload must still finish
with every output check passing."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_one_round(workload):
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "0", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, result.stderr


def test_flagship_workload_runs_and_checks():
    _run_one_round("flagship")


def test_large_sparse_workload_runs_and_checks():
    # The only workload whose layers (N = 1000) take the Lanczos lambda2 path,
    # checked against networkx's spectrum.
    _run_one_round("large_sparse")


def test_cut_exact_workload_runs_and_checks():
    # The workload that calls compute_thresholds, resilience_report and
    # min_density_heuristic directly and reads the reports they return.
    _run_one_round("cut_exact")
