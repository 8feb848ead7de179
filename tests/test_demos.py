"""Every script under demos/ runs to completion.

Each script runs from a copy in a temporary directory, so that files a demo
writes next to itself (demos/04 writes demo_runs/) stay out of the tree.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script, tmp_path):
    copy = tmp_path / script.name
    shutil.copy(script, copy)
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, str(copy)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
