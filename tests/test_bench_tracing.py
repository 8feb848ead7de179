"""The benchmark's tracer wraps pwsync functions where their callers bind
them; every (module, attribute) pair it names must still exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.TRACED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing
