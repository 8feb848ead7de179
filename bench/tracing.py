"""Spans around pwsync's public functions, recorded from outside the package.

`Tracer.install` replaces each function in TRACED where its caller module
binds it (for example `pwsync.thresholds.min_density_heuristic`, which
`compute_thresholds` calls, and `pwsync.cli.simulate`, which `paper-demo`
calls) by a wrapper that records one span: name, round, parent span, start,
end and a few counts. Spans stay in memory until the run ends. A layer's
self time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time

# (module, attribute, span name); the span name is "<defining module>.<layer>".
TRACED = (
    ("pwsync.cli", "load_experiment_config", "cli.load_config"),
    ("pwsync.cli", "generate_topology", "graphs.generate"),
    ("pwsync.graphs", "generate_topology", "graphs.generate"),
    ("pwsync.simulate", "incidence", "graphs.incidence"),
    ("pwsync.graphs", "algebraic_connectivity", "graphs.lambda2"),
    ("pwsync.thresholds", "algebraic_connectivity", "graphs.lambda2"),
    ("pwsync.thresholds", "min_density_exact", "min_density.exact"),
    ("pwsync.thresholds", "min_density_heuristic", "min_density.heuristic"),
    ("pwsync.cli", "min_density_heuristic", "min_density.heuristic"),
    ("pwsync.min_density", "min_density_heuristic", "min_density.heuristic"),
    ("pwsync.dynamics", "verify_sigma_quad", "dynamics.verify"),
    ("pwsync.thresholds", "verify_sigma_quad", "dynamics.verify"),
    ("pwsync.cli", "compute_thresholds", "thresholds.compute"),
    ("pwsync.thresholds", "compute_thresholds", "thresholds.compute"),
    ("pwsync.thresholds", "resilience_report", "thresholds.resilience"),
    ("pwsync.cli", "simulate", "simulate.simulate"),
    ("pwsync.simulate", "simulate", "simulate.simulate"),
    ("pwsync.cli", "write_run_csv", "simulate.write_csv"),
    ("pwsync.simulate", "write_run_csv", "simulate.write_csv"),
)


def _counts(name, args, result) -> dict:
    if name == "simulate.simulate":
        return {"steps": int(result.times.shape[0] - 1)}
    if name == "min_density.exact":
        return {"cuts": (1 << (args[0].n_vertices - 1)) - 1}
    if name == "simulate.write_csv":
        return {"bytes": os.path.getsize(args[1])}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.round = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = {
                "name": name,
                "round": self.round,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span.update(_counts(name, args, result))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def self_times(self) -> list[dict]:
        """Per-span duration and self time (duration minus child spans)."""
        out = [dict(s, duration=s["end"] - s["start"]) for s in self.spans]
        for s in out:
            s["self"] = s["duration"]
        for s in out:
            if s["parent"] is not None:
                out[s["parent"]]["self"] -= s["duration"]
        return out

    def per_round(self, rounds: int) -> list[dict[str, dict]]:
        """For each round: span name -> {"self", "calls", and summed counts}."""
        table: list[dict[str, dict]] = [{} for _ in range(rounds)]
        for s in self.self_times():
            if not 0 <= s["round"] < rounds:
                continue
            entry = table[s["round"]].setdefault(s["name"], {"self": 0.0, "calls": 0})
            entry["self"] += s["self"]
            entry["calls"] += 1
            for key in ("steps", "cuts", "bytes"):
                if key in s:
                    entry[key] = entry.get(key, 0) + s[key]
        return table


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Span-derived per-layer metrics: medians over rounds of per-round totals.

    A layer the workload never calls reads 0.
    """
    table = tracer.per_round(rounds)

    def med(fn) -> float:
        return statistics.median(fn(r) for r in table)

    def self_s(name):
        return lambda r: r.get(name, {}).get("self", 0.0)

    def per_second(name, key):
        def f(r):
            e = r.get(name)
            return e[key] / e["self"] if e and e["self"] > 0 and key in e else 0.0
        return f

    def step_us(r):
        e = r.get("simulate.simulate")
        return 1e6 * e["self"] / e["steps"] if e and e.get("steps") else 0.0

    return {
        "cli.load_config_s": med(self_s("cli.load_config")),
        "graphs.generate_s": med(self_s("graphs.generate")),
        "graphs.incidence_s": med(self_s("graphs.incidence")),
        "graphs.lambda2_s": med(self_s("graphs.lambda2")),
        "min_density.exact_s": med(self_s("min_density.exact")),
        "min_density.exact_cuts_per_s": med(per_second("min_density.exact", "cuts")),
        "min_density.heuristic_s": med(self_s("min_density.heuristic")),
        "min_density.heuristic_calls": med(lambda r: r.get("min_density.heuristic", {}).get("calls", 0)),
        "dynamics.verify_s": med(self_s("dynamics.verify")),
        "thresholds.compute_s": med(self_s("thresholds.compute")),
        "thresholds.resilience_s": med(self_s("thresholds.resilience")),
        "simulate.step_us": med(step_us),
        "simulate.write_csv_s": med(self_s("simulate.write_csv")),
        "simulate.csv_bytes": med(lambda r: r.get("simulate.write_csv", {}).get("bytes", 0)),
    }


def time_calls(fn, *args, min_calls: int = 20, min_seconds: float = 0.2) -> float:
    """Median seconds per call of fn(*args), over at least min_calls calls."""
    samples = []
    stop = time.perf_counter() + min_seconds
    while len(samples) < min_calls or time.perf_counter() < stop:
        t0 = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)
