"""Re-measures ROADMAP's baseline table with the benchmark's settings.

    python3 bench/baseline.py

Prints a markdown table of medians over repeats, on one BLAS thread:

- `simulate` per Euler step at N = 30 (ring + Erdos-Renyi p = 0.2, the
  paper-demo graphs, seed 7) and at N = 100 / 300 / 1000 (both layers
  Erdos-Renyi with mean degree 8, about 4N edges each, seed 0);
- `min_density_exact` at N = 20 / 22 (Erdos-Renyi p = 0.3, seed 0);
- `min_density_heuristic` at N = 30 / 60 / 100 (Erdos-Renyi p = 0.2, seed 0);
- `compute_thresholds` on the paper-demo graphs (seed 7).
"""

from __future__ import annotations

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

import pwsync as ps  # noqa: E402


def median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def step_cost(g_diff, g_disc, c, cd, steps: int, repeats: int) -> float:
    config = ps.SimConfig(
        ps.relay_feedback_system(), g_diff, g_disc, c, cd, dt=1e-4, t_end=steps * 1e-4,
        store_trajectory=False,
    )
    return median_time(lambda: ps.simulate(config), repeats) / steps


def main() -> int:
    cert, field, eye = ps.relay_certificate(), ps.relay_feedback_system(), np.eye(3)
    ring30 = ps.ring_graph(30)
    er30 = ps.erdos_renyi_graph(30, 0.2, seed=7)
    report = ps.compute_thresholds(cert, eye, eye, ring30, er30, field=field, heuristic_seed=7)
    rows = []
    rows.append((
        "simulate per Euler step, N = 30 (ring + ER p = 0.2)",
        step_cost(ring30, er30, 1.05 * report.c_star, 1.05 * report.cd_star, 2000, 5), "us",
    ))
    for n, steps in ((100, 1000), (300, 200), (1000, 30)):
        p = 8 / (n - 1)
        g1 = ps.erdos_renyi_graph(n, p, seed=0)
        g2 = ps.erdos_renyi_graph(n, p, seed=1)
        rows.append((f"simulate per Euler step, N = {n} (ER, ~4N edges)", step_cost(g1, g2, 60.0, 10.0, steps, 3), "us"))
    for n in (20, 22):
        g = ps.erdos_renyi_graph(n, 0.3, seed=0)
        rows.append((f"min_density_exact, N = {n} ({g.n_edges} edges)", median_time(lambda: ps.min_density_exact(g), 3), "s"))
    for n in (30, 60, 100):
        g = ps.erdos_renyi_graph(n, 0.2, seed=0)
        rows.append((
            f"min_density_heuristic, N = {n} ({g.n_edges} edges)",
            median_time(lambda: ps.min_density_heuristic(g, seed=0), 3), "s",
        ))
    rows.append((
        "compute_thresholds, paper-demo graphs (N = 30)",
        median_time(lambda: ps.compute_thresholds(cert, eye, eye, ring30, er30, field=field, heuristic_seed=7), 5),
        "s",
    ))

    print("| workload | median |")
    print("|---|---|")
    for name, value, unit in rows:
        shown = f"{value * 1e6:.1f} us" if unit == "us" else f"{value:.3f} s"
        print(f"| {name} | {shown} |")
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / "baseline.json").write_text(
        json.dumps([{"name": n, "seconds": v} for n, v, _ in rows], indent=1), encoding="ascii"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
