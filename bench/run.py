"""Benchmark of pwsync's certify-then-simulate path.

Usage, from the root of a checkout:

    python3 bench/run.py --workload flagship --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

One workload runs in this process: an untimed warm-up pass, then whole
rounds until --seconds have passed, then the checks of its outputs. With
--trace 0 it reports the end-to-end metrics (medians over rounds); with
--trace 1 the rounds run under the tracer and it reports the per-layer
metrics. `--workload all` runs every workload in a fresh process of its
own, one after the other, and prints a table. The last line of standard
output is always one JSON object: correct, attempted, failed, metrics.

pwsync is imported from `src/` of the checkout and nowhere else, and BLAS
runs on one thread, so that one process is the whole load.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("flagship", "large_sparse", "cut_exact")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "certify_s": "s",
    "node_steps_per_s": "node_steps/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.load_config_s": "s",
    "graphs.generate_s": "s",
    "graphs.incidence_s": "s",
    "graphs.lambda2_s": "s",
    "min_density.exact_s": "s",
    "min_density.exact_cuts_per_s": "cuts/s",
    "min_density.heuristic_s": "s",
    "min_density.heuristic_calls": "count",
    "min_density.heuristic_over_exact": "ratio",
    "dynamics.verify_s": "s",
    "dynamics.field_eval_us": "us",
    "thresholds.compute_s": "s",
    "thresholds.resilience_s": "s",
    "simulate.step_us": "us",
    "simulate.coupling_diffusive_us": "us",
    "simulate.coupling_discontinuous_us": "us",
    "simulate.error_metrics_us": "us",
    "simulate.write_csv_s": "s",
    "simulate.csv_bytes": "bytes",
}


def environment() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer, layer_metrics

    wl = workloads.WORKLOADS[name](seed, OUT / name)
    wl.warm_up()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()

    walls, setups, throughputs = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        if tracer:
            tracer.round = attempted
        attempted += 1
        gc.collect()  # every round starts from the same heap state
        try:
            t0 = time.perf_counter()
            wl.pipeline()
            walls.append(time.perf_counter() - t0)
        except Exception:  # a failed operation is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        throughputs.append(wl.stage["node_steps"] / wl.stage["simulate"])
        if "certify" in wl.stage:
            wl.certify_samples.append(wl.stage["certify"])
        if not tracer:
            gc.collect()
            setups.extend(wl.extras())
    if tracer:
        tracer.round = -1
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        wl.check()
        correct = failed < attempted
    except workloads.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    if tracer:
        metrics = layer_metrics(tracer, attempted)
        metrics["min_density.heuristic_over_exact"] = wl.heuristic_over_exact()
        metrics.update(wl.micro())
        units = PER_LAYER_UNITS
        dump = {
            "workload": name,
            "seed": seed,
            "environment": environment(),
            "round_wall_s": walls,
            "spans": tracer.self_times(),
        }
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"trace_{name}_seed{seed}.json").write_text(json.dumps(dump, indent=1), encoding="ascii")
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "certify_s": statistics.median(wl.certify_samples),
            "node_steps_per_s": statistics.median(throughputs),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }


def run_all(args) -> int:
    """Each workload in a fresh process, then a table of every metric."""
    results = {}
    traces = (0, 1) if args.trace else (0,)
    for name in WORKLOAD_NAMES:
        for trace in traces:
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            results[(name, trace)] = json.loads(lines[-1])

    print(f"{'workload':<13} {'metric':<36} {'value':>16}  unit")
    for (name, trace), res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:<13} {metric:<36} {m['value']:>16.6g}  {m['unit']}")
        print(f"{name:<13} {'attempted / failed' + (' (traced)' if trace else ''):<36} "
              f"{res['attempted']:>9} / {res['failed']:<5} correct={res['correct']}")
        if trace:
            dump = json.loads((OUT / f"trace_{name}_seed{args.seed}.json").read_text(encoding="ascii"))
            traced = statistics.median(dump["round_wall_s"])
            untraced = results[(name, 0)]["metrics"]["wall_s"]["value"]
            print(f"{name:<13} {'tracing overhead on wall_s':<36} {100 * (traced / untraced - 1):>15.2f}%")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": m for (name, trace), r in results.items() if not trace
            for metric, m in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pwsync" / "__init__.py").is_file():
        print(f"error: no pwsync sources at {SRC}; run from the root of a pwsync checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for metric, m in result["metrics"].items():
        print(f"{metric:<36} {m['value']:>16.6g}  {m['unit']}")
    print(f"environment {json.dumps(environment())}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
