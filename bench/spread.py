"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workloads flagship large_sparse cut_exact --seeds 1-10 --seconds 20

Runs `run.py` once per workload and seed, each in a fresh process, one at a
time, and prints for every metric the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and their distance as a
share of the median. The raw results go to `bench/out/spread_<label>.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["flagship", "large_sparse", "cut_exact"])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--label", default="latest")
    args = parser.parse_args()

    raw: dict[str, list[dict]] = {}
    for name in args.workloads:
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result["seed"] = seed
            raw.setdefault(name, []).append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
            ) + f", attempted={result['attempted']}, failed={result['failed']}, correct={result['correct']}",
                  file=sys.stderr)

    print(f"{'workload':<13} {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, results in raw.items():
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"{name:<13} {metric:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {(q3 - q1) / med:>8.2%}")
        fails = {r["failed"] / r["attempted"] for r in results}
        print(f"{name:<13} {'failed share':<18} {sorted(fails)}  all correct: {all(r['correct'] for r in results)}")
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread_{args.label}.json").write_text(json.dumps(raw, indent=1), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
