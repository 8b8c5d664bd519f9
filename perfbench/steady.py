"""Steadiness check: run each workload repeatedly on one commit and report,
for every end-to-end metric, the median, the quartiles and the spread
(quartile distance over median) against the bound in ``BENCHMARK.json``.

    python3 perfbench/steady.py                      # seeds 1-10, every workload
    python3 perfbench/steady.py --workload tpch_power --seeds 5
    python3 perfbench/steady.py --trace              # also traced runs: overhead

Each run measures ``run_seconds`` of ``BENCHMARK.json``.  A spread above
a third of its bound, ``setup_s`` included, is marked ``WIDE``: two sets
of runs of the same commit could then differ by more than the bound.
With ``--trace`` each workload also runs traced, and the tracing overhead
is reported as the traced ops/s against the untraced median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description="Run-to-run spread of the end-to-end metrics.")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    wide = 0
    for workload in args.workload or names:
        runs = []
        for seed in range(1, args.seeds + 1):
            result = run_once(workload, seed, config["run_seconds"], 0)
            runs.append(result)
            shares = result["failed"] / result["attempted"]
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed share={shares:.6f} " + " ".join(
                      f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for name, bound in bounds.items():
            med, q1, q3, rel = spread([r["metrics"][name]["value"] for r in runs])
            flag = "" if rel <= bound / 3 else "  WIDE"
            wide += bool(flag)
            print(f"  {name:<18}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{rel:>9.3f}{bound:>8.2f}{flag}")
        if args.trace:
            traced = run_once(workload, 1, config["run_seconds"], 1)
            untraced = statistics.median(r["metrics"]["ops_per_s"]["value"] for r in runs)
            ops = traced["metrics"]["trace.ops_per_s"]["value"]
            print(f"  tracing overhead: {ops:.1f} traced vs {untraced:.1f} untraced ops/s "
                  f"({1 - ops / untraced:.1%} fewer)")
        print(flush=True)
    return 1 if wide else 0


if __name__ == "__main__":
    raise SystemExit(main())
