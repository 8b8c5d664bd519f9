"""Shared pieces of the benchmark: paths, environment, statistics, output."""

from __future__ import annotations

import bisect
import json
import math
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"

#: The point-traffic mix of both OLTP workloads, per round of 1,024
#: statements.  Reads and writes are split 50/50 and keys are drawn from a
#: Zipf distribution with s = 0.99, as in YCSB core workload A (Cooper et
#: al., "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010; 0.99 is
#: YCSB's default Zipfian constant).  51 of the 1,024 statements (5 %) are
#: INSERTs of new keys, the insert share of YCSB core workload D, taken out
#: of A's updates so that a round still holds 512 writes: the default
#: ``checkpoint_interval`` of ``Database``.
SELECTS, UPDATES, INSERTS = 512, 461, 51
ZIPF_S = 0.99


def require_source() -> None:
    """Fail fast when the checkout holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def clear_repro_env() -> Dict[str, str]:
    """Remove every ``REPRO_*`` variable so the program runs on its defaults.

    Returns what was removed, so the run can record it."""
    removed = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for key in removed:
        del os.environ[key]
    return removed


def work_dir(workload: str) -> Path:
    """A fresh per-process scratch directory inside the checkout."""
    path = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM (peak resident set) of a process, in MB (2**20 bytes)."""
    status = Path(f"/proc/{pid or 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc")


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def latency_metrics(latencies_s: List[float], tail_pct: float) -> Dict[str, float]:
    """Median and the workload's fixed tail percentile over all samples, in ms.

    The tail percentile is fixed per workload (see README) so that runs of
    one workload always report the same statistic; it is chosen to leave at
    least ten samples beyond it in a run of ``run_seconds``, and a run with
    fewer says so on stderr."""
    ordered = sorted(latencies_s)
    beyond = len(ordered) - math.ceil(tail_pct / 100.0 * len(ordered))
    if beyond < 10:
        print(f"perfbench: only {beyond} samples beyond p{tail_pct:g}", file=sys.stderr)
    return {
        "latency_p50_ms": percentile(ordered, 50) * 1e3,
        "latency_tail_ms": percentile(ordered, tail_pct) * 1e3,
    }


def round_throughput(ops_per_round: int, round_seconds: List[float]) -> float:
    """Operations per second of the median round.

    Every round of a workload issues the same operations, so the median
    round time is a throughput that a few rounds slowed by a noisy
    neighbour on a shared host do not move."""
    return ops_per_round / statistics.median(round_seconds)


class Zipf:
    """Zipf(s) sampler over ``n`` ranks mapped onto a seeded key permutation,
    so hot keys are spread over the table instead of sitting on its first
    pages."""

    def __init__(self, keys: Sequence[int], s: float, rng: random.Random):
        self.keys = list(keys)
        rng.shuffle(self.keys)
        weights = [1.0 / (rank ** s) for rank in range(1, len(self.keys) + 1)]
        total = sum(weights)
        acc = 0.0
        self.cdf = []
        for weight in weights:
            acc += weight / total
            self.cdf.append(acc)
        self.rng = rng

    def sample(self) -> int:
        index = bisect.bisect_left(self.cdf, self.rng.random())
        return self.keys[min(index, len(self.keys) - 1)]


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]) -> None:
    """Print the result object as the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )


now = time.perf_counter
