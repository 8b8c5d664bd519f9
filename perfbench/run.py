"""One benchmark command for the repro database.

    python3 perfbench/run.py --workload oltp_embedded --seed 1 --seconds 25 --trace 0

Runs one workload in this process (``oltp_wire`` also starts a server
process), checks every output against a reference computed apart from the
program, and prints as its last line one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, measured by wrappers the benchmark patches over the
program's functions (see ``tracing.py``), with the trace written to
``perfbench/_work/trace-<workload>.json``.  Exits 1 when a check fails and
2 when the checkout holds no program.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import importlib  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from common import WORK, clear_repro_env, emit, require_source  # noqa: E402

WORKLOADS = ("oltp_embedded", "oltp_wire", "tpch_power")

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def steal_seconds() -> float:
    """CPU time the hypervisor took from this machine (all CPUs, /proc/stat).

    Reported on stderr so a slow run on a shared host can be told apart
    from a slow program."""
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_source()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    removed = clear_repro_env()
    if removed:
        print(f"perfbench: cleared {sorted(removed)}", file=sys.stderr)
    workload = importlib.import_module(args.workload)
    steal_before = steal_seconds()
    tracer = patcher = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        if getattr(workload, "HOOKS_IN_PROCESS", True):
            patcher = tracing.Patcher(tracer)
            tracing.install_engine_hooks(tracer, patcher)
    try:
        out = workload.run(args.seed, args.seconds, tracer, STARTED)
    finally:
        if patcher is not None:
            patcher.restore()
    print(f"perfbench: host steal during the run: {steal_seconds() - steal_before:.2f} s", file=sys.stderr)
    mismatches = list(out["mismatches"])
    if tracer is not None:
        import checks

        # The entry-point wrapper must count exactly the operations issued.
        entry = out.get("entry_name", "Database.execute")
        checks.expect_equal(f"traced {entry} calls", out["entry_calls"], out["attempted"], mismatches)
        spans = out.get("spans", tracer.spans)
        checks.check_nesting(spans, mismatches)
        metrics, absent = out["layers"]
        WORK.mkdir(exist_ok=True)
        tracer.spans = spans
        tracer.dump(
            str(WORK / f"trace-{args.workload}.json"),
            {"workload": args.workload, "seed": args.seed, "absent_metrics": absent,
             "server": out.get("server_trace")},
        )
        if absent:
            print(f"perfbench: absent per-layer metrics: {', '.join(absent)}", file=sys.stderr)
    else:
        metrics = {name: (out["e2e"][name], unit) for name, unit in E2E_UNITS.items()}
    for line in mismatches[:50]:
        print(f"perfbench: MISMATCH {line}", file=sys.stderr)
    correct = not mismatches
    emit(correct, out["attempted"], out["failed"], metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
