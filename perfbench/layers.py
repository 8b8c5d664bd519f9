"""Per-layer metrics: the catalogue, and how each is computed from a trace.

Every traced run reports every metric below.  A metric whose layer the
workload does not reach, or whose hook no longer resolves, is reported
with value 0 and named in the run's ``absent`` list (stderr and trace
file), so a refactor that removes a hooked function degrades the trace,
never the end-to-end run.

Counts are normalised per timed operation (unit ``1/op``) so runs of
different lengths compare; times are per call of the layer's entry
point unless the unit says ``/op``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from tracing import Tracer

TPCH_TAGS = ("Q1", "Q3", "Q5", "Q6", "Q10", "Q12", "Q15", "QSORT")

#: (name, unit); every per-layer metric is reported without a bound.
PER_LAYER: List[Tuple[str, str]] = [
    ("net.protocol.decode_us", "us"),
    ("net.protocol.encode_us", "us"),
    ("net.server.batch_size", "stmts"),
    ("net.server.auto_prepare_hit_ratio", "ratio"),
    ("net.server.executor_wait_us", "us"),
    ("net.server.batch_us", "us"),
    ("core.lock_wait_us", "us"),
    ("core.prepared_execute_us", "us"),
    ("core.execute_self_us", "us"),
    ("core.plancache.hit_ratio", "ratio"),
    ("sql.parse.calls", "1/op"),
    ("sql.parse_us", "us"),
    ("sql.params_us", "us/op"),
    ("plan.bind_us", "us/op"),
    ("optimizer.calls", "1/op"),
    ("optimizer.optimize_us", "us"),
    ("exec.run_ms", "ms"),
    ("exec.rows_out", "rows"),
    *[(f"exec.{tag.lower()}_ms", "ms") for tag in TPCH_TAGS],
    ("index.lookups", "1/op"),
    ("index.build_s", "s"),
    ("storage.buffer.hit_ratio", "ratio"),
    ("storage.buffer.evictions", "1/op"),
    ("storage.disk.reads", "1/op"),
    ("storage.disk.writes", "1/op"),
    ("storage.wal.appends", "1/op"),
    ("storage.wal.flushes", "1/op"),
    ("storage.wal.flush_us", "us"),
    ("storage.wal.bytes_per_commit", "B"),
    ("storage.checkpoint.count", "1/op"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.checkpoint.rows_rewritten", "rows"),
    ("storage.wal.records_retained", "records"),
    ("catalog.analyze_s", "s"),
    ("workloads.load_s", "s"),
    ("trace.ops_per_s", "ops/s"),
    ("trace.unattributed_share", "ratio"),
]

#: The hook (span or counter label in ``tracing``) each metric is built
#: from; a metric whose hook is absent is reported absent, not as zero.
DEPENDS = {
    "net.protocol.decode_us": "net.protocol.decode",
    "net.protocol.encode_us": "net.protocol.encode",
    "net.server.batch_size": "net.server.batch",
    "net.server.auto_prepare_hit_ratio": "net.server.batch",
    "net.server.executor_wait_us": "net.server.run_batch",
    "net.server.batch_us": "net.server.batch",
    "core.lock_wait_us": "core.lock_wait",
    "core.prepared_execute_us": "core.prepared_execute",
    "core.execute_self_us": "core.execute",
    "sql.parse.calls": "sql.parse",
    "sql.parse_us": "sql.parse",
    "sql.params_us": "sql.params",
    "plan.bind_us": "plan.bind",
    "optimizer.calls": "optimizer.optimize",
    "optimizer.optimize_us": "optimizer.optimize",
    "exec.run_ms": "exec.run",
    "exec.rows_out": "exec.run",
    **{f"exec.{tag.lower()}_ms": "exec.run" for tag in TPCH_TAGS},
    "index.lookups": "index.lookup",
    "index.build_s": "index.build",
    "storage.wal.appends": "storage.wal.append",
    "storage.wal.flushes": "storage.wal.flush",
    "storage.wal.flush_us": "storage.wal.flush",
    "storage.wal.bytes_per_commit": "storage.wal.bytes",
    "storage.checkpoint.count": "storage.checkpoint",
    "storage.checkpoint_ms": "storage.checkpoint",
    "storage.checkpoint.rows_rewritten": "storage.wal.compact",
    "catalog.analyze_s": "catalog.analyze",
    "workloads.load_s": "workloads.load",
}


def engine_counters(db) -> Dict[str, int]:
    """Counters the engine keeps itself, read from outside at phase edges."""
    pool = db.pool.stats
    cache = db.plan_cache.stats if db.plan_cache is not None else None
    return {
        "buffer.hits": pool.hits,
        "buffer.misses": pool.misses,
        "buffer.evictions": pool.evictions,
        "disk.reads": db.disk.reads,
        "disk.writes": db.disk.writes,
        "plancache.hits": cache.hits if cache else 0,
        "plancache.misses": cache.misses if cache else 0,
    }


def counter_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in before}


def ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def compute(
    tracer: Tracer,
    ops: int,
    deltas: Optional[Dict[str, int]],
    extra: Dict[str, Optional[float]],
    root: str = "op",
) -> Dict[str, Optional[float]]:
    """Values of the per-layer metrics one traced run can measure (None when
    the run has nothing to measure them with); :func:`finish` completes them.

    ``ops`` is the number of timed operations; ``deltas`` the engine
    counters accumulated over the timed phase (None when the workload's
    engine lives in another process and sends its own); ``extra`` carries
    values measured outside the tracer (records retained, traced ops/s)."""
    t = tracer
    calls, total, self_s, count = t.get_calls, t.get_total, t.get_self, t.get_count
    per_op = lambda value: ratio(value, ops)  # noqa: E731
    values: Dict[str, Optional[float]] = {
        "core.lock_wait_us": ratio(count("core.lock_wait_s") * 1e6, count("core.lock_acquires")),
        "core.prepared_execute_us": ratio(
            total("core.prepared_execute") * 1e6, calls("core.prepared_execute")
        ),
        "core.execute_self_us": ratio(self_s("core.execute") * 1e6, calls("core.execute")),
        "sql.parse.calls": per_op(calls("sql.parse")),
        "sql.parse_us": ratio(total("sql.parse") * 1e6, calls("sql.parse")),
        "sql.params_us": per_op(self_s("sql.params") * 1e6) if calls("sql.params") else None,
        "plan.bind_us": per_op(self_s("plan.bind") * 1e6) if calls("plan.bind") else None,
        "optimizer.calls": per_op(calls("optimizer.optimize")),
        "optimizer.optimize_us": ratio(
            total("optimizer.optimize") * 1e6, calls("optimizer.optimize")
        ),
        "exec.run_ms": ratio(total("exec.run") * 1e3, calls("exec.run")),
        "exec.rows_out": ratio(count("exec.run.rows"), calls("exec.run")),
        "index.lookups": per_op(calls("index.lookup")),
        "index.build_s": total("index.build", "setup") or None,
        "storage.wal.appends": per_op(calls("storage.wal.append")),
        "storage.wal.flushes": per_op(calls("storage.wal.flush")),
        "storage.wal.flush_us": ratio(
            total("storage.wal.flush") * 1e6, calls("storage.wal.flush")
        ),
        "storage.wal.bytes_per_commit": ratio(count("storage.wal.bytes"), calls("core.commit"))
        if count("storage.wal.bytes")
        else None,
        "storage.checkpoint.count": per_op(calls("storage.checkpoint")),
        "storage.checkpoint_ms": ratio(
            total("storage.checkpoint") * 1e3, calls("storage.checkpoint")
        ),
        "storage.checkpoint.rows_rewritten": ratio(
            count("storage.checkpoint.rows"), calls("storage.checkpoint")
        ),
        "catalog.analyze_s": total("catalog.analyze", "setup") or None,
        "workloads.load_s": total("workloads.load", "setup") or None,
        "trace.unattributed_share": t.unattributed_share(root),
    }
    for tag in TPCH_TAGS:
        spent, runs = t.by_tag.get(("run", f"exec.run@{tag}"), (0.0, 0))
        values[f"exec.{tag.lower()}_ms"] = ratio(spent * 1e3, runs)
    if deltas is not None:
        values.update(
            {
                "core.plancache.hit_ratio": ratio(
                    deltas["plancache.hits"],
                    deltas["plancache.hits"] + deltas["plancache.misses"],
                ),
                "storage.buffer.hit_ratio": ratio(
                    deltas["buffer.hits"], deltas["buffer.hits"] + deltas["buffer.misses"]
                ),
                "storage.buffer.evictions": per_op(deltas["buffer.evictions"]),
                "storage.disk.reads": per_op(deltas["disk.reads"]),
                "storage.disk.writes": per_op(deltas["disk.writes"]),
            }
        )
    values.update(extra)
    for metric, hook in DEPENDS.items():
        if hook in t.absent:
            values[metric] = None
    return values


def finish(values: Dict[str, Optional[float]]) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Every catalogue metric with its unit; missing or None ones are absent."""
    metrics: Dict[str, Tuple[float, str]] = {}
    absent: List[str] = []
    for name, unit in PER_LAYER:
        value = values.get(name)
        if value is None:
            absent.append(name)
            value = 0.0
        metrics[name] = (float(value), unit)
    return metrics, absent
