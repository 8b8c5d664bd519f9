"""``oltp_embedded``: one caller, closed loop, file-backed Database.

Zipfian point SELECTs, ``UPDATE ... SET val = val + 1`` and INSERTs, each
through ``Database.execute(sql, params=...)``.  The table (20,000 rows of
about 420 bytes, about 1,050 heap pages) is larger than the default buffer
pool (1,024 pages of 8 KiB), so cold keys evict.  A round is the 1,024
statements of ``common.SELECTS``/``UPDATES``/``INSERTS``, of which exactly
512 write and commit, the default ``checkpoint_interval``; set-up ends
with a checkpoint, so every round ends in exactly one auto-checkpoint and
every run measures whole checkpoint cycles.
"""

from __future__ import annotations

import random
import shutil
import sys
from contextlib import nullcontext
from typing import Dict, List, Optional

import checks
import layers
from common import (
    INSERTS,
    SELECTS,
    UPDATES,
    ZIPF_S,
    Zipf,
    latency_metrics,
    now,
    peak_rss_mb,
    round_throughput,
    work_dir,
)
from tracing import Tracer

ROWS = 20_000
PAD = 400
#: One statement in 1,024 is the round's auto-checkpoint, so the tail is
#: taken above 99.9 % to keep those stalls in it; a 25 s run has 25k-32k
#: samples, 12-16 of them beyond p99.95.
TAIL_PCT = 99.95

SELECT_SQL = "SELECT val FROM kv WHERE k = ?"
UPDATE_SQL = "UPDATE kv SET val = val + 1 WHERE k = ?"
INSERT_SQL = "INSERT INTO kv VALUES (?, ?, ?)"


def pad_for(key: int) -> str:
    return format(key, "x").rjust(PAD, "p")


def round_plan(rng: random.Random) -> List[str]:
    kinds = ["select"] * SELECTS + ["update"] * UPDATES + ["insert"] * INSERTS
    rng.shuffle(kinds)
    return kinds


def run(seed: int, seconds: float, tracer: Optional[Tracer], started: float) -> dict:
    from repro.core.database import Database

    rng = random.Random(seed)
    wd = work_dir("oltp_embedded")
    path = str(wd / "kv.db")
    db = Database(path=path, durability="commit")
    db.execute("CREATE TABLE kv (k INTEGER NOT NULL, val INTEGER, pad TEXT)")
    with tracer.span("workloads.load") if tracer else nullcontext():
        db.insert_rows("kv", [(k, 0, pad_for(k)) for k in range(ROWS)])
    db.execute("CREATE INDEX kv_k ON kv (k)")
    db.execute("ANALYZE")
    db.checkpoint()
    model: Dict[int, int] = {k: 0 for k in range(ROWS)}
    zipf = Zipf(range(ROWS), ZIPF_S, rng)
    next_key = ROWS
    setup_s = now() - started

    if tracer:
        tracer.phase = "run"
    before = layers.engine_counters(db)
    latencies: List[float] = []
    mismatches: List[str] = []
    round_seconds: List[float] = []
    attempted = failed = 0
    begin = now()
    deadline = begin + seconds
    while True:
        round_begin = now()
        for kind in round_plan(rng):
            if kind == "insert":
                key = next_key
                next_key += 1
                sql, params = INSERT_SQL, (key, 0, pad_for(key))
            else:
                key = zipf.sample()
                sql, params = (SELECT_SQL if kind == "select" else UPDATE_SQL), (key,)
            attempted += 1
            t0 = now()
            try:
                with tracer.op(kind) if tracer else nullcontext():
                    result = db.execute(sql, params=params)
            except Exception as exc:  # counted; the model checks decide correctness
                failed += 1
                print(f"perfbench: {kind} k={key} failed: {exc!r}", file=sys.stderr)
                continue
            finally:
                latencies.append(now() - t0)
            if kind == "select":
                checks.expect_equal(f"SELECT k={key}", result.rows, [(model[key],)], mismatches)
            else:
                checks.expect_equal(f"{kind} k={key} rowcount", result.rowcount, 1, mismatches)
                model[key] = model[key] + 1 if kind == "update" else 0
        round_seconds.append(now() - round_begin)
        if now() >= deadline:
            break
    ops_per_s = round_throughput(SELECTS + UPDATES + INSERTS, round_seconds)
    deltas = layers.counter_delta(before, layers.engine_counters(db))
    retained = len(db.wal.records())
    rss = peak_rss_mb()

    # --- reference checks (after the peak-RSS read) -------------------------
    if tracer:
        tracer.phase = "verify"
    checks.check_totals(db.execute("SELECT COUNT(*), SUM(val) FROM kv").rows, model, mismatches)
    # Copy the files while the database is still open: the copy has no clean
    # shutdown record, so opening it must recover from the WAL alone.
    copy = wd / "copy"
    copy.mkdir()
    for file in wd.iterdir():
        if file.is_file():
            shutil.copy2(file, copy / file.name)
    db.close()
    recovered = Database(path=str(copy / "kv.db"), durability="commit")
    try:
        rows = recovered.execute("SELECT k, val, pad FROM kv").rows
    finally:
        recovered.close()
    checks.check_recovered(rows, model, pad_for, mismatches)
    shutil.rmtree(wd, ignore_errors=True)

    out = {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "e2e": {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            **latency_metrics(latencies, TAIL_PCT),
            "peak_rss_mb": rss,
        },
    }
    if tracer:
        out["layers"] = layers.finish(layers.compute(
            tracer,
            attempted,
            deltas,
            {"storage.wal.records_retained": retained, "trace.ops_per_s": ops_per_s},
        ))
        out["entry_calls"] = tracer.get_calls("core.execute")
    return out
