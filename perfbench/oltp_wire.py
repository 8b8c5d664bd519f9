"""``oltp_wire``: two pipelined closed-loop connections to ``repro serve``.

One asyncio process, one thread, drives both connections against a server
started by ``serve_launcher.py`` in its default in-memory configuration;
both processes run on one CPU.
Connection ``c`` owns the keys ``k % 2 == c`` and is their only writer, so
its responses can be predicted from its own model at submit time (the
server answers each connection in order).  Each connection runs rounds of
the 1,024 statements of ``common.SELECTS``/``UPDATES``/``INSERTS``
through a pipeline window of 32 requests, the window of
``benchmarks/bench_server.py``'s pipelined tier.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path
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
from serve_launcher import RUN_MARKER, VERIFY_MARKER
from tracing import Tracer

#: The engine runs in the server process, where the launcher installs hooks.
HOOKS_IN_PROCESS = False

ROWS = 10_000
PAD = 32
CONNECTIONS = 2
WINDOW = 32
LOAD_CHUNK = 500
#: A stall of the server or the host delays every request in flight (up to
#: two windows), so above p99.9 the tail is a run's one or two stall events
#: and moved from 106 to 552 ms between runs of one commit; p99 leaves
#: 480 or more samples beyond it.
TAIL_PCT = 99.0
#: The server's memory grows with the statements it has run (its in-memory
#: WAL is never truncated), so ``peak_rss_mb`` is its VmHWM read once both
#: connections have run this many rounds, a fixed 32,768 statements, and
#: every run lasts at least that long.  Read at the end of the run it
#: followed the host's speed: 84 MB in one set of runs, 100 MB in the next.
RSS_ROUNDS = 16
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0

SELECT_SQL = "SELECT val FROM kv WHERE k = ?"
UPDATE_SQL = "UPDATE kv SET val = val + 1 WHERE k = ?"
INSERT_SQL = "INSERT INTO kv VALUES (?, ?, ?)"


def pad_for(key: int) -> str:
    return format(key, "x").rjust(PAD, "p")


def start_server(out: Path, trace: bool) -> subprocess.Popen:
    launcher = Path(__file__).resolve().parent / "serve_launcher.py"
    return subprocess.Popen(
        [sys.executable, str(launcher), str(out), "1" if trace else "0", "--", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
        env={k: v for k, v in os.environ.items() if not k.startswith("REPRO_")},
    )


async def stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM makes ``serve`` drain and return, so the launcher writes its
    report; a server that does not stop in time is killed."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        await asyncio.get_running_loop().run_in_executor(
            None, functools.partial(proc.wait, timeout=STOP_TIMEOUT_S)
        )
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    finally:
        proc.stdout.close()


async def wait_for_port(proc: subprocess.Popen) -> int:
    loop = asyncio.get_running_loop()
    while True:
        line = await asyncio.wait_for(
            loop.run_in_executor(None, proc.stdout.readline), START_TIMEOUT_S
        )
        if not line:
            raise RuntimeError(f"server exited before listening (code {proc.poll()})")
        if "listening on" in line:
            return int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])


class Client:
    """One connection's generator, model and response log."""

    def __init__(self, index: int, conn, rng: random.Random):
        self.index = index
        self.conn = conn
        self.rng = rng
        keys = range(index, ROWS, CONNECTIONS)
        self.model: Dict[int, int] = {k: 0 for k in keys}
        self.zipf = Zipf(keys, ZIPF_S, rng)
        self.next_key = ROWS + index
        self.pending: List[tuple] = []
        self.latencies: List[float] = []
        self.round_seconds: List[float] = []
        self.sent = 0

    def next_op(self, kind: str):
        if kind == "insert":
            key = self.next_key
            self.next_key += CONNECTIONS
            self.model[key] = 0
            return key, INSERT_SQL, (key, 0, pad_for(key)), 1
        key = self.zipf.sample()
        if kind == "update":
            self.model[key] += 1
            return key, UPDATE_SQL, (key,), 1
        return key, SELECT_SQL, (key,), [(self.model[key],)]

    async def run(self, deadline: float, at_rss_rounds) -> None:
        kinds = ["select"] * SELECTS + ["update"] * UPDATES + ["insert"] * INSERTS
        async with self.conn.pipeline(window=WINDOW) as pipe:
            while True:
                round_begin = now()
                self.rng.shuffle(kinds)
                for kind in kinds:
                    key, sql, params, want = self.next_op(kind)
                    submitted = now()
                    handle = await pipe.execute(sql, params)
                    self.pending.append((handle, submitted, kind, key, want))
                    self.sent += 1
                self.round_seconds.append(now() - round_begin)
                if len(self.round_seconds) == RSS_ROUNDS:
                    at_rss_rounds()
                if len(self.round_seconds) >= RSS_ROUNDS and now() >= deadline:
                    break

    def check(self, mismatches: List[str]) -> int:
        failed = 0
        for handle, submitted, kind, key, want in self.pending:
            if handle.error is not None:
                failed += 1
                print(f"perfbench: conn {self.index} {kind} k={key}: {handle.error!r}", file=sys.stderr)
                continue
            self.latencies.append(handle.completed_at - submitted)
            result = handle.result()
            got = [tuple(r) for r in result.rows] if kind == "select" else result.rowcount
            checks.expect_equal(f"conn {self.index} {kind} k={key}", got, want, mismatches)
        return failed


async def drive(seed: int, seconds: float, trace: bool, started: float, wd: Path) -> dict:
    from repro.net.client import aconnect

    out = wd / "server.json"
    proc = start_server(out, trace)
    sent = 0
    try:
        port = await wait_for_port(proc)
        conns = [await aconnect(port=port, user=f"bench{i}") for i in range(CONNECTIONS)]
        admin = conns[0]
        load_begin = now()
        await admin.execute("CREATE TABLE kv (k INTEGER NOT NULL, val INTEGER, pad TEXT)")
        sent += 1
        for low in range(0, ROWS, LOAD_CHUNK):
            rows = ", ".join(
                f"({k}, 0, '{pad_for(k)}')" for k in range(low, min(low + LOAD_CHUNK, ROWS))
            )
            await admin.execute(f"INSERT INTO kv VALUES {rows}")
            sent += 1
        load_s = now() - load_begin
        await admin.execute("CREATE INDEX kv_k ON kv (k)")
        await admin.execute("ANALYZE")
        await admin.execute(RUN_MARKER)
        sent += 3
        rng = random.Random(seed)
        clients = [Client(i, conn, random.Random(rng.random())) for i, conn in enumerate(conns)]
        setup_s = now() - started
        rss: List[float] = []
        rss_rounds_done: List[bool] = []

        def at_rss_rounds() -> None:
            rss_rounds_done.append(True)
            if len(rss_rounds_done) == CONNECTIONS:
                rss.append(peak_rss_mb(proc.pid))

        begin = now()
        await asyncio.gather(*(c.run(begin + seconds, at_rss_rounds) for c in clients))
        attempted = sum(c.sent for c in clients)
        sent += attempted

        mismatches: List[str] = []
        failed = sum(c.check(mismatches) for c in clients)
        await admin.execute(VERIFY_MARKER)
        totals = await admin.execute("SELECT COUNT(*), SUM(val) FROM kv")
        sent += 2
        model = {k: v for c in clients for k, v in c.model.items()}
        checks.check_totals(totals.rows, model, mismatches)
        for conn in conns:
            await conn.close()
    finally:
        await stop_server(proc)
    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)
    checks.check_server_stats(report.get("stats", {}), sent, mismatches)
    latencies = [x for c in clients for x in c.latencies]
    ops_per_s = sum(round_throughput(SELECTS + UPDATES + INSERTS, c.round_seconds) for c in clients)
    result = {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "e2e": {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            **latency_metrics(latencies, TAIL_PCT),
            "peak_rss_mb": rss[0],
        },
    }
    if trace:
        server = report["trace"]
        values = dict(server["values"])
        values.update(
            {
                "storage.wal.records_retained": report["records_retained"],
                "workloads.load_s": load_s,
                "trace.ops_per_s": ops_per_s,
            }
        )
        result["layers"] = layers.finish(values)
        result["entry_calls"] = server["ops"]
        result["entry_name"] = "server batch statements"
        result["server_trace"] = {k: server[k] for k in ("absent_hooks", "dropped_spans")}
        result["spans"] = server["spans"]
    return result


def run(seed: int, seconds: float, tracer: Optional[Tracer], started: float) -> dict:
    # Client and server share one CPU (the server inherits the affinity).
    # The GIL-bound pair reaches the same throughput on one core as on two,
    # and on a shared host it then loses time only when that one core is
    # taken away, instead of whenever either of two is.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:  # not permitted here: run unpinned, and say so
        print(f"perfbench: running unpinned: {exc}", file=sys.stderr)
    wd = work_dir("oltp_wire")
    try:
        return asyncio.run(drive(seed, seconds, tracer is not None, started, wd))
    finally:
        shutil.rmtree(wd, ignore_errors=True)
