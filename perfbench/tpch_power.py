"""``tpch_power``: refresh-and-query rounds over ``load_tpch`` at SF 0.5.

A round is RF1 (one multi-row INSERT into ``orders``, one into
``lineitem``), the eight ``TPCH_QUERIES`` with substitution parameters
drawn from the seed, and RF2 (a range DELETE on ``orders`` and on
``lineitem``, then ``SELECT COUNT(*) FROM orders``): thirteen statements,
each one operation.  The odd count keeps the median latency inside one
statement type's samples instead of on the edge between two.  The
refreshes invalidate the decoded-row scan caches, so every round decodes
again.

The reference is sqlite3 fed by the same ``load_tpch`` call through a
duck-typed adapter, then given the same refresh statements and queries.
"""

from __future__ import annotations

import itertools
import random
import sqlite3
import sys
from collections import Counter
from contextlib import nullcontext
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import checks
import layers
from common import latency_metrics, now, peak_rss_mb, round_throughput
from tracing import Tracer

SCALE_FACTOR = 0.5
NEW_ORDERS = 10  # per RF1; RF2 deletes the same number of original orders
TAIL_PCT = 96.0
QUERY_NAMES = ("Q1", "Q3", "Q5", "Q6", "Q10", "Q12", "Q15", "QSORT")
REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]

#: ORDER BY of each query as (output column, descending) pairs; QSORT also
#: sorts on l_shipdate, which it does not output, so only its first key is
#: checkable this way (its whole order is checked against sqlite3).
ORDER_KEYS = {
    "Q1": [(0, False), (1, False)],
    "Q3": [(1, True), (2, False)],
    "Q5": [(1, True)],
    "Q6": [],
    "Q10": [(2, True)],
    "Q12": [(0, False)],
    "Q15": [(2, True), (0, False)],
    "QSORT": [(2, True)],
    "RF2.count": [],
}
#: Results whose ORDER BY fixes the whole row sequence (it ends in a key
#: the rows are unique on, or the result has one row): compared with
#: sqlite3's in order.  The others can have ties and are compared as
#: multisets.
TOTAL_ORDER = {"Q1", "Q6", "Q12", "Q15", "QSORT", "RF2.count"}
STATEMENTS_PER_ROUND = 2 + len(QUERY_NAMES) + 3


def literal(value: Any) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def values_sql(table: str, rows: Sequence[Sequence[Any]]) -> str:
    body = ", ".join("(" + ", ".join(literal(v) for v in row) + ")" for row in rows)
    return f"INSERT INTO {table} VALUES {body}"


def query_params(rng: random.Random) -> Dict[str, Dict[str, Any]]:
    return {
        "Q1": {"delta_days": rng.randint(60, 120)},
        "Q3": {"segment": rng.choice(SEGMENTS), "date": rng.randint(1000, 1300)},
        "Q5": {"region": rng.choice(REGIONS), "date": 365 * rng.randint(0, 5)},
        "Q6": {
            "date": 365 * rng.randint(0, 5),
            "discount": rng.choice([0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09]),
            "quantity": rng.randint(24, 25),
        },
        "Q10": {"date": rng.randint(100, 1100)},
        "Q12": {"date": 365 * rng.randint(0, 5)},
        "Q15": {"date": rng.randint(0, 2300)},
        "QSORT": {"date": rng.randint(0, 2000)},
    }


def refresh_rows(rng: random.Random, first_key: int, counts: Dict[str, int]):
    """New orders and lineitems for RF1, drawn like the generator draws them."""
    orders, lines = [], []
    for key in range(first_key, first_key + NEW_ORDERS):
        date = rng.randrange(0, 2557 - 151)
        orders.append(
            (key, rng.randrange(counts["customer"]), rng.choice(["O", "F", "P"]),
             round(rng.uniform(800.0, 450000.0), 2), date, rng.choice(PRIORITIES))
        )
        for number in range(1, rng.randint(1, 7) + 1):
            quantity = float(rng.randint(1, 50))
            ship = min(date + rng.randint(1, 121), 2557)
            lines.append(
                (key, rng.randrange(counts["part"]), rng.randrange(counts["supplier"]),
                 number, quantity, round(quantity * rng.uniform(900.0, 1100.0), 2),
                 rng.choice([0.0, 0.02, 0.04, 0.06, 0.08, 0.1]), round(rng.uniform(0.0, 0.08), 2),
                 rng.choice(["R", "A", "N"]) if ship < 1200 else "N",
                 "O" if ship > 1100 else "F", ship)
            )
    return orders, lines


def iter_rounds(seed: int, counts: Dict[str, int]) -> Iterator[dict]:
    """The statements of each round; round ``r`` is the same for every run
    with this seed, whatever the run's length."""
    from repro.workloads.tpch import TPCH_QUERIES

    rng = random.Random(seed * 7919 + 1)
    for r in itertools.count():
        orders, lines = refresh_rows(rng, counts["orders"] + r * NEW_ORDERS, counts)
        params = query_params(rng)
        low, high = r * NEW_ORDERS, (r + 1) * NEW_ORDERS
        statements: List[Tuple[str, str]] = [
            ("RF1.orders", values_sql("orders", orders)),
            ("RF1.lineitem", values_sql("lineitem", lines)),
        ]
        statements += [(name, TPCH_QUERIES[name](**params[name])) for name in QUERY_NAMES]
        statements += [
            ("RF2.orders", f"DELETE FROM orders WHERE o_orderkey >= {low} AND o_orderkey < {high}"),
            ("RF2.lineitem", f"DELETE FROM lineitem WHERE l_orderkey >= {low} AND l_orderkey < {high}"),
            ("RF2.count", "SELECT COUNT(*) FROM orders"),
        ]
        yield {"statements": statements, "new": (len(orders), len(lines)), "range": (low, high)}


class SqliteTpch:
    """Duck-typed ``Database`` so ``load_tpch`` fills sqlite3 with the same rows."""

    def __init__(self):
        self.con = sqlite3.connect(":memory:")
        self.lines_per_order: Counter = Counter()

    def execute(self, sql: str):
        self.con.execute(sql)

    def insert_rows(self, table: str, rows) -> int:
        rows = list(rows)
        if table == "lineitem":
            self.lines_per_order.update(row[0] for row in rows)
        marks = ", ".join("?" * len(rows[0]))
        self.con.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)
        return len(rows)

    def analyze(self) -> None:
        pass

    def table(self, name: str):
        count = self.con.execute(f"SELECT COUNT(*) FROM {name}").fetchone()[0]
        return type("TableCount", (), {"row_count": count})()

    def query(self, sql: str) -> List[tuple]:
        return self.con.execute(sql).fetchall()


def reference_check(seed: int, observed: List[dict], mismatches: List[str]) -> None:
    """Replay every round on sqlite3 and compare results and row counts."""
    from repro.workloads.tpch import load_tpch, tpch_row_counts

    ref = SqliteTpch()
    load_tpch(ref, SCALE_FACTOR, seed=seed)
    counts = tpch_row_counts(SCALE_FACTOR)
    want = {"orders": counts["orders"], "lineitem": counts["lineitem"]}
    deleted = set()
    for r, (spec, got) in enumerate(zip(iter_rounds(seed, counts), observed)):
        new_orders, new_lines = spec["new"]
        want = {"orders": want["orders"] + new_orders, "lineitem": want["lineitem"] + new_lines}
        checks.expect_equal(f"round {r} row counts after RF1", got["after_rf1"], want, mismatches)
        low, high = spec["range"]
        gone = [k for k in range(low, min(high, counts["orders"])) if k not in deleted]
        deleted.update(gone)
        want = {
            "orders": want["orders"] - len(gone),
            "lineitem": want["lineitem"] - sum(ref.lines_per_order[k] for k in gone),
        }
        checks.expect_equal(f"round {r} row counts after RF2", got["after_rf2"], want, mismatches)
        for name, sql in spec["statements"]:
            if name in ORDER_KEYS:
                ordered = name in TOTAL_ORDER
                reference = checks.summarize(ref.query(sql), ordered)
                checks.compare_result(
                    f"round {r} {name}", got["results"][name], reference, ordered, mismatches
                )
            else:
                ref.con.execute(sql)


def run(seed: int, seconds: float, tracer: Optional[Tracer], started: float) -> dict:
    from repro.core.database import Database
    from repro.workloads import tpch

    db = Database()
    tpch.load_tpch(db, SCALE_FACTOR, seed=seed)
    counts = tpch.tpch_row_counts(SCALE_FACTOR)
    setup_s = now() - started

    if tracer:
        tracer.phase = "run"
    before = layers.engine_counters(db)
    latencies: List[float] = []
    observed: List[dict] = []
    mismatches: List[str] = []
    attempted = failed = 0
    round_seconds: List[float] = []
    begin = now()
    deadline = begin + seconds
    for spec in iter_rounds(seed, counts):
        round_begin = now()
        seen: Dict[str, Any] = {"results": {}}
        for name, sql in spec["statements"]:
            attempted += 1
            t0 = now()
            try:
                with tracer.op(name) if tracer else nullcontext():
                    result = db.execute(sql)
            except Exception as exc:  # counted; the reference check decides correctness
                failed += 1
                print(f"perfbench: {name} failed: {exc!r}", file=sys.stderr)
                continue
            finally:
                latencies.append(now() - t0)
            if name in ORDER_KEYS:
                checks.check_order(f"round {len(observed)} {name}", result.rows, ORDER_KEYS[name], mismatches)
                seen["results"][name] = checks.summarize(result.rows, name in TOTAL_ORDER)
            elif name == "RF1.lineitem":
                seen["after_rf1"] = {t: db.table(t).row_count for t in ("orders", "lineitem")}
            elif name == "RF2.lineitem":
                seen["after_rf2"] = {t: db.table(t).row_count for t in ("orders", "lineitem")}
        observed.append(seen)
        round_seconds.append(now() - round_begin)
        if now() >= deadline:
            break
    ops_per_s = round_throughput(STATEMENTS_PER_ROUND, round_seconds)
    deltas = layers.counter_delta(before, layers.engine_counters(db))
    retained = len(db.wal.records())
    rss = peak_rss_mb()

    if tracer:
        tracer.phase = "verify"
    reference_check(seed, observed, mismatches)
    db.close()

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
