"""Each correctness check accepts the program's real output and rejects a
corrupted one."""

import shutil

import checks
import oltp_embedded
import tpch_power
import tracing
from repro.core.database import Database
from repro.workloads.tpch import TPCH_QUERIES, load_tpch

SF = 0.02


def _q1():
    return TPCH_QUERIES["Q1"]()


def test_sqlite_reference_agrees_and_a_perturbed_row_is_rejected():
    db = Database()
    load_tpch(db, SF, seed=3)
    ref = tpch_power.SqliteTpch()
    load_tpch(ref, SF, seed=3)
    got = checks.summarize(db.execute(_q1()).rows, True)
    clean = []
    checks.compare_result("Q1", got, checks.summarize(ref.query(_q1()), True), True, clean)
    assert clean == []
    ref.con.execute(
        "UPDATE lineitem SET l_quantity = l_quantity + 1 "
        "WHERE rowid = (SELECT MIN(rowid) FROM lineitem WHERE l_shipdate <= 2000)"
    )
    perturbed = []
    checks.compare_result("Q1", got, checks.summarize(ref.query(_q1()), True), True, perturbed)
    assert perturbed and "Q1" in perturbed[0]


def test_total_order_results_match_sqlite_row_for_row():
    db = Database()
    load_tpch(db, SF, seed=3)
    ref = tpch_power.SqliteTpch()
    load_tpch(ref, SF, seed=3)
    for name in tpch_power.TOTAL_ORDER & set(TPCH_QUERIES):
        sql = TPCH_QUERIES[name]()
        problems = []
        checks.compare_result(name, db.execute(sql).rows, ref.query(sql), True, problems)
        assert problems == [], problems


def test_swapped_tie_is_rejected_only_where_the_order_is_total():
    # Two rows tied on the first sort key, swapped: a multiset comparison
    # must accept them, an in-order one must not.
    want = [(5, 1, 30.0), (6, 2, 30.0), (7, 1, 20.0)]
    got = [want[1], want[0], want[2]]
    ties, total = [], []
    checks.compare_result("Q10", got, want, False, ties)
    checks.compare_result("QSORT", got, want, True, total)
    assert ties == [] and total and "row 0" in total[0]


def test_digest_keeps_row_order_only_where_the_order_is_total():
    rows = [(i, float(i % 50)) for i in range(300)]
    reordered = rows[1:] + rows[:1]
    same, bad, changed_bad = [], [], []
    checks.compare_result(
        "Q", checks.summarize(reordered, False), checks.summarize(rows, False), False, same
    )
    checks.compare_result(
        "QSORT", checks.summarize(reordered, True), checks.summarize(rows, True), True, bad
    )
    changed = list(rows)
    changed[7] = (7, 99.0)
    checks.compare_result(
        "Q", checks.summarize(changed, False), checks.summarize(rows, False), False, changed_bad
    )
    assert same == [] and bad and changed_bad


def test_order_check_rejects_out_of_order_rows():
    ok, bad = [], []
    checks.check_order("Q", [(3, 1.0), (2, 1.0), (2, 0.5)], [(0, True), (1, True)], ok)
    checks.check_order("Q", [(2, 1.0), (3, 1.0)], [(0, True)], bad)
    assert ok == [] and bad


def _kv(rows=50):
    db = Database()
    db.execute("CREATE TABLE kv (k INTEGER NOT NULL, val INTEGER, pad TEXT)")
    db.insert_rows("kv", [(k, k % 3, oltp_embedded.pad_for(k)) for k in range(rows)])
    return db, {k: k % 3 for k in range(rows)}


def test_model_value_off_by_one_is_rejected():
    db, model = _kv()
    rows = db.execute("SELECT COUNT(*), SUM(val) FROM kv").rows
    clean = []
    checks.check_totals(rows, model, clean)
    assert clean == []
    model[7] += 1
    bad = []
    checks.check_totals(rows, model, bad)
    assert bad
    point = []
    checks.expect_equal("SELECT k=7", db.execute("SELECT val FROM kv WHERE k = 7").rows, [(model[7],)], point)
    assert point


def test_server_statement_count_off_by_one_is_rejected():
    stats = {"statements": 120, "protocol_errors": 0, "refused": 0}
    clean, bad = [], []
    checks.check_server_stats(stats, 120, clean)
    checks.check_server_stats(stats, 121, bad)
    assert clean == [] and bad
    errors = []
    checks.check_server_stats({**stats, "protocol_errors": 1}, 120, errors)
    assert errors


def test_recovered_copy_missing_a_row_is_rejected(tmp_path):
    path = tmp_path / "kv.db"
    db = Database(path=str(path), durability="commit")
    db.execute("CREATE TABLE kv (k INTEGER NOT NULL, val INTEGER, pad TEXT)")
    model = {}
    for k in range(30):
        db.execute("INSERT INTO kv VALUES (?, ?, ?)", params=(k, 0, oltp_embedded.pad_for(k)))
        model[k] = 0
    db.execute("UPDATE kv SET val = val + 1 WHERE k = ?", params=(4,))
    model[4] = 1
    copy = tmp_path / "copy"
    copy.mkdir()
    for file in tmp_path.iterdir():
        if file.is_file():
            shutil.copy2(file, copy / file.name)
    db.close()
    recovered = Database(path=str(copy / "kv.db"), durability="commit")
    rows = recovered.execute("SELECT k, val, pad FROM kv").rows
    recovered.close()
    clean = []
    checks.check_recovered(rows, model, oltp_embedded.pad_for, clean)
    assert clean == []
    bad = []
    checks.check_recovered([r for r in rows if r[0] != 11], model, oltp_embedded.pad_for, bad)
    assert bad and "missing" in bad[0]


def test_nesting_check_rejects_children_longer_than_their_parent():
    spans = [(1, 1, None, "op", 0.0, 1.0), (1, 2, 1, "a", 0.1, 0.6), (1, 3, 1, "b", 0.6, 0.9)]
    clean, bad = [], []
    checks.check_nesting(spans, clean)
    checks.check_nesting(spans + [(1, 4, 1, "c", 0.0, 0.5)], bad)
    assert clean == [] and bad


def test_self_time_excludes_children_and_absent_hooks_are_named():
    tracer = tracing.Tracer()
    tracer.phase = "run"
    patcher = tracing.Patcher(tracer)
    assert not patcher.spans("gone.layer", "repro.core.database:Database.no_such_method")
    assert "gone.layer" in tracer.absent
    with tracer.op():
        outer = tracer.begin("outer")
        inner = tracer.begin("inner")
        tracer.end(inner)
        tracer.end(outer)
    assert tracer.get_self("outer") <= tracer.get_total("outer") - tracer.get_total("inner") + 1e-9
    problems = []
    checks.check_nesting(tracer.spans, problems)
    assert problems == []
