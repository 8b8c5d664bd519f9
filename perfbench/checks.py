"""Correctness checks: the program's outputs against references made apart
from it (a key -> value model, sqlite3, the generator's own arithmetic).

Each check appends a description of every disagreement to ``mismatches``;
a run with any mismatch reports ``"correct": false`` and exits non-zero.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Relative tolerance for floats computed by different summation orders.
REL_TOL = 1e-9
#: Absolute floor for floats that should be zero.
ABS_TOL = 1e-6
#: Results longer than this are kept as a digest, not row by row.
DIGEST_ABOVE = 200
#: Shown per check; the count of further mismatches is still recorded.
MAX_REPORTED = 20


def expect_equal(what: str, got: Any, want: Any, mismatches: List[str]) -> None:
    if got != want:
        mismatches.append(f"{what}: got {got!r}, want {want!r}")


def check_totals(rows: Sequence[Sequence[Any]], model: Dict[int, int], mismatches: List[str]) -> None:
    """``SELECT COUNT(*), SUM(val)`` against the model."""
    want = [(len(model), sum(model.values()))]
    expect_equal("final COUNT(*), SUM(val)", [tuple(r) for r in rows], want, mismatches)


def check_recovered(
    rows: Sequence[Sequence[Any]],
    model: Dict[int, int],
    pad_for: Callable[[int], str],
    mismatches: List[str],
) -> None:
    """A recovered copy must hold exactly the model: every acknowledged
    write, no row lost, none duplicated, none invented."""
    seen: Dict[int, int] = {}
    problems: List[str] = []
    for key, val, pad in rows:
        if key in seen:
            problems.append(f"recovered copy: key {key} appears twice")
        seen[key] = val
        if key not in model:
            problems.append(f"recovered copy: unexpected key {key}")
        elif val != model[key] or pad != pad_for(key):
            problems.append(f"recovered copy: key {key} val {val}, want {model[key]}")
    missing = [k for k in model if k not in seen]
    if missing:
        problems.append(f"recovered copy: {len(missing)} keys missing, e.g. {missing[:5]}")
    mismatches.extend(problems[:MAX_REPORTED])
    if len(problems) > MAX_REPORTED:
        mismatches.append(f"recovered copy: {len(problems) - MAX_REPORTED} more")


# ---------------------------------------------------------------------------
# Query results (tpch_power)
# ---------------------------------------------------------------------------


def _canonical(value: Any) -> Any:
    if isinstance(value, float):
        return round(value, 6)
    return value


def digest(rows: Sequence[Sequence[Any]], ordered: bool) -> Tuple[int, str]:
    """Digest of a large result whose values are stored data (not sums), so
    rounding to six decimals makes both sides agree.  Rows are hashed in
    result order when ``ordered``, else after a canonical sort."""
    canon = [tuple(_canonical(v) for v in row) for row in rows]
    if not ordered:
        canon.sort()
    h = hashlib.sha256()
    for row in canon:
        h.update(repr(row).encode())
    return len(rows), h.hexdigest()


def summarize(rows: Sequence[Sequence[Any]], ordered: bool) -> Any:
    """What a run keeps of one result: the rows, or a digest when long."""
    rows = [tuple(r) for r in rows]
    return digest(rows, ordered) if len(rows) > DIGEST_ABOVE else rows


def _close(a: Any, b: Any) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return False
        return math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def _rows_close(a: Sequence[Any], b: Sequence[Any]) -> bool:
    return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))


def _sort_key(row: Sequence[Any]) -> Tuple:
    return tuple((v is None, _canonical(v) if v is not None else 0) for v in row)


def compare_result(what: str, got: Any, want: Any, ordered: bool, mismatches: List[str]) -> None:
    """Compare one query result with its reference, floats within ``REL_TOL``.

    With ``ordered`` (the query's ``ORDER BY`` fixes the whole row
    sequence) the rows are compared in order; otherwise as a multiset,
    after a canonical sort, so ties that ``ORDER BY`` leaves open may come
    in any order, and the order itself is checked by :func:`check_order`."""
    if isinstance(got, tuple) or isinstance(want, tuple):
        if got != want:
            mismatches.append(f"{what}: digest {got} != reference {want}")
        return
    if len(got) != len(want):
        mismatches.append(f"{what}: {len(got)} rows, reference has {len(want)}")
        return
    if not ordered:
        got, want = sorted(got, key=_sort_key), sorted(want, key=_sort_key)
    for index, (g, w) in enumerate(zip(got, want)):
        if not _rows_close(g, w):
            mismatches.append(f"{what}: row {index} {g!r} != reference {w!r}")
            return


def check_order(
    what: str,
    rows: Sequence[Sequence[Any]],
    keys: Sequence[Tuple[int, bool]],
    mismatches: List[str],
) -> None:
    """Rows must be non-decreasing under ``keys`` ((column, descending) pairs);
    floats that differ by less than the tolerance count as ties."""
    for prev, row in zip(rows, rows[1:]):
        for column, descending in keys:
            a, b = prev[column], row[column]
            if _close(a, b):
                continue
            if (a > b) != descending:
                mismatches.append(f"{what}: rows out of order at {prev!r} -> {row!r}")
                return
            break


# ---------------------------------------------------------------------------
# Server (oltp_wire)
# ---------------------------------------------------------------------------


def check_server_stats(stats: Dict[str, Any], sent: int, mismatches: List[str]) -> None:
    """The server executed exactly the statements sent, with no protocol
    errors and no refused connections."""
    expect_equal("server statements", stats.get("statements"), sent, mismatches)
    expect_equal("server protocol_errors", stats.get("protocol_errors"), 0, mismatches)
    expect_equal("server refused", stats.get("refused"), 0, mismatches)


def check_nesting(spans: Sequence[Sequence[Any]], mismatches: List[str]) -> None:
    """For spans nested on one thread, children never cover more than their
    parent: the sum of child durations is at most the parent's duration."""
    duration = {span[1]: span[5] - span[4] for span in spans}
    children: Dict[int, float] = Counter()
    for span in spans:
        parent = span[2]
        if parent is not None and parent in duration:
            children[parent] += span[5] - span[4]
    for parent, covered in children.items():
        if covered > duration[parent] + 1e-9:
            mismatches.append(
                f"trace: children of span {parent} cover {covered:.6f}s "
                f"> parent {duration[parent]:.6f}s"
            )
            return
