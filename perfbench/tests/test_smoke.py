"""Smoke sizes of all three workloads, untraced and traced, in-process.

The module constants are shrunk for the test only; the benchmark itself
has no size option."""

import layers
import oltp_embedded
import oltp_wire
import pytest
import run
import tpch_power


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(oltp_embedded, "ROWS", 600)
    monkeypatch.setattr(oltp_embedded, "PAD", 40)
    monkeypatch.setattr(oltp_embedded, "SELECTS", 8)
    monkeypatch.setattr(oltp_embedded, "UPDATES", 6)
    monkeypatch.setattr(oltp_embedded, "INSERTS", 2)
    monkeypatch.setattr(oltp_wire, "ROWS", 400)
    monkeypatch.setattr(oltp_wire, "LOAD_CHUNK", 200)
    monkeypatch.setattr(oltp_wire, "SELECTS", 8)
    monkeypatch.setattr(oltp_wire, "UPDATES", 6)
    monkeypatch.setattr(oltp_wire, "INSERTS", 2)
    monkeypatch.setattr(tpch_power, "SCALE_FACTOR", 0.02)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_correctly(small, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.3", "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()[-1]
    import json

    result = json.loads(out)
    assert code == 0, result
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = [name for name, _ in layers.PER_LAYER] if trace else list(run.E2E_UNITS)
    assert list(result["metrics"]) == expected
    assert all(m["value"] >= 0 for m in result["metrics"].values())


def test_missing_program_exits_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    import common

    monkeypatch.setattr(common, "SRC", tmp_path / "src")
    assert run.main(["--workload", "oltp_embedded"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_emitted_metrics():
    import json

    from common import ROOT

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in config["end_to_end"]] == list(run.E2E_UNITS)
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOADS)
