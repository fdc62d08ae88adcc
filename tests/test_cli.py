"""CLI contract: exit codes, report schema, comparison table."""

import json

import pytest
from click.testing import CliRunner

from sucbenders.cli import (REPORT_SCHEMA_VERSION, RunReport,
                            emit_comparison_table, main)
from sucbenders.data import InstanceError
from conftest import fixture_path

TOY = [
    "--instance", str(fixture_path("toy-a.json")),
    "--scenarios", str(fixture_path("toy-a.csv")),
]

REPORT_KEYS = {
    "schema_version", "method", "instance", "converged", "objective",
    "wall_time_s", "iterations", "master_rows", "config", "trace_path",
}


def _invoke(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def test_solve_multi_cut_exits_zero(tmp_path):
    report = tmp_path / "report.json"
    res = _invoke(["solve", *TOY, "--method", "multi-cut",
                   "--report", str(report)])
    assert res.exit_code == 0
    doc = json.loads(report.read_text())
    assert doc["method"] == "multi-cut"
    assert doc["converged"] is True
    assert doc["schema_version"] == REPORT_SCHEMA_VERSION
    assert REPORT_KEYS <= set(doc)
    assert doc["master_rows"] > 0


def test_solve_iteration_limit_exits_two():
    res = _invoke(["solve", *TOY, "--method", "single-cut", "--max-iters", "2"])
    assert res.exit_code == 2
    doc = json.loads(res.output.strip().splitlines()[-1])
    assert doc["converged"] is False
    assert doc["objective"] is None


def test_solve_missing_file_exits_one(tmp_path):
    res = _invoke(["solve", "--instance", str(fixture_path("toy-a.json")),
                   "--scenarios", str(tmp_path / "nope.csv"),
                   "--method", "multi-cut"])
    assert res.exit_code != 0


def test_solve_malformed_instance_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = _invoke(["solve", "--instance", str(bad),
                   "--scenarios", str(fixture_path("toy-a.csv")),
                   "--method", "multi-cut"])
    assert res.exit_code == 1
    assert "error:" in res.output


def test_trace_file_is_json_lines(tmp_path):
    trace = tmp_path / "trace.jsonl"
    res = _invoke(["solve", *TOY, "--method", "aggregated",
                   "--trace", str(trace)])
    assert res.exit_code == 0
    lines = trace.read_text().strip().splitlines()
    assert lines
    for line in lines:
        doc = json.loads(line)
        assert {"iter", "lb", "ub", "gap"} <= set(doc)


def test_outer_report_carries_t1_t2(tmp_path):
    report = tmp_path / "outer.json"
    res = _invoke(["solve", *TOY, "--method", "outer", "--subsets", "2",
                   "--gamma", "0.5", "--report", str(report)])
    assert res.exit_code == 0
    doc = json.loads(report.read_text())
    assert "T1" in doc and "T2" in doc and "fixed_count" in doc


def test_compare_subset_of_methods(tmp_path):
    report = tmp_path / "cmp.json"
    res = _invoke(["compare", *TOY, "--methods", "extensive,multi-cut",
                   "--report", str(report)])
    assert res.exit_code == 0
    assert "Method" in res.output and "Exp. Cost" in res.output
    assert "WARNING" not in res.output
    doc = json.loads(report.read_text())
    assert doc["disagreement"] is False
    assert len(doc["reports"]) == 2


def test_solve_outer_subset_count_out_of_range_exits_one():
    # toy-a has 3 scenarios, so 5 subsets cannot be formed
    res = _invoke(["solve", *TOY, "--method", "outer", "--subsets", "5"])
    assert res.exit_code == 1
    assert "error:" in res.output and "subset count" in res.output


def test_compare_without_a_converged_objective_exits_two(tmp_path):
    report = tmp_path / "cmp.json"
    res = _invoke(["compare", *TOY, "--methods", "single-cut,multi-cut",
                   "--max-iters", "1", "--report", str(report)])
    assert res.exit_code == 2
    assert res.output.count("n/a") == 2
    assert json.loads(report.read_text())["disagreement"] is False


def test_compare_unknown_method_exits_one():
    res = _invoke(["compare", *TOY, "--methods", "magic"])
    assert res.exit_code == 1
    assert "unknown methods" in res.output


def _report(method="multi-cut", objective=100.0, instance="toy-a"):
    return RunReport(method, instance, True, objective, 1.0, 5, 80, {})


def test_comparison_table_flags_disagreement():
    eps = 1e-6
    agree, doc = emit_comparison_table(
        [_report("single-cut"), _report("multi-cut")], eps)
    assert "WARNING" not in agree
    assert doc["disagreement"] is False
    bad, doc = emit_comparison_table(
        [_report("single-cut"), _report("multi-cut", objective=100.0 + 10 * eps * 100)],
        eps)
    assert "WARNING" in bad
    assert doc["disagreement"] is True


def test_comparison_table_without_objectives_reports_no_disagreement():
    table, doc = emit_comparison_table(
        [_report("single-cut", objective=None), _report(objective=None)], 1e-6)
    assert "WARNING" not in table and table.count("n/a") == 2
    assert doc["disagreement"] is False


def test_comparison_table_rejects_short_or_mixed_input():
    with pytest.raises(InstanceError):
        emit_comparison_table([_report()], 1e-6)
    with pytest.raises(InstanceError):
        emit_comparison_table([_report(), _report(instance="other")], 1e-6)
