"""CLI contract: exit codes, report schema, comparison table."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import sucbenders
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


# runs the CLI with a method runner that writes to file descriptor 1 directly,
# as a raw print inside the solver library does
NOISY_SOLVE = r"""
import os, sys
from sucbenders import cli
run_method = cli.execute_method
def noisy(*args, **kwargs):
    os.write(1, b"noise\n")
    return run_method(*args, **kwargs)
cli.execute_method = noisy
cli.main(sys.argv[1:])
"""


def test_solve_stdout_is_one_json_document_despite_raw_prints():
    src = str(Path(sucbenders.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NOISY_SOLVE, "solve", *TOY,
                           "--method", "multi-cut"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["method"] == "multi-cut"
    assert "noise" in proc.stderr


def test_solve_iteration_limit_exits_two():
    res = _invoke(["solve", *TOY, "--method", "single-cut", "--max-iters", "2"])
    assert res.exit_code == 2
    doc = json.loads(res.output.strip().splitlines()[-1])
    assert doc["converged"] is False
    assert doc["objective"] is None


@pytest.mark.parametrize("method, option, value", [
    ("multi-cut", "--eps", "nan"),          # would run to the iteration limit
    ("multi-cut", "--mip-gap", "-1"),       # HiGHS would keep its own gap
    ("multi-cut", "--mip-gap", "nan"),      # the report would echo a bare NaN
    ("extensive", "--mip-gap", "-1"),
    ("extensive", "--mip-gap", "nan"),
    ("extensive", "--eps", "nan"),          # the report would echo a bare NaN
])
def test_solve_bad_tolerance_exits_one(method, option, value):
    res = _invoke(["solve", *TOY, "--method", method, option, value])
    assert res.exit_code == 1
    assert "error:" in res.output


@pytest.mark.parametrize("option, value", [
    ("--max-iters", "0"),       # would exit 2 as an iteration limit
    ("--max-iters", "-5"),
    ("--workers", "-2"),        # would run one worker and echo -2
    ("--workers", "0"),
    ("--theta-min", "inf"),     # HiGHS would reject the master
    ("--theta-min", "nan"),
    ("--alpha", "nan"),         # the controller would never leave |Omega|
])
def test_solve_bad_run_option_exits_one_naming_it(option, value):
    res = _invoke(["solve", *TOY, "--method", "multi-cut", option, value])
    assert res.exit_code == 1
    assert f"error: {option[2:].replace('-', '_')} must be" in res.output


def test_consolidate_is_a_method_not_an_option():
    res = _invoke(["solve", *TOY, "--method", "aggregated", "--consolidate", "true"])
    assert res.exit_code == 2 and "No such option" in res.output


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


# edits of the toy-a instance, and the text that the error names
MALFORMED_INSTANCES = {
    "generator-without-energy-cost":
        (lambda d: d["generators"][0].pop("energy_cost"), "generators[0]", "energy_cost"),
    "line-without-capacity":
        (lambda d: d["lines"][0].pop("capacity"), "lines[0]", "capacity"),
    "load-without-mw": (lambda d: d["load"][0].pop("mw"), "load[0]", "mw"),
    "farm-without-node":
        (lambda d: d["wind_farms"][0].pop("node"), "wind_farms[0]", "node"),
    "null-field":
        (lambda d: d["generators"][1].update(p_max=None), "generators[1]", "p_max"),
    "list-valued-field":
        (lambda d: d["generators"][0].update(p_min=[1]), "generators[0]", "p_min"),
    "generator-not-an-object":
        (lambda d: d.update(generators=[1]), "generators[0]", "object"),
    "meta-not-an-object": (lambda d: d.update(meta=[]), "meta", "object"),
    "generators-not-a-list":
        (lambda d: d.update(generators=3), "generators", "list"),
    # JSON's NaN and Infinity, which json.load reads
    "nan-line-capacity":
        (lambda d: d["lines"][0].update(capacity=float("nan")), "lines[0]", "capacity"),
    "nan-line-susceptance":
        (lambda d: d["lines"][0].update(susceptance=float("nan")), "lines[0]",
         "susceptance"),
    "infinite-cost":
        (lambda d: d["generators"][0].update(energy_cost=float("inf")), "generators[0]",
         "energy_cost"),
    "infinite-integer-field":
        (lambda d: d["generators"][0].update(min_up=float("inf")), "generators[0]",
         "min_up"),
    "nan-load": (lambda d: d["load"][0].update(mw=float("nan")), "load[0]", "mw"),
    # integer fields take integral numbers only, never truncated or a bool
    "fractional-min-up":
        (lambda d: d["generators"][0].update(min_up=2.7), "generators[0]", "min_up"),
    "boolean-init-status":
        (lambda d: d["generators"][1].update(init_status=True), "generators[1]",
         "init_status"),
    "fractional-horizon": (lambda d: d["meta"].update(horizon=4.5), "meta", "horizon"),
    "fractional-load-period":
        (lambda d: d["load"][0].update(period=1.5), "load[0]", "period"),
}


@pytest.mark.parametrize("name", MALFORMED_INSTANCES)
def test_solve_malformed_instance_field_exits_one(tmp_path, name):
    edit, record, field = MALFORMED_INSTANCES[name]
    doc = json.loads(fixture_path("toy-a.json").read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = _invoke(["solve", "--instance", str(bad),
                   "--scenarios", str(fixture_path("toy-a.csv")),
                   "--method", "extensive"])
    assert res.exit_code == 1
    assert "error:" in res.output and record in res.output and field in res.output


def test_solve_short_scenario_row_exits_one(tmp_path):
    lines = fixture_path("toy-a.csv").read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:2])     # its last two cells missing
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    res = _invoke(["solve", "--instance", str(fixture_path("toy-a.json")),
                   "--scenarios", str(bad), "--method", "extensive"])
    assert res.exit_code == 1
    assert "error:" in res.output and "line 4" in res.output


@pytest.mark.parametrize("method", ["extensive", "multi-cut", "outer"])
def test_solve_nan_probabilities_exit_one(tmp_path, method):
    # a NaN probability is not a missing one: the run must not go on as
    # equiprobable
    lines = fixture_path("toy-a.csv").read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([lines[0] + ",probability"]
                             + [line + ",nan" for line in lines[1:]]) + "\n")
    res = _invoke(["solve", "--instance", str(fixture_path("toy-a.json")),
                   "--scenarios", str(bad), "--method", method])
    assert res.exit_code == 1
    assert "error:" in res.output and "line 2" in res.output and "probability" in res.output


@pytest.mark.parametrize("column, value", [("value_mw", "nan"), ("value_mw", "inf"),
                                           ("value_mw", "-inf"), ("period", "x")])
def test_solve_bad_scenario_cell_exits_one_naming_its_line(tmp_path, column, value):
    lines = fixture_path("toy-a.csv").read_text().splitlines()
    cells = lines[5].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[5] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    res = _invoke(["solve", "--instance", str(fixture_path("toy-a.json")),
                   "--scenarios", str(bad), "--method", "extensive"])
    assert res.exit_code == 1
    assert "error:" in res.output and "line 6" in res.output and column in res.output


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


def test_trace_file_is_strict_json(tmp_path):
    # the LP phase has no upper bound yet; it must read null, not Infinity,
    # and its gap is the LP gap
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    trace = tmp_path / "trace.jsonl"
    res = _invoke(["solve", *TOY, "--method", "multi-cut", "--trace", str(trace)])
    assert res.exit_code == 0
    docs = [json.loads(line, parse_constant=reject)
            for line in trace.read_text().strip().splitlines()]
    assert docs[0]["phase"] == "lp" and docs[0]["ub"] is None and docs[0]["gap"] > 1e-6
    assert docs[-1]["phase"] == "milp" and docs[-1]["gap"] <= 1e-6


def test_outer_report_carries_t1_t2(tmp_path):
    report = tmp_path / "outer.json"
    res = _invoke(["solve", *TOY, "--method", "outer", "--subsets", "2",
                   "--gamma", "0.5", "--report", str(report)])
    assert res.exit_code == 0
    doc = json.loads(report.read_text())
    assert "T1" in doc and "T2" in doc and "fixed_count" in doc
    # the extras are OuterResult.summary's, and the wall time is measured
    # around the whole call: at one worker the subsets run in turn
    assert {"subsets", "free_count", "seeded_cuts"} <= set(doc)
    assert len(doc["subsets"]) == 2
    assert doc["wall_time_s"] >= sum(s["tau_s"] for s in doc["subsets"]) + doc["T2"]


PHASE_KEYS = {"iterations", "build_time_s", "master_time_s", "sub_time_s",
              "master_simplex_iters", "sub_simplex_iters", "sub_solves",
              "master_mip_nodes", "cuts_added", "cuts_removed"}


@pytest.mark.parametrize("method", ["aggregated+consolidation", "outer"])
def test_report_phases_total_the_trace(tmp_path, method):
    # per phase, the report sums the run's trace records: for outer, those
    # of the second pass, which carry no subset id
    trace = tmp_path / "trace.jsonl"
    res = _invoke(["solve", *TOY, "--method", method, "--trace", str(trace)])
    assert res.exit_code == 0
    doc = json.loads(res.output.strip().splitlines()[-1])
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    phases = doc["phases"]
    assert set(phases) == {"lp", "milp"}
    for phase, totals in phases.items():
        assert set(totals) == PHASE_KEYS
        own = [r for r in records if r["phase"] == phase and "subset_id" not in r]
        assert totals["iterations"] == len(own) > 0
        for key in PHASE_KEYS - {"iterations"}:
            assert totals[key] == pytest.approx(sum(r[key] for r in own), rel=1e-12)
    assert phases["lp"]["iterations"] + phases["milp"]["iterations"] == doc["iterations"]
    assert phases["lp"]["master_mip_nodes"] == 0 < phases["milp"]["master_mip_nodes"]
    assert phases["lp"]["sub_simplex_iters"] > 0
    if method == "aggregated+consolidation":
        # the master grows by the cut rows added less those merged away
        assert phases["lp"]["cuts_removed"] > 0
        assert records[-1]["master_rows"] - records[0]["master_rows"] == sum(
            totals["cuts_added"] - totals["cuts_removed"] for totals in phases.values())


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
