"""Shared fixtures: bundled instances and scenario sets, loaded once."""

import json
import re
import sys
from pathlib import Path

import pytest

from sucbenders.data import load_instance, load_scenarios

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            m = _CRITERION.search(getattr(rep, "nodeid", ""))
            if m:
                rows.append((int(m.group(1)), m.group(2), outcome))
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num, name, outcome in sorted(rows):
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(
            f"criterion {num:2d} ({name.replace('_', ' ')}): {verdict}")

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "sucbenders" / "fixtures"
# the benchmark's scenario generator (bench/scengen.py) feeds the bunching tests
sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "bench"))


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / name


def untimed_records(sol) -> list[dict]:
    """A run's trace records without their timings, which differ between
    runs of the same iterates."""
    return [{k: v for k, v in json.loads(r.trace_line()).items()
             if not k.endswith("_time_s")} for r in sol.state.history]


@pytest.fixture(scope="session")
def toy_a():
    inst = load_instance(fixture_path("toy-a.json"))
    scen = load_scenarios(fixture_path("toy-a.csv"), inst)
    return inst, scen


@pytest.fixture(scope="session")
def med_b():
    inst = load_instance(fixture_path("med-b.json"))
    scen = load_scenarios(fixture_path("med-b.csv"), inst)
    return inst, scen
