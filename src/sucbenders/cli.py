"""Command-line entry point: solve one method or compare several.

Exit codes: 0 on convergence, 2 when the iteration limit is hit, 1 on input
or solver errors.  Reports are versioned JSON; traces are JSON-lines, one
object per Benders iteration.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import click

from .backend import BackendError, SolveStatus, solve_milp
from .cuts import CutMode
from .data import InstanceError, load_instance, load_scenarios
from .engine import BendersConfig, EngineError, RunStatus, phase_totals, run
from .formulations import (ModelBuildError, SubproblemInfeasibleError,
                           build_extensive)
from .outer import OuterError, check_subsets, run_outer

REPORT_SCHEMA_VERSION = 1

# failures that end a command with "error: ..." and exit code 1
_ERRORS = (InstanceError, OSError, ValueError, EngineError, OuterError,
           SubproblemInfeasibleError, ModelBuildError, BackendError)

METHODS = ("extensive", "single-cut", "multi-cut", "aggregated",
           "aggregated+consolidation", "outer")

# each Benders method as overrides of the BendersConfig built from the options
_METHOD_CONFIG = {
    "single-cut": {"mode": CutMode.SINGLE},
    "multi-cut": {"mode": CutMode.MULTI},
    "aggregated": {"mode": CutMode.AGGREGATED},
    "aggregated+consolidation": {"mode": CutMode.AGGREGATED, "consolidate": True},
}


@dataclass
class RunReport:
    method: str
    instance: str
    converged: bool
    objective: float | None
    wall_time: float
    iterations: int
    master_rows: int
    config: dict
    trace_path: str | None = None
    extra: dict | None = None

    def to_dict(self) -> dict:
        doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "method": self.method,
            "instance": self.instance,
            "converged": self.converged,
            "objective": self.objective,
            "wall_time_s": self.wall_time,
            "iterations": self.iterations,
            "master_rows": self.master_rows,
            "config": self.config,
            "trace_path": self.trace_path,
        }
        if self.extra:
            doc.update(self.extra)
        return doc


def _config_from_options(opts: dict) -> BendersConfig:
    return BendersConfig(
        eps=opts["eps"], mip_gap=opts["mip_gap"], theta_min=opts["theta_min"],
        max_iters=opts["max_iters"], alpha=opts["alpha"], zeta=opts["zeta"],
        rho=opts["rho"], kappa=opts["kappa"],
        clustering_method=opts["clustering"], attribute=opts["attribute"],
    )


def execute_method(method: str, instance, scenarios, opts: dict,
                   trace_sink=None) -> RunReport:
    config = _config_from_options(opts)
    config.validate(scenarios.n_scenarios)    # every method, extensive too
    if opts["workers"] < 1:                   # outer's concurrent subsets
        raise ValueError("workers must be >= 1")
    cfg_echo = {k: opts[k] for k in
                ("eps", "mip_gap", "theta_min", "zeta", "rho", "alpha", "kappa",
                 "clustering", "attribute", "subsets", "gamma", "workers",
                 "max_iters")}
    if method == "extensive":
        t0 = time.perf_counter()
        model = build_extensive(instance, scenarios)
        res = solve_milp(model, mip_gap=opts["mip_gap"])
        if res.status is not SolveStatus.OPTIMAL:
            raise InstanceError(f"extensive solve returned {res.status.value}")
        return RunReport("extensive", instance.name, True, res.objective,
                         time.perf_counter() - t0, 1, res.row_count, cfg_echo)
    if method == "outer":
        # timed around the call, as the extensive form is: T1 is the
        # slowest subset's time, so T1 + T2 misses the subset formation and
        # any subsets that ran one after another
        t0 = time.perf_counter()
        result = run_outer(instance, scenarios, config, opts["subsets"],
                           gamma=opts["gamma"], workers=opts["workers"],
                           trace=trace_sink)
        wall_time = time.perf_counter() - t0
        # pass 2's run, if it ran (a subset that hits the iteration limit
        # ends the scheme before it)
        sol = result.solution
        return RunReport("outer", instance.name, result.converged,
                         sol.objective if sol else None, wall_time,
                         sol.iterations if sol else 0,
                         result.max_rows, cfg_echo,
                         extra={**result.summary(instance),
                                "phases": phase_totals(sol.state.history if sol else [])})
    if method not in _METHOD_CONFIG:
        raise InstanceError(f"unknown method {method!r}")
    sol = run(instance, scenarios, replace(config, **_METHOD_CONFIG[method]),
              trace=trace_sink)
    return RunReport(method, instance.name, sol.status is RunStatus.CONVERGED,
                     sol.objective, sol.wall_time, sol.iterations,
                     sol.final_master_rows, cfg_echo,
                     extra={"phases": phase_totals(sol.state.history)})


def emit_comparison_table(reports: list, eps: float) -> tuple[str, dict]:
    """Aligned text table plus machine-readable JSON; flags objective
    disagreement beyond 2*eps relative."""
    if len(reports) < 2:
        raise InstanceError("comparison needs at least 2 reports")
    instances = {r.instance for r in reports}
    if len(instances) != 1:
        raise InstanceError(f"mixed-instance reports: {sorted(instances)}")
    objs = [r.objective for r in reports if r.objective is not None]
    disagreement = any(abs(o - objs[0]) > 2 * eps * max(1.0, abs(objs[0]))
                       for o in objs)
    header = f"{'Method':28s} {'Exp. Cost [$]':>16s} {'Time [s]':>10s} {'# of rows':>10s}"
    lines = [header, "-" * len(header)]
    for r in reports:
        obj = f"{r.objective:.2f}" if r.objective is not None else "n/a"
        lines.append(f"{r.method:28s} {obj:>16s} {r.wall_time:>10.2f} "
                     f"{r.master_rows:>10d}")
    if disagreement:
        lines.append("WARNING: objective disagreement beyond 2*eps")
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "instance": reports[0].instance,
        "disagreement": disagreement,
        "reports": [r.to_dict() for r in reports],
    }
    return "\n".join(lines), doc


def _common_options(f):
    opts = [
        # existence is checked by the loaders so a missing file exits 1
        # (input error), not 2 (click usage error / iteration limit)
        click.option("--instance", "instance_path", required=True,
                     type=click.Path(dir_okay=False)),
        click.option("--scenarios", "scenarios_path", required=True,
                     type=click.Path(dir_okay=False)),
        click.option("--eps", type=float, default=1e-6, show_default=True),
        click.option("--mip-gap", type=float, default=1e-6, show_default=True),
        click.option("--theta-min", type=float, default=None),
        click.option("--zeta", type=float, default=0.75, show_default=True),
        click.option("--rho", type=int, default=5, show_default=True),
        click.option("--alpha", type=float, default=0.01, show_default=True),
        click.option("--kappa", type=int, default=5, show_default=True),
        click.option("--clustering", type=click.Choice(["hierarchical", "kmeans"]),
                     default="hierarchical", show_default=True),
        click.option("--attribute", type=click.Choice(["duals", "objective", "wind"]),
                     default="duals", show_default=True),
        click.option("--subsets", type=int, default=2, show_default=True),
        click.option("--gamma", type=float, default=1.0, show_default=True),
        click.option("--workers", type=int, default=1, show_default=True),
        click.option("--trace", "trace_path", type=click.Path(dir_okay=False),
                     default=None),
        click.option("--report", "report_path", type=click.Path(dir_okay=False),
                     default=None),
        click.option("--max-iters", type=int, default=500, show_default=True),
    ]
    for opt in reversed(opts):
        f = opt(f)
    return f


@click.group()
def main():
    """Benders decomposition solvers for stochastic unit commitment."""


def _load(opts):
    instance = load_instance(opts["instance_path"])
    scenarios = load_scenarios(opts["scenarios_path"], instance)
    return instance, scenarios


@contextmanager
def _stdout_to_stderr():
    """Point file descriptor 1 at stderr for the duration, so that output
    written straight to it (HiGHS has a raw print that no option silences)
    cannot mix into the report on stdout."""
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)


def _trace_sink(path):
    if path is None:
        return None, None
    fh = open(path, "w")
    return fh, lambda line: (fh.write(line + "\n"), fh.flush())


@main.command()
@_common_options
@click.option("--method", type=click.Choice(METHODS), required=True)
def solve(method, **opts):
    """Solve the instance with one method and write a report."""
    try:
        instance, scenarios = _load(opts)
        fh, sink = _trace_sink(opts["trace_path"])
        try:
            with _stdout_to_stderr():
                report = execute_method(method, instance, scenarios, opts, sink)
        finally:
            if fh:
                fh.close()
        report.trace_path = opts["trace_path"]
        doc = report.to_dict()
        if opts["report_path"]:
            with open(opts["report_path"], "w") as out:
                json.dump(doc, out, indent=1)
        click.echo(json.dumps(doc))
    except _ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    sys.exit(0 if report.converged else 2)


@main.command()
@_common_options
@click.option("--methods", default="all", show_default=True,
              help="comma-separated method list, or 'all'")
def compare(methods, **opts):
    """Run several methods on one instance and tabulate the results."""
    names = METHODS if methods == "all" else tuple(m.strip() for m in methods.split(","))
    unknown = [m for m in names if m not in METHODS]
    try:
        if unknown:
            raise InstanceError(f"unknown methods: {unknown}")
        instance, scenarios = _load(opts)
        if "outer" in names:    # before any method runs
            check_subsets(opts["subsets"], opts["gamma"], scenarios.n_scenarios)
        with _stdout_to_stderr():
            reports = [execute_method(m, instance, scenarios, opts) for m in names]
        table, doc = emit_comparison_table(reports, opts["eps"])
        if opts["report_path"]:
            with open(opts["report_path"], "w") as out:
                json.dump(doc, out, indent=1)
        click.echo(table)
    except _ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    sys.exit(0 if all(r.converged for r in reports) else 2)
