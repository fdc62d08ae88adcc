"""Benders iteration driver: master solve, bunched subproblems, bounds,
convergence, and cut-pool updates.

Per iteration: solve the master, read the lower bound and the candidate
first-stage point, solve all scenario subproblems in bunches that share an
optimal basis (``solve_subproblems``), update the upper bound, test
convergence, then add one pi-weighted aggregate cut per cluster of
scenarios.  Every cut mode solves one master, with one theta per
scenario, and makes its cuts in this one step: a mode decides only the
cluster count (``BendersConfig.pinned_clusters``), and at 1 and at |Omega|
clusters no clustering runs.  So single-cut and multi-cut runs are the
aggregated runs pinned at 1 and at |Omega| clusters, cut for cut.

A run has two phases on one cut pool (McDaniel & Devine 1977).  The LP
phase solves the master with its integrality relaxed: its optimum is a
lower bound, cuts are taken at the LP point, and no upper bound is taken
from a fractional point; it ends once the LP gap (first-stage cost and
expected recourse at the LP point, minus the bound) is within ``eps``.  The
MILP phase then solves the master MILP until the upper and lower bounds
meet.  An adaptive aggregated run cuts at |Omega| singleton clusters in the
LP phase; in the MILP phase its cluster count is adapted from the
lower-bound delta before the new cuts are generated.  Consolidation (when
``consolidate`` is set, in any mode) is driven by cut-row duals: those of
the LP master, or of an LP re-solve of the MILP master with the binaries
fixed at their optimal values.
"""

from __future__ import annotations

import enum
import json
import time
# not used here; bench/spans.py wraps engine.ThreadPoolExecutor by name
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import clustering
# solve_lp, solve_milp, build_master, make_per_scenario_cuts and
# make_full_aggregate_cut are not called here; they stay bound because
# bench/layers.py wraps them as engine attributes by name
from .backend import SolveStatus, solve_lp, solve_milp  # noqa: F401
from .cuts import (CutMode, CutPool, adapt_cluster_count,  # noqa: F401
                   aggregate_and_add, make_full_aggregate_cut,
                   make_per_scenario_cuts, select_attributes,
                   track_and_consolidate)
from .data import ScenarioSet, SystemInstance
from .formulations import (FirstStageSolution, MasterSolver, RecourseSolver,  # noqa: F401
                           SubproblemResult, build_master, default_theta_min,
                           extract_first_stage, first_stage_layout, link_columns,
                           master_template, recourse_template, solve_subproblem)


class EngineError(RuntimeError):
    pass


class RunStatus(enum.Enum):
    CONVERGED = "converged"
    NOT_CONVERGED = "not-converged"
    CANCELED = "canceled"


@dataclass
class BendersConfig:
    mode: CutMode = CutMode.MULTI
    eps: float = 1e-6                 # convergence threshold, $
    mip_gap: float = 1e-6
    theta_min: float | None = None    # derived from the instance when None
    max_iters: int = 500
    alpha: float = 0.01               # dead-band base fraction
    zeta: float = 0.75                # dead-band width fraction
    rho: int = 5                      # cluster increment
    kappa: int = 5                    # consolidation inactivity threshold
    initial_clusters: int = 1         # the pinned count when adaptive is off
    # dead-band control of the cluster count in the MILP phase, from |Omega|
    adaptive: bool = True
    clustering_method: str = "hierarchical"   # or "kmeans"
    attribute: str = "duals"          # or "objective", "wind"
    consolidate: bool = False
    # not read by run, whose subproblem phase is serial; only
    # bench/workloads.py passes it (the CLI's --workers goes to outer)
    workers: int = 1

    def validate(self, n_scenarios: int) -> None:
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ValueError("eps must be finite and > 0")
        if not (np.isfinite(self.mip_gap) and self.mip_gap >= 0):
            raise ValueError("mip_gap must be finite and >= 0")
        if self.theta_min is not None and not np.isfinite(self.theta_min):
            raise ValueError("theta_min must be finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be finite and > 0")
        if not (0 < self.zeta < 1):
            raise ValueError("zeta must be in (0, 1)")
        if self.rho < 1:
            raise ValueError("rho must be >= 1")
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if not (1 <= self.initial_clusters <= n_scenarios):
            raise ValueError("initial_clusters must be in [1, |Omega|]")
        if self.clustering_method not in ("hierarchical", "kmeans"):
            raise ValueError(f"unknown clustering method {self.clustering_method!r}")
        if self.attribute not in ("duals", "objective", "wind"):
            raise ValueError(f"unknown clustering attribute {self.attribute!r}")

    def pinned_clusters(self, n_scenarios: int) -> int | None:
        """The cluster count of every iteration's cuts, or None when the
        dead-band controller steers it from |Omega| in the MILP phase."""
        if self.mode is CutMode.SINGLE:
            return 1
        if self.mode is CutMode.MULTI:
            return n_scenarios
        return None if self.adaptive else self.initial_clusters


@dataclass
class IterationRecord:
    iteration: int
    phase: str                # "lp" or "milp"
    lower_bound: float
    upper_bound: float        # best so far
    ub_candidate: float | None   # None in the LP phase
    gap: float                # LP phase: the LP gap; MILP phase: upper - lower bound
    clusters: int
    master_rows: int
    build_time: float         # master assembly and HiGHS load
    master_time: float        # HiGHS run of the master
    sub_time: float           # wall time of the subproblem phase
    master_simplex_iters: int
    master_mip_nodes: int     # 0 in the LP phase
    master_dual_bound: float  # HiGHS's MILP dual bound; the LP optimum in the LP phase
    sub_simplex_iters: int    # summed over the scenario subproblems
    sub_solves: int           # HiGHS solves of the subproblem phase (bunch leaders)
    cuts_added: int           # cut rows this iteration added to the pool
    cuts_removed: int         # cut rows its consolidation merged away
    cluster_sizes: tuple      # scenarios behind each added cut, in cut order

    def trace_fields(self) -> dict:
        # strict JSON: an infinite bound or gap is written as null
        def finite(v):
            return v if np.isfinite(v) else None
        return {
            "iter": self.iteration, "phase": self.phase, "lb": finite(self.lower_bound),
            "ub": finite(self.upper_bound), "gap": finite(self.gap),
            "clusters": self.clusters, "master_rows": self.master_rows,
            "master_simplex_iters": self.master_simplex_iters,
            "master_mip_nodes": self.master_mip_nodes,
            "master_dual_bound": finite(self.master_dual_bound),
            "sub_simplex_iters": self.sub_simplex_iters, "sub_solves": self.sub_solves,
            "cuts_added": self.cuts_added, "cuts_removed": self.cuts_removed,
            "cluster_sizes": list(self.cluster_sizes),
            "build_time_s": self.build_time, "master_time_s": self.master_time,
            "sub_time_s": self.sub_time,
        }

    def trace_line(self) -> str:
        return json.dumps(self.trace_fields())


# the trace fields that a report's per-phase totals sum
PHASE_TOTALS = ("build_time_s", "master_time_s", "sub_time_s", "master_simplex_iters",
                "sub_simplex_iters", "sub_solves", "master_mip_nodes", "cuts_added",
                "cuts_removed")


def phase_totals(history: list) -> dict:
    """Per phase ("lp", "milp"): the number of iterations in ``history``
    and the sums of their ``PHASE_TOTALS`` trace fields."""
    totals = {}
    for phase in ("lp", "milp"):
        fields = [r.trace_fields() for r in history if r.phase == phase]
        totals[phase] = {"iterations": len(fields),
                         **{k: sum(f[k] for f in fields) for k in PHASE_TOTALS}}
    return totals


@dataclass
class BendersState:
    iteration: int = 0
    lower_bound: float = -np.inf
    upper_bound: float = np.inf
    cluster_count: int = 1
    history: list = field(default_factory=list)
    incumbent: FirstStageSolution | None = None


@dataclass
class ConvergedSolution:
    status: RunStatus
    objective: float | None
    first_stage: FirstStageSolution | None
    state: BendersState
    pool: CutPool
    final_master_rows: int
    wall_time: float
    iterations: int


def compute_bounds(c_da: float, results: list, pi: dict) -> float:
    """Upper-bound candidate C_DA + sum(pi * Q)."""
    missing = set(pi) - {r.scenario_id for r in results}
    if missing:
        raise EngineError(f"missing subproblem results for scenarios: {sorted(missing)}")
    return float(c_da + sum(pi[r.scenario_id] * r.objective for r in results))


def solve_subproblems(instance: SystemInstance, scenarios: ScenarioSet,
                      x_hat: FirstStageSolution, workers: int = 1,
                      solver: RecourseSolver | None = None
                      ) -> tuple[list[SubproblemResult], float]:
    """All scenario recourse LPs at x_hat, solved in bunches of scenarios
    that share an optimal basis; returns (results in scenario order, phase
    wall time).

    The first scenario, the anchor, solves cold.  The scenarios' LPs differ
    only in bounds and right-hand sides, so its optimal basis is dual
    feasible for every other scenario at x_hat.  Its basis, and then that
    of each later HiGHS solve, is tested against the scenarios not yet
    solved: one that it keeps primal feasible is covered, needs no solve
    and takes that solve's duals (bunching, Birge & Louveaux 1997, 5.4;
    ``RecourseSolver.solve``).  The first scenario left uncovered is solved
    from the anchor's basis and tested in turn.  The phase is serial, so a
    result depends only on x_hat and the scenarios, not on the points
    solved before; ``workers`` is not read (the benchmark passes it).
    Without ``solver`` one is built here; a run builds it once and passes
    it in.
    """
    t0 = time.perf_counter()
    if solver is None:
        solver = RecourseSolver(recourse_template(instance, scenarios))
    ids = scenarios.scenario_ids
    # what x_hat changes in every subproblem, computed once
    point = solver.template.point(x_hat)
    results = [solve_subproblem(instance, scenarios, ids[0], x_hat, solver, point)]
    if len(ids) > 1:
        results += solver.solve(np.arange(1, len(ids)), point, solver.lp.basis())
    return results, time.perf_counter() - t0


def _cluster_labels(config: BendersConfig, count: int, results, families,
                    scenarios: ScenarioSet, instance: SystemInstance,
                    cache: dict) -> np.ndarray:
    """A cluster id per result: all zeros at 1 cluster, one per scenario at
    |Omega|, else the configured clustering of the configured attribute."""
    n = len(results)
    if count == 1:
        return np.zeros(n, dtype=int)
    if count >= n:
        return np.arange(n)
    features = select_attributes(config.attribute, results, families, scenarios,
                                 instance, cache)
    # the method names its clustering function: hierarchical or kmeans
    return np.array(getattr(clustering, config.clustering_method)(features, count).labels)


def run(instance: SystemInstance, scenarios: ScenarioSet, config: BendersConfig,
        fixed_commitments: dict | None = None,
        trace: Callable[[str], None] | None = None,
        should_stop: Callable[[], bool] | None = None,
        pool: CutPool | None = None) -> ConvergedSolution:
    """Iterate the LP phase until its gap is within eps, then the MILP phase
    to convergence |ub - lb| <= eps; ``max_iters`` counts both.

    ``pool``, if given, holds valid cuts to start from; the run adds its
    own cuts to it, one group per iteration after the groups it holds.
    """
    config.validate(scenarios.n_scenarios)
    theta_min = (config.theta_min if config.theta_min is not None
                 else default_theta_min(instance))
    pi = dict(zip(scenarios.scenario_ids, scenarios.probabilities))
    layout = first_stage_layout(instance)
    families = link_columns(instance)
    if pool is None:
        pool = CutPool()
    # this run's cuts of iteration nu form group first_origin + nu
    first_origin = max(pool.cuts_by_iter, default=0)
    # with the controller on, the LP phase cuts at |Omega| singleton
    # clusters and the controller starts from there in the MILP phase
    pinned = config.pinned_clusters(scenarios.n_scenarios)
    state = BendersState(cluster_count=pinned or scenarios.n_scenarios)
    attr_cache: dict = {}
    t_start = time.perf_counter()
    solver = RecourseSolver(recourse_template(instance, scenarios))
    master = MasterSolver(master_template(instance, scenarios, theta_min,
                                          fixed_commitments), config.mip_gap)
    status = RunStatus.NOT_CONVERGED
    final_rows = 0
    lp_phase = True

    for nu in range(1, config.max_iters + 1):
        if should_stop is not None and should_stop():
            status = RunStatus.CANCELED
            break
        state.iteration = nu

        t0 = time.perf_counter()
        mres = master.solve(pool, relax=lp_phase)
        # assembly and HiGHS load; mres.solve_time is the HiGHS run alone
        build_time = time.perf_counter() - t0 - mres.solve_time
        if mres.status is not SolveStatus.OPTIMAL:
            raise EngineError(
                f"master solve failed at iteration {nu}: {mres.status.value} "
                f"{mres.message}")
        final_rows = mres.row_count
        prev_lb = state.lower_bound
        # the master only gains rows (and integrality), so its optimum cannot
        # decrease; clamp away sub-tolerance solver noise to keep the
        # reported bound monotone
        state.lower_bound = max(prev_lb, mres.objective)
        x_hat = extract_first_stage(instance, mres, layout)

        # adapt the cluster count from the lower-bound delta before this
        # iteration's cuts are generated
        if pinned is None and not lp_phase and nu >= 2 and np.isfinite(prev_lb):
            ref_ub = state.upper_bound if np.isfinite(state.upper_bound) else state.lower_bound
            state.cluster_count = adapt_cluster_count(
                state.lower_bound - prev_lb, ref_ub, state.cluster_count,
                config.alpha, config.zeta, config.rho, scenarios.n_scenarios)

        results, sub_time = solve_subproblems(instance, scenarios, x_hat,
                                              solver=solver)
        if lp_phase:
            # a fractional point gives no upper bound; the LP gap takes the
            # first-stage cost from the master's columns (x_hat rounds u, y, z)
            ub_candidate = None
            c_first = master.template.static.c[:layout.n]
            gap = compute_bounds(float(c_first @ mres.x[:layout.n]),
                                 results, pi) - state.lower_bound
            traced_gap = gap
        else:
            ub_candidate = compute_bounds(x_hat.c_da, results, pi)
            if ub_candidate < state.upper_bound:
                state.upper_bound = ub_candidate
                state.incumbent = x_hat
            gap = abs(state.upper_bound - state.lower_bound)
            traced_gap = state.upper_bound - state.lower_bound

        converged = gap <= config.eps
        added = removed = 0
        sizes: tuple = ()
        if not converged:
            # consolidation needs the cut-row duals of the master just solved
            if config.consolidate and pool.row_contribution:
                removed = track_and_consolidate(pool, _cut_duals(master, pool, mres),
                                                config.kappa)
            labels = _cluster_labels(config, state.cluster_count, results, families,
                                     scenarios, instance, attr_cache)
            added = aggregate_and_add(pool, results, x_hat, pi, labels,
                                      first_origin + nu)
            sizes = tuple(np.bincount(labels).tolist())

        record = IterationRecord(nu, "lp" if lp_phase else "milp", state.lower_bound,
                                 state.upper_bound, ub_candidate, traced_gap,
                                 state.cluster_count, mres.row_count, build_time,
                                 mres.solve_time, sub_time, mres.simplex_iters,
                                 mres.mip_nodes, mres.dual_bound,
                                 sum(r.simplex_iters for r in results),
                                 sum(not r.covered for r in results),
                                 added, removed, sizes)
        state.history.append(record)
        if trace is not None:
            trace(record.trace_line())

        if converged:
            if not lp_phase:
                status = RunStatus.CONVERGED
                break
            # the LP master is exact at its optimum: go on with the MILP
            lp_phase = False

    objective = state.upper_bound if status is RunStatus.CONVERGED else None
    return ConvergedSolution(status, objective, state.incumbent, state, pool,
                             final_rows, time.perf_counter() - t_start,
                             state.iteration)


def _cut_duals(master: MasterSolver, pool: CutPool, mres) -> np.ndarray:
    """Duals of the cut rows (the last rows, in pool order) of the master
    over ``pool`` solved as ``mres``: an LP master's own, a MILP master's
    from an LP re-solve with binaries fixed."""
    if mres.row_dual is None:
        mres = master.solve(pool, relax=True, binaries=mres.x)
        if mres.status is not SolveStatus.OPTIMAL:
            raise EngineError(f"master LP re-solve failed: {mres.status.value} "
                              f"{mres.message}")
    return mres.row_dual[mres.row_count - pool.row_contribution:]
