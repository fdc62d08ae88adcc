"""Benders iteration driver: master solve, parallel subproblems, bounds,
convergence, and cut-pool updates.

Per iteration: solve the master MILP, read the lower bound and the candidate
first-stage point, solve all scenario subproblems in parallel, update the
upper bound, test convergence, then add cuts per the configured mode.  In
aggregated mode the cluster count is adapted from the lower-bound delta
before the new cuts are generated, and consolidation (when enabled) is
driven by cut-row duals taken from an LP re-solve of the master with the
binaries fixed at their optimal values.
"""

from __future__ import annotations

import enum
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import clustering
from .backend import SolveStatus, solve_lp, solve_milp
from .cuts import (CutMode, CutPool, adapt_cluster_count,
                   aggregate_and_add, make_full_aggregate_cut,
                   make_per_scenario_cuts, select_attributes,
                   track_and_consolidate)
from .data import ScenarioSet, SystemInstance
from .formulations import (FirstStageSolution, RecourseSolver, SubproblemResult,
                           build_master, default_theta_min, extract_first_stage,
                           first_stage_layout, recourse_template, solve_subproblem)


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
    initial_clusters: int = 1
    adaptive: bool = True             # dead-band control of the cluster count
    clustering_method: str = "hierarchical"   # or "kmeans"
    attribute: str = "duals"          # or "objective", "wind"
    consolidate: bool = False
    workers: int = 1
    # deterministic choice among alternate master optima: a pinned MILP picks
    # the binaries, then an LP with them fixed picks a unique continuous vertex
    # (single-cut runs make this choice in the aggregated master layout)
    tie_break: bool = False

    def validate(self, n_scenarios: int) -> None:
        if self.eps <= 0:
            raise ValueError("eps must be > 0")
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


@dataclass
class IterationRecord:
    iteration: int
    lower_bound: float
    upper_bound: float        # best so far
    ub_candidate: float
    clusters: int
    master_rows: int
    master_time: float
    sub_time: float           # wall time of the subproblem phase

    def trace_line(self) -> str:
        gap = self.upper_bound - self.lower_bound
        return json.dumps({
            "iter": self.iteration, "lb": self.lower_bound, "ub": self.upper_bound,
            "gap": gap, "clusters": self.clusters, "master_rows": self.master_rows,
            "master_time_s": self.master_time, "sub_time_s": self.sub_time,
        })


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


def recourse_solvers(instance: SystemInstance, scenarios: ScenarioSet,
                     workers: int) -> list[RecourseSolver]:
    """One persistent recourse LP per worker, over one shared template."""
    template = recourse_template(instance, scenarios)
    return [RecourseSolver(template)
            for _ in range(min(max(workers, 1), scenarios.n_scenarios))]


def solve_subproblems(instance: SystemInstance, scenarios: ScenarioSet,
                      x_hat: FirstStageSolution, workers: int = 1,
                      solvers: list[RecourseSolver] | None = None
                      ) -> tuple[list[SubproblemResult], float]:
    """All scenario recourse LPs at x_hat; returns (results in scenario
    order, phase wall time).

    Each solver takes one contiguous chunk of scenarios in its own thread;
    HiGHS releases the interpreter lock while it solves, so the chunks run
    in parallel.  Without ``solvers``, ``workers`` of them are built here
    (``recourse_solvers``); a run builds them once and passes them in.
    """
    t0 = time.perf_counter()
    if solvers is None:
        solvers = recourse_solvers(instance, scenarios, workers)
    ids = scenarios.scenario_ids

    def solve_chunk(solver, chunk):
        return [solve_subproblem(instance, scenarios, ids[k], x_hat, solver) for k in chunk]

    chunks = np.array_split(np.arange(len(ids)), len(solvers))
    if len(solvers) == 1:
        parts = [solve_chunk(solvers[0], chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(solvers)) as pool:
            parts = list(pool.map(solve_chunk, solvers, chunks))
    return [r for part in parts for r in part], time.perf_counter() - t0


def _cluster(method: str, features: np.ndarray, k: int):
    k = min(k, len(features))
    if method == "hierarchical":
        return clustering.hierarchical(features, k)
    return clustering.kmeans(features, k)


def run(instance: SystemInstance, scenarios: ScenarioSet, config: BendersConfig,
        fixed_commitments: dict | None = None,
        trace: Callable[[str], None] | None = None,
        should_stop: Callable[[], bool] | None = None) -> ConvergedSolution:
    """Iterate the decomposition to convergence |ub - lb| <= eps."""
    config.validate(scenarios.n_scenarios)
    theta_min = (config.theta_min if config.theta_min is not None
                 else default_theta_min(instance))
    pi = dict(zip(scenarios.scenario_ids, scenarios.probabilities))
    n_first = first_stage_layout(instance).n
    pool = CutPool()
    state = BendersState(cluster_count=config.initial_clusters)
    attr_cache: dict = {}
    t_start = time.perf_counter()
    solvers = recourse_solvers(instance, scenarios, config.workers)
    status = RunStatus.NOT_CONVERGED
    final_rows = 0

    for nu in range(1, config.max_iters + 1):
        if should_stop is not None and should_stop():
            status = RunStatus.CANCELED
            break
        state.iteration = nu

        master = build_master(instance, scenarios, config.mode, pool, theta_min,
                              fixed_commitments=fixed_commitments)
        mres = solve_milp(master, mip_gap=config.mip_gap)
        if mres.status is not SolveStatus.OPTIMAL:
            raise EngineError(
                f"master solve failed at iteration {nu}: {mres.status.value} "
                f"{mres.message}")
        final_rows = mres.row_count
        prev_lb = state.lower_bound
        # the master only gains rows, so its optimum cannot decrease; clamp
        # away sub-tolerance solver noise to keep the reported bound monotone
        state.lower_bound = max(prev_lb, mres.objective)
        if config.tie_break:
            # single-cut cuts are full aggregates; choosing the point in the
            # aggregated layout makes it match the one-cluster aggregated run
            # bit for bit (HiGHS vertices of two layouts of one LP differ by
            # ~1e-10, and degenerate subproblem duals amplify that)
            tied, tres = master, mres
            if config.mode is CutMode.SINGLE:
                tied = build_master(instance, scenarios, CutMode.AGGREGATED, pool,
                                    theta_min, fixed_commitments=fixed_commitments)
                tres = solve_milp(tied, mip_gap=config.mip_gap)
            x_hat = extract_first_stage(
                instance, _tie_break_master(tied, tres, n_first, config.mip_gap))
        else:
            x_hat = extract_first_stage(instance, mres)

        # adapt the cluster count from the lower-bound delta before this
        # iteration's cuts are generated
        if (config.mode is CutMode.AGGREGATED and config.adaptive
                and nu >= 2 and np.isfinite(prev_lb)):
            ref_ub = state.upper_bound if np.isfinite(state.upper_bound) else state.lower_bound
            state.cluster_count = adapt_cluster_count(
                state.lower_bound - prev_lb, ref_ub, state.cluster_count,
                config.alpha, config.zeta, config.rho, scenarios.n_scenarios)

        results, sub_time = solve_subproblems(instance, scenarios, x_hat,
                                              solvers=solvers)
        ub_candidate = compute_bounds(x_hat.c_da, results, pi)
        if ub_candidate < state.upper_bound:
            state.upper_bound = ub_candidate
            state.incumbent = x_hat

        record = IterationRecord(nu, state.lower_bound, state.upper_bound,
                                 ub_candidate, state.cluster_count,
                                 mres.row_count, mres.solve_time, sub_time)
        state.history.append(record)
        if trace is not None:
            trace(record.trace_line())

        if abs(state.upper_bound - state.lower_bound) <= config.eps:
            status = RunStatus.CONVERGED
            break

        # consolidation needs the cut-row duals of the master just solved
        if (config.mode is CutMode.AGGREGATED and config.consolidate
                and pool.row_contribution):
            track_and_consolidate(pool, _cut_duals(master, mres, pool.live_cuts()),
                                  config.kappa)

        if config.mode is CutMode.MULTI:
            for cut in make_per_scenario_cuts(results, x_hat, nu):
                pool.add(cut)
        elif config.mode is CutMode.SINGLE:
            pool.add(make_full_aggregate_cut(results, pi, x_hat, nu))
        else:
            features = select_attributes(config.attribute, results, scenarios,
                                         instance, attr_cache)
            assignment = _cluster(config.clustering_method, features,
                                  state.cluster_count)
            aggregate_and_add(pool, results, x_hat, pi, assignment.labels, nu)

    objective = state.upper_bound if status is RunStatus.CONVERGED else None
    return ConvergedSolution(status, objective, state.incumbent, state, pool,
                             final_rows, time.perf_counter() - t_start,
                             state.iteration)


def _tie_break_master(master, mres, n_first: int, mip_gap: float):
    """Pick one master optimum deterministically when several are tied.

    The master's optimal first-stage point is generally not unique, and which
    vertex the solver returns depends on incidental matrix layout (e.g. one
    recourse variable vs one per scenario).  Pin the original objective
    within a 1e-9 relative slack of the master's reported objective and
    minimize a fixed generic weighting of the first ``n_first`` (first-stage)
    columns instead; the weights depend only on the column order.  Two steps:

    1. a MILP solve of the pinned problem chooses the binaries;
    2. an LP re-solve of the same pinned problem with those binaries fixed
       chooses the continuous point.  A MIP incumbent is only accurate to
       the feasibility tolerance and varies with the matrix layout; the LP
       optimum under generic weights is a unique vertex.

    So among the points whose original objective lies within the pin slack
    of the master's reported objective, equivalent masters in different cut
    modes select the same first-stage point, provided step 1 picks the same
    binaries.
    """
    if mres.status is not SolveStatus.OPTIMAL:
        raise EngineError(f"tie-break master solve failed: {mres.status.value} {mres.message}")
    slack = 1e-9 * max(1.0, abs(mres.objective))
    weights = np.zeros_like(master.c)
    weights[:n_first] = np.random.default_rng(2083).uniform(1.0, 2.0, n_first)
    pinned = replace(master, c=weights,
                     A=sp.vstack([master.A, sp.csr_matrix(master.c)], format="csr"),
                     row_lo=np.append(master.row_lo, -np.inf),
                     row_hi=np.append(master.row_hi, mres.objective + slack))
    res = solve_milp(pinned, mip_gap=mip_gap)
    if res.status is not SolveStatus.OPTIMAL:
        raise EngineError(f"tie-break re-solve failed: {res.status.value} {res.message}")
    return _solve_with_binaries_fixed(pinned, res)


def _cut_duals(master, mres, cuts: list) -> dict:
    """Duals of the master's cut rows (its last rows, in pool order), keyed
    by row name, via an LP re-solve with binaries fixed."""
    mu = _solve_with_binaries_fixed(master, mres).row_dual
    return {c.row_name(): float(m) for c, m in zip(cuts, mu[len(mu) - len(cuts):])}


def _solve_with_binaries_fixed(model, mres):
    """LP solve of ``model`` with its binaries fixed at their values in ``mres``."""
    cols = np.flatnonzero(model.integral)
    lres = solve_lp(model.fixed(cols, mres.x[cols], relax=True))
    if lres.status is not SolveStatus.OPTIMAL:
        raise EngineError(f"master LP re-solve failed: {lres.status.value} {lres.message}")
    return lres
