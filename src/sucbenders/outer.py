"""Outer parallelization: subset formation, per-subset solves with early
cutoff, commitment intersection, and the fixed full-scenario second pass.

Step one partitions the scenario set with k-medoids on the wind realizations
and builds one subset per cluster: the cluster's own scenarios plus the
medoids of every other cluster.  Each subset is solved as a full SUC in
parallel; once a fraction gamma of the subset solves has completed the rest
are canceled cooperatively at their next iteration boundary.  Step two
re-solves the full problem with the commitment variables that agree across
all completed subsets fixed by bound tightening.

Step two starts from the live cuts of every completed subset, in every cut
mode, since every mode's master has one theta per scenario.  They stay
valid: a subset cut is a positive combination, with the subset's
renormalized probabilities, of per-scenario under-estimators
theta_omega >= Q_omega(x^) + lambda_omega (x - x^), and Q_omega depends on
neither those probabilities nor the fixed commitments.  Each (subset,
origin iteration) keeps its own pool group, so consolidation merges only
cuts with disjoint members.
"""

from __future__ import annotations

import enum
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .clustering import ClusterAssignment, kmedoids
from .cuts import CutPool
from .data import ScenarioSet, SystemInstance
from .engine import BendersConfig, ConvergedSolution, RunStatus, run


class OuterError(RuntimeError):
    pass


class SubsetStatus(enum.Enum):
    COMPLETED = "completed"
    CANCELED = "canceled"
    NOT_CONVERGED = "not-converged"     # hit the iteration limit


@dataclass(frozen=True)
class SubsetPlan:
    medoids: tuple                 # scenario id per cluster
    clusters: tuple                # tuple of scenario-id tuples, partition of Omega
    subsets: tuple                 # tuple of scenario-id tuples, own cluster first
    gamma: float

    @property
    def n_subsets(self) -> int:
        return len(self.subsets)


@dataclass
class SubsetOutcome:
    subset_id: int
    status: SubsetStatus
    commitment: np.ndarray | None  # |G| x T, completed only
    objective: float | None
    wall_time: float
    iterations: int
    max_rows: int
    pool: CutPool | None = None    # completed only: the run's final cut pool


@dataclass
class OuterResult:
    # pass 2's run; None when a subset run hit the iteration limit, after
    # which pass 2 does not run
    solution: ConvergedSolution | None
    outcomes: list
    fixed: dict                    # (gen id, t) -> 0/1
    t1: float
    t2: float
    max_rows: int
    seeded_cuts: int               # pass-1 cuts that pass 2 started from

    @property
    def converged(self) -> bool:
        return self.solution is not None and self.solution.status is RunStatus.CONVERGED

    def summary(self, instance: SystemInstance) -> dict:
        free = instance.n_gens * instance.horizon - len(self.fixed)
        return {
            "subsets": [
                {"id": o.subset_id, "status": o.status.value,
                 "objective": o.objective, "tau_s": o.wall_time,
                 "iterations": o.iterations}
                for o in self.outcomes
            ],
            "T1": self.t1, "T2": self.t2,
            "fixed_count": len(self.fixed), "free_count": free,
            "seeded_cuts": self.seeded_cuts,
        }


def plan_from_assignment(scenarios: ScenarioSet, assignment: ClusterAssignment,
                         gamma: float = 1.0) -> SubsetPlan:
    """Build subsets from a cluster assignment with medoids."""
    ids = scenarios.scenario_ids
    clusters = tuple(tuple(ids[i] for i in assignment.members(c))
                     for c in range(assignment.k))
    medoids = tuple(ids[m] for m in assignment.medoids)
    subsets = []
    for c, own in enumerate(clusters):
        foreign = [m for e, m in enumerate(medoids) if e != c]
        subsets.append(tuple(own) + tuple(foreign))
    return SubsetPlan(medoids, clusters, tuple(subsets), gamma)


def check_subsets(n_clusters: int, gamma: float, n_scenarios: int) -> None:
    """Raise ``OuterError`` unless ``n_clusters`` subsets can be formed from
    ``n_scenarios`` scenarios and ``gamma`` is a completion fraction."""
    if not (2 <= n_clusters <= n_scenarios):
        raise OuterError(f"subset count {n_clusters} out of range [2, {n_scenarios}]")
    if not (0.0 < gamma <= 1.0):
        raise OuterError(f"gamma {gamma} out of range (0, 1]")


def form_subsets(instance: SystemInstance, scenarios: ScenarioSet,
                 n_clusters: int, gamma: float = 1.0) -> SubsetPlan:
    """k-medoids over wind-realization vectors, then one subset per cluster."""
    check_subsets(n_clusters, gamma, scenarios.n_scenarios)
    features = scenarios.wind_matrix(instance)
    assignment = kmedoids(features, n_clusters)
    return plan_from_assignment(scenarios, assignment, gamma)


def _subset_trace(trace, idx: int):
    """``trace`` for the records of subset ``idx``, which carry its id."""
    if trace is None:
        return None
    return lambda line: trace(json.dumps({"subset_id": idx, **json.loads(line)}))


def solve_subsets(instance: SystemInstance, plan: SubsetPlan,
                  scenarios: ScenarioSet, config: BendersConfig,
                  workers: int = 1, trace=None) -> list[SubsetOutcome]:
    """Solve each subset SUC on ``workers`` threads with the gamma completion
    cutoff.

    ``trace``, if given, receives every subset run's records with a
    ``subset_id``; it is called from the worker threads, so it must be
    thread-safe.
    """
    needed = math.ceil(plan.gamma * plan.n_subsets)
    stop = threading.Event()
    done_lock = threading.Lock()
    completed = 0

    def solve_one(idx: int) -> SubsetOutcome:
        nonlocal completed
        sub_scen = scenarios.restrict(list(plan.subsets[idx]))
        t0 = time.perf_counter()
        try:
            sol = run(instance, sub_scen, replace(config), should_stop=stop.is_set,
                      trace=_subset_trace(trace, idx))
        except BaseException:
            stop.set()      # the pass has failed: cancel the other subsets
            raise
        elapsed = time.perf_counter() - t0
        if sol.status is RunStatus.NOT_CONVERGED:
            stop.set()      # the pass cannot finish: cancel the other subsets
        if sol.status is not RunStatus.CONVERGED:
            return SubsetOutcome(idx, SubsetStatus(sol.status.value), None, None,
                                 elapsed, sol.iterations, sol.final_master_rows)
        with done_lock:
            completed += 1
            if completed >= needed:
                stop.set()
        return SubsetOutcome(idx, SubsetStatus.COMPLETED,
                             sol.first_stage.u.copy(), sol.objective,
                             elapsed, sol.iterations, sol.final_master_rows, sol.pool)

    # one worker runs the subsets in order, and the cutoff cancels the tail
    with ThreadPoolExecutor(max_workers=workers) as pool:
        outcomes = list(pool.map(solve_one, range(plan.n_subsets)))
    if all(o.status is SubsetStatus.CANCELED for o in outcomes):
        raise OuterError("all subset solves failed or were canceled")
    return outcomes


def intersect_commitments(instance: SystemInstance,
                          outcomes: list) -> dict:
    """(g, t) -> value for every commitment identical across completed subsets."""
    completed = [o for o in outcomes if o.status is SubsetStatus.COMPLETED]
    if not completed:
        raise OuterError("need at least one completed subset outcome")
    stack = np.stack([o.commitment for o in completed])
    agree = np.all(stack == stack[0], axis=0)
    fixed = {}
    for i, g in enumerate(instance.generators):
        for t in range(1, instance.horizon + 1):
            if agree[i, t - 1]:
                fixed[(g.id, t)] = int(stack[0, i, t - 1])
    return fixed


def seed_pool(outcomes: list) -> CutPool:
    """The live cuts of every completed subset, one pool group per (subset,
    origin iteration), in subset and then iteration order."""
    pool = CutPool()
    groups = [cuts for o in outcomes if o.status is SubsetStatus.COMPLETED
              for _, cuts in sorted(o.pool.cuts_by_iter.items())]
    for key, cuts in enumerate(groups, start=1):
        for cut in cuts:
            pool.add(replace(cut, origin_iter=key))
    return pool


def run_outer(instance: SystemInstance, scenarios: ScenarioSet,
              config: BendersConfig, n_subsets: int, gamma: float = 1.0,
              workers: int = 1,
              trace=None) -> OuterResult:
    """The two passes.  ``trace`` receives the records of the subset runs
    (with their ``subset_id``) and of the second pass, one call at a time.
    A subset run or pass 2 that hits the iteration limit gives a result
    that has not ``converged``."""
    if trace is not None:
        lock = threading.Lock()
        sink = trace

        def trace(line):
            with lock:
                sink(line)

    plan = form_subsets(instance, scenarios, n_subsets, gamma)
    outcomes = solve_subsets(instance, plan, scenarios, config, workers, trace)
    if any(o.status is SubsetStatus.NOT_CONVERGED for o in outcomes):
        return OuterResult(None, outcomes, {}, max(o.wall_time for o in outcomes), 0.0,
                           max(o.max_rows for o in outcomes), 0)
    t1 = max(o.wall_time for o in outcomes if o.status is SubsetStatus.COMPLETED)
    fixed = intersect_commitments(instance, outcomes)
    pool = seed_pool(outcomes)
    seeded = pool.row_contribution

    t0 = time.perf_counter()
    solution = run(instance, scenarios, replace(config),
                   fixed_commitments=fixed, trace=trace, pool=pool)
    t2 = time.perf_counter() - t0
    max_rows = max([solution.final_master_rows]
                   + [o.max_rows for o in outcomes])
    return OuterResult(solution, outcomes, fixed, t1, t2, max_rows, seeded)
