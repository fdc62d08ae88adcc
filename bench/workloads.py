"""The benchmark's workloads: closed loops of one client in one process.

Each workload has a ``setup(seed)``, a list of ``operations()`` that make
up one pass, and a ``check()`` that marks the operations of a pass whose
outputs are wrong.  Solver settings are pinned here, not taken from the
command-line defaults, so the yardstick cannot move with them.

* ``toy-a-loop``: all six methods on toy-a, one worker.  Masters and LPs are
  tiny and iterations many, so per-call backend/HiGHS cost and per-iteration
  model rebuilds dominate.
* ``med-b-master``: five methods on med-b, two workers.  The master MILP
  dominates; multi-cut only adds cut rows while consolidation removes them,
  and the outer scheme's subsets run concurrently.  Single-cut is left out
  because it takes about 21 s here and toy-a covers its long tail.
* ``recourse-200``: expected recourse cost of three sampled first-stage
  points over 200 generated med-b scenarios, at one and at two workers.  Only
  the subproblem path runs; the master is never built.
"""

from __future__ import annotations

import math
import random
from functools import partial
from pathlib import Path

import numpy as np

from sucbenders import cli, data, engine, formulations
from sucbenders.cuts import CutMode

import scengen
from reference import EXTENSIVE_OBJECTIVE, recourse_cost

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "sucbenders" / "fixtures"
EPS = 1e-6
# The sampled first-stage points need only be feasible; a loose gap keeps
# the sampling MILPs, and so the set-up time, from depending on the seed.
SAMPLE_MIP_GAP = 0.05
# Scenarios per point whose recourse cost each pass checks against the
# independent reference LP.
REFERENCE_SAMPLE = 10


def solver_options(workers: int) -> dict:
    """The options ``cli.execute_method`` reads, at the CLI's defaults."""
    return dict(eps=EPS, mip_gap=1e-6, theta_min=None, max_iters=500,
                alpha=0.01, zeta=0.75, rho=5, kappa=5, init_clusters=1,
                clustering="hierarchical", attribute="duals", consolidate=False,
                subsets=2, gamma=1.0, workers=workers)


def load_fixture(fixture: str):
    instance = data.load_instance(FIXTURES / f"{fixture}.json")
    return instance, data.load_scenarios(FIXTURES / f"{fixture}.csv", instance)


class SolveLoop:
    """Solve one fixture with several methods; the extensive form is the oracle."""

    def __init__(self, fixture: str, methods: tuple, workers: int):
        self.fixture = fixture
        self.methods = methods
        self.workers = workers

    def setup(self, seed: int) -> None:
        self.instance, self.scenarios = load_fixture(self.fixture)
        # the seed fixes the method order of each pass
        self.order = random.Random(seed)
        engine.run(self.instance, self.scenarios,  # warm-up: one iteration
                   engine.BendersConfig(mode=CutMode.AGGREGATED, max_iters=1,
                                        workers=self.workers))

    def operations(self) -> list:
        methods = list(self.methods)
        self.order.shuffle(methods)
        return [(m.replace("+", "-"), partial(self._solve, m)) for m in methods]

    def _solve(self, method: str) -> dict:
        rep = cli.execute_method(method, self.instance, self.scenarios,
                                 solver_options(self.workers))
        return {"converged": rep.converged, "objective": rep.objective,
                "iterations": rep.iterations, "master_rows": rep.master_rows}

    def check(self, details: dict) -> dict:
        """Every method converges within 2*eps (relative) of the extensive
        objective of the same pass, and that one within 2*eps of the
        fixture's recorded optimum."""
        oracle = details.get("extensive")
        known = EXTENSIVE_OBJECTIVE[self.fixture]
        errors = {}
        for name, d in details.items():
            if not d["converged"] or d["objective"] is None:
                errors[name] = "did not converge"
            elif oracle is None or oracle["objective"] is None:
                errors[name] = "no extensive oracle in this pass"
            elif not _close(oracle["objective"], known):
                errors[name] = (f"extensive objective {oracle['objective']!r} differs "
                                f"from the recorded optimum {known!r}")
            elif not _close(d["objective"], oracle["objective"]):
                errors[name] = (f"objective {d['objective']!r} differs from "
                                f"extensive {oracle['objective']!r}")
        return errors


def _close(value: float, target: float) -> bool:
    return abs(value - target) <= 2 * EPS * max(1.0, abs(target))


class RecourseEval:
    """Expected recourse cost of sampled first-stage points on generated scenarios."""

    n_scenarios = 200
    n_points = 3
    worker_counts = (1, 2)
    workers = max(worker_counts)

    def setup(self, seed: int) -> None:
        self.instance, base = load_fixture("med-b")
        rng = np.random.default_rng(seed)
        self.scenarios = scengen.generate(self.instance, base, self.n_scenarios, rng)
        self.scenarios.validate(self.instance)
        self.points = [formulations.sample_feasible_first_stage(self.instance, rng,
                                                                SAMPLE_MIP_GAP)
                       for _ in range(self.n_points)]
        self.theta_min = formulations.default_theta_min(self.instance)
        self.reference: dict = {}
        self.sample = random.Random(seed)
        formulations.solve_subproblem(self.instance, self.scenarios,
                                      self.scenarios.scenario_ids[0], self.points[0])

    def operations(self) -> list:
        return [(f"w{w}.x{k}", partial(self._evaluate, w, k))
                for w in self.worker_counts for k in range(self.n_points)]

    def _evaluate(self, workers: int, k: int) -> dict:
        results, _ = engine.solve_subproblems(self.instance, self.scenarios,
                                              self.points[k], workers)
        q = [r.objective for r in results]
        return {"point": k, "workers": workers, "scenarios": len(results),
                "cost": math.fsum(p * v for p, v in zip(self.scenarios.probabilities, q)),
                "complete": tuple(r.scenario_id for r in results) == self.scenarios.scenario_ids,
                "q": q}

    def check(self, details: dict) -> dict:
        """Results cover every scenario and respect the recourse lower bound;
        a seeded sample of scenarios matches the independent reference LP;
        each point's expected cost agrees between worker counts and repeats
        exactly across passes."""
        errors = {}
        for name, d in details.items():
            ref = self.reference.setdefault(d["point"], d["cost"])
            q = d["q"]
            if not (d["complete"] and all(math.isfinite(v) for v in q)):
                errors[name] = "missing or non-finite scenario results"
            elif min(q) < self.theta_min - 1e-6:
                errors[name] = f"recourse {min(q)!r} below theta_min {self.theta_min!r}"
            elif abs(d["cost"] - ref) > 1e-9 * max(1.0, abs(ref)):
                errors[name] = (f"expected recourse {d['cost']!r} of point {d['point']} "
                                f"differs from {ref!r}")
            else:
                ids = self.scenarios.scenario_ids
                for s in self.sample.sample(range(len(ids)), REFERENCE_SAMPLE):
                    want = recourse_cost(self.instance, self.scenarios, ids[s],
                                         self.points[d["point"]])
                    if abs(q[s] - want) > 1e-6 * max(1.0, abs(want)):
                        errors[name] = (f"recourse {q[s]!r} of scenario {ids[s]} at point "
                                        f"{d['point']} differs from the reference {want!r}")
                        break
        return errors


WORKLOADS = {
    "toy-a-loop": lambda: SolveLoop(
        "toy-a", ("extensive", "single-cut", "multi-cut", "aggregated",
                  "aggregated+consolidation", "outer"), workers=1),
    "med-b-master": lambda: SolveLoop(
        "med-b", ("extensive", "multi-cut", "aggregated",
                  "aggregated+consolidation", "outer"), workers=2),
    "recourse-200": RecourseEval,
}
