"""Benders iteration driver on the toy fixture."""

import dataclasses
import json

import numpy as np
import pytest

from sucbenders.backend import solve_milp
from sucbenders.cuts import CutMode
from sucbenders.engine import (BendersConfig, EngineError, RunStatus,
                               _tie_break_master, compute_bounds, run,
                               solve_subproblems)
from sucbenders.formulations import (build_extensive, build_master,
                                     default_theta_min, extract_first_stage,
                                     first_stage_layout,
                                     sample_feasible_first_stage)


class _Stub:
    def __init__(self, scenario_id, objective):
        self.scenario_id = scenario_id
        self.objective = objective


def test_compute_bounds_formula():
    results = [_Stub("s1", 10.0), _Stub("s2", 30.0)]
    assert compute_bounds(100.0, results, {"s1": 0.5, "s2": 0.5}) == 120.0


def test_compute_bounds_zero_recourse():
    results = [_Stub("s1", 0.0)]
    assert compute_bounds(100.0, results, {"s1": 1.0}) == 100.0


def test_compute_bounds_missing_scenario():
    with pytest.raises(EngineError, match="s2"):
        compute_bounds(0.0, [_Stub("s1", 1.0)], {"s1": 0.5, "s2": 0.5})


def test_config_validation():
    cfg = BendersConfig(eps=-1.0)
    with pytest.raises(ValueError):
        cfg.validate(3)
    with pytest.raises(ValueError):
        BendersConfig(zeta=1.5).validate(3)
    with pytest.raises(ValueError):
        BendersConfig(initial_clusters=9).validate(3)
    with pytest.raises(ValueError):
        BendersConfig(clustering_method="dbscan").validate(3)


def test_upper_bound_is_running_minimum(toy_a):
    inst, scen = toy_a
    sol = run(inst, scen, BendersConfig(mode=CutMode.MULTI))
    ubs = [rec.upper_bound for rec in sol.state.history]
    assert all(b <= a + 1e-12 for a, b in zip(ubs, ubs[1:]))


def test_lower_bound_monotone_and_converges(toy_a):
    inst, scen = toy_a
    sol = run(inst, scen, BendersConfig(mode=CutMode.MULTI))
    assert sol.status is RunStatus.CONVERGED
    lbs = [rec.lower_bound for rec in sol.state.history]
    assert all(b >= a - 1e-9 for a, b in zip(lbs, lbs[1:]))
    assert abs(sol.state.upper_bound - sol.state.lower_bound) <= 1e-6


def test_multi_cut_matches_extensive(toy_a):
    inst, scen = toy_a
    ext = solve_milp(build_extensive(inst, scen))
    sol = run(inst, scen, BendersConfig(mode=CutMode.MULTI))
    assert sol.objective == pytest.approx(ext.objective, abs=1e-5)


def test_single_scenario_modes_identical(toy_a):
    inst, scen = toy_a
    only = scen.restrict(["s2"])
    histories = {}
    for mode in (CutMode.SINGLE, CutMode.MULTI, CutMode.AGGREGATED):
        sol = run(inst, only, BendersConfig(mode=mode, adaptive=False))
        histories[mode] = [(r.lower_bound, r.ub_candidate) for r in sol.state.history]
    assert histories[CutMode.SINGLE] == histories[CutMode.MULTI]
    assert histories[CutMode.MULTI] == histories[CutMode.AGGREGATED]


def test_subproblem_worker_count_invariance(toy_a):
    # every solve starts cold, so the chunking cannot change a bit; 8
    # workers exceed toy-a's 3 scenarios
    inst, scen = toy_a
    x = sample_feasible_first_stage(inst, np.random.default_rng(13))
    serial, _ = solve_subproblems(inst, scen, x, workers=1)
    for workers in (2, 8):
        threaded, _ = solve_subproblems(inst, scen, x, workers=workers)
        assert [r.scenario_id for r in threaded] == list(scen.scenario_ids)
        for a, b in zip(serial, threaded):
            assert a.objective == b.objective
            for block in ("lam_rp", "lam_rm", "lam_w", "lam_f"):
                assert np.array_equal(getattr(a, block), getattr(b, block))


def test_exactly_one_result_per_scenario(toy_a):
    inst, scen = toy_a
    x = sample_feasible_first_stage(inst, np.random.default_rng(14))
    results, _ = solve_subproblems(inst, scen, x)
    assert sorted(r.scenario_id for r in results) == sorted(scen.scenario_ids)


def test_iteration_limit_reports_not_converged(toy_a):
    inst, scen = toy_a
    sol = run(inst, scen, BendersConfig(mode=CutMode.SINGLE, max_iters=2))
    assert sol.status is RunStatus.NOT_CONVERGED
    assert sol.objective is None
    assert sol.iterations == 2
    assert len(sol.state.history) == 2   # full state carried out


def test_cancellation_between_iterations(toy_a):
    inst, scen = toy_a
    calls = iter([False, False, True, True, True])
    sol = run(inst, scen, BendersConfig(mode=CutMode.SINGLE),
              should_stop=lambda: next(calls))
    assert sol.status is RunStatus.CANCELED
    assert sol.iterations <= 3


def test_trace_lines_are_json_with_stable_keys(toy_a):
    inst, scen = toy_a
    lines = []
    run(inst, scen, BendersConfig(mode=CutMode.AGGREGATED), trace=lines.append)
    docs = [json.loads(line) for line in lines]
    keys = {"iter", "lb", "ub", "gap", "clusters", "master_rows",
            "master_time_s", "sub_time_s"}
    assert all(set(d) == keys for d in docs)
    assert [d["iter"] for d in docs] == list(range(1, len(docs) + 1))


def test_aggregated_adaptive_cluster_count_stays_in_range(toy_a):
    inst, scen = toy_a
    sol = run(inst, scen, BendersConfig(mode=CutMode.AGGREGATED, adaptive=True))
    assert sol.status is RunStatus.CONVERGED
    for rec in sol.state.history:
        assert 1 <= rec.clusters <= scen.n_scenarios


def test_fixed_commitments_respected(toy_a):
    inst, scen = toy_a
    base = run(inst, scen, BendersConfig(mode=CutMode.MULTI))
    fixed = {(g.id, t): int(base.first_stage.u[i, t - 1])
             for i, g in enumerate(inst.generators)
             for t in range(1, inst.horizon + 1)}
    pinned = run(inst, scen, BendersConfig(mode=CutMode.MULTI),
                 fixed_commitments=fixed)
    assert pinned.objective == pytest.approx(base.objective, abs=2e-6)
    assert np.array_equal(pinned.first_stage.u, base.first_stage.u)


def test_tie_break_point_is_the_same_across_equivalent_masters(toy_a):
    # the single-cut pool renders as "theta >= ..." in the single-cut master
    # and as "sum pi_w theta_w >= ..." in the aggregated master; both masters
    # have the same optima, so the tie-break must return the same point.
    # Five cuts give the iteration-6 master, where the MIP incumbents of the
    # two layouts lie about 2e-6 apart.
    inst, scen = toy_a
    sol = run(inst, scen, BendersConfig(mode=CutMode.SINGLE, tie_break=True,
                                        max_iters=5))
    theta_min = default_theta_min(inst)
    n_first = first_stage_layout(inst).n
    points = []
    for mode in (CutMode.SINGLE, CutMode.AGGREGATED):
        master = build_master(inst, scen, mode, sol.pool, theta_min)
        mres = solve_milp(master)
        tied = _tie_break_master(master, mres, n_first, mip_gap=1e-6)
        original = float(master.c @ tied.x)
        slack = 1e-9 * max(1.0, abs(mres.objective))
        # 1e-12 absorbs the rounding of the summed objective
        assert abs(original - mres.objective) <= slack + 1e-12
        points.append(extract_first_stage(inst, tied))
    single, aggregated = points
    for f in dataclasses.fields(single):
        np.testing.assert_allclose(getattr(aggregated, f.name),
                                   getattr(single, f.name), rtol=0, atol=1e-9,
                                   err_msg=f.name)
