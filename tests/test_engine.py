"""Benders iteration driver on the toy fixture."""

import json
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from sucbenders.backend import HighsSolver, solve_milp
from sucbenders.cuts import CutMode, CutPool, aggregate_and_add
from sucbenders import clustering, engine
from sucbenders.engine import (BendersConfig, EngineError, RunStatus,
                               compute_bounds, run, solve_subproblems)
from sucbenders.formulations import (FEAS_TOL, RecourseSolver, build_extensive,
                                     build_master, default_theta_min,
                                     first_stage_violation, master_template,
                                     recourse_template, sample_feasible_first_stage,
                                     solve_subproblem)
from conftest import untimed_records


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
    with pytest.raises(ValueError, match="attribute"):
        BendersConfig(attribute="bogus").validate(3)
    for alpha in (np.nan, np.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match="alpha must be finite and > 0"):
            BendersConfig(alpha=alpha).validate(3)
    for bad in (dict(max_iters=0), dict(workers=0), dict(theta_min=-np.inf),
                dict(theta_min=np.nan)):
        with pytest.raises(ValueError):
            BendersConfig(**bad).validate(3)
    BendersConfig(theta_min=-1.0).validate(3)


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
    # the phase is serial and reads no worker count
    inst, scen = toy_a
    x = sample_feasible_first_stage(inst, np.random.default_rng(13))
    serial, _ = solve_subproblems(inst, scen, x, workers=1)
    for workers in (2, 8):
        threaded, _ = solve_subproblems(inst, scen, x, workers=workers)
        assert [r.scenario_id for r in threaded] == list(scen.scenario_ids)
        for a, b in zip(serial, threaded):
            assert a.objective == b.objective
            assert np.array_equal(a.lam, b.lam)


def _assert_bit_identical(got, want):
    assert [r.scenario_id for r in got] == [r.scenario_id for r in want]
    for a, b in zip(got, want):
        assert a.objective == b.objective
        assert np.array_equal(a.lam, b.lam)
        assert a.simplex_iters == b.simplex_iters


def test_subproblems_are_bit_identical_at_1_2_3_workers(med_b):
    # no worker count reaches the bunched phase, whatever the switch interval
    inst, scen = med_b
    x = sample_feasible_first_stage(inst, np.random.default_rng(31))
    serial, _ = solve_subproblems(inst, scen, x, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 3, 5):
            _assert_bit_identical(solve_subproblems(inst, scen, x, workers=workers)[0],
                                  serial)
    finally:
        sys.setswitchinterval(interval)


def test_persistent_solvers_do_not_carry_one_point_into_the_next(med_b):
    inst, scen = med_b
    rng = np.random.default_rng(32)
    x1, x2 = (sample_feasible_first_stage(inst, rng) for _ in range(2))
    solver = RecourseSolver(recourse_template(inst, scen))
    solve_subproblems(inst, scen, x1, solver=solver)
    _assert_bit_identical(solve_subproblems(inst, scen, x2, solver=solver)[0],
                          solve_subproblems(inst, scen, x2)[0])


def test_warm_subproblems_match_cold_solves(med_b):
    # the anchor is a cold solve; every other scenario is covered by a
    # solved scenario's basis or starts from the anchor's, and reaches the
    # cold optimum (lam may be another optimal dual: see
    # test_warm_subproblem_lam_is_the_slope_of_q)
    inst, scen = med_b
    x = sample_feasible_first_stage(inst, np.random.default_rng(33))
    results, _ = solve_subproblems(inst, scen, x, workers=2)
    cold = [solve_subproblem(inst, scen, omega, x) for omega in scen.scenario_ids]
    _assert_bit_identical(results[:1], cold[:1])
    for warm, want in zip(results[1:], cold[1:]):
        assert warm.objective == pytest.approx(want.objective, rel=1e-9)
    # the anchor's basis leaves a few pivots at most
    assert sum(r.simplex_iters for r in results[1:]) < sum(r.simplex_iters for r in cold[1:]) / 4


def test_batched_warm_solves_equal_one_solve_at_a_time_from_the_anchor_basis(med_b):
    # every scenario that no basis covers is a HiGHS solve from the anchor's
    # basis, equal bit for bit to the one-at-a-time solve on a solver that
    # holds no other solve to bunch with
    inst, scen = med_b
    ids = scen.scenario_ids
    x = sample_feasible_first_stage(inst, np.random.default_rng(36))
    template = recourse_template(inst, scen)
    solver = RecourseSolver(template)
    point = template.point(x)
    want = [solve_subproblem(inst, scen, ids[0], x, solver, point)]
    basis = solver.lp.basis()
    want += [r for k in range(1, len(ids))
             for r in RecourseSolver(template).solve([k], point, basis)]
    assert not any(r.covered for r in want)
    got = solve_subproblems(inst, scen, x, solver=solver)[0]
    solved = [k for k, r in enumerate(got) if not r.covered]
    assert 1 < len(solved) < len(ids)
    _assert_bit_identical([got[k] for k in solved], [want[k] for k in solved])
    for r, w in zip(got, want):
        if r.covered:
            assert r.simplex_iters == 0
            assert r.objective == pytest.approx(w.objective, rel=1e-9)


def _count_solves(monkeypatch):
    """Record the scenario of each anchor solve, whether each batch starts
    cold (True) or from a basis with its solve count, and the thread count
    of each pool that solve_subproblems starts."""
    anchors, batches, pools = [], [], []

    def counted(instance, scenarios, omega, x_hat, solver=None, point=None):
        anchors.append(omega)
        return solve_subproblem(instance, scenarios, omega, x_hat, solver, point)

    solve_batch = HighsSolver.solve_batch

    def counted_batch(self, cols, lb, ub, rows, row_lo, row_hi, basis=None, cover=None):
        batches.append((basis is None, len(ub)))
        return solve_batch(self, cols, lb, ub, rows, row_lo, row_hi, basis, cover)

    class Pool(engine.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(engine, "solve_subproblem", counted)
    monkeypatch.setattr(HighsSolver, "solve_batch", counted_batch)
    monkeypatch.setattr(engine, "ThreadPoolExecutor", Pool)
    return anchors, batches, pools


def test_one_scenario_set_solves_only_the_anchor(toy_a, monkeypatch):
    inst, scen = toy_a
    one = scen.restrict(["s2"])
    x = sample_feasible_first_stage(inst, np.random.default_rng(34))
    anchors, batches, pools = _count_solves(monkeypatch)
    results, _ = solve_subproblems(inst, one, x, workers=4)
    assert [r.scenario_id for r in results] == ["s2"]
    assert anchors == ["s2"] and batches == [(True, 1)] and pools == []
    assert results[0].objective == solve_subproblem(inst, one, "s2", x).objective


def test_workers_beyond_the_scenarios_start_no_idle_chunk(toy_a, monkeypatch):
    # 3 scenarios at 8 workers: the cold anchor, then one bunched batch of
    # the 2 others from its basis, in this thread
    inst, scen = toy_a
    x = sample_feasible_first_stage(inst, np.random.default_rng(35))
    anchors, batches, pools = _count_solves(monkeypatch)
    results, _ = solve_subproblems(inst, scen, x, workers=8)
    assert [r.scenario_id for r in results] == list(scen.scenario_ids)
    assert anchors == [scen.scenario_ids[0]] and pools == []
    assert batches == [(True, 1), (False, 2)]


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
    assert [r.phase for r in sol.state.history] == ["lp", "lp"]
    assert sol.first_stage is None


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
    keys = {"iter", "phase", "lb", "ub", "gap", "clusters", "master_rows",
            "master_simplex_iters", "master_mip_nodes", "master_dual_bound",
            "sub_simplex_iters", "sub_solves", "build_time_s", "master_time_s",
            "sub_time_s", "cuts_added", "cuts_removed", "cluster_sizes"}
    assert all(set(d) == keys for d in docs)
    # the anchor is always solved; a bunch member is not
    assert all(1 <= d["sub_solves"] <= scen.n_scenarios for d in docs)
    # every iteration but the last of each phase adds one cut per cluster,
    # and the clusters partition the scenarios
    for d in docs:
        assert d["cuts_added"] == len(d["cluster_sizes"]) == (0 if d["gap"] <= 1e-6
                                                             else d["clusters"])
        assert sum(d["cluster_sizes"]) == (0 if d["gap"] <= 1e-6 else scen.n_scenarios)
        assert d["cuts_removed"] == 0
    assert [d["iter"] for d in docs] == list(range(1, len(docs) + 1))
    # the LP phase traces its LP gap and its LP optimum as the dual bound;
    # the MILP phase its bound gap and HiGHS's MILP dual bound
    lp = [d for d in docs if d["phase"] == "lp"]
    milp = [d for d in docs if d["phase"] == "milp"]
    assert lp and milp
    assert all(d["gap"] is not None and d["ub"] is None for d in lp)
    assert lp[-1]["gap"] <= 1e-6 < lp[0]["gap"]
    # (the lower bound is the running maximum of the master optima)
    assert all(d["master_dual_bound"] <= d["lb"] for d in lp)
    assert lp[0]["master_dual_bound"] == lp[0]["lb"]
    assert all(d["master_mip_nodes"] == 0 for d in lp)
    assert all(d["master_mip_nodes"] >= 1 for d in milp)
    assert milp[-1]["master_dual_bound"] <= milp[-1]["lb"] + 1e-6
    assert all(d["gap"] == d["ub"] - d["lb"] for d in milp)
    assert all(d["master_simplex_iters"] > 0 and d["sub_simplex_iters"] > 0 for d in docs)


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


def _phases(sol):
    return [r.phase for r in sol.state.history]


@pytest.mark.parametrize("mode", list(CutMode))
def test_lp_phase_comes_first_and_gives_no_upper_bound(toy_a, mode):
    inst, scen = toy_a
    sol = run(inst, scen, BendersConfig(mode=mode))
    assert sol.status is RunStatus.CONVERGED
    phases = _phases(sol)
    n_lp = phases.count("lp")
    assert n_lp >= 1 and phases == ["lp"] * n_lp + ["milp"] * (len(phases) - n_lp)
    for rec in sol.state.history[:n_lp]:
        assert rec.ub_candidate is None and rec.upper_bound == np.inf
    assert all(rec.ub_candidate is not None for rec in sol.state.history[n_lp:])


@pytest.mark.parametrize("mode", list(CutMode))
def test_incumbent_is_integral_and_from_the_milp_phase(toy_a, mode):
    inst, scen = toy_a
    sol = run(inst, scen, BendersConfig(mode=mode))
    x = sol.first_stage
    for block in (x.u, x.y, x.z):
        assert np.isin(block, (0.0, 1.0)).all()
    assert first_stage_violation(inst, x) <= FEAS_TOL
    milp = [r for r in sol.state.history if r.phase == "milp"]
    assert sol.objective == min(r.ub_candidate for r in milp)


@pytest.mark.parametrize("mode", list(CutMode))
def test_lower_bound_is_monotone_across_the_phase_switch(toy_a, mode):
    inst, scen = toy_a
    oracle = solve_milp(build_extensive(inst, scen)).objective
    eps = 1e-6
    sol = run(inst, scen, BendersConfig(mode=mode, eps=eps))
    lbs = [r.lower_bound for r in sol.state.history]
    assert "milp" in _phases(sol)
    assert all(b >= a for a, b in zip(lbs, lbs[1:]))
    assert max(lbs) <= oracle + eps


def test_lp_phase_cluster_count(toy_a):
    # the controller's runs cut at |Omega| singleton clusters until the MILP
    # phase; a pinned count holds in both phases
    inst, scen = toy_a
    n = scen.n_scenarios
    adaptive = run(inst, scen, BendersConfig(mode=CutMode.AGGREGATED, adaptive=True))
    lp = [r for r in adaptive.state.history if r.phase == "lp"]
    assert lp and all(r.clusters == n for r in lp)
    for r in lp[:-1]:                # the last LP iteration adds no cuts
        assert len(adaptive.pool.cuts_by_iter[r.iteration]) == n
    pinned = run(inst, scen, BendersConfig(mode=CutMode.AGGREGATED, adaptive=False,
                                           initial_clusters=2))
    assert "lp" in _phases(pinned) and "milp" in _phases(pinned)
    assert all(r.clusters == 2 for r in pinned.state.history)
    assert all(len(cuts) == 2 for cuts in pinned.pool.cuts_by_iter.values())


def test_multi_cut_master_is_the_full_aggregated_master(toy_a):
    # multi-cut's cuts are the singleton aggregates that an |Omega|-cluster
    # aggregated run makes from the same subproblem results, so its master
    # is that run's master bit for bit
    inst, scen = toy_a
    pi = dict(zip(scen.scenario_ids, scen.probabilities))
    sol = run(inst, scen, BendersConfig(mode=CutMode.MULTI, max_iters=5))
    agg_pool = CutPool()
    for nu, cuts in sorted(sol.pool.cuts_by_iter.items()):
        c = cuts[0]
        anchor = SimpleNamespace(link=lambda c=c: c.anchor)
        results, _ = solve_subproblems(inst, scen, anchor)
        aggregate_and_add(agg_pool, results, anchor, pi, range(len(results)), nu)
    assert sol.pool.row_contribution == agg_pool.row_contribution > 0
    theta_min = default_theta_min(inst)
    multi = build_master(master_template(inst, scen, theta_min), sol.pool)
    aggregated = build_master(master_template(inst, scen, theta_min), agg_pool)
    for f in ("c", "lb", "ub", "integral", "row_lo", "row_hi"):
        assert np.array_equal(getattr(multi, f), getattr(aggregated, f)), f
    for f in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(multi.A, f), getattr(aggregated.A, f)), f


def test_multi_cut_run_is_the_pinned_full_aggregated_run(toy_a):
    # an aggregated run pinned at |Omega| clusters adds multi-cut's cuts to
    # multi-cut's master, so the two runs record the same iterations, down to
    # the cluster count; single-cut records one cluster
    inst, scen = toy_a
    n = scen.n_scenarios
    multi = run(inst, scen, BendersConfig(mode=CutMode.MULTI))
    pinned = run(inst, scen, BendersConfig(mode=CutMode.AGGREGATED, adaptive=False,
                                           initial_clusters=n))
    assert multi.status is pinned.status is RunStatus.CONVERGED
    assert all(r.clusters == n for r in multi.state.history)
    assert untimed_records(multi) == untimed_records(pinned)
    assert multi.objective == pinned.objective
    assert multi.final_master_rows == pinned.final_master_rows
    single = run(inst, scen, BendersConfig(mode=CutMode.SINGLE, max_iters=5))
    assert all(r.clusters == 1 for r in single.state.history)


def test_pinned_cluster_count_of_each_mode():
    n = 7
    assert BendersConfig(mode=CutMode.SINGLE).pinned_clusters(n) == 1
    assert BendersConfig(mode=CutMode.MULTI).pinned_clusters(n) == n
    assert BendersConfig(mode=CutMode.AGGREGATED, adaptive=False,
                         initial_clusters=3).pinned_clusters(n) == 3
    assert BendersConfig(mode=CutMode.AGGREGATED, adaptive=True).pinned_clusters(n) is None


@pytest.mark.parametrize("config", [
    dict(mode=CutMode.SINGLE), dict(mode=CutMode.MULTI),
    dict(mode=CutMode.AGGREGATED, adaptive=False, initial_clusters=1),
    dict(mode=CutMode.AGGREGATED, adaptive=False, initial_clusters=3),
], ids=["single-cut", "multi-cut", "aggregated-1", "aggregated-n"])
def test_no_clustering_at_one_or_all_clusters(toy_a, monkeypatch, config):
    # at 1 and at |Omega| clusters the labels need no features and no
    # clusterer, in every mode
    inst, scen = toy_a
    assert scen.n_scenarios == 3

    def boom(*args, **kwargs):
        raise AssertionError("clustering called")

    monkeypatch.setattr(engine, "select_attributes", boom)
    monkeypatch.setattr(clustering, "hierarchical", boom)
    monkeypatch.setattr(clustering, "kmeans", boom)
    sol = run(inst, scen, BendersConfig(**config))
    assert sol.status is RunStatus.CONVERGED


def test_consolidation_is_honoured_in_multi_cut_mode(toy_a):
    inst, scen = toy_a
    eps = 1e-6
    oracle = solve_milp(build_extensive(inst, scen)).objective
    sol = run(inst, scen, BendersConfig(mode=CutMode.MULTI, consolidate=True, kappa=2,
                                        eps=eps))
    assert sol.status is RunStatus.CONVERGED
    removed = sum(r.cuts_removed for r in sol.state.history)
    assert removed > 0 and sol.pool.consolidated_iters
    added = sum(r.cuts_added for r in sol.state.history)
    assert sol.pool.row_contribution == added - removed
    assert sol.objective == pytest.approx(oracle, abs=2 * eps * max(1.0, abs(oracle)))


def test_every_milp_master_on_med_b_closes_at_the_root(med_b):
    # the premise of the MILP options (backend._MILP_OPTIONS): a master
    # solve never branches, so restarts and primal heuristics buy nothing
    inst, scen = med_b
    sol = run(inst, scen, BendersConfig(mode=CutMode.MULTI))
    milp = [r for r in sol.state.history if r.phase == "milp"]
    assert sol.status is RunStatus.CONVERGED and milp
    assert [r.master_mip_nodes for r in milp] == [1] * len(milp)
