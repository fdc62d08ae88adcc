"""Model builders: row census, hand LP oracles, enumeration oracle, cuts."""

import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from sucbenders.backend import SolveStatus, solve_lp, solve_milp
from sucbenders.cuts import (Cut, CutKind, CutMode, CutPool,
                             make_full_aggregate_cut, make_per_scenario_cuts)
from sucbenders.data import ScenarioSet
from sucbenders.formulations import (FirstStageSolution, build_extensive,
                                     build_master, build_subproblem,
                                     default_theta_min, extract_first_stage,
                                     first_stage_layout,
                                     first_stage_row_count,
                                     first_stage_violation, link_columns,
                                     sample_feasible_first_stage,
                                     second_stage_row_count, solve_subproblem)

# -- row census --------------------------------------------------------------
# toy-a by hand: per generator (no enforced initial periods)
#   min-up + min-down:            2 * T = 8
#   logic, exclusion, two ramps,
#   p-min, p-max:                 6 * T = 24
# two generators: 64; plus T * (nodes + lines) = 4 * 3 = 12 -> 76 first-stage
# rows.  Second stage per scenario: T * (nodes + 2*gens + lines) = 4*7 = 28.

TOY_FS_ROWS = 76
TOY_SS_ROWS = 28


def test_first_stage_census_toy_a(toy_a):
    inst, _ = toy_a
    assert first_stage_row_count(inst) == TOY_FS_ROWS


def test_second_stage_census_toy_a(toy_a):
    inst, _ = toy_a
    assert second_stage_row_count(inst) == TOY_SS_ROWS


def test_extensive_row_count_toy_a(toy_a):
    inst, scen = toy_a
    model = build_extensive(inst, scen)
    assert model.row_count == TOY_FS_ROWS + scen.n_scenarios * TOY_SS_ROWS


def test_empty_pool_master_rows(toy_a):
    inst, scen = toy_a
    tmin = default_theta_min(inst)
    multi = build_master(inst, scen, CutMode.MULTI, CutPool(), tmin)
    single = build_master(inst, scen, CutMode.SINGLE, CutPool(), tmin)
    assert multi.row_count == TOY_FS_ROWS + scen.n_scenarios
    assert single.row_count == TOY_FS_ROWS + 1


def test_empty_pool_master_value_is_cda_plus_theta_min(toy_a):
    inst, scen = toy_a
    tmin = default_theta_min(inst)
    for mode in (CutMode.SINGLE, CutMode.MULTI, CutMode.AGGREGATED):
        master = build_master(inst, scen, mode, CutPool(), tmin)
        res = solve_milp(master)
        sol = extract_first_stage(inst, res)
        assert res.objective == pytest.approx(sol.c_da + tmin, abs=1e-6)


def test_default_theta_min_toy_a(toy_a):
    inst, _ = toy_a
    # -(C-_g1 * R-_g1 + C-_g2 * R-_g2) * T = -(8*20 + 25*15) * 4
    assert default_theta_min(inst) == pytest.approx(-2140.0)


# -- hand LP oracles ---------------------------------------------------------

def _perfect_foresight(toy_a):
    """Day-ahead solution of the |Omega|=1 problem using scenario s1's wind."""
    inst, scen = toy_a
    only = scen.restrict(["s1"])
    res = solve_milp(build_extensive(inst, only))
    return inst, scen, only, extract_first_stage(inst, res)


def test_perfect_foresight_zero_recourse(toy_a):
    inst, scen, only, x_hat = _perfect_foresight(toy_a)
    assert x_hat.r_plus.sum() == pytest.approx(0.0, abs=1e-6)
    sub = solve_subproblem(inst, only, "s1", x_hat)
    assert sub.objective == pytest.approx(0.0, abs=1e-6)


def test_wind_deficit_forces_shedding_at_shed_cost(toy_a):
    # with zero reserves, a 10 MW wind deficit per period can only be shed:
    # Q = T * 10 * C_shed
    inst, scen, only, x_hat = _perfect_foresight(toy_a)
    assert x_hat.r_plus.sum() == pytest.approx(0.0, abs=1e-6)
    deficit = {
        ("d", "w1", t): x_hat.w[0, t - 1] - 10.0 for t in range(1, 5)
    }
    assert all(v >= 0 for v in deficit.values())
    scen_d = ScenarioSet(("d",), (1.0,), deficit)
    sub = solve_subproblem(inst, scen_d, "d", x_hat)
    assert sub.objective == pytest.approx(4 * 10.0 * inst.shed_cost, abs=1e-4)


def test_complete_recourse_on_random_points(toy_a):
    inst, scen = toy_a
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = sample_feasible_first_stage(inst, rng)
        assert first_stage_violation(inst, x) <= 1e-6
        for omega in scen.scenario_ids:
            solve_subproblem(inst, scen, omega, x)  # raises if not optimal


def test_first_stage_violation_sees_each_kind_of_constraint(toy_a):
    # break, one at a time, a <= row (p-max), a >= row (p-min), an equality
    # row (logic) and a column bound (r+ >= 0 in the last period, where
    # lowering r+ loosens every row it enters) of a feasible point
    inst, _ = toy_a
    x = sample_feasible_first_stage(inst, np.random.default_rng(21))
    assert first_stage_violation(inst, x) <= 1e-6
    g = inst.generators[0]

    def bumped(name, idx, value):
        arr = getattr(x, name).copy()
        arr[idx] = value
        return dataclasses.replace(x, **{name: arr})

    broken = {
        "p-max": bumped("p", (0, 0), g.p_max * x.u[0, 0] + 1.0),
        "p-min": bumped("r_minus", (0, 0), x.r_minus[0, 0] + x.p[0, 0] + 1.0),
        "logic": bumped("y", (0, 1), x.y[0, 1] + 0.5),
        "bound": bumped("r_plus", (0, inst.horizon - 1), -1.0),
    }
    for kind, point in broken.items():
        assert first_stage_violation(inst, point) > 1e-3, kind


# -- enumeration oracle ------------------------------------------------------

def enumeration_oracle(inst, scen) -> float:
    """Minimum over all 2^(|G|*T) commitment patterns of the pattern-fixed LP.

    With u fixed, y and z are forced to the 0/1 start/stop differences by the
    logic equalities and positive costs, so the LP relaxation is exact per
    pattern and the minimum over patterns equals the MILP optimum.
    """
    model = build_extensive(inst, scen)
    u = first_stage_layout(inst).u.ravel()
    best = np.inf
    for bits in itertools.product((0.0, 1.0), repeat=len(u)):
        res = solve_lp(model.fixed(u, np.array(bits), relax=True))
        if res.status is SolveStatus.OPTIMAL and res.objective < best:
            best = res.objective
    return float(best)


def test_extensive_matches_enumeration_oracle(toy_a):
    inst, scen = toy_a
    milp = solve_milp(build_extensive(inst, scen))
    oracle = enumeration_oracle(inst, scen)
    assert milp.objective == pytest.approx(oracle, abs=1e-5)


# -- cut evaluation ----------------------------------------------------------

def _zero_cut(inst, intercept=7.0, lam=None):
    n_link = sum(cols.size for cols in link_columns(inst))
    return Cut(CutKind.PER_SCENARIO, 1, ("s1",), {}, intercept,
               np.zeros(n_link) if lam is None else lam, np.zeros(n_link), tag="s1")


def _point(inst, r_plus):
    shape_g = (inst.n_gens, inst.horizon)
    shape_w = (inst.n_farms, inst.horizon)
    shape_f = (inst.n_lines, inst.horizon)
    return FirstStageSolution(
        np.zeros(shape_g), np.zeros(shape_g), np.zeros(shape_g),
        np.zeros(shape_g), r_plus, np.zeros(shape_g),
        np.zeros(shape_w), np.zeros(shape_f),
        np.zeros((inst.n_nodes, inst.horizon)), 0.0)


def test_zero_dual_cut_is_constant(toy_a):
    inst, _ = toy_a
    cut = _zero_cut(inst)
    x = _point(inst, np.full((inst.n_gens, inst.horizon), 3.0))
    assert cut.evaluate(x.link()) == pytest.approx(7.0)


def test_single_dual_linear_term(toy_a):
    inst, _ = toy_a
    rp = link_columns(inst)[0]
    lam = np.zeros(sum(cols.size for cols in link_columns(inst)))
    lam[rp[0, 0]] = 2.0
    cut = _zero_cut(inst, lam=lam)
    x = _point(inst, np.zeros((inst.n_gens, inst.horizon)))
    x.r_plus[0, 0] = 5.0  # 5 above the zero anchor
    assert cut.evaluate(x.link()) == pytest.approx(7.0 + 10.0)


def test_cut_tight_at_anchor(toy_a):
    inst, scen = toy_a
    rng = np.random.default_rng(3)
    x = sample_feasible_first_stage(inst, rng)
    sub = solve_subproblem(inst, scen, "s2", x)
    cut = Cut(CutKind.PER_SCENARIO, 1, ("s2",), {}, sub.objective, sub.lam, x.link(),
              tag="s2")
    assert cut.evaluate(x.link()) == pytest.approx(sub.objective, abs=1e-9)


def test_master_cut_rows_read_back_as_the_cuts(toy_a):
    # a cut row is "theta terms - lambda . x >= rhs", so rhs minus its
    # first-stage part is Theta(x) at any x, and its theta part carries the
    # member scenarios with the master's weights
    inst, scen = toy_a
    ids = scen.scenario_ids
    rng = np.random.default_rng(8)
    anchor = sample_feasible_first_stage(inst, rng)
    results = [solve_subproblem(inst, scen, om, anchor) for om in ids]
    per_scenario = make_per_scenario_cuts(results, anchor, 1)
    full = make_full_aggregate_cut(results, dict(zip(ids, scen.probabilities)), anchor, 1)
    X = first_stage_layout(inst)
    x = rng.uniform(-5.0, 5.0, X.n)
    point = extract_first_stage(inst, SimpleNamespace(x=x)).link()
    for mode, cuts, thetas in (
            (CutMode.MULTI, per_scenario,
             [[float(om == c.members[0]) for om in ids] for c in per_scenario]),
            (CutMode.SINGLE, [full], [[1.0]]),
            (CutMode.AGGREGATED, [full], [list(scen.probabilities)])):
        pool = CutPool()
        for cut in cuts:
            pool.add(cut)
        master = build_master(inst, scen, mode, pool, default_theta_min(inst))
        first = master.row_count - len(cuts)
        for k, (cut, theta) in enumerate(zip(cuts, thetas)):
            row = master.A[first + k].toarray().ravel()
            assert master.row_lo[first + k] - row[:X.n] @ x == \
                pytest.approx(cut.evaluate(point), rel=1e-12, abs=1e-9)
            assert row[X.n:].tolist() == theta


def test_subproblem_has_no_binaries(toy_a):
    inst, scen = toy_a
    x = sample_feasible_first_stage(inst, np.random.default_rng(5))
    assert not build_subproblem(inst, scen, "s1", x).integral.any()
