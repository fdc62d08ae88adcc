"""LP/MILP adapter: statuses, dual-sign convention, determinism, and the
persistent LP solver against the one-shot solve."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from sucbenders.backend import (BackendError, LinearModel, LPSolver, SolveStatus,
                                solve_lp, solve_milp)
from sucbenders.formulations import (RecourseSolver, build_subproblem,
                                     recourse_template, sample_feasible_first_stage,
                                     solve_subproblem)

INF = np.inf


def model(c, rows=(), lo=(), hi=(), lb=None, ub=None, integral=None):
    """``min c.x`` over dense constraint ``rows`` with bounds ``lo``/``hi``."""
    n = len(c)
    return LinearModel(np.asarray(c, dtype=float),
                       np.zeros(n) if lb is None else np.asarray(lb, dtype=float),
                       np.full(n, INF) if ub is None else np.asarray(ub, dtype=float),
                       np.zeros(n, dtype=bool) if integral is None else np.asarray(integral),
                       sp.csr_matrix(np.reshape(np.asarray(rows, dtype=float), (len(lo), n))),
                       np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))


def test_fixing_constraint_dual_is_value_function_slope():
    res = solve_lp(model([1.0], [[1.0]], [3.0], [3.0], lb=[-INF]))
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(3.0)
    assert res.row_dual[0] == pytest.approx(1.0)


def test_zero_objective_zero_dual():
    res = solve_lp(model([0.0], [[1.0]], [3.0], [3.0], lb=[-INF]))
    assert res.objective == pytest.approx(0.0)
    assert res.row_dual[0] == pytest.approx(0.0)


def test_unbounded_status():
    assert solve_lp(model([-1.0], lb=[-INF])).status is SolveStatus.UNBOUNDED


def test_infeasible_status():
    m = model([1.0], [[1.0]], [2.0], [INF], ub=[1.0])
    assert solve_lp(m).status is SolveStatus.INFEASIBLE


def test_ge_row_dual_sign():
    # min x s.t. x >= 4: raising the rhs raises the optimum, dual must be +1
    res = solve_lp(model([1.0], [[1.0]], [4.0], [INF]))
    assert res.row_dual[0] == pytest.approx(1.0)


def test_le_row_dual_sign():
    # max x (= min -x) s.t. x <= 5: dual dObj/dRHS = -1
    res = solve_lp(model([-1.0], [[1.0]], [-INF], [5.0]))
    assert res.row_dual[0] == pytest.approx(-1.0)


def test_duals_follow_row_order_across_senses():
    # min a + 2b + 3c s.t. c <= 5 (slack), a >= 1, b = 2: the duals must land
    # on their own rows although the adapter splits rows by sense
    res = solve_lp(model([1.0, 2.0, 3.0], [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
                         [-INF, 1.0, 2.0], [5.0, INF, 2.0]))
    np.testing.assert_allclose(res.row_dual, [0.0, 1.0, 2.0], atol=1e-12)


def test_finite_difference_matches_dual():
    # Q(x_hat) = min 2a + 3b s.t. a + b >= 10, a = x_hat; slope wrt x_hat
    def q(x_hat):
        return solve_lp(model([2.0, 3.0], [[1.0, 1.0], [1.0, 0.0]],
                              [10.0, x_hat], [INF, x_hat]))

    h = 1e-4
    base = q(4.0)
    bumped = q(4.0 + h)
    fd = (bumped.objective - base.objective) / h
    assert abs(fd - base.row_dual[1]) <= 1e-3


def test_milp_unconstrained_binary():
    m = model([1.0], ub=[1.0], integral=[True])
    assert solve_milp(m).objective == pytest.approx(0.0)


def test_milp_fixed_vars_dominate():
    m = model([1.0], ub=[1.0], integral=[True])
    res = solve_milp(m.fixed([0], [1.0]))
    assert res.objective == pytest.approx(1.0)
    assert res.row_count == 0  # fixing adds no rows


def test_fixing_outside_the_bounds_is_rejected():
    m = model([1.0, 1.0], ub=[1.0, 5.0], integral=[True, False])
    with pytest.raises(BackendError):
        m.fixed([1], [6.0])
    with pytest.raises(BackendError):
        m.fixed([0], [2.0])
    assert m.fixed([0], [0.9999]).lb[0] == 1.0   # integer columns are rounded


def test_solve_lp_rejects_binaries():
    with pytest.raises(BackendError):
        solve_lp(model([0.0], ub=[1.0], integral=[True]))


def test_solve_lp_rejects_two_sided_rows():
    with pytest.raises(BackendError):
        solve_lp(model([1.0], [[1.0]], [1.0], [2.0]))


def test_determinism_across_repeat_solves():
    def build():
        rng = np.random.default_rng(7)
        c = rng.uniform(-1, 1, 20)
        rows = rng.uniform(-1, 1, (10, 20))
        return model(c, rows, np.full(10, -INF), rng.uniform(1, 5, 10),
                     ub=np.full(20, 10.0))

    first = solve_lp(build())
    for _ in range(3):
        again = solve_lp(build())
        assert again.objective == first.objective
        assert np.array_equal(again.x, first.x)
        assert np.array_equal(again.row_dual, first.row_dual)


def test_fixed_copy_relax_drops_integrality():
    m = model([1.0], ub=[1.0], integral=[True])
    relaxed = m.fixed([0], [1.0], relax=True)
    assert not relaxed.integral.any()
    assert m.integral.all()              # the original is untouched
    assert solve_lp(relaxed).objective == pytest.approx(1.0)


def _bounds_around(rows, x, sense, slack):
    """Row bounds that ``x`` meets: <= rows (sense 0) and >= rows (sense 1)
    ``slack`` away from ``rows @ x``, = rows (sense 2) on it."""
    ax = rows @ x
    lo = np.where(sense == 0, -INF, np.where(sense == 1, ax - slack, ax))
    hi = np.where(sense == 0, ax + slack, np.where(sense == 1, INF, ax))
    return lo, hi


def _mixed_senses():
    """A bounded LP whose rows interleave <=, >= and = senses, with the row
    matrix, the senses and a point inside the box that meets every row."""
    rng = np.random.default_rng(3)
    n = 12
    x0 = rng.uniform(1.0, 9.0, n)
    rows = rng.uniform(-1.0, 1.0, (9, n))
    sense = np.array([0, 1, 2] * 3)
    lo, hi = _bounds_around(rows, x0, sense, 2.0)
    return (model(rng.uniform(-1.0, 1.0, n), rows, lo, hi, ub=np.full(n, 10.0)),
            rows, sense, x0)


def _assert_same(got, want):
    assert got.status is want.status is SolveStatus.OPTIMAL
    assert got.objective == want.objective
    assert np.array_equal(got.x, want.x)
    assert np.array_equal(got.row_dual, want.row_dual)


def test_lp_solver_matches_solve_lp_bit_for_bit():
    m, _, _, _ = _mixed_senses()
    _assert_same(LPSolver(m).solve(), solve_lp(m))


def test_lp_solver_matches_solve_lp_after_bound_changes_in_any_order():
    # every step sets the same columns and rows, so the model it solves does
    # not depend on the steps before it
    m, rows, sense, x0 = _mixed_senses()
    rng = np.random.default_rng(4)
    cols = np.array([0, 5, 7])
    steps = []
    for _ in range(4):
        x1 = x0 + rng.uniform(-0.5, 0.5, x0.size)
        steps.append((x1[cols] - 0.5, x1[cols] + rng.uniform(0.5, 3.0, cols.size),
                      *_bounds_around(rows, x1, sense, rng.uniform(0.0, 2.0, sense.size))))
    objectives = set()
    for order in (steps, steps[::-1]):
        solver = LPSolver(m)
        for lb, ub, lo, hi in order:
            want_lb, want_ub = m.lb.copy(), m.ub.copy()
            want_lb[cols], want_ub[cols] = lb, ub
            want = solve_lp(replace(m, lb=want_lb, ub=want_ub, row_lo=lo, row_hi=hi))
            _assert_same(solver.solve(cols, lb, ub, np.arange(sense.size), lo, hi), want)
            objectives.add(want.objective)
    assert len(objectives) == len(steps)


def test_lp_solver_recovers_from_infeasible_bounds():
    m = model([1.0, 1.0], [[1.0, 1.0]], [2.0], [INF], ub=[5.0, 5.0])
    solver = LPSolver(m)
    assert solver.solve([0, 1], [0.0, 0.0], [0.5, 0.5]).status is SolveStatus.INFEASIBLE
    res = solver.solve([0, 1], [0.0, 0.0], [5.0, 5.0])
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(2.0)


def test_lp_solver_rejects_a_change_of_row_sense():
    m, _, _, _ = _mixed_senses()
    solver = LPSolver(m)
    with pytest.raises(BackendError):
        solver.solve(rows=[2], row_lo=[0.0], row_hi=[1.0])      # = row made two-sided
    with pytest.raises(BackendError):
        solver.solve(rows=[0], row_lo=[1.0], row_hi=[1.0])      # <= row made =
    with pytest.raises(BackendError):
        solver.solve(rows=[1], row_lo=[-INF], row_hi=[1.0])     # >= row made <=


def test_recourse_template_solve_matches_a_model_built_from_scratch(med_b):
    inst, scen = med_b
    x = sample_feasible_first_stage(inst, np.random.default_rng(21))
    solver = RecourseSolver(recourse_template(inst, scen))
    n_link = sum(cols.size for cols in solver.template.link)
    for omega in scen.scenario_ids[3:6]:
        model = build_subproblem(inst, scen, omega, x)
        want = solve_lp(model)
        got = solve_subproblem(inst, scen, omega, x, solver)
        assert got.objective == want.objective
        lam = want.row_dual[model.row_count - n_link:]
        for cols, block in zip(solver.template.link,
                               (got.lam_rp, got.lam_rm, got.lam_w, got.lam_f)):
            assert np.array_equal(block, lam[cols])
