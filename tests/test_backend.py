"""LP/MILP adapter: statuses, dual-sign convention, determinism."""

import numpy as np
import pytest
import scipy.sparse as sp

from sucbenders.backend import (BackendError, LinearModel, SolveStatus,
                                solve_lp, solve_milp)

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
