"""LP/MILP adapter: statuses, dual-sign convention, determinism, input
checks, the row layouts against scipy's own HiGHS entry points, and the
persistent solver against the one-shot solve."""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.optimize._highspy import _core as highs

import sucbenders
from sucbenders.backend import (BackendError, HighsSolver, LinearModel, SolveStatus,
                                solve_lp, solve_milp)
from sucbenders.cuts import CutMode
from sucbenders.engine import BendersConfig, run
from sucbenders.formulations import (RecourseSolver, build_master, build_subproblem,
                                     default_theta_min, master_template,
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


def test_col_dual_at_upper_bound():
    # max x (= min -x) s.t. x <= 5 as a bound: dObj/d(ub) = -1
    res = solve_lp(model([-1.0], ub=[5.0]))
    assert res.col_dual[0] == pytest.approx(-1.0)


@pytest.mark.parametrize("presolve", [True, False])
@pytest.mark.parametrize("cost, reduced", [(3.0, 2.0), (-1.0, -2.0)])
def test_col_dual_of_a_column_fixed_at_zero(presolve, cost, reduced):
    # min cost*x + y s.t. x + y >= 1, x fixed at 0: the reduced cost of x is
    # cost - 1 with either sign, and min(col_dual, 0) is the slope of the
    # optimum in x's upper bound
    def q(ub):
        return HighsSolver(model([cost, 1.0], [[1.0, 1.0]], [1.0], [INF], ub=[ub, INF]),
                           presolve=presolve).solve()

    res = q(0.0)
    assert res.col_dual[0] == pytest.approx(reduced)
    h = 1e-3
    assert (q(h).objective - res.objective) / h == pytest.approx(min(reduced, 0.0))


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


@pytest.mark.parametrize("gap", [-1.0, np.nan, np.inf])
def test_a_gap_that_highs_would_ignore_is_rejected(gap):
    # HiGHS refuses a negative gap and keeps its default; it accepts NaN and inf
    m = model([1.0], ub=[1.0], integral=[True])
    with pytest.raises(BackendError):
        solve_milp(m, mip_gap=gap)


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


def _bad_model(case: str, integral: bool) -> LinearModel:
    """A feasible two-column model with one entry made NaN or infinite."""
    m = model([1.0, 1.0], [[1.0, 1.0]], [1.0], [INF], ub=[5.0, 5.0],
              integral=[integral, False])
    bad = {"nan cost": dict(c=np.array([np.nan, 1.0])),
           "inf cost": dict(c=np.array([-INF, 1.0])),
           "nan column lb": dict(lb=np.array([np.nan, 0.0])),
           "nan column ub": dict(ub=np.array([5.0, np.nan])),
           "nan row lo": dict(row_lo=np.array([np.nan])),
           "nan row hi": dict(row_hi=np.array([np.nan]))}
    if case in bad:
        return replace(m, **bad[case])
    A = m.A.copy()
    A.data[0] = np.nan if case == "nan matrix entry" else INF
    return replace(m, A=A)


@pytest.mark.parametrize("solve", [solve_lp, solve_milp], ids=["lp", "milp"])
@pytest.mark.parametrize("case", ["nan cost", "inf cost", "nan column lb", "nan column ub",
                                  "nan row lo", "nan row hi", "nan matrix entry",
                                  "inf matrix entry"])
def test_non_finite_input_is_never_solved(solve, case):
    m = _bad_model(case, integral=solve is solve_milp)
    try:
        res = solve(m)
    except BackendError:
        return
    assert res.status is SolveStatus.ERROR


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
    assert np.array_equal(got.col_dual, want.col_dual)


def test_solve_lp_matches_linprog_bit_for_bit():
    # solve_lp passes linprog's stacked layout: <= rows, >= rows negated,
    # then = rows; the duals come back in model row order
    m, _, sense, _ = _mixed_senses()
    ineq, eq = np.flatnonzero(sense < 2), np.flatnonzero(sense == 2)
    sign = np.where(sense == 1, -1.0, 1.0)
    want = linprog(m.c, A_ub=sp.diags(sign[ineq]) @ m.A[ineq],
                   b_ub=np.where(sense == 1, -m.row_lo, m.row_hi)[ineq],
                   A_eq=m.A[eq], b_eq=m.row_lo[eq],
                   bounds=np.column_stack((m.lb, m.ub)), method="highs")
    got = solve_lp(m)
    assert got.status is SolveStatus.OPTIMAL and want.status == 0
    assert got.objective == want.fun
    assert np.array_equal(got.x, want.x)
    assert np.array_equal(got.row_dual[ineq], sign[ineq] * want.ineqlin.marginals)
    assert np.array_equal(got.row_dual[eq], want.eqlin.marginals)


def test_solve_milp_matches_scipy_milp_bit_for_bit(toy_a):
    # solve_milp passes milp's native two-sided rows; a toy-a master with
    # the cuts of a few multi-cut iterations
    inst, scen = toy_a
    pool = run(inst, scen, BendersConfig(mode=CutMode.MULTI, max_iters=6)).pool
    m = build_master(master_template(inst, scen, default_theta_min(inst)), pool)
    assert m.integral.any() and m.row_count > 0
    want = milp(m.c, constraints=LinearConstraint(m.A, m.row_lo, m.row_hi),
                integrality=m.integral, bounds=Bounds(m.lb, m.ub),
                options={"mip_rel_gap": 1e-6, "presolve": True})
    got = solve_milp(m, mip_gap=1e-6)
    assert got.status is SolveStatus.OPTIMAL and want.status == 0
    assert got.objective == want.fun
    assert np.array_equal(got.x, want.x)


def _passed_column_wise(m: LinearModel, mip_gap=None) -> HighsSolver:
    """A solver holding ``m`` whose matrix reached HiGHS column-wise: scipy's
    CSC of the loader's rows (negated and reordered in the stacked layout)."""
    solver = HighsSolver(m, mip_gap)
    rows = solver._rows
    A = sp.csc_array((sp.diags(rows.sign) @ m.A)[rows.order] if rows.stacked else m.A)
    lp = solver._highs.getLp()
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = \
        A.indptr, A.indices, A.data
    assert solver._highs.passModel(lp) != highs.HighsStatus.kError
    return solver


@pytest.mark.parametrize("relax", [True, False], ids=["lp-stacked", "milp-native"])
def test_row_wise_load_matches_a_column_wise_pass(toy_a, relax):
    # a toy-a master with the cuts of a few multi-cut iterations, solved as
    # an LP (stacked rows, some negated) and as a MILP (native rows)
    inst, scen = toy_a
    pool = run(inst, scen, BendersConfig(mode=CutMode.MULTI, max_iters=6)).pool
    m = build_master(master_template(inst, scen, default_theta_min(inst)), pool)
    if relax:
        m = replace(m, integral=np.zeros_like(m.integral))
    gap = None if relax else 1e-6
    got = HighsSolver(m, gap).solve()
    want = _passed_column_wise(m, gap).solve()
    assert got.status is want.status is SolveStatus.OPTIMAL
    assert got.objective == want.objective
    assert np.array_equal(got.x, want.x)
    if relax:
        assert np.array_equal(got.row_dual, want.row_dual)
        assert np.array_equal(got.col_dual, want.col_dual)


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
        solver = HighsSolver(m)
        for lb, ub, lo, hi in order:
            want_lb, want_ub = m.lb.copy(), m.ub.copy()
            want_lb[cols], want_ub[cols] = lb, ub
            want = solve_lp(replace(m, lb=want_lb, ub=want_ub, row_lo=lo, row_hi=hi))
            _assert_same(solver.solve(cols, lb, ub, np.arange(sense.size), lo, hi), want)
            objectives.add(want.objective)
    assert len(objectives) == len(steps)


def test_lp_solver_recovers_from_infeasible_bounds():
    m = model([1.0, 1.0], [[1.0, 1.0]], [2.0], [INF], ub=[5.0, 5.0])
    solver = HighsSolver(m)
    assert solver.solve([0, 1], [0.0, 0.0], [0.5, 0.5]).status is SolveStatus.INFEASIBLE
    res = solver.solve([0, 1], [0.0, 0.0], [5.0, 5.0])
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(2.0)


def test_lp_solver_rejects_a_change_of_row_sense():
    m, _, _, _ = _mixed_senses()
    solver = HighsSolver(m)
    with pytest.raises(BackendError):
        solver.solve(rows=[2], row_lo=[0.0], row_hi=[1.0])      # = row made two-sided
    with pytest.raises(BackendError):
        solver.solve(rows=[0], row_lo=[1.0], row_hi=[1.0])      # <= row made =
    with pytest.raises(BackendError):
        solver.solve(rows=[1], row_lo=[-INF], row_hi=[1.0])     # >= row made <=


def test_recourse_template_solve_matches_a_model_built_from_scratch(med_b):
    # the template's solver runs without presolve, so the from-scratch model
    # is solved the same way for a bit-for-bit match; a presolved solve
    # (solve_lp) may differ in the last bits
    inst, scen = med_b
    x = sample_feasible_first_stage(inst, np.random.default_rng(21))
    template = recourse_template(inst, scen)
    solver = RecourseSolver(template)
    for omega in scen.scenario_ids[3:7]:
        model = build_subproblem(inst, scen, omega, x)
        assert model.row_count == 96 and model.c.size == 324
        want = HighsSolver(model, presolve=False).solve()
        got = solve_subproblem(inst, scen, omega, x, solver)
        assert got.objective == want.objective
        assert np.array_equal(got.lam, template.lam(want))
        presolved = solve_lp(model)
        assert got.objective == pytest.approx(presolved.objective, rel=1e-12, abs=1e-9)
        np.testing.assert_allclose(got.lam, template.lam(presolved), atol=1e-9)


@pytest.mark.parametrize("family", ["w", "r_plus"])
def test_recourse_solve_rejects_a_nan_point(toy_a, family):
    inst, scen = toy_a
    x = sample_feasible_first_stage(inst, np.random.default_rng(5))
    values = getattr(x, family).copy()
    values[0, 1] = np.nan
    solver = RecourseSolver(recourse_template(inst, scen))
    with pytest.raises(BackendError, match="NaN"):
        solve_subproblem(inst, scen, "s1", replace(x, **{family: values}), solver)
    # the rejected bounds never reached HiGHS
    assert solve_subproblem(inst, scen, "s1", x, solver).objective == \
        solve_subproblem(inst, scen, "s1", x).objective


def _calls_and_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield "call", getattr(func, "id", None) or getattr(func, "attr", None)
        elif isinstance(node, ast.ImportFrom):
            yield "import", node.module or ""
            yield from (("import", f"{node.module}.{a.name}") for a in node.names)
        elif isinstance(node, ast.Import):
            yield from (("import", a.name) for a in node.names)


def test_one_solver_path():
    # backend.py is the only module that loads models into HiGHS, and nothing
    # reaches HiGHS through scipy's one-shot linprog/milp
    for path in sorted(Path(sucbenders.__file__).parent.glob("*.py")):
        for kind, name in _calls_and_imports(ast.parse(path.read_text())):
            if kind == "call":
                assert name not in ("linprog", "milp"), f"{path.name} calls {name}"
            elif path.name != "backend.py":
                assert "_highspy" not in name, f"{path.name} imports {name}"
