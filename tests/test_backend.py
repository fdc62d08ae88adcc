"""LP/MILP adapter: statuses, dual-sign convention, determinism, input
checks, the row layouts against scipy's own HiGHS entry points, and the
persistent solver's batches against one-shot solves."""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.optimize._highspy import _core as highs

import sucbenders
from sucbenders import backend, formulations
from sucbenders.backend import (BackendError, BatchResult, HighsInstance, HighsSolver,
                                LinearModel, RowBlock, SolveStatus, solve_lp, solve_milp)
from sucbenders.cuts import CutMode
from sucbenders.engine import BendersConfig, run
from sucbenders.formulations import (MasterSolver, RecourseSolver, build_extensive,
                                     build_master, build_subproblem, default_theta_min,
                                     master_template, recourse_template,
                                     sample_feasible_first_stage, solve_subproblem)

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


# what every optimality MILP sets: no restart, and none of these heuristics
ROOT_CLOSING = {"mip_allow_restart": False,
                "mip_heuristic_run_feasibility_jump": False,
                "mip_heuristic_run_rins": False,
                "mip_heuristic_run_rens": False,
                "mip_heuristic_run_root_reduced_cost": False,
                "mip_heuristic_run_zi_round": False,
                "mip_heuristic_run_shifting": False}


def _mip_options(h) -> dict:
    return {name: h.getOptionValue(name)[1] for name in ROOT_CLOSING}


@pytest.fixture
def made_instances(monkeypatch):
    """Every ``HighsInstance`` made while the test runs."""
    made = []

    class Recorded(HighsInstance):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(backend, "HighsInstance", Recorded)
    monkeypatch.setattr(formulations, "HighsInstance", Recorded)
    return made


def test_milp_instances_close_the_root_without_restarts_or_heuristics(toy_a, made_instances):
    inst, scen = toy_a
    defaults = _mip_options(highs._Highs())
    assert defaults != ROOT_CLOSING
    assert _mip_options(HighsInstance(mip_gap=1e-6)._highs) == ROOT_CLOSING
    # an LP instance, and a MILP one that keeps HiGHS's search, keep its defaults
    assert _mip_options(HighsInstance()._highs) == defaults
    assert _mip_options(HighsInstance(mip_gap=1e-6, heuristics=True)._highs) == defaults
    # the masters of every cut mode and the extensive MILP take the set; the
    # sampler's feasibility search keeps the defaults
    master = MasterSolver(master_template(inst, scen, default_theta_min(inst)), 1e-6)
    assert _mip_options(master.highs._highs) == ROOT_CLOSING
    made_instances.clear()
    assert solve_milp(build_extensive(inst, scen)).status is SolveStatus.OPTIMAL
    assert [_mip_options(h._highs) for h in made_instances] == [ROOT_CLOSING]
    made_instances.clear()
    sample_feasible_first_stage(inst, np.random.default_rng(3))
    assert [_mip_options(h._highs) for h in made_instances] == [defaults]


def test_a_milp_option_that_highs_refuses_raises(monkeypatch):
    monkeypatch.setattr(backend, "_MILP_OPTIONS",
                        backend._MILP_OPTIONS + (("mip_heuristic_run_nothing", False),))
    with pytest.raises(BackendError, match="mip_heuristic_run_nothing"):
        HighsInstance(mip_gap=1e-6)
    HighsInstance()     # an LP instance does not take the set


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


def _assert_solve_k(got: BatchResult, k: int, want):
    """Solve ``k`` of a batch gave the bits of the single solve ``want``."""
    assert got.status[k] is want.status is SolveStatus.OPTIMAL
    assert got.objective[k] == want.objective
    assert np.array_equal(got.row_dual[k], want.row_dual)
    assert np.array_equal(got.col_dual[k], want.col_dual)
    assert got.simplex_iters[k] == want.simplex_iters


def _solve_once(solver: HighsSolver, cols=(), lb=(), ub=(), rows=(), row_lo=(), row_hi=(),
                basis=None) -> BatchResult:
    """A batch of one solve with these bounds."""
    return solver.solve_batch(cols, lb, np.reshape(ub, (1, -1)), rows,
                              np.reshape(row_lo, (1, -1)), np.reshape(row_hi, (1, -1)), basis)


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


def _passed_column_wise(m: LinearModel, relax: bool) -> HighsInstance:
    """An instance holding ``m`` whose matrix reached HiGHS column-wise:
    scipy's CSC of the loaded rows (negated and reordered in the LP
    layout)."""
    h = HighsInstance(None if relax else 1e-6)
    h.load(m.c, m.lb, m.ub, RowBlock(m), integral=None if relax else m.integral)
    rows = h._rows
    A = sp.csc_array(m.A if rows.pos is None
                     else (sp.diags(rows.sign) @ m.A)[np.argsort(rows.pos)])
    lp = h._highs.getLp()
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = \
        A.indptr, A.indices, A.data
    assert h._highs.passModel(lp) != highs.HighsStatus.kError
    return h


@pytest.mark.parametrize("relax", [True, False], ids=["lp-stacked", "milp-native"])
def test_row_wise_load_matches_a_column_wise_pass(toy_a, relax):
    # a toy-a master with the cuts of a few multi-cut iterations, solved as
    # an LP (stacked rows, some negated) and as a MILP (native rows)
    inst, scen = toy_a
    pool = run(inst, scen, BendersConfig(mode=CutMode.MULTI, max_iters=6)).pool
    m = build_master(master_template(inst, scen, default_theta_min(inst)), pool)
    if relax:
        m = replace(m, integral=np.zeros_like(m.integral))
    got = solve_lp(m) if relax else solve_milp(m, mip_gap=1e-6)
    want = _passed_column_wise(m, relax).run()
    assert got.status is want.status is SolveStatus.OPTIMAL
    assert got.objective == want.objective
    assert np.array_equal(got.x, want.x)
    if relax:
        assert np.array_equal(got.row_dual, want.row_dual)
        assert np.array_equal(got.col_dual, want.col_dual)


def test_lp_join_of_the_master_block_equals_the_lp_layout_of_its_model(toy_a):
    # the cut rows join the static block between its inequality and
    # equality rows, so the equality rows' positions move by the cut count
    inst, scen = toy_a
    pool = run(inst, scen, BendersConfig(mode=CutMode.MULTI, max_iters=6)).pool
    t = master_template(inst, scen, default_theta_min(inst))
    cuts = t.cut_rows(pool.live_cuts())
    got = t.block.lp_rows(cuts)
    want = RowBlock(build_master(t, pool)).lp_rows()
    for field in ("start", "index", "value", "lo", "hi", "pos", "sign"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    static = t.static
    n_eq = int((static.row_lo == static.row_hi).sum())
    assert len(cuts) > 0 and n_eq > 0
    assert np.array_equal(got.pos[static.row_count:],
                          static.row_count - n_eq + np.arange(len(cuts)))
    assert (got.sign[static.row_count:] == -1.0).all()


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
            _assert_solve_k(_solve_once(solver, cols, lb, ub, np.arange(sense.size), lo, hi),
                            0, want)
            objectives.add(want.objective)
    assert len(objectives) == len(steps)


@pytest.mark.parametrize("presolve", [True, False])
def test_lp_solver_from_a_basis_matches_a_fresh_instance_given_it(presolve):
    # a solve from a start basis depends only on the model and the basis,
    # not on what the instance solved before
    m, rows, sense, x0 = _mixed_senses()
    rng = np.random.default_rng(7)
    solver = HighsSolver(m, presolve=presolve)
    assert solver.solve().status is SolveStatus.OPTIMAL
    start = solver.basis()
    cold_iters = []
    for _ in range(3):
        lo, hi = _bounds_around(rows, x0 + rng.uniform(-0.5, 0.5, x0.size), sense,
                                rng.uniform(0.0, 2.0, sense.size))
        got = _solve_once(solver, rows=np.arange(sense.size), row_lo=lo, row_hi=hi,
                          basis=start)
        moved = replace(m, row_lo=lo, row_hi=hi)
        _assert_solve_k(got, 0, HighsSolver(moved, presolve=presolve).solve(basis=start))
        cold = HighsSolver(moved, presolve=presolve).solve()
        assert got.objective[0] == pytest.approx(cold.objective, rel=1e-9)
        cold_iters.append(cold.simplex_iters)
    # from its own optimal basis a solve takes no simplex iteration
    again = solver.solve(basis=solver.basis())
    assert again.simplex_iters == 0 and again.objective == got.objective[0]
    assert min(cold_iters) > 0


def test_lp_solver_rejects_a_start_basis_that_highs_rejects():
    # never a silent cold solve: an invalid basis, or one of another shape,
    # raises, and the solver still solves afterwards
    m, _, _, _ = _mixed_senses()
    solver = HighsSolver(m)
    want = solver.solve()
    other = HighsSolver(model([1.0, 1.0], [[1.0, 1.0]], [1.0], [INF]))
    other.solve()
    for basis in (highs.HighsBasis(), other.basis()):
        with pytest.raises(BackendError, match="basis"):
            solver.solve(basis=basis)
    _assert_same(solver.solve(), want)


def test_lp_solver_recovers_from_infeasible_bounds():
    m = model([1.0, 1.0], [[1.0, 1.0]], [2.0], [INF], ub=[5.0, 5.0])
    solver = HighsSolver(m)
    assert _solve_once(solver, [0, 1], [0.0, 0.0], [0.5, 0.5]).status == [SolveStatus.INFEASIBLE]
    res = _solve_once(solver, [0, 1], [0.0, 0.0], [5.0, 5.0])
    assert res.status == [SolveStatus.OPTIMAL]
    assert res.objective[0] == pytest.approx(2.0)


def test_lp_solver_rejects_a_change_of_row_sense():
    m, _, _, _ = _mixed_senses()
    solver = HighsSolver(m)
    with pytest.raises(BackendError, match="sense"):
        _solve_once(solver, rows=[2], row_lo=[0.0], row_hi=[1.0])      # = row made two-sided
    with pytest.raises(BackendError, match="sense"):
        _solve_once(solver, rows=[0], row_lo=[1.0], row_hi=[1.0])      # <= row made =
    with pytest.raises(BackendError, match="sense"):
        _solve_once(solver, rows=[1], row_lo=[-INF], row_hi=[1.0])     # >= row made <=


class _CallLog:
    """Stands in for a solver's HiGHS instance and logs, with their
    arguments, the calls that change the model or run it."""
    LOGGED = ("changeColsBounds", "changeRowBounds", "clearSolver", "setBasis", "run")

    def __init__(self, h):
        self._h, self.calls = h, []

    def __getattr__(self, name):
        call = getattr(self._h, name)
        if name not in self.LOGGED:
            return call

        def logged(*args):
            self.calls.append((name,) + tuple(
                a.tolist() if isinstance(a, np.ndarray) else a for a in args))
            return call(*args)
        return logged


def _log_calls(solver: HighsSolver) -> _CallLog:
    log = _CallLog(solver._highs)
    solver._highs = solver._instance._highs = log
    return log


def _batch_bounds(seed: int, n: int):
    """The mixed-senses LP and ``n`` solves' worth of bounds around points
    near its inner point: upper bounds of columns ``cols``, then row bounds;
    the second solve repeats the first's row bounds."""
    m, rows, sense, x0 = _mixed_senses()
    rng = np.random.default_rng(seed)
    cols = np.array([0, 5, 7])
    ub, lo, hi = [], [], []
    for _ in range(n):
        x1 = x0 + rng.uniform(-0.5, 0.5, x0.size)
        ub.append(x1[cols] + rng.uniform(0.5, 3.0, cols.size))
        bounds = _bounds_around(rows, x1, sense, rng.uniform(0.0, 2.0, sense.size))
        lo.append(bounds[0])
        hi.append(bounds[1])
    lo[1], hi[1] = lo[0], hi[0]
    return m, cols, np.zeros(cols.size), np.array(ub), np.arange(sense.size), \
        np.array(lo), np.array(hi)


def _moved(m: LinearModel, cols, lb, ub, lo, hi) -> LinearModel:
    """``m`` with the bounds of columns ``cols`` and every row's replaced."""
    new_lb, new_ub = m.lb.copy(), m.ub.copy()
    new_lb[cols], new_ub[cols] = lb, ub
    return replace(m, lb=new_lb, ub=new_ub, row_lo=lo, row_hi=hi)


def test_batch_makes_the_calls_and_gives_the_bits_of_one_solve_at_a_time():
    # each solve of a batch equals a fresh solver of the changed model,
    # started from the same basis
    m, cols, lb, ub, rows, lo, hi = _batch_bounds(8, 4)
    solver = HighsSolver(m)
    assert solver.solve().status is SolveStatus.OPTIMAL
    start = solver.basis()
    log = _log_calls(solver)
    got = solver.solve_batch(cols, lb, ub, rows, lo, hi, start)
    want = [HighsSolver(_moved(m, cols, lb, ub[k], lo[k], hi[k])).solve(start)
            for k in range(4)]
    names = [c[0] for c in log.calls]
    assert [n for n in names if n != "changeRowBounds"] == \
        ["changeColsBounds", "clearSolver", "setBasis", "run"] * 4
    # every row changed in three solves; the second, which repeats the
    # first's row bounds, changed none
    assert names.count("changeRowBounds") == 3 * rows.size
    for k, w in enumerate(want):
        _assert_solve_k(got, k, w)
    # the solver holds the last solve's bounds
    _assert_same(solver.solve(start), want[-1])


def test_a_cold_batch_gives_the_bits_of_fresh_cold_solves():
    m, cols, lb, ub, rows, lo, hi = _batch_bounds(11, 3)
    solver = HighsSolver(m)
    log = _log_calls(solver)
    got = solver.solve_batch(cols, lb, ub, rows, lo, hi)
    assert "setBasis" not in [c[0] for c in log.calls]
    for k in range(3):
        _assert_solve_k(got, k, HighsSolver(_moved(m, cols, lb, ub[k], lo[k], hi[k])).solve())


def test_batch_checks_every_bound_before_it_calls_highs():
    m, cols, lb, ub, rows, lo, hi = _batch_bounds(9, 3)
    solver = HighsSolver(m)
    want = solver.solve()
    start = solver.basis()
    log = _log_calls(solver)
    nan_ub, nan_lo, two_sided = ub.copy(), lo.copy(), lo.copy()
    nan_ub[2, 1] = np.nan
    nan_lo[2, 2] = np.nan
    two_sided[2, 0] = hi[2, 0] - 1.0      # the last solve's <= row made two-sided
    for bad in ((nan_ub, lo), (ub, nan_lo)):
        with pytest.raises(BackendError, match="NaN"):
            solver.solve_batch(cols, lb, bad[0], rows, bad[1], hi, start)
    with pytest.raises(BackendError, match="sense"):
        solver.solve_batch(cols, lb, ub, rows, two_sided, hi, start)
    assert log.calls == []
    _assert_same(solver.solve(), want)


def test_batch_rejects_a_start_basis_that_highs_rejects():
    # never a silent cold solve; the solver keeps the bounds it was given
    # and solves afterwards
    m, cols, lb, ub, rows, lo, hi = _batch_bounds(10, 2)
    solver = HighsSolver(m)
    solver.solve()
    other = HighsSolver(model([1.0, 1.0], [[1.0, 1.0]], [1.0], [INF]))
    other.solve()
    for basis in (highs.HighsBasis(), other.basis()):
        with pytest.raises(BackendError, match="basis"):
            solver.solve_batch(cols, lb, ub, rows, lo, hi, basis)
    _assert_solve_k(_solve_once(solver, cols, m.lb[cols], m.ub[cols], rows, m.row_lo,
                                m.row_hi), 0, HighsSolver(m).solve())


def test_batch_reports_a_solve_that_is_not_optimal():
    m = model([1.0, 1.0], [[1.0, 1.0]], [2.0], [INF], ub=[5.0, 5.0])
    solver = HighsSolver(m)
    start = (solver.solve(), solver.basis())[1]
    got = solver.solve_batch([0, 1], [0.0, 0.0], [[5.0, 5.0], [0.5, 0.5], [4.0, 5.0]],
                             [], np.empty((3, 0)), np.empty((3, 0)), start)
    assert got.status == [SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE, SolveStatus.OPTIMAL]
    assert np.isnan(got.objective[1]) and got.objective[[0, 2]] == pytest.approx([2.0, 2.0])


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
        assert np.array_equal(got.lam, template.lam(want.row_dual[None], want.col_dual[None])[0])
        presolved = solve_lp(model)
        assert got.objective == pytest.approx(presolved.objective, rel=1e-12, abs=1e-9)
        np.testing.assert_allclose(got.lam, template.lam(presolved.row_dual[None],
                                                         presolved.col_dual[None])[0], atol=1e-9)


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


def test_a_cover_takes_the_solves_it_covers_and_gives_them_the_vertex_duals():
    # the solve before the batch and each solve are offered while solves
    # are left; a covered solve makes no HiGHS call and takes
    # its leader's duals, and a solve that is made gives the bits of a
    # one-at-a-time solve
    m, cols, lb, ub, rows, lo, hi = _batch_bounds(12, 4)
    # the last solve repeats the second's bounds, which all differ from
    # those of the solve before the batch
    ub[3], lo[3], hi[3] = ub[1], lo[1], hi[1]
    solver = HighsSolver(m)
    prior = solver.solve()
    start = solver.basis()
    offers = []

    def cover(vertex, todo):
        offers.append((vertex.objective, todo.tolist()))
        return (todo[:1], [42.0]) if len(offers) == 1 else (todo[1:], [7.0])

    log = _log_calls(solver)
    got = solver.solve_batch(cols, lb, ub, rows, lo, hi, start, cover)
    assert [c[0] for c in log.calls].count("run") == 2
    assert got.leader.tolist() == [-1, 1, 2, 1]
    assert offers[0] == (prior.objective, [0, 1, 2, 3])
    assert offers[1] == (got.objective[1], [2, 3])
    assert len(offers) == 2
    assert got.status == [SolveStatus.OPTIMAL] * 4
    assert got.objective[[0, 3]].tolist() == [42.0, 7.0]
    assert got.simplex_iters[[0, 3]].tolist() == [0, 0]
    assert np.array_equal(got.row_dual[0], prior.row_dual)
    assert np.array_equal(got.col_dual[0], prior.col_dual)
    assert np.array_equal(got.row_dual[3], got.row_dual[1])
    assert np.array_equal(got.col_dual[3], got.col_dual[1])
    for k in (1, 2):
        _assert_solve_k(got, k, HighsSolver(_moved(m, cols, lb, ub[k], lo[k], hi[k])).solve(start))


def test_a_cover_that_stops_is_not_offered_again():
    m, cols, lb, ub, rows, lo, hi = _batch_bounds(13, 4)
    fresh = HighsSolver(m)
    offers = []

    def cover(vertex, todo):
        offers.append(todo.tolist())
        return None

    # a solver that holds no solve offers none before its batch
    got = fresh.solve_batch(cols, lb, ub, rows, lo, hi, None, cover)
    assert offers == [[1, 2, 3]] and got.leader.tolist() == [0, 1, 2, 3]
    for k in range(4):
        _assert_solve_k(got, k, HighsSolver(_moved(m, cols, lb, ub[k], lo[k], hi[k])).solve())


def test_vertex_follow_gives_the_basic_solution_of_moved_bounds():
    # on the mixed-senses LP (negated >= rows, equalities moved last) the
    # basic variables that follow a move of the nonbasic ones are those of
    # the moved LP, solved from the same basis without a pivot
    m, _, _, _ = _mixed_senses()
    solver = HighsSolver(m)
    solver.solve()
    start = solver.basis()
    rng = np.random.default_rng(4)
    col_step, row_step = rng.uniform(-1.0, 1.0, (1, m.c.size)), rng.uniform(-1.0, 1.0, (1, 9))
    seen = {}

    def cover(vertex, todo):
        seen["x"], seen["r"], seen["lo"] = vertex.col_value, vertex.row_value, vertex.row_lo
        seen["nonbasic"] = vertex._nonbasic_col.copy()
        seen["cols"], seen["dx"], seen["rows"], seen["dr"] = vertex.follow(col_step, row_step)
        return None

    solver.solve_batch([], [], np.empty((2, 0)), [], np.empty((2, 0)), np.empty((2, 0)),
                       start, cover)
    x, r, nonbasic = seen["x"], seen["r"], seen["nonbasic"]
    assert np.array_equal(seen["lo"], m.row_lo)
    np.testing.assert_allclose(r, m.A @ x, rtol=0, atol=1e-12)
    assert (~nonbasic).sum() + seen["rows"].size == 9
    assert seen["rows"].size and not nonbasic.all()
    step = 1e-3
    lb, ub, lo, hi = m.lb.copy(), m.ub.copy(), m.row_lo.copy(), m.row_hi.copy()
    for j in np.flatnonzero(nonbasic):
        for b in (lb, ub):
            if b[j] == x[j]:
                b[j] += step * col_step[0, j]
    basic_rows = np.zeros(9, dtype=bool)
    basic_rows[seen["rows"]] = True
    for i in np.flatnonzero(~basic_rows):
        for b in (lo, hi):
            if abs(b[i] - r[i]) <= 1e-9:
                b[i] += step * row_step[0, i]
    moved = HighsSolver(replace(m, lb=lb, ub=ub, row_lo=lo, row_hi=hi))
    want = moved.solve(start)
    assert want.simplex_iters == 0
    x_want = x + step * np.where(nonbasic, col_step[0], 0.0)
    x_want[seen["cols"]] = x[seen["cols"]] + step * seen["dx"][0]
    np.testing.assert_allclose(want.x, x_want, rtol=0, atol=1e-12)
    r_want = np.where(basic_rows, 0.0, r + step * row_step[0])
    r_want[seen["rows"]] = r[seen["rows"]] + step * seen["dr"][0]
    np.testing.assert_allclose(m.A @ want.x, r_want, rtol=0, atol=1e-12)
