"""LP/MILP adapter: statuses, dual-sign convention, determinism, input
checks, the row layouts against scipy's own HiGHS entry points, and the
persistent solver's batches against one-solve batches of fresh solvers."""

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
from sucbenders.backend import (BackendError, HighsInstance, HighsSolver,
                                LinearModel, RowBlock, SolveStatus, solve_lp, solve_milp)
from sucbenders.cuts import CutMode
from sucbenders.engine import BendersConfig, run
from sucbenders.formulations import (MasterSolver, RecourseSolver, build_extensive,
                                     build_master, build_subproblem, default_theta_min,
                                     master_template, recourse_template,
                                     sample_feasible_first_stage, solve_subproblem)
from conftest import solve_held

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
    # min cost*x + y s.t. x + y = 1, x fixed at 0: the reduced cost of x is
    # cost - 1 with either sign, and min(col_dual, 0) is the slope of the
    # optimum in x's upper bound; solve_lp presolves, a HighsSolver does not
    def q(ub):
        m = model([cost, 1.0], [[1.0, 1.0]], [1.0], [1.0], ub=[ub, INF])
        res = solve_lp(m) if presolve else solve_held(m)
        return res.objective, res.col_dual

    objective, col_dual = q(0.0)
    assert col_dual[0] == pytest.approx(reduced)
    h = 1e-3
    assert (q(h)[0] - objective) / h == pytest.approx(min(reduced, 0.0))


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


def _equalities():
    """A bounded LP of equality rows, the last the sum of the first two, so
    that an optimal basis keeps a row basic, with the row matrix and a
    point inside the box that meets every row."""
    rng = np.random.default_rng(3)
    n = 12
    x0 = rng.uniform(1.0, 9.0, n)
    rows = rng.uniform(-1.0, 1.0, (8, n))
    rows = np.vstack([rows, rows[0] + rows[1]])
    rhs = rows @ x0
    return model(rng.uniform(-1.0, 1.0, n), rows, rhs, rhs, ub=np.full(n, 10.0)), rows, x0


def _assert_same_solve(got, want):
    """Two optimal solves (``Vertex``es) gave the same bits."""
    assert got is not None and want is not None
    assert got.objective == want.objective
    assert np.array_equal(got.row_dual, want.row_dual)
    assert np.array_equal(got.col_dual, want.col_dual)
    assert got.simplex_iters == want.simplex_iters


def _solve_once(solver: HighsSolver, cols=(), ub=(), rows=(), rhs=(), basis=None):
    """One solve with these bounds: its ``Vertex``, or None if it is not
    optimal."""
    solver.solve(cols, ub, rows, rhs, basis)
    return solver.vertex()


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
    # not depend on the steps before it: it gives the bits of a fresh
    # solver, and solve_lp's objective
    m, rows, x0 = _equalities()
    rng = np.random.default_rng(4)
    cols = np.array([0, 5, 7])
    steps = []
    for _ in range(4):
        x1 = x0 + rng.uniform(-0.5, 0.5, x0.size)
        steps.append((x1[cols] + rng.uniform(0.5, 3.0, cols.size), rows @ x1))
    objectives = set()
    for order in (steps, steps[::-1]):
        solver = HighsSolver(m)
        for ub, rhs in order:
            moved = _moved(m, cols, ub, rhs)
            got = _solve_once(solver, cols, ub, np.arange(rhs.size), rhs)
            _assert_same_solve(got, solve_held(moved))
            assert got.objective == pytest.approx(solve_lp(moved).objective, rel=1e-9)
            objectives.add(got.objective)
    assert len(objectives) == len(steps)


def test_lp_solver_from_a_basis_matches_a_fresh_instance_given_it():
    # a solve from a start basis depends only on the model and the basis,
    # not on what the instance solved before
    m, rows, x0 = _equalities()
    rng = np.random.default_rng(7)
    solver = HighsSolver(m)
    assert _solve_once(solver) is not None
    start = solver.basis()
    cold_iters = []
    for _ in range(3):
        rhs = rows @ (x0 + rng.uniform(-0.5, 0.5, x0.size))
        got = _solve_once(solver, rows=np.arange(rhs.size), rhs=rhs, basis=start)
        moved = replace(m, row_lo=rhs, row_hi=rhs)
        _assert_same_solve(got, solve_held(moved, start))
        cold = solve_held(moved)
        assert got.objective == pytest.approx(cold.objective, rel=1e-9)
        cold_iters.append(cold.simplex_iters)
    # from its own optimal basis a solve takes no simplex iteration
    again = _solve_once(solver, basis=solver.basis())
    assert again.simplex_iters == 0 and again.objective == got.objective
    assert min(cold_iters) > 0


def test_lp_solver_rejects_a_start_basis_that_highs_rejects():
    # never a silent cold solve: an invalid basis, or one of another shape,
    # raises, and the solver still solves afterwards
    m, _, _ = _equalities()
    solver = HighsSolver(m)
    want = _solve_once(solver)
    other = HighsSolver(model([1.0, 1.0], [[1.0, 1.0]], [1.0], [1.0]))
    _solve_once(other)
    for basis in (highs.HighsBasis(), other.basis()):
        with pytest.raises(BackendError, match="basis"):
            _solve_once(solver, basis=basis)
    _assert_same_solve(_solve_once(solver), want)


def test_lp_solver_recovers_from_infeasible_bounds():
    m = model([1.0, 1.0], [[1.0, 1.0]], [2.0], [2.0], ub=[5.0, 5.0])
    solver = HighsSolver(m)
    assert solver.solve([0, 1], [0.5, 0.5], [], []) is SolveStatus.INFEASIBLE
    assert solver.solve([0, 1], [5.0, 5.0], [], []) is SolveStatus.OPTIMAL
    assert solver.vertex().objective == pytest.approx(2.0)


def test_lp_solver_rejects_inequality_rows_and_integrality():
    for lo, hi in ((1.0, INF), (-INF, 1.0), (1.0, 2.0)):
        with pytest.raises(BackendError, match="equality rows only"):
            HighsSolver(model([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [0.0, lo], [0.0, hi]))
    with pytest.raises(BackendError, match="integrality"):
        HighsSolver(model([1.0], [[1.0]], [1.0], [1.0], ub=[1.0], integral=[True]))


def test_lp_solver_passes_the_model_rows_to_highs_as_they_are(monkeypatch):
    # in model order and none negated: HiGHS gets model.A's own CSR arrays
    # and the right-hand sides as both row bounds
    m, _, _ = _equalities()
    passed = []
    real = highs._Highs

    class Recording:
        def __init__(self):
            self._h = real()

        def __getattr__(self, name):
            return getattr(self._h, name)

        def passModel(self, lp):
            passed.append(lp)
            return self._h.passModel(lp)

    monkeypatch.setattr(backend.highs, "_Highs", Recording)
    HighsSolver(m)
    [lp] = passed
    a = lp.a_matrix_
    assert a.format_ == highs.MatrixFormat.kRowwise
    assert (a.num_row_, a.num_col_) == m.A.shape
    for got, want in ((a.start_, m.A.indptr), (a.index_, m.A.indices), (a.value_, m.A.data),
                      (lp.row_lower_, m.row_lo), (lp.row_upper_, m.row_hi)):
        assert np.array_equal(got, want)


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
    solver._highs = log
    return log


def _batch_bounds(seed: int, n: int):
    """The equality LP and ``n`` solves' worth of bounds around points near
    its inner point: upper bounds of columns ``cols``, then right-hand
    sides; the second solve repeats the first's right-hand sides."""
    m, rows, x0 = _equalities()
    rng = np.random.default_rng(seed)
    cols = np.array([0, 5, 7])
    ub, rhs = [], []
    for _ in range(n):
        x1 = x0 + rng.uniform(-0.5, 0.5, x0.size)
        ub.append(x1[cols] + rng.uniform(0.5, 3.0, cols.size))
        rhs.append(rows @ x1)
    rhs[1] = rhs[0]
    return m, cols, np.array(ub), np.arange(len(rows)), np.array(rhs)


def _moved(m: LinearModel, cols, ub, rhs) -> LinearModel:
    """``m`` with the upper bounds of columns ``cols`` and every right-hand
    side replaced."""
    new_ub = m.ub.copy()
    new_ub[cols] = ub
    return replace(m, ub=new_ub, row_lo=rhs, row_hi=rhs)


def test_batch_makes_the_calls_and_gives_the_bits_of_one_solve_at_a_time():
    # each of a series of solves equals a fresh solver of the changed
    # model, started from the same basis, and HiGHS gets only the bounds
    # that changed
    m, cols, ub, rows, rhs = _batch_bounds(8, 4)
    solver = HighsSolver(m)
    assert _solve_once(solver) is not None
    start = solver.basis()
    log = _log_calls(solver)
    got = [_solve_once(solver, cols, ub[k], rows, rhs[k], start) for k in range(4)]
    want = [solve_held(_moved(m, cols, ub[k], rhs[k]), start) for k in range(4)]
    names = [c[0] for c in log.calls]
    assert [n for n in names if n != "changeRowBounds"] == \
        ["changeColsBounds", "clearSolver", "setBasis", "run"] * 4
    # every row changed in three solves; the second, which repeats the
    # first's right-hand sides, changed none.  A row's two bounds are its
    # right-hand side, and no column's lower bound moves
    assert names.count("changeRowBounds") == 3 * rows.size
    assert all(c[2] == c[3] for c in log.calls if c[0] == "changeRowBounds")
    assert all(c[3] == m.lb[c[2]].tolist() for c in log.calls if c[0] == "changeColsBounds")
    for g, w in zip(got, want):
        _assert_same_solve(g, w)
    # the solver holds the last solve's bounds
    _assert_same_solve(_solve_once(solver, basis=start), want[-1])


def test_a_cold_batch_gives_the_bits_of_fresh_cold_solves():
    m, cols, ub, rows, rhs = _batch_bounds(11, 3)
    solver = HighsSolver(m)
    log = _log_calls(solver)
    for k in range(3):
        _assert_same_solve(_solve_once(solver, cols, ub[k], rows, rhs[k]),
                           solve_held(_moved(m, cols, ub[k], rhs[k])))
    assert "setBasis" not in [c[0] for c in log.calls]


def test_batch_checks_every_bound_before_it_calls_highs():
    # a NaN column bound or right-hand side raises before any HiGHS call,
    # and the solver keeps what it held
    m, cols, ub, rows, rhs = _batch_bounds(9, 2)
    solver = HighsSolver(m)
    want = _solve_once(solver)
    start = solver.basis()
    log = _log_calls(solver)
    nan_ub, nan_rhs = ub[0].copy(), rhs[0].copy()
    nan_ub[1] = np.nan
    nan_rhs[2] = np.nan
    for bad in ((nan_ub, rhs[0]), (ub[0], nan_rhs)):
        with pytest.raises(BackendError, match="NaN"):
            solver.solve(cols, bad[0], rows, bad[1], start)
    assert log.calls == []
    _assert_same_solve(_solve_once(solver), want)


def test_batch_rejects_a_start_basis_that_highs_rejects():
    # never a silent cold solve; the solver keeps the bounds it was given
    # and solves afterwards
    m, cols, ub, rows, rhs = _batch_bounds(10, 2)
    solver = HighsSolver(m)
    _solve_once(solver)
    other = HighsSolver(model([1.0, 1.0], [[1.0, 1.0]], [1.0], [1.0]))
    _solve_once(other)
    for basis in (highs.HighsBasis(), other.basis()):
        with pytest.raises(BackendError, match="basis"):
            solver.solve(cols, ub[0], rows, rhs[0], basis)
    _assert_same_solve(_solve_once(solver, cols, m.ub[cols], rows, m.row_lo), solve_held(m))


def test_batch_reports_a_solve_that_is_not_optimal():
    # a solve that is not optimal reports its status and gives no vertex;
    # the next solve is optimal again
    m = model([1.0, 1.0], [[1.0, 1.0]], [2.0], [2.0], ub=[5.0, 5.0])
    solver = HighsSolver(m)
    _solve_once(solver)
    start = solver.basis()
    got = []
    for ub in ([5.0, 5.0], [0.5, 0.5], [4.0, 5.0]):
        status = solver.solve([0, 1], ub, [], [], start)
        got.append((status, solver.vertex()))
    assert [s for s, _ in got] == [SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE,
                                   SolveStatus.OPTIMAL]
    assert got[1][1] is None
    assert [got[k][1].objective for k in (0, 2)] == pytest.approx([2.0, 2.0])


@pytest.mark.parametrize("change", [
    lambda h: h.changeColsBounds(1, np.array([0], dtype=np.int32), np.zeros(1), np.ones(1)),
    lambda h: h.changeRowBounds(0, 3.0, 3.0),
    lambda h: h.clearSolver(),
])
def test_highs_forgets_an_optimal_status_on_a_change_or_a_clear(change):
    # HighsSolver.vertex gives the held solve only while HiGHS reports it
    # optimal, which holds because each of these calls resets the status
    solver = HighsSolver(model([1.0, 2.0], [[1.0, 1.0]], [2.0], [2.0], ub=[5.0, 5.0]))
    _solve_once(solver)
    h = solver._highs
    assert h.getModelStatus() == highs.HighsModelStatus.kOptimal
    change(h)
    assert h.getModelStatus() == highs.HighsModelStatus.kNotset
    assert solver.vertex() is None


def test_a_batch_after_an_infeasible_solve_offers_no_basis_first():
    # a solver whose last solve was not optimal holds no vertex, so a
    # bunched batch (RecourseSolver.solve) offers no basis before its
    # first solve; a fresh solver holds none either
    m = model([1.0, 1.0], [[1.0, 1.0]], [2.0], [2.0], ub=[5.0, 5.0])
    solver = HighsSolver(m)
    assert solver.vertex() is None
    assert _solve_once(solver) is not None
    assert solver.vertex() is not None
    assert solver.solve([0, 1], [0.5, 0.5], [], []) is SolveStatus.INFEASIBLE
    assert solver.vertex() is None
    assert _solve_once(solver, [0, 1], [4.0, 5.0]).objective == pytest.approx(2.0)


def test_recourse_template_solve_matches_a_model_built_from_scratch(med_b):
    # the template's solver, like every HighsSolver, runs without presolve,
    # so a fresh solver of the from-scratch model gives the same bits; a
    # presolved solve (solve_lp) may differ in the last bits
    inst, scen = med_b
    x = sample_feasible_first_stage(inst, np.random.default_rng(21))
    template = recourse_template(inst, scen)
    solver = RecourseSolver(template)
    for omega in scen.scenario_ids[3:7]:
        model = build_subproblem(inst, scen, omega, x)
        assert model.row_count == 96 and model.c.size == 324
        want = solve_held(model)
        got = solve_subproblem(inst, scen, omega, x, solver)
        assert got.objective == want.objective
        assert np.array_equal(got.lam, template.lam(want.row_dual[None],
                                                    want.col_dual[None])[0])
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


def _held_and_point(med_b, seed: int = 21):
    """A recourse solver of med-b that holds the cold solve of its first
    scenario at a sampled point, the point and the solve's basis."""
    inst, scen = med_b
    x = sample_feasible_first_stage(inst, np.random.default_rng(seed))
    solver = RecourseSolver(recourse_template(inst, scen))
    point = solver.template.point(x)
    [anchor] = solver.solve([0], point)
    return solver, point, anchor, solver.lp.basis()


def test_a_cover_takes_the_solves_it_covers_and_gives_them_the_vertex_duals(
        med_b, monkeypatch):
    # RecourseSolver.solve offers the held solve and then each solve while
    # scenarios are left; a covered scenario makes no HiGHS call and takes
    # its leader's lam, the objective the test gave and 0 iterations, and a
    # scenario that is solved gives the bits of a one-at-a-time solve
    solver, point, anchor, start = _held_and_point(med_b)
    offers = []

    def cover(self, vertex, todo):
        offers.append((vertex.objective, todo.tolist()))
        return (todo[:1], np.array([42.0])) if len(offers) == 1 else (todo[1:], np.array([7.0]))

    monkeypatch.setattr(formulations, "BUNCH_MIN", 1)
    monkeypatch.setattr(formulations._Bunching, "cover", cover)
    log = _log_calls(solver.lp)
    got = solver.solve([1, 2, 3, 4], point, start)
    assert [c[0] for c in log.calls].count("run") == 2
    assert offers == [(anchor.objective, [0, 1, 2, 3]), (got[1].objective, [2, 3])]
    assert [r.covered for r in got] == [True, False, False, True]
    assert [got[k].objective for k in (0, 3)] == [42.0, 7.0]
    assert [got[k].simplex_iters for k in (0, 3)] == [0, 0]
    assert np.array_equal(got[0].lam, anchor.lam)
    assert got[3].lam is got[1].lam and not got[3].lam.flags.writeable
    template = solver.template
    for k in (1, 2):
        [want] = RecourseSolver(template).solve([k + 1], point, start)
        assert (got[k].objective, got[k].simplex_iters) == (want.objective, want.simplex_iters)
        assert np.array_equal(got[k].lam, want.lam)


def test_a_cover_that_stops_is_not_offered_again(med_b, monkeypatch):
    # a solver that holds no solve offers none before its batch, and once
    # _Bunching closes, no solve is offered again: every scenario is then
    # solved from the basis, with the bits of a one-at-a-time solve
    donor, point, _, start = _held_and_point(med_b)
    offers = []

    def cover(self, vertex, todo):
        offers.append(todo.tolist())
        return todo[:0], np.empty(0)

    monkeypatch.setattr(formulations._Bunching, "open", lambda self, left: not offers)
    monkeypatch.setattr(formulations._Bunching, "cover", cover)
    fresh = RecourseSolver(donor.template)
    got = fresh.solve([1, 2, 3, 4], point, start)
    assert offers == [[1, 2, 3]]
    for k, r in enumerate(got, start=1):
        [want] = RecourseSolver(donor.template).solve([k], point)
        assert not r.covered and r.objective == pytest.approx(want.objective, rel=1e-9)
        [want] = RecourseSolver(donor.template).solve([k], point, start)
        assert (r.objective, r.simplex_iters) == (want.objective, want.simplex_iters)
        assert np.array_equal(r.lam, want.lam)


def test_vertex_follow_gives_the_basic_solution_of_moved_bounds():
    # on the equality LP, whose dependent row keeps a row basic, the basic
    # variables that follow a move of the nonbasic ones are those of the
    # moved LP, solved from the same basis without a pivot, when each basic
    # row's right-hand side moves with its value
    m, _, _ = _equalities()
    n_rows = m.row_count
    solver = HighsSolver(m)
    _solve_once(solver)
    start = solver.basis()
    rng = np.random.default_rng(4)
    col_step = rng.uniform(-1.0, 1.0, (1, m.c.size))
    row_step = rng.uniform(-1.0, 1.0, (1, n_rows))
    vertex = _solve_once(solver, basis=start)
    x, r, nonbasic = vertex.col_value, vertex.row_value, vertex._nonbasic_col
    cols, dx, rows, dr = vertex.follow(col_step, row_step)
    assert np.array_equal(vertex.rhs, m.row_lo)
    np.testing.assert_allclose(r, m.A @ x, rtol=0, atol=1e-12)
    assert (~nonbasic).sum() + rows.size == n_rows
    assert rows.size and not nonbasic.all()
    step = 1e-3
    lb, ub = m.lb.copy(), m.ub.copy()
    for j in np.flatnonzero(nonbasic):
        for b in (lb, ub):
            if b[j] == x[j]:
                b[j] += step * col_step[0, j]
    rhs = r + step * row_step[0]
    rhs[rows] = r[rows] + step * dr[0]
    moved = _solve_once(HighsSolver(replace(m, lb=lb, ub=ub, row_lo=rhs, row_hi=rhs)),
                        basis=start)
    assert moved.simplex_iters == 0
    x_want = x + step * np.where(nonbasic, col_step[0], 0.0)
    x_want[cols] = x[cols] + step * dx[0]
    np.testing.assert_allclose(moved.col_value, x_want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(m.A @ moved.col_value, rhs, rtol=0, atol=1e-12)
