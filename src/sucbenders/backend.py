"""Solver-agnostic LP/MILP layer on top of scipy's HiGHS bindings.

The dual convention is pinned here: for an LP solved to optimality, the dual
value reported for a constraint is the derivative of the optimal objective
with respect to that constraint's right-hand side.  For an equality fixing
constraint ``x = x_hat`` with multiplier ``lam`` this gives the subgradient
inequality ``Q(x) >= Q(x_hat) + lam * (x - x_hat)``.  HiGHS marginals already
follow this convention for equality and <= rows; >= rows are solved in
negated <= form, so their marginals are negated back in the adapter.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
# scipy's bundled HiGHS bindings (scipy >= 1.15); a private API, used only here
from scipy.optimize._highspy import _core as highs


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


class BackendError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    objective: float | None
    x: np.ndarray | None          # column values
    row_dual: np.ndarray | None   # per row (LP solves only)
    row_count: int
    solve_time: float
    message: str = ""


@dataclass(frozen=True)
class LinearModel:
    """``min c.x  s.t.  row_lo <= A x <= row_hi,  lb <= x <= ub``, with the
    columns flagged in ``integral`` restricted to integers.

    A row with equal bounds is an equality; a row with an infinite bound is
    a one-sided inequality.
    """
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integral: np.ndarray      # bool per column
    A: sp.csr_matrix
    row_lo: np.ndarray
    row_hi: np.ndarray

    @property
    def row_count(self) -> int:
        return self.A.shape[0]

    def fixed(self, cols, values, relax: bool = False) -> "LinearModel":
        """Copy with ``cols`` clamped to ``values`` via bound tightening
        (integer columns are rounded first).

        With ``relax=True`` integrality flags are dropped (used to extract
        duals from a MILP solved at its optimal binary assignment).
        """
        v = np.where(self.integral[cols], np.round(values), values).astype(float)
        bad = (v < self.lb[cols] - 1e-9) | (v > self.ub[cols] + 1e-9)
        if bad.any():
            raise BackendError(f"fixed values {v[bad]} of columns "
                               f"{np.asarray(cols)[bad]} violate their bounds")
        lb, ub = self.lb.copy(), self.ub.copy()
        lb[cols] = ub[cols] = v
        return replace(self, lb=lb, ub=ub,
                       integral=np.zeros_like(self.integral) if relax else self.integral)


_STATUS = {
    0: SolveStatus.OPTIMAL,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
}


def _result(res, model: LinearModel, t0: float, row_dual=None) -> SolveResult:
    elapsed = time.perf_counter() - t0
    status = _STATUS.get(res.status, SolveStatus.ERROR)
    if status is not SolveStatus.OPTIMAL:
        return SolveResult(status, None, None, None, model.row_count, elapsed,
                           message=getattr(res, "message", ""))
    return SolveResult(SolveStatus.OPTIMAL, float(res.fun), res.x, row_dual,
                       model.row_count, elapsed)


def _error(exc: Exception, model: LinearModel, t0: float) -> SolveResult:
    # a backend failure, not a modeling outcome
    return SolveResult(SolveStatus.ERROR, None, None, None, model.row_count,
                       time.perf_counter() - t0, message=str(exc))


class _RowSplit:
    """A model's rows as ``linprog`` takes them: the inequality rows in model
    order, >= rows negated into <= form, then the equality rows.

    HiGHS reports each row's marginal as dObj/dRHS of that stacked form, so
    ``row_dual`` undoes the >= negation and returns duals in model row order.
    """

    def __init__(self, model: LinearModel):
        if model.integral.any():
            raise BackendError("LP solve called on a model with integrality flags")
        eq = model.row_lo == model.row_hi
        ge = ~eq & ~np.isneginf(model.row_lo)
        if np.isfinite(model.row_hi[ge]).any():
            raise BackendError("LP solve called on a model with two-sided inequality rows")
        self.ineq, self.eq = np.flatnonzero(~eq), np.flatnonzero(eq)
        self.order = np.concatenate([self.ineq, self.eq])   # model row of each stacked row
        self.sign = np.where(ge, -1.0, 1.0)                  # per model row

    def blocks(self, model: LinearModel):
        """``A_ub, b_ub, A_eq, b_eq``, each None when it has no rows."""
        ineq, eq = self.ineq, self.eq
        b_ub = self.stacked(ineq, model.row_lo[ineq], model.row_hi[ineq])[1]
        return (sp.diags(self.sign[ineq]) @ model.A[ineq] if ineq.size else None,
                b_ub if ineq.size else None,
                model.A[eq] if eq.size else None,
                model.row_lo[eq] if eq.size else None)

    def stacked(self, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        """Stacked-form (lower, upper) bounds of model rows ``rows``, given
        their bounds ``lo``/``hi`` in model form."""
        return np.where(lo == hi, lo, -np.inf), np.where(self.sign[rows] > 0, hi, -lo)

    def row_dual(self, marginals: np.ndarray) -> np.ndarray:
        """Model-order duals from the marginals of the stacked rows."""
        dual = np.empty_like(marginals)
        dual[self.order] = self.sign[self.order] * marginals
        return dual


def solve_lp(model: LinearModel) -> SolveResult:
    """Solve an LP to optimality, returning primal values and row duals."""
    rows = _RowSplit(model)
    t0 = time.perf_counter()
    A_ub, b_ub, A_eq, b_eq = rows.blocks(model)
    try:
        res = linprog(model.c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=np.column_stack((model.lb, model.ub)), method="highs")
    except Exception as exc:
        return _error(exc, model, t0)
    row_dual = None
    if res.status == 0:
        row_dual = rows.row_dual(np.concatenate([res.ineqlin.marginals,
                                                 res.eqlin.marginals]))
    return _result(res, model, t0, row_dual)


_HIGHS_STATUS = {
    highs.HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
    highs.HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
    highs.HighsModelStatus.kUnbounded: SolveStatus.UNBOUNDED,
}


class LPSolver:
    """One LP held in a persistent HiGHS instance and re-solved after bound
    changes.

    The model is passed once, in the row layout and with the options that
    ``solve_lp`` gives ``linprog`` (presolve on, dual simplex, output off).
    Every solve starts cold on the same matrix, so its results equal those
    of ``solve_lp`` on a model with the same bounds, bit for bit.  One
    instance must not be solved from two threads at once; ``run`` releases
    the interpreter lock, so solvers in different threads run in parallel.
    """

    def __init__(self, model: LinearModel):
        self.row_count = model.row_count
        self._rows = rows = _RowSplit(model)
        A_ub, _, A_eq, _ = rows.blocks(model)
        n = model.c.size
        # the matrix exactly as linprog assembles it (COO blocks, stacked, CSC)
        A = sp.csc_array(sp.vstack([sp.coo_array((0, n) if B is None else B, dtype=float)
                                    for B in (A_ub, A_eq)]))
        # stacked position of each model row, and the current stacked bounds
        self._pos = np.empty(self.row_count, dtype=np.int64)
        self._pos[rows.order] = np.arange(self.row_count)
        self._lo, self._hi = rows.stacked(rows.order, model.row_lo[rows.order],
                                          model.row_hi[rows.order])
        lp = highs.HighsLp()
        lp.num_col_, lp.num_row_ = n, self.row_count
        lp.a_matrix_.num_col_, lp.a_matrix_.num_row_ = n, self.row_count
        lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
        lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = \
            A.indptr, A.indices, A.data
        lp.col_cost_, lp.col_lower_, lp.col_upper_ = model.c, model.lb, model.ub
        lp.row_lower_, lp.row_upper_ = self._lo, self._hi
        self._highs = highs._Highs()
        for option, value in (("output_flag", False), ("log_to_console", False),
                              ("presolve", "on"), ("simplex_strategy",
                              int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual))):
            self._highs.setOptionValue(option, value)
        if self._highs.passModel(lp) == highs.HighsStatus.kError:
            raise BackendError("HiGHS rejected the LP")

    def solve(self, cols=(), lb=(), ub=(), rows=(), row_lo=(), row_hi=()) -> SolveResult:
        """Set the bounds of columns ``cols`` and rows ``rows`` (model
        indices) and solve from scratch; every other bound keeps its value
        from the previous solve.  A row keeps its sense: an equality stays
        an equality, and a one-sided row keeps its infinite side."""
        t0 = time.perf_counter()
        cols = np.asarray(cols, dtype=np.int32)
        if cols.size:
            self._highs.changeColsBounds(cols.size, cols, np.asarray(lb, dtype=float),
                                         np.asarray(ub, dtype=float))
        self._change_rows(np.asarray(rows, dtype=np.int64), np.asarray(row_lo, dtype=float),
                          np.asarray(row_hi, dtype=float))
        self._highs.clearSolver()
        if self._highs.run() == highs.HighsStatus.kError:
            return self._failed(t0, "HiGHS run failed")
        model_status = self._highs.getModelStatus()
        status = _HIGHS_STATUS.get(model_status, SolveStatus.ERROR)
        if status is not SolveStatus.OPTIMAL:
            return self._failed(t0, self._highs.modelStatusToString(model_status), status)
        solution = self._highs.getSolution()
        return SolveResult(SolveStatus.OPTIMAL,
                           float(self._highs.getInfo().objective_function_value),
                           np.array(solution.col_value),
                           self._rows.row_dual(np.array(solution.row_dual)),
                           self.row_count, time.perf_counter() - t0)

    def _change_rows(self, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        if not rows.size:
            return
        pos = self._pos[rows]
        one_sided = pos < self._rows.ineq.size
        dropped = np.where(self._rows.sign[rows] > 0, lo, -hi)   # must stay -inf
        if ((lo != hi) != one_sided).any() or not np.isneginf(dropped[one_sided]).all():
            raise BackendError("a bound change may not change the sense of a row")
        new_lo, new_hi = self._rows.stacked(rows, lo, hi)
        changed = np.flatnonzero((new_lo != self._lo[pos]) | (new_hi != self._hi[pos]))
        for k in changed:
            self._highs.changeRowBounds(int(pos[k]), float(new_lo[k]), float(new_hi[k]))
        self._lo[pos], self._hi[pos] = new_lo, new_hi

    def _failed(self, t0: float, message: str,
                status: SolveStatus = SolveStatus.ERROR) -> SolveResult:
        return SolveResult(status, None, None, None, self.row_count,
                           time.perf_counter() - t0, message=message)


def solve_milp(model: LinearModel, mip_gap: float = 1e-6) -> SolveResult:
    """Solve a MILP within the given relative gap."""
    t0 = time.perf_counter()
    constraints = (LinearConstraint(model.A, model.row_lo, model.row_hi)
                   if model.row_count else [])
    try:
        res = milp(c=model.c, constraints=constraints, integrality=model.integral,
                   bounds=Bounds(model.lb, model.ub),
                   options={"mip_rel_gap": float(mip_gap), "presolve": True})
    except Exception as exc:
        return _error(exc, model, t0)
    return _result(res, model, t0)
