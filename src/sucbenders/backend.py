"""Solver-agnostic LP/MILP layer on one persistent HiGHS loader.

Every solve goes through ``HighsSolver``, which holds one model in a
``_Highs`` instance of scipy's bundled HiGHS bindings.  ``solve_lp`` and
``solve_milp`` solve a fresh instance once; the scenario subproblems keep
one instance per worker and re-solve it after bound changes.

The dual convention is pinned here: for an LP solved to optimality, the dual
value reported for a row (``row_dual``) is the derivative of the optimal
objective with respect to that row's right-hand side, and the dual value
reported for a column (``col_dual``, its reduced cost) is the derivative of
the optimal objective with respect to the column's active bound.  A column
at its upper bound has ``col_dual <= 0`` and one at its lower bound
``col_dual >= 0``; a column fixed by equal bounds may show either sign, and
``min(col_dual, 0)`` is then the derivative with respect to its upper bound.
Each gives a subgradient inequality: for a right-hand side or bound ``b``
with dual ``lam``, ``Q(b') >= Q(b) + lam * (b' - b)``.  HiGHS row duals
follow this convention for every row it holds; a row that the loader
negated is negated back.  Columns are never negated.

Each entry point passes rows in the layout that ``scipy.optimize`` used to
give HiGHS, because HiGHS's iterates depend on the layout and the Benders
runs' iterates, cuts and row counts depend on those:

* LPs take ``linprog``'s stacked form: the inequality rows in model order,
  >= rows negated into <= rows, then the equality rows;
* MILPs take ``milp``'s native two-sided rows, in model order.

The rows reach HiGHS row-wise, straight from the model's CSR arrays (a
permuted, negated copy in the stacked layout), with no conversion to
columns; HiGHS builds the same column-wise matrix that a column-wise pass
gives it, so the iterates are those of a column-wise pass bit for bit.
Both run with the dual simplex and output off, and with presolve on unless
the solver is built with ``presolve=False`` (the scenario subproblems:
small LPs that solve faster without it).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
# bench/layers.py wraps backend.linprog and backend.milp by name; nothing
# here calls them
from scipy.optimize import linprog, milp  # noqa: F401
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
    col_dual: np.ndarray | None   # per column (LP solves only)
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


_HIGHS_STATUS = {
    highs.HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
    highs.HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
    highs.HighsModelStatus.kUnbounded: SolveStatus.UNBOUNDED,
}

_OPTIONS = (("output_flag", False), ("log_to_console", False),
            ("simplex_strategy",
             int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)))


class _RowLayout:
    """Where each model row sits in HiGHS, and its sign there.

    Native: model row i is HiGHS row i.  Stacked: the inequality rows in
    model order, >= rows negated, then the equality rows.  HiGHS reports
    each row's dual as dObj/dRHS of the row it holds, so ``row_dual`` undoes
    the negation and returns duals in model row order.
    """

    def __init__(self, model: LinearModel, stacked: bool):
        n = model.row_count
        self.stacked = stacked
        self.order = np.arange(n)             # model row of each HiGHS row
        self.sign = np.ones(n)                # per model row
        self.n_ineq = 0
        if stacked:
            if model.integral.any():
                raise BackendError("LP solve called on a model with integrality flags")
            eq = model.row_lo == model.row_hi
            ge = ~eq & ~np.isneginf(model.row_lo)
            if np.isfinite(model.row_hi[ge]).any():
                raise BackendError("LP solve called on a model with two-sided inequality rows")
            self.order = np.concatenate([np.flatnonzero(~eq), np.flatnonzero(eq)])
            self.sign = np.where(ge, -1.0, 1.0)
            self.n_ineq = n - int(eq.sum())
        self.pos = np.argsort(self.order)     # HiGHS row of each model row

    def matrix(self, A: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row starts, column indices and values of ``A``'s rows in HiGHS
        order with their signs applied: ``A``'s own arrays in the native
        layout, new ones in the stacked layout."""
        if not self.stacked:
            return A.indptr, A.indices, A.data
        sizes = np.diff(A.indptr)[self.order]
        start = np.concatenate([[0], np.cumsum(sizes)])
        take = np.repeat(A.indptr[self.order] - start[:-1], sizes) + np.arange(start[-1])
        return start, A.indices[take], A.data[take] * np.repeat(self.sign[self.order], sizes)

    def bounds(self, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        """HiGHS (lower, upper) bounds of model rows ``rows`` with model
        bounds ``lo``/``hi``."""
        neg = self.sign[rows] < 0
        return np.where(neg, -hi, lo), np.where(neg, -lo, hi)

    def row_dual(self, duals: np.ndarray) -> np.ndarray:
        """Model-order duals from the duals of the HiGHS rows."""
        return self.sign * duals[self.pos]


def _check_finite(model: LinearModel) -> None:
    """Reject what HiGHS would not: it solves a model with a NaN or
    infinite cost to "optimal"."""
    if not (np.isfinite(model.c).all() and np.isfinite(model.A.data).all()):
        raise BackendError("model has a non-finite cost or matrix entry")
    if any(np.isnan(b).any() for b in (model.lb, model.ub, model.row_lo, model.row_hi)):
        raise BackendError("model has a NaN bound")


class HighsSolver:
    """One model held in a persistent HiGHS instance and re-solved after
    bound changes.

    With ``mip_gap`` None the model must be an LP, passed in the stacked
    layout and solved for row and column duals; otherwise it is a MILP,
    passed with native rows and solved within that relative gap.  Every solve starts
    cold on the same matrix, so its results equal those of a fresh instance
    on a model with the same bounds, bit for bit.  One instance must not be
    solved from two threads at once; ``run`` releases the interpreter lock,
    so solvers in different threads run in parallel.  A non-finite
    ``mip_gap`` (HiGHS takes NaN and infinity) or an option that HiGHS
    refuses (such as a negative gap) raises ``BackendError``, and so does a
    NaN bound passed to ``solve``.
    """

    def __init__(self, model: LinearModel, mip_gap: float | None = None,
                 presolve: bool = True):
        _check_finite(model)
        self.row_count = model.row_count
        self._mip = mip_gap is not None
        self._rows = rows = _RowLayout(model, stacked=not self._mip)
        # the current bounds of the HiGHS rows
        self._lo, self._hi = rows.bounds(rows.order, model.row_lo[rows.order],
                                         model.row_hi[rows.order])
        n = model.c.size
        lp = highs.HighsLp()
        lp.num_col_, lp.num_row_ = n, self.row_count
        lp.a_matrix_.num_col_, lp.a_matrix_.num_row_ = n, self.row_count
        lp.a_matrix_.format_ = highs.MatrixFormat.kRowwise
        lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = \
            rows.matrix(model.A)
        lp.col_cost_, lp.col_lower_, lp.col_upper_ = model.c, model.lb, model.ub
        lp.row_lower_, lp.row_upper_ = self._lo, self._hi
        self._highs = highs._Highs()
        options = _OPTIONS + (("presolve", "on" if presolve else "off"),)
        if self._mip:
            if not np.isfinite(mip_gap):
                raise BackendError(f"mip_gap must be finite, got {mip_gap}")
            lp.integrality_ = [highs.HighsVarType(int(i)) for i in model.integral]
            options += (("mip_rel_gap", float(mip_gap)),)
        for option, value in options:
            if self._highs.setOptionValue(option, value) == highs.HighsStatus.kError:
                raise BackendError(f"HiGHS refused the option {option}={value!r}")
        if self._highs.passModel(lp) == highs.HighsStatus.kError:
            raise BackendError("HiGHS rejected the model")

    def solve(self, cols=(), lb=(), ub=(), rows=(), row_lo=(), row_hi=()) -> SolveResult:
        """Set the bounds of columns ``cols`` and rows ``rows`` (model
        indices) and solve from scratch; every other bound keeps its value
        from the previous solve.  In the stacked layout a row keeps its
        sense: an equality stays an equality, and a one-sided row keeps its
        infinite side."""
        t0 = time.perf_counter()
        cols = np.asarray(cols, dtype=np.int32)
        lb, ub, row_lo, row_hi = (np.asarray(b, dtype=float)
                                  for b in (lb, ub, row_lo, row_hi))
        if any(np.isnan(b).any() for b in (lb, ub, row_lo, row_hi)):
            raise BackendError("a column or row bound is NaN")
        if cols.size:
            self._highs.changeColsBounds(cols.size, cols, lb, ub)
        self._change_rows(np.asarray(rows, dtype=np.int64), row_lo, row_hi)
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
                           None if self._mip else
                           self._rows.row_dual(np.array(solution.row_dual)),
                           None if self._mip else np.array(solution.col_dual),
                           self.row_count, time.perf_counter() - t0)

    def _change_rows(self, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        if not rows.size:
            return
        pos = self._rows.pos[rows]
        new_lo, new_hi = self._rows.bounds(rows, lo, hi)
        if self._rows.stacked:
            one_sided = pos < self._rows.n_ineq
            if not (np.isneginf(new_lo[one_sided]).all()
                    and (lo == hi)[~one_sided].all()):
                raise BackendError("a bound change may not change the sense of a row")
        changed = np.flatnonzero((new_lo != self._lo[pos]) | (new_hi != self._hi[pos]))
        for k in changed:
            self._highs.changeRowBounds(int(pos[k]), float(new_lo[k]), float(new_hi[k]))
        self._lo[pos], self._hi[pos] = new_lo, new_hi

    def _failed(self, t0: float, message: str,
                status: SolveStatus = SolveStatus.ERROR) -> SolveResult:
        return SolveResult(status, None, None, None, None, self.row_count,
                           time.perf_counter() - t0, message=message)


def solve_lp(model: LinearModel) -> SolveResult:
    """Solve an LP to optimality, returning primal values and row and column
    duals."""
    return HighsSolver(model).solve()


def solve_milp(model: LinearModel, mip_gap: float = 1e-6) -> SolveResult:
    """Solve a MILP within the given relative gap."""
    return HighsSolver(model, mip_gap=mip_gap).solve()
