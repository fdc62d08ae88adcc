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


def solve_lp(model: LinearModel) -> SolveResult:
    """Solve an LP to optimality, returning primal values and row duals."""
    if model.integral.any():
        raise BackendError("solve_lp called on a model with integrality flags")
    t0 = time.perf_counter()

    # linprog wants A_ub x <= b_ub and A_eq x = b_eq; >= rows are negated
    eq_rows = np.flatnonzero(model.row_lo == model.row_hi)
    ub_rows = np.flatnonzero(model.row_lo != model.row_hi)
    le = np.isneginf(model.row_lo[ub_rows])
    if np.isfinite(model.row_hi[ub_rows[~le]]).any():
        raise BackendError("solve_lp called on a model with two-sided inequality rows")
    signs = np.where(le, 1.0, -1.0)
    b_ub = np.where(le, model.row_hi[ub_rows], -model.row_lo[ub_rows])
    A_ub = sp.diags(signs) @ model.A[ub_rows] if ub_rows.size else None
    A_eq = model.A[eq_rows] if eq_rows.size else None
    try:
        res = linprog(model.c, A_ub=A_ub, b_ub=b_ub if ub_rows.size else None,
                      A_eq=A_eq, b_eq=model.row_lo[eq_rows] if eq_rows.size else None,
                      bounds=np.column_stack((model.lb, model.ub)), method="highs")
    except Exception as exc:
        return _error(exc, model, t0)
    row_dual = None
    if res.status == 0:
        row_dual = np.empty(model.row_count)
        row_dual[eq_rows] = res.eqlin.marginals
        # marginal is dObj/dRHS of the <= form; undo the >= negation
        row_dual[ub_rows] = signs * res.ineqlin.marginals
    return _result(res, model, t0, row_dual)


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
