"""Solver-agnostic LP/MILP layer on persistent HiGHS instances.

Every solve goes through a ``HighsInstance``: one ``_Highs`` instance of
scipy's bundled HiGHS bindings with its options set once, to which a model
is passed as a ``RowBlock`` of its rows, with any extra rows, and solved
from scratch, cold or from a given start basis.  ``solve_lp`` and
``solve_milp`` solve a model once on a fresh instance.  ``HighsSolver``
holds one LP in an instance and solves it as batches of bound changes
(``HighsSolver.solve_batch``): the scenario subproblems keep one per
worker.  A Benders run keeps one instance for its masters and passes each
master as the static block of the run with the cut rows as extra rows.

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

Rows reach HiGHS in the layout that ``scipy.optimize`` used to give it,
because HiGHS's iterates depend on the layout and the Benders runs'
iterates, cuts and row counts depend on those.  ``RowBlock`` holds both
layouts of one model's rows, and ``HighsInstance.load`` is the one place
that picks one, from whether the model is passed with an integrality mask:

* LPs take ``linprog``'s stacked form (``RowBlock.lp_rows``): the
  inequality rows in model order, >= rows negated into <= rows, then the
  equality rows; extra rows, which are >= rows, are negated and sit
  between the model's inequality and equality rows, where they belong in
  model order;
* MILPs take ``milp``'s native two-sided rows in model order
  (``RowBlock.rows``), the extra rows last.

The rows reach HiGHS row-wise, straight from CSR arrays (a model's own
arrays or a permuted, negated copy of them in the stacked layout), with no
conversion to columns; HiGHS builds the same column-wise matrix that a
column-wise pass gives it, so the iterates are those of a column-wise pass
bit for bit.
Both run with the dual simplex and output off, and with presolve on unless
the instance is built with ``presolve=False`` (the scenario subproblems:
small LPs that solve faster without it).

Every MILP instance (the Benders masters of every cut mode, the outer
subsets and pass 2, and the extensive form) also takes ``_MILP_OPTIONS``:
no restart, which presolves the root a second time, and none of six primal
heuristics that HiGHS runs at the root (feasibility jump, RINS, RENS, root
reduced cost, zero-one rounding and shifting; each has its own switch).
These MILPs close at the root node, where the restarts and the heuristics
only spend time; with the set, they keep their objective and their single
node, and the med-b masters and extensive form solve 2-3x faster.  When an
optimum is tied, the incumbent may be another optimal point.  A
feasibility search (``sample_feasible_first_stage``: a random objective at
a loose gap) keeps HiGHS's defaults with ``heuristics=True``.  No LP solve
reads these options, so LP iterates do not depend on them.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
# bench/layers.py wraps backend.linprog and backend.milp by name; nothing
# here calls them
from scipy.optimize import linprog, milp  # noqa: F401
# scipy's bundled HiGHS bindings (scipy >= 1.15; >= 1.17, HiGHS 1.12.0, for the
# names in _MILP_OPTIONS); a private API, used only here
from scipy.optimize._highspy import _core as highs

# the optimal basis of a solve, as ``HighsInstance.basis`` returns it
HighsBasis = highs.HighsBasis


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
    simplex_iters: int = 0        # HiGHS simplex iterations (of every LP of a MILP)
    mip_nodes: int = 0            # branch-and-bound nodes (MILP solves only)
    dual_bound: float | None = None   # MILP: HiGHS's dual bound; LP: the objective


@dataclass(frozen=True)
class BatchResult:
    """The LP solves of one ``HighsSolver.solve_batch``, row k for solve k;
    a solve that is not optimal has NaN values and 0 iterations."""
    status: list                 # SolveStatus per solve
    objective: np.ndarray
    row_dual: np.ndarray         # solves x rows, in model order
    col_dual: np.ndarray         # solves x columns
    simplex_iters: np.ndarray


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

# a MILP instance's, unless ``heuristics`` keeps HiGHS's search (see above)
_MILP_OPTIONS = (("mip_allow_restart", False),
                 ("mip_heuristic_run_feasibility_jump", False),
                 ("mip_heuristic_run_rins", False),
                 ("mip_heuristic_run_rens", False),
                 ("mip_heuristic_run_root_reduced_cost", False),
                 ("mip_heuristic_run_zi_round", False),
                 ("mip_heuristic_run_shifting", False))


@dataclass(frozen=True)
class RowArrays:
    """Constraint rows as HiGHS holds them: row-wise arrays (``start``,
    ``index``, ``value``) and bounds in HiGHS row order, with each row's
    sign applied.  Model row i is HiGHS row ``pos[i]`` times ``sign[i]``;
    with ``pos`` None the orders and signs agree."""
    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    pos: np.ndarray | None = None
    sign: np.ndarray | None = None

    @property
    def count(self) -> int:
        return self.lo.size

    def model_duals(self, duals: np.ndarray) -> np.ndarray:
        """Model-order duals from the duals of the HiGHS rows: HiGHS reports
        dObj/dRHS of the row it holds, so a negated row's dual is negated
        back."""
        return duals if self.pos is None else self.sign * duals[..., self.pos]


def _check_finite(model: LinearModel) -> None:
    """Reject what HiGHS would not: it solves a model with a NaN or
    infinite cost to "optimal"."""
    if not (np.isfinite(model.c).all() and np.isfinite(model.A.data).all()):
        raise BackendError("model has a non-finite cost or matrix entry")
    if any(np.isnan(b).any() for b in (model.lb, model.ub, model.row_lo, model.row_hi)):
        raise BackendError("model has a NaN bound")


def _join(extra: list):
    """The extra rows' end offsets, columns, values and right-hand sides."""
    return (np.cumsum([cols.size for cols, _, _ in extra], dtype=np.int64),
            [cols for cols, _, _ in extra], [vals for _, vals, _ in extra],
            np.array([b for _, _, b in extra]))


class RowBlock:
    """A model's rows, checked once (``_check_finite``), joined per load
    with extra rows ``a.x >= b`` given as (sorted columns, values, b).

    ``rows`` is the MILP layout, which is model order: the model's rows,
    then the extra rows.  ``lp_rows`` is the LP layout, prepared on first
    use: the model's inequality rows in model order with >= rows negated,
    then the extra rows negated, then the equality rows.  An LP layout of a
    model with a two-sided inequality row raises ``BackendError``.
    """

    def __init__(self, model: LinearModel):
        _check_finite(model)
        self.model = model

    def rows(self, extra: list = ()) -> RowArrays:
        m = self.model
        ends, cols, vals, rhs = _join(extra)
        return RowArrays(np.concatenate([m.A.indptr, m.A.indptr[-1] + ends]),
                         np.concatenate([m.A.indices] + cols),
                         np.concatenate([m.A.data] + vals), np.append(m.row_lo, rhs),
                         np.append(m.row_hi, np.full(rhs.size, np.inf)))

    @cached_property
    def _stacked(self) -> tuple[RowArrays, int]:
        """The model's own rows in the LP layout, and how many are
        inequalities."""
        m = self.model
        eq = m.row_lo == m.row_hi
        ge = ~eq & ~np.isneginf(m.row_lo)
        if np.isfinite(m.row_hi[ge]).any():
            raise BackendError("LP solve called on a model with two-sided inequality rows")
        order = np.concatenate([np.flatnonzero(~eq), np.flatnonzero(eq)])
        sign = np.where(ge, -1.0, 1.0)
        neg = ge[order]
        lo, hi = m.row_lo[order], m.row_hi[order]
        A = m.A
        sizes = np.diff(A.indptr)[order]
        start = np.concatenate([[0], np.cumsum(sizes)])
        take = np.repeat(A.indptr[order] - start[:-1], sizes) + np.arange(start[-1])
        return RowArrays(start, A.indices[take], A.data[take] * np.repeat(sign[order], sizes),
                         np.where(neg, -hi, lo), np.where(neg, -lo, hi),
                         np.argsort(order), sign), int((~eq).sum())

    def lp_rows(self, extra: list = ()) -> RowArrays:
        a, n = self._stacked
        nnz = int(a.start[n])
        ends, cols, vals, rhs = _join(extra)
        k = rhs.size
        extra_nnz = int(ends[-1]) if k else 0
        value = np.concatenate([a.value[:nnz]] + vals + [a.value[nnz:]])
        np.negative(value[nnz:nnz + extra_nnz], out=value[nnz:nnz + extra_nnz])
        return RowArrays(
            np.concatenate([a.start[:n + 1], nnz + ends, extra_nnz + a.start[n + 1:]]),
            np.concatenate([a.index[:nnz]] + cols + [a.index[nnz:]]), value,
            np.concatenate([a.lo[:n], np.full(k, -np.inf), a.lo[n:]]),
            np.concatenate([a.hi[:n], -rhs, a.hi[n:]]),
            np.concatenate([np.where(a.pos < n, a.pos, a.pos + k), n + np.arange(k)]),
            np.concatenate([a.sign, np.full(k, -1.0)]))


class HighsInstance:
    """One persistent HiGHS instance, its options set once, to which whole
    models are passed as a ``RowBlock`` and solved.

    A model passed with an integrality mask is a MILP, solved within
    ``mip_gap``; one passed without is an LP, solved for row and column
    duals.  An instance with a ``mip_gap`` takes ``_MILP_OPTIONS``, unless
    ``heuristics`` keeps HiGHS's default restarts and primal heuristics;
    neither acts on an LP solve.  ``run`` clears the solver and starts cold
    or from a given basis, so a model passed to a used instance solves as
    on a fresh one loaded with the same model and given the same basis, bit
    for bit; a basis that HiGHS rejects raises ``BackendError`` and is
    never replaced by a cold start.  One instance must not be used from two
    threads at once; ``run`` releases the interpreter lock, so instances in
    different threads run in parallel.  A non-finite ``mip_gap`` (HiGHS
    takes NaN and infinity) or an option that HiGHS refuses (such as a
    negative gap) raises ``BackendError``.
    """

    def __init__(self, mip_gap: float | None = None, presolve: bool = True,
                 heuristics: bool = False):
        self._highs = highs._Highs()
        options = _OPTIONS + (("presolve", "on" if presolve else "off"),)
        if mip_gap is not None:
            if not np.isfinite(mip_gap):
                raise BackendError(f"mip_gap must be finite, got {mip_gap}")
            options += (("mip_rel_gap", float(mip_gap)),)
            if not heuristics:
                options += _MILP_OPTIONS
        for option, value in options:
            if self._highs.setOptionValue(option, value) == highs.HighsStatus.kError:
                raise BackendError(f"HiGHS refused the option {option}={value!r}")
        self._mip_gap = mip_gap
        self._mip = False
        self._rows: RowArrays | None = None
        self._integral = None       # the mask of the last MILP, and its HiGHS types
        self._var_types: list = []

    def load(self, c: np.ndarray, lb: np.ndarray, ub: np.ndarray, block: RowBlock,
             extra: list = (), integral: np.ndarray | None = None) -> None:
        """Pass the model ``min c.x`` over ``block``'s rows joined with the
        ``extra`` rows, and the column bounds, with ``integral`` flagging
        the integer columns of a MILP.  This is where the layout is chosen:
        a MILP takes ``block.rows``, an LP ``block.lp_rows``."""
        if integral is not None and self._mip_gap is None:
            raise BackendError("a MILP needs an instance with a mip_gap")
        rows = block.lp_rows(extra) if integral is None else block.rows(extra)
        n, m = c.size, rows.count
        lp = highs.HighsLp()
        lp.num_col_, lp.num_row_ = n, m
        lp.a_matrix_.num_col_, lp.a_matrix_.num_row_ = n, m
        lp.a_matrix_.format_ = highs.MatrixFormat.kRowwise
        lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = \
            rows.start, rows.index, rows.value
        lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, lb, ub
        lp.row_lower_, lp.row_upper_ = rows.lo, rows.hi
        if integral is not None:
            if integral is not self._integral:
                self._integral = integral
                self._var_types = [highs.HighsVarType(int(i)) for i in integral]
            lp.integrality_ = self._var_types
        if self._highs.passModel(lp) == highs.HighsStatus.kError:
            raise BackendError("HiGHS rejected the model")
        self._rows = rows
        self._mip = integral is not None

    def basis(self) -> HighsBasis:
        """A copy of the basis of the last solve, to start another from."""
        return self._highs.getBasis()

    def run(self, basis: HighsBasis | None = None) -> SolveResult:
        """Solve the loaded model from scratch, or from the start ``basis``
        (an instance's ``basis`` over a model of the same shape);
        ``solve_time`` is this call's."""
        t0 = time.perf_counter()
        h = self._highs
        h.clearSolver()
        if basis is not None and h.setBasis(basis) == highs.HighsStatus.kError:
            raise BackendError("HiGHS rejected the start basis")
        if h.run() == highs.HighsStatus.kError:
            return self._failed(t0, "HiGHS run failed")
        model_status = h.getModelStatus()
        status = _HIGHS_STATUS.get(model_status, SolveStatus.ERROR)
        if status is not SolveStatus.OPTIMAL:
            return self._failed(t0, h.modelStatusToString(model_status), status)
        solution = h.getSolution()
        info = h.getInfo()
        objective = float(info.objective_function_value)
        return SolveResult(
            SolveStatus.OPTIMAL, objective, np.array(solution.col_value),
            None if self._mip else self._rows.model_duals(np.array(solution.row_dual)),
            None if self._mip else np.array(solution.col_dual),
            self._rows.count, time.perf_counter() - t0,
            simplex_iters=int(info.simplex_iteration_count),
            # an LP optimum is its own dual bound, and has no search tree
            mip_nodes=int(info.mip_node_count) if self._mip else 0,
            dual_bound=float(info.mip_dual_bound) if self._mip else objective)

    def _failed(self, t0: float, message: str,
                status: SolveStatus = SolveStatus.ERROR) -> SolveResult:
        return SolveResult(status, None, None, None, None, self._rows.count,
                           time.perf_counter() - t0, message=message)


class HighsSolver:
    """One LP held in a ``HighsInstance`` in the LP layout and re-solved
    after bound changes, for row and column duals.

    Every solve starts cold, or from the basis it is given, on the same
    matrix, so its results equal those of a fresh instance on a model with
    the same bounds, started the same way, bit for bit; so does each solve
    of a ``solve_batch``.  A model with integrality flags, a non-finite
    cost or matrix entry, a NaN bound or a two-sided inequality row raises
    ``BackendError``.
    """

    def __init__(self, model: LinearModel, presolve: bool = True):
        if model.integral.any():
            raise BackendError("LP solve called on a model with integrality flags")
        self._instance = HighsInstance(presolve=presolve)
        self._instance.load(model.c, model.lb, model.ub, RowBlock(model))
        self._highs = self._instance._highs
        self._rows = self._instance._rows
        self._one_sided = model.row_lo != model.row_hi      # per model row
        # the current bounds of the HiGHS columns and rows
        self._col_lb, self._col_ub = model.lb.astype(float), model.ub.astype(float)
        self._lo, self._hi = self._rows.lo, self._rows.hi

    def solve(self, basis: HighsBasis | None = None) -> SolveResult:
        """Solve the model with its current bounds from scratch, or from the
        start ``basis`` (``HighsInstance.run``)."""
        return self._instance.run(basis)

    def solve_batch(self, cols, lb, ub, rows, row_lo, row_hi,
                    basis: HighsBasis | None = None) -> BatchResult:
        """One LP solve per row k of ``ub``, ``row_lo`` and ``row_hi``: set
        the bounds of columns ``cols`` to ``lb`` and ``ub[k]`` and those of
        rows ``rows`` (model indices) to ``row_lo[k]`` and ``row_hi[k]``,
        and solve from scratch, or from the start ``basis``.  Every other
        bound keeps its value from the solve before, and only the bounds
        that differ from it reach HiGHS.  A row keeps its sense: an
        equality stays an equality, and a one-sided row keeps its infinite
        side.

        Every bound of the batch is checked before the first HiGHS call; a
        NaN bound or a change of sense raises ``BackendError``.  The
        results are copied into arrays, and the model-order duals are read
        off them after the last solve.  A basis that HiGHS rejects raises
        ``BackendError``; the solver keeps the bounds it was given last and
        stays usable.
        """
        cols = np.asarray(cols, dtype=np.int32)
        lb, ub, row_lo, row_hi = _float_bounds(lb, ub, row_lo, row_hi)
        lb = np.broadcast_to(lb, ub.shape)
        pos, lo, hi = self._row_bounds(rows, row_lo, row_hi)
        n = len(ub)
        # the columns and rows whose bounds differ from the solve before (or
        # from HiGHS's)
        col_changed = (_changes(self._col_lb[cols], lb) | _changes(self._col_ub[cols], ub))
        changed = _changes(self._lo[pos], lo) | _changes(self._hi[pos], hi)
        status = []
        objective = np.full(n, np.nan)
        raw_row_dual = np.full((n, self._rows.count), np.nan)
        col_dual = np.full((n, self._col_lb.size), np.nan)
        iters = np.zeros(n, dtype=np.int64)
        h = self._highs
        done = -1
        try:
            for k in range(n):
                ch = np.flatnonzero(col_changed[k])
                if ch.size:
                    h.changeColsBounds(ch.size, cols[ch], lb[k, ch], ub[k, ch])
                ch = np.flatnonzero(changed[k])
                for p, a, b in zip(pos[ch].tolist(), lo[k, ch].tolist(), hi[k, ch].tolist()):
                    h.changeRowBounds(p, a, b)
                done = k
                h.clearSolver()
                if basis is not None and h.setBasis(basis) == highs.HighsStatus.kError:
                    raise BackendError("HiGHS rejected the start basis")
                if h.run() == highs.HighsStatus.kError:
                    status.append(SolveStatus.ERROR)
                    continue
                status.append(_HIGHS_STATUS.get(h.getModelStatus(), SolveStatus.ERROR))
                if status[-1] is SolveStatus.OPTIMAL:
                    objective[k] = h.getObjectiveValue()
                    solution = h.getSolution()
                    raw_row_dual[k] = solution.row_dual
                    col_dual[k] = solution.col_dual
                    iters[k] = h.getInfoValue("simplex_iteration_count")[1]
        finally:
            if done >= 0:
                self._col_lb[cols], self._col_ub[cols] = lb[done], ub[done]
                self._lo[pos], self._hi[pos] = lo[done], hi[done]
        return BatchResult(status, objective, self._rows.model_duals(raw_row_dual),
                           col_dual, iters)

    def basis(self) -> HighsBasis:
        return self._instance.basis()

    def _row_bounds(self, rows, lo: np.ndarray, hi: np.ndarray):
        """The HiGHS positions of model rows ``rows`` and their HiGHS
        (lower, upper) bounds for model bounds ``lo``/``hi``, one row of
        bounds per solve; a bound change may not change the sense of a
        row."""
        rows = np.asarray(rows, dtype=np.int64)
        one_sided = self._one_sided[rows]
        neg = self._rows.sign[rows] < 0
        new_lo, new_hi = np.where(neg, -hi, lo), np.where(neg, -lo, hi)
        if not (np.isneginf(new_lo[..., one_sided]).all()
                and (lo == hi)[..., ~one_sided].all()):
            raise BackendError("a bound change may not change the sense of a row")
        return self._rows.pos[rows], new_lo, new_hi


def _changes(current: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Per solve of a batch (row of ``new``), which bounds differ from the
    solve before it, the first solve's from ``current``."""
    return new != np.concatenate((current[None], new[:-1]))


def _float_bounds(*bounds) -> list[np.ndarray]:
    arrays = [np.asarray(b, dtype=float) for b in bounds]
    if any(np.isnan(b).any() for b in arrays):
        raise BackendError("a column or row bound is NaN")
    return arrays


def solve_lp(model: LinearModel) -> SolveResult:
    """Solve an LP to optimality, returning primal values and row and column
    duals."""
    return HighsSolver(model).solve()


def solve_milp(model: LinearModel, mip_gap: float = 1e-6,
               heuristics: bool = False) -> SolveResult:
    """Solve a MILP within the given relative gap; ``heuristics`` keeps
    HiGHS's default restarts and primal heuristics (``HighsInstance``)."""
    h = HighsInstance(mip_gap, heuristics=heuristics)
    h.load(model.c, model.lb, model.ub, RowBlock(model), integral=model.integral)
    return h.run()
