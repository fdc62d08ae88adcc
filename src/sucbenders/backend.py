"""Solver-agnostic LP/MILP layer on persistent HiGHS instances.

Every solve goes through a ``HighsInstance``: one ``_Highs`` instance of
scipy's bundled HiGHS bindings with its options set once, to which a model
is passed and solved from scratch, cold or from a given start basis, in
one run step (``HighsInstance._start``) that every master and recourse
solve shares.  ``solve_lp`` and ``solve_milp`` pass a model as a
``RowBlock`` of its rows to a fresh instance and solve it once.  A Benders
run keeps one instance for its masters and passes each master as the
static block of the run with the cut rows as extra rows.  ``HighsSolver``,
an instance loaded once with an LP of equality rows, solves it once per
``HighsSolver.solve`` call after changes of column upper bounds and
right-hand sides: the scenario subproblems keep one per run.  While its
solve is optimal, ``HighsSolver.vertex`` gives it as a ``Vertex``, which
also reads HiGHS's basis factor; the bunching of scenarios that share an
optimal basis is decided from it outside this module
(``formulations.RecourseSolver``).

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

A whole model reaches HiGHS in the layout that ``scipy.optimize`` used to
give it, because HiGHS's iterates depend on the layout and the Benders
runs' iterates, cuts and row counts depend on those: master LPs passed in
model order take other iterates, and on toy-a consolidation then removes
no cut.  ``RowBlock`` holds both layouts of one model's rows, and
``HighsInstance.load`` is the one place that picks one, from whether the
model is passed with an integrality mask:

* LPs take ``linprog``'s stacked form (``RowBlock.lp_rows``): the
  inequality rows in model order, >= rows negated into <= rows, then the
  equality rows; extra rows, which are >= rows, are negated and sit
  between the model's inequality and equality rows, where they belong in
  model order;
* MILPs take ``milp``'s native two-sided rows in model order
  (``RowBlock.rows``), the extra rows last.

A ``HighsSolver``'s rows are equalities, whose stacked layout is model
order, so it passes them as they are.  The rows reach HiGHS row-wise,
straight from CSR arrays (a model's own arrays or a permuted, negated copy
of them in the stacked layout), with no conversion to columns; HiGHS
builds the same column-wise matrix that a column-wise pass gives it, so
the iterates are those of a column-wise pass bit for bit.  Every instance
runs the dual simplex with output off, and with presolve on except a
``HighsSolver``'s (the scenario subproblems: small LPs that solve faster
without it).

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

    def to_model(self, values: np.ndarray) -> np.ndarray:
        """Model-order values or duals from those of the HiGHS rows (along
        the last axis): a negated row's activity is negated back, and so is
        its dual, because HiGHS reports dObj/dRHS of the row it holds."""
        return values if self.pos is None else self.sign * values[..., self.pos]


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
    then the extra rows.  ``lp_rows`` is the LP layout, a permutation of
    those rows: the inequality rows in order with >= rows negated (the
    model's, then the extra rows), then the equality rows.  An LP layout of
    a model with a two-sided inequality row raises ``BackendError``.
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

    def lp_rows(self, extra: list = ()) -> RowArrays:
        a = self.rows(extra)
        eq = a.lo == a.hi
        ge = ~eq & ~np.isneginf(a.lo)
        if np.isfinite(a.hi[ge]).any():
            raise BackendError("LP solve called on a model with two-sided inequality rows")
        # the extra rows are >= rows after the model's, so they land between
        # its inequality and equality rows
        order = np.concatenate([np.flatnonzero(~eq), np.flatnonzero(eq)])
        sign = np.where(ge, -1.0, 1.0)
        neg = ge[order]
        lo, hi = a.lo[order], a.hi[order]
        sizes = np.diff(a.start)[order]
        start = np.concatenate([[0], np.cumsum(sizes)])
        take = np.repeat(a.start[order] - start[:-1], sizes) + np.arange(start[-1])
        return RowArrays(start, a.index[take], a.value[take] * np.repeat(sign[order], sizes),
                         np.where(neg, -hi, lo), np.where(neg, -lo, hi),
                         np.argsort(order), sign)


class HighsInstance:
    """One persistent HiGHS instance, its options set once, to which whole
    models are passed as a ``RowBlock`` and solved.

    A model passed with an integrality mask is a MILP, solved within
    ``mip_gap``; one passed without is an LP, solved for row and column
    duals.  An instance with a ``mip_gap`` takes ``_MILP_OPTIONS``, unless
    ``heuristics`` keeps HiGHS's default restarts and primal heuristics;
    neither acts on an LP solve.  Every solve (``run``, and
    ``HighsSolver.solve``) clears the solver and starts cold or from a given
    basis (``_start``), so a model passed to a used instance solves as on a
    fresh one loaded with the same model and given the same basis, bit for
    bit; a basis that HiGHS rejects raises ``BackendError`` and is never
    replaced by a cold start.  One instance must not be used from two
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
        self._pass(c, lb, ub, block.lp_rows(extra) if integral is None else block.rows(extra),
                   integral)

    def _pass(self, c: np.ndarray, lb: np.ndarray, ub: np.ndarray, rows: RowArrays,
              integral: np.ndarray | None = None) -> None:
        """Pass the model ``min c.x`` over ``rows`` as they are: ``load``'s
        layout, or a ``HighsSolver``'s equality rows in model order."""
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

    def _start(self, basis: HighsBasis | None = None) -> SolveStatus:
        """The one place that runs HiGHS: solve what the instance holds
        from scratch, or from the start ``basis`` (an instance's ``basis``
        over a model of the same shape), and map HiGHS's status."""
        h = self._highs
        h.clearSolver()
        if basis is not None and h.setBasis(basis) == highs.HighsStatus.kError:
            raise BackendError("HiGHS rejected the start basis")
        if h.run() == highs.HighsStatus.kError:
            return SolveStatus.ERROR
        return _HIGHS_STATUS.get(h.getModelStatus(), SolveStatus.ERROR)

    def run(self) -> SolveResult:
        """Solve the loaded model from scratch; ``solve_time`` is this
        call's."""
        t0 = time.perf_counter()
        h = self._highs
        status = self._start()
        if status is not SolveStatus.OPTIMAL:
            return SolveResult(status, None, None, None, None, self._rows.count,
                               time.perf_counter() - t0,
                               message=h.modelStatusToString(h.getModelStatus()))
        solution = h.getSolution()
        info = h.getInfo()
        objective = float(info.objective_function_value)
        return SolveResult(
            SolveStatus.OPTIMAL, objective, np.array(solution.col_value),
            None if self._mip else self._rows.to_model(np.array(solution.row_dual)),
            None if self._mip else np.array(solution.col_dual),
            self._rows.count, time.perf_counter() - t0,
            simplex_iters=int(info.simplex_iteration_count),
            # an LP optimum is its own dual bound, and has no search tree
            mip_nodes=int(info.mip_node_count) if self._mip else 0,
            dual_bound=float(info.mip_dual_bound) if self._mip else objective)


class Vertex:
    """The optimal solve that a ``HighsSolver`` holds (``HighsSolver.vertex``).

    Its objective, simplex iterations, values and duals are read when it is
    made and stay valid.  Its basis, the basis factor and the bounds and
    right-hand sides it reads (``col_lb``, ``col_ub``, ``rhs``: the
    solver's) are valid only while the solver holds that solve, until its
    next ``solve``.
    """

    def __init__(self, solver: "HighsSolver"):
        h = solver._highs
        self._solver = solver
        self.objective = h.getObjectiveValue()
        self.simplex_iters = int(h.getInfoValue("simplex_iteration_count")[1])
        self._solution = h.getSolution()
        self.col_lb, self.col_ub, self.rhs = solver._col_lb, solver._col_ub, solver._rhs

    @cached_property
    def col_value(self) -> np.ndarray:
        return np.array(self._solution.col_value)

    @cached_property
    def col_dual(self) -> np.ndarray:
        return np.array(self._solution.col_dual)

    @cached_property
    def row_value(self) -> np.ndarray:
        return np.array(self._solution.row_value)

    @cached_property
    def row_dual(self) -> np.ndarray:
        """Per row, in model order."""
        return np.array(self._solution.row_dual)

    @cached_property
    def _basic(self) -> np.ndarray:
        """The basic variables in basis order: column j as j, row i as
        -1 - i."""
        status, basic = self._solver._highs.getBasicVariables()
        if status == highs.HighsStatus.kError:
            raise BackendError("HiGHS holds no basis")
        return np.asarray(basic, dtype=np.int64)

    @cached_property
    def _nonbasic_col(self) -> np.ndarray:
        mask = np.ones(self.col_lb.size, dtype=bool)
        mask[self._basic[self._basic >= 0]] = False
        return mask

    def at_upper(self, cols: np.ndarray) -> np.ndarray:
        """Which of columns ``cols`` are nonbasic at their upper bounds.  A
        fixed column counts as at its upper bound when its reduced cost is
        negative: of its two bounds, the one at which the duals stay
        optimal when a later solve moves them apart (a column at its lower
        bound needs a reduced cost >= 0, one at its upper bound <= 0)."""
        ub = self.col_ub[cols]
        return self._nonbasic_col[cols] & np.where(self.col_lb[cols] == ub,
                                                   self.col_dual[cols] < 0,
                                                   self.col_value[cols] == ub)

    def follow(self, col_step: np.ndarray, row_step: np.ndarray):
        """How the basic variables move when the nonbasic columns and rows
        move by ``col_step`` and ``row_step`` (directions x columns,
        directions x rows; the entries of basic variables are not read), so
        that each row's value stays its activity: the basic columns, their
        moves (directions x basic columns), the rows whose values are basic
        and their moves.  One solve with HiGHS's factor per direction that
        moves a basic variable."""
        s = self._solver
        basic = self._basic
        is_col = basic >= 0
        cols, rows = basic[is_col], -1 - basic[~is_col]
        step = row_step.copy()
        step[:, rows] = 0.0
        # HiGHS's logical variable of a row is its activity negated, so the
        # basis matrix B spans A's basic columns and the basic rows' unit
        # columns, and B (dx_B, -dr_B) = dr_N - A dx_N
        col_step = col_step * self._nonbasic_col
        rhs = step - (s._A @ col_step.T).T if col_step.any() else step
        move = np.zeros((len(rhs), basic.size))
        for i in np.flatnonzero(rhs.any(axis=1)):
            status, move[i] = s._highs.getBasisSolve(rhs[i])
            if status == highs.HighsStatus.kError:
                raise BackendError("HiGHS could not solve with the basis factor")
        return cols, move[:, is_col], rows, -move[:, ~is_col]


class HighsSolver(HighsInstance):
    """An instance loaded once with one LP of equality rows, presolve off
    and its rows in model order, and re-solved after changes of column
    upper bounds and right-hand sides, for row and column duals.

    Every solve starts cold, or from the basis it is given, on the same
    matrix, so each solve equals, bit for bit, the first solve of a fresh
    solver of a model with the same bounds, started the same way.  A model
    with integrality flags, a row whose bounds differ (an inequality), a
    non-finite cost or matrix entry or a NaN bound raises ``BackendError``.
    """

    def __init__(self, model: LinearModel):
        block = RowBlock(model)
        if model.integral.any():
            raise BackendError("LP solve called on a model with integrality flags")
        if (model.row_lo != model.row_hi).any():
            raise BackendError("a HighsSolver LP has equality rows only")
        super().__init__(presolve=False)
        rows = block.rows()
        self._pass(model.c, model.lb, model.ub, rows)
        self._A = model.A
        # the current column bounds and right-hand sides that HiGHS holds
        self._col_lb, self._col_ub = model.lb.astype(float), model.ub.astype(float)
        self._rhs = rows.lo

    def solve(self, cols, ub, rows, rhs, basis: HighsBasis | None = None) -> SolveStatus:
        """Set the upper bounds of columns ``cols`` to ``ub`` and the
        right-hand sides of rows ``rows`` to ``rhs``, and solve from
        scratch, or from the start ``basis``.  Every other bound and
        right-hand side keeps its value, and only those that differ from
        what HiGHS holds reach it.  A NaN raises ``BackendError`` before
        any HiGHS call, and so does a basis that HiGHS rejects, after the
        bounds are set; the solver stays usable."""
        cols, rows = np.asarray(cols, dtype=np.int64), np.asarray(rows, dtype=np.int64)
        ub, rhs = np.asarray(ub, dtype=float), np.asarray(rhs, dtype=float)
        if np.isnan(ub).any() or np.isnan(rhs).any():
            raise BackendError("a column or row bound is NaN")
        h = self._highs
        ch = np.flatnonzero(ub != self._col_ub[cols])
        if ch.size:
            at, to = cols[ch], ub[ch]
            h.changeColsBounds(ch.size, at, self._col_lb[at], to)
            self._col_ub[at] = to
        ch = np.flatnonzero(rhs != self._rhs[rows])
        if ch.size:
            at, to = rows[ch], rhs[ch]
            for i, b in zip(at.tolist(), to.tolist()):
                h.changeRowBounds(i, b, b)
            self._rhs[at] = to
        return self._start(basis)

    def vertex(self) -> Vertex | None:
        """The solve that the solver holds, or None unless HiGHS reports it
        optimal: HiGHS resets its model status on every change of a bound
        and on ``clearSolver``, so an optimal status is that of the bounds
        it holds."""
        if self._highs.getModelStatus() != highs.HighsModelStatus.kOptimal:
            return None
        return Vertex(self)


def solve_lp(model: LinearModel) -> SolveResult:
    """Solve an LP to optimality, returning primal values and row and column
    duals."""
    if model.integral.any():
        raise BackendError("LP solve called on a model with integrality flags")
    h = HighsInstance()
    h.load(model.c, model.lb, model.ub, RowBlock(model))
    return h.run()


def solve_milp(model: LinearModel, mip_gap: float = 1e-6,
               heuristics: bool = False) -> SolveResult:
    """Solve a MILP within the given relative gap; ``heuristics`` keeps
    HiGHS's default restarts and primal heuristics (``HighsInstance``)."""
    h = HighsInstance(mip_gap, heuristics=heuristics)
    h.load(model.c, model.lb, model.ub, RowBlock(model), integral=model.integral)
    return h.run()
