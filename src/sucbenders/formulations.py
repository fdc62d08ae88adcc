"""Model builders: extensive form, Benders master, subproblems.

The two models that a Benders run solves again and again are built once per
run: ``master_template`` builds the master's static block (first stage,
theta columns and rows, fixed commitments), checked once as a
``backend.RowBlock``, and renders each cut's row when the cut first
appears; ``MasterSolver`` passes the block and the cut rows to one HiGHS
instance per run, and ``build_master`` gives the same master as a model.
``recourse_template`` builds the subproblem LP, the scenarios' spill bounds
and balance right-hand sides as arrays with one row per scenario, and the
map that carries a first-stage point into the balance right-hand sides,
which ``RecourseTemplate.point`` applies once per point; ``RecourseSolver``
solves a point's scenarios in bunches that share an optimal basis
(``_Bunching``).  The models equal those of a from-scratch build bit for
bit.

Every model made here is a ``backend.LinearModel`` whose columns and rows are
laid out as follows:

* generators/farms/lines/nodes keep instance order; periods run 1..T and map
  to array column t-1;
* first-stage columns: u, y, z, p, r+, r- interleaved per (generator,
  period), then w per (farm, period), f per (line, period) and delta per
  (node, period).  ``first_stage_layout`` maps each family to an array of
  column indices (|G| x T, |J| x T, |L| x T, |N| x T);
* first-stage rows: per generator and period, min-up and min-down (after
  the enforced initial periods), logic, exclusion, ramp-up, ramp-down,
  p-min and p-max; then nodal balance per (node, period) and flow
  definitions per (line, period);
* the master appends its theta columns, one per scenario with cost pi,
  their lower-bound rows, and one row per live cut in pool order; a cut's
  row weights each member's theta by its pi.  Every cut mode shares this
  master.  The extensive form appends one recourse block per scenario;
* a recourse block's columns are p+/p- interleaved per (generator, period),
  spill per (farm, period), shed per (node, period) and flow per (line,
  period); in the extensive form its rows are the reserve-deployment limits
  (up/down interleaved per (generator, period)), nodal balance per (node,
  period) and Kirchhoff's voltage law per (fundamental cycle, period).
  Only the spill bounds and the balance right-hand sides depend on the
  scenario;
* the "link" values are the first-stage values that the recourse sees:
  r+/r- interleaved per (generator, period), then w and f, in first-stage
  order.  This link order is shared by ``FirstStageSolution.link()``,
  ``SubproblemResult.lam`` and ``cuts.Cut.lam``/``anchor``;
  ``link_columns`` locates each family in it;
* a subproblem is one recourse block with the link values, clipped to their
  boxes, substituted: r+ and r- are the upper bounds of p+ and p- (whose
  columns are the first 2|G|T, so they share the r+/r- link positions), and
  w and f enter the balance right-hand sides through ``A_link`` (balance
  rows x link positions).  Its rows are nodal balance and the cycle rows
  only.  Its slope ``lam`` in the link values is read from its duals: for
  w and f, ``-A_link^T y`` from the balance-row duals ``y``; for r+ and r-,
  ``min(col_dual, 0)`` of p+ and p-, the dual of the active upper bound;
* constraints with a single variable and a constant right-hand side (reserve
  offer caps, wind capacity, flow capacity, spill/shed caps, the initial
  commitment pins) are imposed as variable bounds, not rows -- except the
  theta lower bounds of the master, which are explicit rows so that the
  master row metric decomposes as first-stage rows + theta rows + cut rows;
* the DC flow convention is f = B * (angle_from - angle_to) with the
  reference node angle fixed to 0, and nodal balance reads
  generation + wind - load = outgoing flow - incoming flow.  The first stage
  keeps the angles; a recourse block has none and states the same law in
  cycle form (``cycle_basis``): around each fundamental cycle C,
  sum over l in C of s_l * f_l / B_l = 0, with s_l = +1 where C runs from
  the line's from-node to its to-node and -1 against.  With free angles and
  one reference node the two forms admit the same flows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

# solve_lp is no longer called here; it stays bound because bench/layers.py
# wraps formulations.solve_lp by name
from .backend import (HighsBasis, HighsInstance, HighsSolver,  # noqa: F401
                      LinearModel, RowBlock, SolveResult, SolveStatus, solve_lp,
                      solve_milp)
from .cuts import CutPool
from .data import ScenarioSet, SystemInstance

FEAS_TOL = 1e-6
# HiGHS's small_matrix_value: it ignores a matrix entry of no larger magnitude
SMALL_MATRIX_VALUE = 1e-9


class ModelBuildError(ValueError):
    pass


class SubproblemInfeasibleError(RuntimeError):
    """Complete recourse guarantees feasibility; this signals a bug."""


@dataclass(frozen=True)
class FirstStageSolution:
    """Day-ahead decisions; reserve/wind/flow slices feed the Benders cuts."""
    u: np.ndarray        # |G| x T binary
    y: np.ndarray
    z: np.ndarray
    p: np.ndarray        # MW
    r_plus: np.ndarray
    r_minus: np.ndarray
    w: np.ndarray        # |J| x T
    f: np.ndarray        # |L| x T
    delta: np.ndarray    # |N| x T
    c_da: float          # $

    def link(self) -> np.ndarray:
        """r+, r-, w and f in link order.  Computed once per point and
        read-only: every subproblem and cut of the point shares it."""
        return self._link_values

    @cached_property
    def _link_values(self) -> np.ndarray:
        values = _link(self.r_plus, self.r_minus, self.w, self.f)
        values.setflags(write=False)
        return values


@dataclass(frozen=True)
class SubproblemResult:
    scenario_id: str
    objective: float        # Q_omega, $
    lam: np.ndarray         # slope of Q_omega in the link values, link order
    simplex_iters: int = 0  # of the HiGHS solve
    # another scenario's optimal basis covered it: no HiGHS solve ran, and
    # its lam is that scenario's (bunching, RecourseSolver.solve)
    covered: bool = False


@dataclass(frozen=True)
class FirstStageLayout:
    """Column index of every first-stage variable."""
    u: np.ndarray        # |G| x T
    y: np.ndarray
    z: np.ndarray
    p: np.ndarray
    rp: np.ndarray
    rm: np.ndarray
    w: np.ndarray        # |J| x T
    f: np.ndarray        # |L| x T
    delta: np.ndarray    # |N| x T
    n: int               # first-stage column count


def _grid(start: int, n: int, T: int, k: int = 1) -> list[np.ndarray]:
    """Indices ``start, start+1, ...`` of k families interleaved per
    (entity, period), as k arrays of shape n x T."""
    first = start + k * np.arange(n * T).reshape(n, T)
    return [first + m for m in range(k)]


def first_stage_layout(instance: SystemInstance) -> FirstStageLayout:
    G, J, L, T = instance.n_gens, instance.n_farms, instance.n_lines, instance.horizon
    u, y, z, p, rp, rm = _grid(0, G, T, 6)
    [w] = _grid(6 * G * T, J, T)
    [f] = _grid(6 * G * T + J * T, L, T)
    [delta] = _grid(6 * G * T + (J + L) * T, instance.n_nodes, T)
    return FirstStageLayout(u, y, z, p, rp, rm, w, f, delta,
                            (6 * G + J + L + instance.n_nodes) * T)


def link_columns(instance: SystemInstance) -> list[np.ndarray]:
    """Positions of the r+, r-, w and f families in link order (|G| x T,
    |G| x T, |J| x T, |L| x T); the r+/r- positions are also the subproblem's
    p+/p- columns."""
    G, J, L, T = instance.n_gens, instance.n_farms, instance.n_lines, instance.horizon
    return _grid(0, G, T, 2) + _grid(2 * G * T, J, T) + _grid((2 * G + J) * T, L, T)


def _link(rp, rm, w, f) -> np.ndarray:
    """r+/r-/w/f blocks flattened in link-column order: r+/r- interleaved
    per (generator, period), then w, then f."""
    return np.concatenate([np.stack([rp, rm], axis=-1).ravel(), np.ravel(w), np.ravel(f)])


def _col(values) -> np.ndarray:
    """Per-entity values as a column that broadcasts over periods."""
    return np.array(values, dtype=float).reshape(-1, 1)


def _coo(entries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten (rows, cols, values) triples into COO arrays; rows and cols
    of a triple share one shape, and its values broadcast to it."""
    return (np.concatenate([r.ravel() for r, _, _ in entries]),
            np.concatenate([c.ravel() for _, c, _ in entries]),
            np.concatenate([(np.ones(r.shape) * v).ravel() for r, _, v in entries]))


class _ModelDraft:
    """Columns (cost, bounds, integrality) and COO rows of a model under
    construction; columns default to cost 0 and bounds [0, inf)."""

    def __init__(self, n_cols: int):
        self.c = np.zeros(n_cols)
        self.lb = np.zeros(n_cols)
        self.ub = np.full(n_cols, np.inf)
        self.integral = np.zeros(n_cols, dtype=bool)
        self.i, self.j, self.v = [], [], []    # one row at a time
        self.blocks = []                        # (i, j, v) arrays
        self.lo, self.hi = [], []

    def row(self, cols: list, vals: list, sense: str, rhs: float) -> None:
        """Append ``sum(vals * x[cols]) sense rhs`` (sense '<=', '>=' or '==')."""
        self.i += [len(self.lo)] * len(cols)
        self.j += cols
        self.v += vals
        self.lo.append(-np.inf if sense == "<=" else float(rhs))
        self.hi.append(np.inf if sense == ">=" else float(rhs))

    def rows(self, i, j, v, lo, hi) -> None:
        """Append rows given as COO arrays, ``i`` counted from the first new row."""
        self.blocks.append((np.asarray(i) + len(self.lo), j, v))
        self.lo += np.asarray(lo, dtype=float).tolist()
        self.hi += np.asarray(hi, dtype=float).tolist()

    def model(self) -> LinearModel:
        i = np.concatenate([np.array(self.i, dtype=int)] + [b[0] for b in self.blocks])
        j = np.concatenate([np.array(self.j, dtype=int)] + [b[1] for b in self.blocks])
        v = np.concatenate([np.array(self.v, dtype=float)] + [b[2] for b in self.blocks])
        A = sp.csr_matrix((v, (i, j)), shape=(len(self.lo), len(self.c)))
        return LinearModel(self.c, self.lb, self.ub, self.integral, A,
                           np.array(self.lo), np.array(self.hi))


def _topology(instance: SystemInstance):
    """Node index of each generator and farm, and of each line's ends."""
    at = {n: k for k, n in enumerate(instance.nodes)}
    return ([at[g.node] for g in instance.generators],
            [at[w.node] for w in instance.wind_farms],
            [at[ln.from_node] for ln in instance.lines],
            [at[ln.to_node] for ln in instance.lines])


def cycle_basis(instance: SystemInstance) -> np.ndarray:
    """The fundamental cycles of the network, one per line outside a BFS
    spanning forest, as a cycles x lines array: +1 where a cycle runs along
    a line from its from-node to its to-node, -1 where it runs against it,
    0 off the cycle.

    The forest grows from each unreached node in node order and scans each
    node's lines in line order, so the basis depends only on the instance.
    Each non-tree line closes one cycle, run along it and back through the
    tree, in line order: a connected network has L - N + 1 cycles, two
    parallel lines make a 2-cycle, and a tree has none.
    """
    _, _, from_at, to_at = _topology(instance)
    incident = [[] for _ in instance.nodes]
    for line, (a, b) in enumerate(zip(from_at, to_at)):
        incident[a].append(line)
        incident[b].append(line)
    depth = [-1] * instance.n_nodes
    parent = [None] * instance.n_nodes     # (tree line, parent node)
    tree = np.zeros(instance.n_lines, dtype=bool)
    for root in range(instance.n_nodes):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = deque([root])
        while queue:
            n = queue.popleft()
            for line in incident[n]:
                m = to_at[line] if from_at[line] == n else from_at[line]
                if depth[m] < 0:
                    depth[m], parent[m], tree[line] = depth[n] + 1, (line, n), True
                    queue.append(m)
    closing = np.flatnonzero(~tree)
    K = np.zeros((closing.size, instance.n_lines))
    for k, line in enumerate(closing):
        # from a along the line to b, then from b up to the common ancestor
        # and down to a
        K[k, line] = 1.0
        a, b = from_at[line], to_at[line]
        while a != b:
            if depth[b] >= depth[a]:
                up, b_parent = parent[b]
                K[k, up] = 1.0 if from_at[up] == b else -1.0
                b = b_parent
            else:
                down, a_parent = parent[a]
                K[k, down] = 1.0 if from_at[down] == a_parent else -1.0
                a = a_parent
    return K


def _bound_link(b: _ModelDraft, instance: SystemInstance, rp, rm, w, f) -> None:
    """Reserve offer caps on r+/r-, farm capacity on w, line capacity on f."""
    b.ub[rp] = _col([g.res_up_cap for g in instance.generators])
    b.ub[rm] = _col([g.res_down_cap for g in instance.generators])
    b.ub[w] = _col([farm.capacity for farm in instance.wind_farms])
    cap = _col([ln.capacity for ln in instance.lines])
    b.lb[f], b.ub[f] = -cap, cap


def day_ahead_cost(instance: SystemInstance, sol_p, sol_y, sol_rp, sol_rm) -> float:
    c = 0.0
    for i, g in enumerate(instance.generators):
        c += (g.energy_cost * sol_p[i].sum()
              + g.startup_cost * sol_y[i].sum()
              + g.res_up_cost * sol_rp[i].sum()
              + g.res_down_cost * sol_rm[i].sum())
    return float(c)


# -- first stage -----------------------------------------------------------

def _add_first_stage(b: _ModelDraft, instance: SystemInstance, X: FirstStageLayout) -> None:
    T = instance.horizon
    gens = instance.generators

    def per_gen(attr):
        return _col([getattr(g, attr) for g in gens])

    for fam in (X.u, X.y, X.z):
        b.integral[fam] = True
        b.ub[fam] = 1.0
    b.c[X.y] = per_gen("startup_cost")
    b.c[X.p] = per_gen("energy_cost")
    b.c[X.rp] = per_gen("res_up_cost")
    b.c[X.rm] = per_gen("res_down_cost")
    _bound_link(b, instance, X.rp, X.rm, X.w, X.f)
    # angles are free except at the reference node, where they are 0
    free = _col([n != instance.ref_node for n in instance.nodes])
    b.lb[X.delta] = np.where(free, -np.inf, 0.0)
    b.ub[X.delta] = np.where(free, np.inf, 0.0)

    for i, g in enumerate(gens):
        u, y, z, p, rp, rm = (a[i].tolist() for a in (X.u, X.y, X.z, X.p, X.rp, X.rm))
        enforced = g.init_up_periods + g.init_down_periods
        b.lb[u[:enforced]] = b.ub[u[:enforced]] = float(g.init_status)
        for t in range(T):
            if t >= enforced:
                ups = y[max(0, t - g.min_up + 1):t + 1]
                b.row(ups + [u[t]], [1.0] * len(ups) + [-1.0], "<=", 0.0)
                downs = z[max(0, t - g.min_down + 1):t + 1]
                b.row(downs + [u[t]], [1.0] * len(downs) + [1.0], "<=", 1.0)
            # start-up/shut-down transition; t=1 references the initial status
            if t > 0:
                b.row([y[t], z[t], u[t], u[t - 1]], [1.0, -1.0, -1.0, 1.0], "==", 0.0)
            else:
                b.row([y[t], z[t], u[t]], [1.0, -1.0, -1.0], "==", -float(g.init_status))
            b.row([y[t], z[t]], [1.0, 1.0], "<=", 1.0)

            # ramping; initial power is u0 * p_min, initial reserves zero
            if t > 0:
                b.row([p[t], rp[t], y[t], p[t - 1], rp[t - 1], u[t - 1]],
                      [1.0, 1.0, -g.ramp_up, -1.0, -1.0, -g.ramp_up], "<=", 0.0)
                b.row([p[t], rm[t], u[t], z[t], p[t - 1], rm[t - 1]],
                      [-1.0, 1.0, -g.ramp_down, -g.ramp_down, 1.0, -1.0], "<=", 0.0)
            else:
                p0 = g.init_status * g.p_min
                b.row([p[t], rp[t], y[t]], [1.0, 1.0, -g.ramp_up], "<=",
                      p0 + g.ramp_up * g.init_status)
                b.row([p[t], rm[t], u[t], z[t]],
                      [-1.0, 1.0, -g.ramp_down, -g.ramp_down], "<=", -p0)

            b.row([p[t], rm[t], u[t]], [1.0, -1.0, -g.p_min], ">=", 0.0)
            if t < T - 1:
                b.row([p[t], rp[t], u[t], z[t + 1]],
                      [1.0, 1.0, -g.p_max, g.p_max - g.ramp_down], "<=", 0.0)
            else:
                b.row([p[t], rp[t], u[t]], [1.0, 1.0, -g.p_max], "<=", 0.0)

    gen_at, farm_at, from_at, to_at = _topology(instance)
    N, L = instance.n_nodes, instance.n_lines
    [bal] = _grid(0, N, T)
    [flow] = _grid(N * T, L, T)
    susceptance = _col([ln.susceptance for ln in instance.lines])
    load = np.array([[instance.load_at(n, t) for t in range(1, T + 1)]
                     for n in instance.nodes])
    rhs = np.concatenate([load.ravel(), np.zeros(L * T)])
    b.rows(*_coo([(bal[gen_at], X.p, 1.0), (bal[farm_at], X.w, 1.0),
                  (bal[from_at], X.f, -1.0), (bal[to_at], X.f, 1.0),
                  (flow, X.f, 1.0), (flow, X.delta[from_at], -susceptance),
                  (flow, X.delta[to_at], susceptance)]), rhs, rhs)


def first_stage_row_count(instance: SystemInstance) -> int:
    """Number of first-stage constraint rows under this package's conventions."""
    T = instance.horizon
    rows = 0
    for g in instance.generators:
        enforced = g.init_up_periods + g.init_down_periods
        rows += 2 * max(0, T - enforced)     # min up/down
        rows += 6 * T                        # logic, excl, 2 ramps, pmin, pmax
    rows += T * (instance.n_nodes + instance.n_lines)
    return rows


def second_stage_row_count(instance: SystemInstance) -> int:
    """Per-scenario second-stage rows: T * (N + 2G + L - N + 1) on a
    connected network (balance, reserve limits, one row per fundamental
    cycle)."""
    T = instance.horizon
    return T * (instance.n_nodes + 2 * instance.n_gens + len(cycle_basis(instance)))


# -- second stage ----------------------------------------------------------

def _recourse_size(instance: SystemInstance) -> int:
    return instance.horizon * (2 * instance.n_gens + instance.n_farms
                               + instance.n_nodes + instance.n_lines)


def _recourse_columns(instance: SystemInstance, start: int) -> list[np.ndarray]:
    """Columns of a recourse block numbered from ``start``: p+, p-, spill,
    shed and flow."""
    G, J, N, L, T = (instance.n_gens, instance.n_farms, instance.n_nodes,
                     instance.n_lines, instance.horizon)
    return (_grid(start, G, T, 2) + _grid(start + 2 * G * T, J, T)
            + _grid(start + (2 * G + J) * T, N, T)
            + _grid(start + (2 * G + J + N) * T, L, T))


def _balance_rhs(instance: SystemInstance, farm_at, wind: np.ndarray) -> np.ndarray:
    """Nodal balance right-hand sides: minus the realized wind at each node
    (``wind`` is |J| x T, or a stack of such, one per scenario)."""
    rhs = np.zeros(wind.shape[:-2] + (instance.n_nodes, instance.horizon))
    for j, k in enumerate(farm_at):
        rhs[..., k, :] -= wind[..., j, :]
    return rhs


def _link_terms(instance: SystemInstance, bal, w, f) -> list:
    """COO triples of the scheduled wind ``w`` and day-ahead flows ``f`` in
    the nodal balance rows ``bal``."""
    _, farm_at, from_at, to_at = _topology(instance)
    return [(bal[farm_at], w, -1.0), (bal[from_at], f, 1.0), (bal[to_at], f, -1.0)]


def _add_second_stage(b: _ModelDraft, instance: SystemInstance, scenarios: ScenarioSet,
                      omega: str, prob_weight: float, start: int, link=None) -> None:
    """Recourse columns (numbered from ``start``) and rows for one scenario.

    ``prob_weight`` scales the recourse objective terms (pi_omega in the
    extensive form, 1.0 in a subproblem).  In the extensive form ``link``
    holds the column indices of r+, r-, w and f, which the block shares with
    the first stage, and reserve-deployment rows bound p+ and p- by r+ and
    r-.  A subproblem block (``link`` None) has neither: p+ and p- keep
    their default bounds and the link terms of the balance rows are left
    out, for ``build_subproblem`` to substitute.

    The recourse flows have no angles: after the balance rows, one
    Kirchhoff voltage-law row per fundamental cycle and period
    (``cycle_basis``) sums each line's flow over its susceptance, signed by
    the cycle's direction, to 0.
    """
    gens, farms, lines = instance.generators, instance.wind_farms, instance.lines
    G, N, T = instance.n_gens, instance.n_nodes, instance.horizon
    pp, pm, spill, shed, ftil = _recourse_columns(instance, start)

    b.c[pp] = prob_weight * _col([g.deploy_up_price for g in gens])
    b.c[pm] = -prob_weight * _col([g.deploy_down_price for g in gens])
    b.c[shed] = prob_weight * instance.shed_cost
    wind = np.array([[scenarios.value(omega, farm.id, t) for t in range(1, T + 1)]
                     for farm in farms]).reshape(instance.n_farms, T)
    b.ub[spill] = wind
    b.ub[shed] = [[instance.load_at(n, t) for t in range(1, T + 1)]
                  for n in instance.nodes]
    cap = _col([ln.capacity for ln in lines])
    b.lb[ftil], b.ub[ftil] = -cap, cap

    gen_at, farm_at, from_at, to_at = _topology(instance)
    n_deploy = 0 if link is None else 2 * G * T
    [bal] = _grid(n_deploy, N, T)
    K = cycle_basis(instance)
    [kvl] = _grid(n_deploy + N * T, len(K), T)
    cycle, line = np.nonzero(K)
    susceptance = np.array([ln.susceptance for ln in lines])
    rhs = np.concatenate([_balance_rhs(instance, farm_at, wind).ravel(), np.zeros(kvl.size)])
    entries = [(bal, shed, 1.0), (bal[gen_at], pp, 1.0), (bal[gen_at], pm, -1.0),
               (bal[farm_at], spill, -1.0), (bal[from_at], ftil, -1.0),
               (bal[to_at], ftil, 1.0),
               (kvl[cycle], ftil[line], _col(K[cycle, line] / susceptance[line]))]
    if link is None:
        b.rows(*_coo(entries), rhs, rhs)
        return
    rp, rm, w, f = link
    up, dn = _grid(0, G, T, 2)
    entries += [(up, pp, 1.0), (up, rp, -1.0), (dn, pm, 1.0), (dn, rm, -1.0)]
    b.rows(*_coo(entries + _link_terms(instance, bal, w, f)),
           np.concatenate([np.full(n_deploy, -np.inf), rhs]),
           np.concatenate([np.zeros(n_deploy), rhs]))


# -- public builders -------------------------------------------------------

def build_extensive(instance: SystemInstance, scenarios: ScenarioSet) -> LinearModel:
    """One MILP with the first stage and all scenario recourse blocks."""
    X = first_stage_layout(instance)
    size = _recourse_size(instance)
    b = _ModelDraft(X.n + scenarios.n_scenarios * size)
    _add_first_stage(b, instance, X)
    for k, (omega, pi) in enumerate(zip(scenarios.scenario_ids, scenarios.probabilities)):
        _add_second_stage(b, instance, scenarios, omega, pi, X.n + k * size,
                          (X.rp, X.rm, X.w, X.f))
    return b.model()


class MasterTemplate:
    """The Benders master of one run, built once.

    ``static`` holds what no iteration changes: the first stage, the theta
    columns and rows and any fixed commitments, with a canonical CSR matrix.
    Its arrays are read-only, because every master assembled from it shares
    them; ``block``, a ``backend.RowBlock`` of them, checks them once.  Each
    cut's row -- sorted columns, values and the right-hand side of
    ``a.x >= b`` -- is rendered when the cut is first seen and kept while
    the cut is live.
    """

    def __init__(self, static: LinearModel, theta_of: dict, link: np.ndarray):
        for a in (static.c, static.lb, static.ub, static.integral, static.row_lo,
                  static.row_hi, static.A.data, static.A.indices, static.A.indptr):
            a.setflags(write=False)
        self.static = static
        self.theta_of = theta_of    # scenario id -> its theta column
        self.link = link            # master column of each link position
        self.binaries = np.flatnonzero(static.integral)
        self.block = RowBlock(static)
        self._rows: dict = {}       # live cut -> (columns, values, rhs)

    def cut_rows(self, cuts: list) -> list:
        """The rows of ``cuts``, in order; rows of other cuts are dropped."""
        rows = [self._rows[cut] if cut in self._rows else self._render(cut)
                for cut in cuts]
        self._rows = dict(zip(cuts, rows))
        return rows

    def _render(self, cut) -> tuple:
        if not set(cut.members).issubset(self.theta_of):
            raise ModelBuildError(f"cut {cut.row_name()} references unknown scenarios")
        weights = {self.theta_of[omega]: pi for omega, pi in cut.theta_weights.items()}
        # row: theta terms - lambda . x >= intercept - lambda . anchor; the
        # rhs is summed term by term in link order (a dot product rounds
        # differently and shifts the iterates recorded on the fixtures)
        rhs = np.subtract.accumulate(
            np.concatenate([[cut.intercept], cut.lam * cut.anchor]))[-1]
        if not (np.isfinite(cut.lam).all() and np.isfinite(rhs)):
            raise ModelBuildError(f"cut {cut.row_name()} has a non-finite slope or "
                                  "right-hand side")
        # link columns ascend and precede the theta columns; HiGHS drops a
        # coefficient of magnitude <= 1e-9 (its small_matrix_value), such as
        # the cancellation noise of a slope summed over scenarios, so the
        # row keeps only the others (the right-hand side keeps every term)
        nz = np.flatnonzero(np.abs(cut.lam) > SMALL_MATRIX_VALUE)
        theta_cols = sorted(weights)
        cols = np.concatenate([self.link[nz], theta_cols]).astype(self.static.A.indices.dtype)
        vals = np.concatenate([-cut.lam[nz], [weights[j] for j in theta_cols]])
        return cols, vals, float(rhs)


def master_template(instance: SystemInstance, scenarios: ScenarioSet,
                    theta_min: float, fixed_commitments: dict | None = None
                    ) -> MasterTemplate:
    """The master template of one run, with one theta per scenario.

    ``fixed_commitments`` maps (generator id, period) to 0/1 and is applied
    by bound tightening on the u variables.
    """
    X = first_stage_layout(instance)
    n_theta = scenarios.n_scenarios
    b = _ModelDraft(X.n + n_theta)
    _add_first_stage(b, instance, X)
    if fixed_commitments:
        gen = {g.id: i for i, g in enumerate(instance.generators)}
        for (g, t), val in fixed_commitments.items():
            b.lb[X.u[gen[g], t - 1]] = b.ub[X.u[gen[g], t - 1]] = float(val)

    theta = X.n + np.arange(n_theta)
    b.lb[theta] = -np.inf
    b.c[theta] = scenarios.probabilities
    b.rows(np.arange(n_theta), theta, np.ones(n_theta), np.full(n_theta, theta_min),
           np.full(n_theta, np.inf))
    return MasterTemplate(b.model(), dict(zip(scenarios.scenario_ids, theta.tolist())),
                          _link(X.rp, X.rm, X.w, X.f))


def build_master(template: MasterTemplate, pool: CutPool) -> LinearModel:
    """The master over ``pool`` as a model: the template's static columns
    and rows, then the rows of the live cuts in pool order.  The model
    shares the block's read-only column arrays."""
    rows = template.block.rows(template.cut_rows(pool.live_cuts()))
    s = template.static
    A = sp.csr_matrix((rows.value, rows.index, rows.start),
                      shape=(rows.count, s.A.shape[1]))
    return replace(s, A=A, row_lo=rows.lo, row_hi=rows.hi)


class MasterSolver:
    """A template's masters solved on one persistent ``HighsInstance``,
    its options set once: each solve passes the template's block and the
    rows of the pool's live cuts, which equals solving ``build_master`` of
    the pool with ``solve_milp``, or its relaxation with ``solve_lp``, bit
    for bit.  Not for concurrent use."""

    def __init__(self, template: MasterTemplate, mip_gap: float):
        self.template = template
        self.highs = HighsInstance(mip_gap)

    def solve(self, pool: CutPool, relax: bool,
              binaries: np.ndarray | None = None) -> SolveResult:
        """The master MILP over ``pool``, or with ``relax`` its LP
        relaxation, whose row duals come in model order.  ``binaries``, a
        master point, fixes the relaxation's integer columns at its rounded
        values."""
        t = self.template
        s = t.static
        if relax and binaries is not None:
            s = s.fixed(t.binaries, binaries[t.binaries], relax=True)
        self.highs.load(s.c, s.lb, s.ub, t.block, t.cut_rows(pool.live_cuts()),
                        None if relax else s.integral)
        return self.highs.run()


def _link_box(instance: SystemInstance) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of the link values, in link order."""
    link = link_columns(instance)
    b = _ModelDraft(sum(cols.size for cols in link))
    _bound_link(b, instance, *link)
    return b.lb, b.ub


def _link_map(instance: SystemInstance) -> sp.csr_matrix:
    """``A_link``: the coefficients of the link values in a subproblem's
    balance rows (balance rows x link positions; the r+/r- columns are
    empty)."""
    _, _, w, f = link = link_columns(instance)
    [bal] = _grid(0, instance.n_nodes, instance.horizon)
    i, j, v = _coo(_link_terms(instance, bal, w, f))
    return sp.csr_matrix((v, (i, j)), shape=(bal.size, sum(cols.size for cols in link)))


def build_subproblem(instance: SystemInstance, scenarios: ScenarioSet, omega: str,
                     x_hat: FirstStageSolution | None) -> LinearModel:
    """Per-scenario recourse LP at ``x_hat`` (at a zero link when None).

    The link values, clipped to their boxes, are substituted: r+ and r- are
    the upper bounds of p+ and p-, and w and f move to the balance
    right-hand sides through ``A_link``.
    """
    b = _ModelDraft(_recourse_size(instance))
    _add_second_stage(b, instance, scenarios, omega, 1.0, 0)
    model = b.model()
    A_link = _link_map(instance)
    link = np.zeros(A_link.shape[1]) if x_hat is None else np.clip(x_hat.link(),
                                                                  *_link_box(instance))
    n_deploy = 2 * instance.n_gens * instance.horizon
    ub, rhs = model.ub.copy(), model.row_lo.copy()
    ub[:n_deploy] = link[:n_deploy]
    rhs[:A_link.shape[0]] -= A_link @ link
    return replace(model, ub=ub, row_lo=rhs, row_hi=rhs.copy())


@dataclass(frozen=True)
class RecoursePoint:
    """What a first-stage point changes in every scenario's subproblem: the
    p+/p- upper bounds (r+ and r-, clipped to their boxes) and ``A_link``
    times the clipped link values, which the balance right-hand sides
    subtract."""
    deploy_ub: np.ndarray
    link_rhs: np.ndarray


@dataclass(frozen=True)
class RecourseTemplate:
    """The subproblem LP of one instance and scenario set, built once.

    Scenarios and first-stage points differ only in the upper bounds of p+,
    p- and spill and in the balance right-hand sides, so a subproblem is
    the template's model with those replaced; the cycle (Kirchhoff
    voltage-law) rows never change.  The per-scenario data have one row
    per scenario, row k for the scenario at position k of ``scenario_ids``.
    """
    model: LinearModel
    n_deploy: int            # p+/p- columns, which are the r+/r- link positions
    cols: np.ndarray         # the p+/p- columns, then the spill columns
    link_lo: np.ndarray      # link boxes, in link order
    link_hi: np.ndarray
    link_map: sp.csr_matrix  # A_link, balance rows x link positions
    scenario_ids: tuple
    spill_ub: np.ndarray     # |Omega| x |J|T: the realizations
    balance_rhs: np.ndarray  # |Omega| x |N|T: balance right-hand sides at a zero link

    @cached_property
    def spill(self) -> np.ndarray:
        """The spill columns, one per wind value of a scenario."""
        return self.cols[self.n_deploy:]

    @cached_property
    def wind_of(self) -> np.ndarray:
        """Per column, the wind value whose spill column it is, or -1."""
        at = np.full(self.model.c.size, -1)
        at[self.spill] = np.arange(self.spill.size)
        return at

    @cached_property
    def wind_rows(self) -> np.ndarray:
        """The change of every row's right-hand side per unit of each wind
        value (wind values x rows): -1 in its farm's balance row, which is
        the spill column's coefficient there."""
        return self.model.A[:, self.spill].T.toarray()

    @cached_property
    def balance_rows(self) -> np.ndarray:
        return np.arange(self.link_map.shape[0])

    @cached_property
    def link_map_t(self) -> sp.csr_matrix:
        """``A_link`` transposed, in CSR."""
        return self.link_map.T.tocsr()

    def point(self, x_hat: FirstStageSolution) -> RecoursePoint:
        link = np.clip(x_hat.link(), self.link_lo, self.link_hi)
        return RecoursePoint(link[:self.n_deploy], self.link_map @ link)

    def lam(self, row_dual: np.ndarray, col_dual: np.ndarray) -> np.ndarray:
        """The slope of Q at solved points, in link order, one row per row
        of the model-order duals: for w and f the balance-row duals mapped
        back through ``A_link``, and for r+ and r- the duals of the active
        p+/p- upper bounds (0 where a column sits at its lower bound, as a
        column fixed at 0 with a positive reduced cost does)."""
        lam = (self.link_map_t @ -row_dual[:, :self.link_map.shape[0]].T).T
        lam[:, :self.n_deploy] = np.minimum(col_dual[:, :self.n_deploy], 0.0)
        return lam


def recourse_template(instance: SystemInstance, scenarios: ScenarioSet) -> RecourseTemplate:
    """The template of ``instance`` and ``scenarios``, from one
    ``build_subproblem`` and one pass over the realizations."""
    model = build_subproblem(instance, scenarios, scenarios.scenario_ids[0], None)
    n_deploy = 2 * instance.n_gens * instance.horizon
    wind = scenarios.wind_matrix(instance)
    rhs = _balance_rhs(instance, _topology(instance)[1],
                       wind.reshape(-1, instance.n_farms, instance.horizon))
    return RecourseTemplate(
        model, n_deploy,
        np.concatenate([np.arange(n_deploy), _recourse_columns(instance, 0)[2].ravel()]),
        *_link_box(instance), _link_map(instance), scenarios.scenario_ids,
        wind, rhs.reshape(scenarios.n_scenarios, -1))


# a scenario is covered when the basic solution that another scenario's
# optimal basis gives it leaves none of its bounds by more than this: an
# absolute tolerance, tighter than HiGHS's primal feasibility tolerance (1e-7)
BUNCH_TOL = 1e-9
# no basis is tested against fewer scenarios (_Bunching.open)
BUNCH_MIN = 3


class _Bunching:
    """The bunching test of one batch of scenarios at one point
    (``RecourseSolver.solve``).

    Scenarios differ only in their wind values: these are the upper bounds
    of their spill columns, and the balance right-hand sides are affine in
    them.  So the basic solution that a leader's optimal basis gives a
    member is the leader's plus a linear map of the wind difference, read
    off the basis factor with one solve per wind value
    (``Vertex.follow``); a spill column at its upper bound moves with it,
    one fixed at 0 sits at the bound its reduced cost picks
    (``Vertex.at_upper``).  A member is covered when that solution keeps
    every column within its bounds and every row at its right-hand side,
    within ``BUNCH_TOL``: the basis is optimal for it with the leader's
    duals, because the costs are the same, and its objective is the
    leader's plus the cost change of the solution.  A leader whose
    p+/p- bounds or balance right-hand sides are not those of the batch's
    point at its wind covers nothing.

    A test costs about as much as two to four warm HiGHS solves (on toy-a
    and on med-b), and late in a run almost every scenario is its own
    bunch.  So no basis is tested against fewer than ``BUNCH_MIN`` (three)
    scenarios, and once two or more tests have covered fewer scenarios
    than there were tests, no basis is tested again (``open``).
    """

    def __init__(self, template: RecourseTemplate, point: RecoursePoint, ub: np.ndarray):
        self.template, self.point = template, point
        self.ub = ub                    # the batch's column bounds
        self.tests = self.covered = 0

    def open(self, left: int) -> bool:
        """Whether a basis is still worth testing against ``left``
        scenarios."""
        return left >= BUNCH_MIN and not (self.tests >= 2 and self.covered < self.tests)

    def cover(self, vertex, todo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The scenarios of ``todo`` (batch positions) for which
        ``vertex``'s basis is optimal, and their objectives."""
        t = self.template
        n_bal = t.balance_rows.size
        wind = vertex.col_ub[t.spill]
        if not (np.array_equal(vertex.col_ub[:t.n_deploy], self.point.deploy_ub)
                and np.abs(vertex.rhs[:n_bal] - wind @ t.wind_rows[:, :n_bal]
                           + self.point.link_rhs).max() <= BUNCH_TOL):
            return todo[:0], np.empty(0)
        self.tests += 1
        # per wind value: its spill column moves with it at its upper bound,
        # and its balance row's right-hand side moves with it
        step = np.zeros((wind.size, t.model.c.size))
        step[np.arange(wind.size), t.spill] = vertex.at_upper(t.spill)
        cols, x_move, rows, r_move = vertex.follow(step, t.wind_rows)
        member_wind = self.ub[todo, t.n_deploy:]
        dw = member_wind - wind
        x = vertex.col_value[cols] + dw @ x_move
        at = t.wind_of[cols]
        x_hi = np.where(at >= 0, member_wind[:, at], vertex.col_ub[cols])
        ok = ((x >= vertex.col_lb[cols] - BUNCH_TOL) & (x <= x_hi + BUNCH_TOL)).all(axis=1)
        if rows.size:
            # a basic row's value must follow its right-hand side
            off = vertex.row_value[rows] - vertex.rhs[rows]
            ok &= (np.abs(off + dw @ (r_move - t.wind_rows[:, rows])) <= BUNCH_TOL).all(axis=1)
        self.covered += int(ok.sum())
        c = t.model.c
        return todo[ok], vertex.objective + dw[ok] @ (x_move @ c[cols] + step @ c)


class RecourseSolver:
    """A template's LP held by a persistent ``backend.HighsSolver``.  Not
    for concurrent use."""

    def __init__(self, template: RecourseTemplate):
        self.template = template
        self.lp = HighsSolver(template.model)

    def solve(self, positions: np.ndarray, point: RecoursePoint,
              basis: HighsBasis | None = None) -> list[SubproblemResult]:
        """The scenarios at ``positions`` at ``point``, in order, each
        solved cold, or bunched from ``basis``: the optimal basis of another
        scenario at the same point, whose solve the solver holds
        (``self.lp.basis()``).  Bunched, that held solve and then each
        optimal solve is tested against the scenarios left while
        ``_Bunching`` is open; a covered scenario makes no HiGHS call and
        takes that solve's duals, and the others are solved from ``basis``.
        The first scenario whose solve is not optimal raises
        ``SubproblemInfeasibleError``.  Each bunch has one ``lam``,
        read-only, which its members share."""
        t = self.template
        n = len(positions)
        rhs = t.balance_rhs[positions] - point.link_rhs
        ub = np.hstack([np.broadcast_to(point.deploy_ub, (n, t.n_deploy)),
                        t.spill_ub[positions]])
        bunching = None if basis is None else _Bunching(t, point, ub)
        todo = np.ones(n, dtype=bool)
        left = n
        # per scenario: the vertex whose duals it takes, its objective, its
        # simplex iterations and whether it was covered
        got = [None] * n
        vertex = self.lp.vertex() if bunching is not None and bunching.open(n) else None
        for k in range(n):
            # the held solve, then the last solve, against the scenarios left
            if vertex is not None:
                covered, q = bunching.cover(vertex, np.flatnonzero(todo))
                todo[covered] = False
                left -= covered.size
                for j, qj in zip(covered.tolist(), q.tolist()):
                    got[j] = (vertex, qj, 0, True)
                vertex = None
            if not todo[k]:
                continue
            todo[k] = False
            left -= 1
            status = self.lp.solve(t.cols, ub[k], t.balance_rows, rhs[k], basis)
            if status is not SolveStatus.OPTIMAL:
                raise SubproblemInfeasibleError(
                    f"subproblem for scenario {t.scenario_ids[positions[k]]} returned "
                    f"{status.value}; complete recourse should make this impossible")
            solved = self.lp.vertex()
            got[k] = (solved, solved.objective, solved.simplex_iters, False)
            if bunching is not None and bunching.open(left):
                vertex = solved
        # one slope per bunch, from its leader's duals
        leaders = list(dict.fromkeys(v for v, *_ in got))
        lam = t.lam(np.array([v.row_dual for v in leaders]),
                    np.array([v.col_dual for v in leaders]))
        lam.setflags(write=False)
        slope = dict(zip(leaders, lam))
        return [SubproblemResult(t.scenario_ids[p], q, slope[v], iters, covered)
                for p, (v, q, iters, covered) in zip(positions, got)]


def solve_subproblem(instance: SystemInstance, scenarios: ScenarioSet, omega: str,
                     x_hat: FirstStageSolution,
                     solver: RecourseSolver | None = None,
                     point: RecoursePoint | None = None) -> SubproblemResult:
    """Recourse cost of ``omega`` at ``x_hat`` and its slope ``lam`` in the
    link values (``RecourseTemplate.lam``), solved cold.

    ``solver`` must hold the template of ``instance`` and ``scenarios``; a
    one-shot call builds its own.  ``point``, the template's
    ``RecourseTemplate.point`` of ``x_hat``, saves computing it again for
    each scenario.
    """
    if solver is None:
        solver = RecourseSolver(recourse_template(instance, scenarios))
    if point is None:
        point = solver.template.point(x_hat)
    [result] = solver.solve([solver.template.scenario_ids.index(omega)], point)
    return result


# -- solution extraction ---------------------------------------------------

def extract_first_stage(instance: SystemInstance, result: SolveResult,
                        layout: FirstStageLayout | None = None) -> FirstStageSolution:
    """The first-stage point of a master solution; ``layout``, the
    instance's ``first_stage_layout``, saves building it again."""
    X = first_stage_layout(instance) if layout is None else layout
    x = result.x
    u, y, z = np.rint(x[X.u]), np.rint(x[X.y]), np.rint(x[X.z])
    p, rp, rm = x[X.p], x[X.rp], x[X.rm]
    c_da = day_ahead_cost(instance, p, y, rp, rm)
    return FirstStageSolution(u, y, z, p, rp, rm, x[X.w], x[X.f], x[X.delta], c_da)


def _first_stage_model(instance: SystemInstance) -> tuple[LinearModel, FirstStageLayout]:
    X = first_stage_layout(instance)
    b = _ModelDraft(X.n)
    _add_first_stage(b, instance, X)
    return b.model(), X


def first_stage_violation(instance: SystemInstance, sol: FirstStageSolution) -> float:
    """Max constraint violation of the day-ahead block; <= FEAS_TOL when feasible."""
    model, X = _first_stage_model(instance)
    x = np.empty(X.n)
    for cols, vals in ((X.u, sol.u), (X.y, sol.y), (X.z, sol.z), (X.p, sol.p),
                       (X.rp, sol.r_plus), (X.rm, sol.r_minus), (X.w, sol.w),
                       (X.f, sol.f), (X.delta, sol.delta)):
        x[cols] = vals
    ax = model.A @ x
    return float(max(0.0, np.max(model.row_lo - ax, initial=0.0),
                     np.max(ax - model.row_hi, initial=0.0),
                     np.max(model.lb - x), np.max(x - model.ub)))


def sample_feasible_first_stage(instance: SystemInstance, rng: np.random.Generator,
                                mip_gap: float = 1e-6) -> FirstStageSolution:
    """A random feasible day-ahead point, via a randomized-objective MILP
    solve.  It is a feasibility search, so it keeps HiGHS's restarts and
    primal heuristics (``solve_milp``'s ``heuristics``)."""
    model, X = _first_stage_model(instance)
    res = solve_milp(replace(model, c=rng.uniform(-1.0, 1.0, X.n)), mip_gap=mip_gap,
                     heuristics=True)
    if res.status is not SolveStatus.OPTIMAL:
        raise ModelBuildError(f"first-stage sampling solve returned {res.status.value}")
    return extract_first_stage(instance, res)


def default_theta_min(instance: SystemInstance) -> float:
    """Provable recourse lower bound: the recourse cost is C^+ p^+ - C^- p^-
    plus a shed cost >= 0, with 0 <= p^+- <= the reserve offer limits, so
    each term is bounded below whatever the signs of the prices."""
    T = instance.horizon
    return float(sum(min(g.deploy_up_price, 0.0) * g.res_up_cap
                     - max(g.deploy_down_price, 0.0) * g.res_down_cap
                     for g in instance.generators)) * T
