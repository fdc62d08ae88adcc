"""Model builders: extensive form, Benders master (three cut modes), subproblems.

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
* the master appends its theta columns (one, or one per scenario), their
  lower-bound rows, and one row per live cut in pool order; the extensive
  form appends one recourse block per scenario;
* a recourse block's columns are p+/p- interleaved per (generator, period),
  spill per (farm, period), shed/angle interleaved per (node, period) and
  flow per (line, period); its rows are the reserve-deployment limits
  (up/down interleaved per (generator, period)), nodal balance per (node,
  period) and flow definitions per (line, period).  Only the spill bounds
  and the balance right-hand sides depend on the scenario;
* a subproblem's columns are r+/r- interleaved, w and f (the "link" columns,
  in first-stage order) followed by one recourse block; the rows fixing the
  link columns come last, in column order, so their duals are the final
  slice of the row duals;
* constraints with a single variable and a constant right-hand side (reserve
  offer caps, wind capacity, flow capacity, spill/shed caps, the initial
  commitment pins) are imposed as variable bounds, not rows -- except the
  theta lower bounds of the master, which are explicit rows so that the
  master row metric decomposes as first-stage rows + theta rows + cut rows;
* the DC flow convention is f = B * (angle_from - angle_to) with the
  reference node angle fixed to 0, and nodal balance reads
  generation + wind - load = outgoing flow - incoming flow.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

# solve_lp is no longer called here; it stays bound because bench/layers.py
# wraps formulations.solve_lp by name
from .backend import (LinearModel, LPSolver, SolveResult, SolveStatus,  # noqa: F401
                      solve_lp, solve_milp)
from .cuts import CutKind, CutMode, CutPool
from .data import ScenarioSet, SystemInstance

FEAS_TOL = 1e-6


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

    def cut_point(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.r_plus, self.r_minus, self.w, self.f


@dataclass(frozen=True)
class SubproblemResult:
    scenario_id: str
    objective: float        # Q_omega, $
    lam_rp: np.ndarray      # |G| x T duals of the r+ fixings
    lam_rm: np.ndarray
    lam_w: np.ndarray       # |J| x T
    lam_f: np.ndarray       # |L| x T


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


def _link_columns(instance: SystemInstance) -> list[np.ndarray]:
    """Subproblem columns of r+, r-, w and f, numbered in ``_link`` order."""
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


def _bound_link(b: _ModelDraft, instance: SystemInstance, rp, rm, w, f) -> None:
    """Reserve offer caps on r+/r-, farm capacity on w, line capacity on f."""
    b.ub[rp] = _col([g.res_up_cap for g in instance.generators])
    b.ub[rm] = _col([g.res_down_cap for g in instance.generators])
    b.ub[w] = _col([farm.capacity for farm in instance.wind_farms])
    cap = _col([ln.capacity for ln in instance.lines])
    b.lb[f], b.ub[f] = -cap, cap


def _angle_bounds(instance: SystemInstance) -> tuple[np.ndarray, np.ndarray]:
    """Angles are free except at the reference node, where they are 0."""
    free = np.array([n != instance.ref_node for n in instance.nodes]).reshape(-1, 1)
    return np.where(free, -np.inf, 0.0), np.where(free, np.inf, 0.0)


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
    b.lb[X.delta], b.ub[X.delta] = _angle_bounds(instance)

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
    """Per-scenario second-stage rows (balance, reserve limits, flow defs)."""
    T = instance.horizon
    return T * (instance.n_nodes + 2 * instance.n_gens + instance.n_lines)


# -- second stage ----------------------------------------------------------

def _recourse_size(instance: SystemInstance) -> int:
    return instance.horizon * (2 * instance.n_gens + instance.n_farms
                               + 2 * instance.n_nodes + instance.n_lines)


def _recourse_columns(instance: SystemInstance, start: int) -> list[np.ndarray]:
    """Columns of a recourse block numbered from ``start``: p+, p-, spill,
    shed, angle and flow."""
    G, J, N, L, T = (instance.n_gens, instance.n_farms, instance.n_nodes,
                     instance.n_lines, instance.horizon)
    return (_grid(start, G, T, 2) + _grid(start + 2 * G * T, J, T)
            + _grid(start + (2 * G + J) * T, N, T, 2)
            + _grid(start + (2 * G + J + 2 * N) * T, L, T))


def _recourse_rows(instance: SystemInstance) -> list[np.ndarray]:
    """Rows of a recourse block counted from its first row: reserve
    deployment up and down, nodal balance and flow definition."""
    G, N, L, T = instance.n_gens, instance.n_nodes, instance.n_lines, instance.horizon
    return _grid(0, G, T, 2) + _grid(2 * G * T, N, T) + _grid((2 * G + N) * T, L, T)


def _balance_rhs(instance: SystemInstance, farm_at, wind: np.ndarray) -> np.ndarray:
    """Nodal balance right-hand sides: minus the realized wind at each node."""
    rhs = np.zeros((instance.n_nodes, instance.horizon))
    for j, k in enumerate(farm_at):
        rhs[k] -= wind[j]
    return rhs


def _add_second_stage(b: _ModelDraft, instance: SystemInstance, scenarios: ScenarioSet,
                      omega: str, prob_weight: float, link, start: int) -> None:
    """Recourse columns (numbered from ``start``) and rows for one scenario.

    ``prob_weight`` scales the recourse objective terms (pi_omega in the
    extensive form, 1.0 in a standalone subproblem).  ``link`` holds the
    column indices of r+, r-, w and f, which the block shares with the
    first stage.
    """
    gens, farms, lines = instance.generators, instance.wind_farms, instance.lines
    G, L, T = instance.n_gens, instance.n_lines, instance.horizon
    rp, rm, w, f = link
    pp, pm, spill, shed, dtil, ftil = _recourse_columns(instance, start)

    b.c[pp] = prob_weight * _col([g.deploy_up_price for g in gens])
    b.c[pm] = -prob_weight * _col([g.deploy_down_price for g in gens])
    b.c[shed] = prob_weight * instance.shed_cost
    wind = np.array([[scenarios.value(omega, farm.id, t) for t in range(1, T + 1)]
                     for farm in farms]).reshape(instance.n_farms, T)
    b.ub[spill] = wind
    b.ub[shed] = [[instance.load_at(n, t) for t in range(1, T + 1)]
                  for n in instance.nodes]
    b.lb[dtil], b.ub[dtil] = _angle_bounds(instance)
    cap = _col([ln.capacity for ln in lines])
    b.lb[ftil], b.ub[ftil] = -cap, cap

    gen_at, farm_at, from_at, to_at = _topology(instance)
    up, dn, bal, flow = _recourse_rows(instance)
    susceptance = _col([ln.susceptance for ln in lines])
    rhs = _balance_rhs(instance, farm_at, wind)
    b.rows(*_coo([(up, pp, 1.0), (up, rp, -1.0), (dn, pm, 1.0), (dn, rm, -1.0),
                  (bal, shed, 1.0), (bal[gen_at], pp, 1.0), (bal[gen_at], pm, -1.0),
                  (bal[farm_at], w, -1.0), (bal[farm_at], spill, -1.0),
                  (bal[from_at], ftil, -1.0), (bal[from_at], f, 1.0),
                  (bal[to_at], ftil, 1.0), (bal[to_at], f, -1.0),
                  (flow, ftil, 1.0), (flow, dtil[from_at], -susceptance),
                  (flow, dtil[to_at], susceptance)]),
           np.concatenate([np.full(2 * G * T, -np.inf), rhs.ravel(), np.zeros(L * T)]),
           np.concatenate([np.zeros(2 * G * T), rhs.ravel(), np.zeros(L * T)]))


# -- public builders -------------------------------------------------------

def build_extensive(instance: SystemInstance, scenarios: ScenarioSet) -> LinearModel:
    """One MILP with the first stage and all scenario recourse blocks."""
    X = first_stage_layout(instance)
    size = _recourse_size(instance)
    b = _ModelDraft(X.n + scenarios.n_scenarios * size)
    _add_first_stage(b, instance, X)
    for k, (omega, pi) in enumerate(zip(scenarios.scenario_ids, scenarios.probabilities)):
        _add_second_stage(b, instance, scenarios, omega, pi,
                          (X.rp, X.rm, X.w, X.f), X.n + k * size)
    return b.model()


def build_master(instance: SystemInstance, scenarios: ScenarioSet, mode: CutMode,
                 pool: CutPool, theta_min: float,
                 fixed_commitments: dict | None = None) -> LinearModel:
    """Benders master MILP for the given cut mode and pool state.

    ``fixed_commitments`` maps (generator id, period) to 0/1 and is applied
    by bound tightening on the u variables.
    """
    X = first_stage_layout(instance)
    ids = scenarios.scenario_ids
    n_theta = 1 if mode is CutMode.SINGLE else len(ids)
    b = _ModelDraft(X.n + n_theta)
    _add_first_stage(b, instance, X)
    if fixed_commitments:
        gen = {g.id: i for i, g in enumerate(instance.generators)}
        for (g, t), val in fixed_commitments.items():
            b.lb[X.u[gen[g], t - 1]] = b.ub[X.u[gen[g], t - 1]] = float(val)

    theta = X.n + np.arange(n_theta)
    b.lb[theta] = -np.inf
    b.c[theta] = 1.0 if mode is CutMode.SINGLE else scenarios.probabilities
    b.rows(np.arange(n_theta), theta, np.ones(n_theta), np.full(n_theta, theta_min),
           np.full(n_theta, np.inf))

    link = _link(X.rp, X.rm, X.w, X.f)
    theta_of = {} if mode is CutMode.SINGLE else dict(zip(ids, theta.tolist()))
    for cut in pool.live_cuts():
        if not set(cut.members).issubset(ids):
            raise ModelBuildError(f"cut {cut.row_name()} references unknown scenarios")
        if mode is CutMode.SINGLE:
            if cut.kind is CutKind.PER_SCENARIO or set(cut.members) != set(ids):
                raise ModelBuildError(
                    "single-cut master requires fully aggregated cuts "
                    f"(got {cut.kind.value} cut {cut.row_name()})")
            weights = {int(theta[0]): 1.0}
        elif cut.kind is CutKind.PER_SCENARIO:
            if mode is not CutMode.MULTI:
                raise ModelBuildError("per-scenario cuts require the multi-cut master")
            weights = {theta_of[cut.members[0]]: 1.0}
        else:
            if mode is not CutMode.AGGREGATED:
                raise ModelBuildError(
                    f"{cut.kind.value} cut {cut.row_name()} requires the aggregated master")
            weights = {theta_of[omega]: pi for omega, pi in cut.theta_weights.items()}
        # row: theta terms - lambda . x >= intercept - lambda . anchor; the
        # rhs is summed term by term in link order (a dot product rounds
        # differently and shifts the iterates recorded on the fixtures)
        lam = _link(cut.lam_rp, cut.lam_rm, cut.lam_w, cut.lam_f)
        anchor = _link(cut.anchor_rp, cut.anchor_rm, cut.anchor_w, cut.anchor_f)
        rhs = np.subtract.accumulate(np.concatenate([[cut.intercept], lam * anchor]))[-1]
        nz = np.flatnonzero(lam)
        b.rows(np.zeros(len(nz) + len(weights), dtype=int),
               np.concatenate([link[nz], list(weights)]),
               np.concatenate([-lam[nz], list(weights.values())]), [rhs], [np.inf])
    return b.model()


def build_subproblem(instance: SystemInstance, scenarios: ScenarioSet, omega: str,
                     x_hat: FirstStageSolution | None) -> LinearModel:
    """Per-scenario recourse LP with equality fixings of r+/r-/w/fhat
    (fixed at 0 when ``x_hat`` is None)."""
    link = _link_columns(instance)
    n_link = sum(cols.size for cols in link)
    b = _ModelDraft(n_link + _recourse_size(instance))
    _bound_link(b, instance, *link)
    _add_second_stage(b, instance, scenarios, omega, 1.0, link, n_link)
    fix = np.zeros(n_link) if x_hat is None else _fixing_rhs(b.lb, b.ub, x_hat)
    b.rows(np.arange(n_link), np.arange(n_link), np.ones(n_link), fix, fix)
    return b.model()


def _fixing_rhs(lb: np.ndarray, ub: np.ndarray, x_hat: FirstStageSolution) -> np.ndarray:
    # first-stage values can sit a solver tolerance outside the variable box
    # (e.g. a flow at capacity + 1e-9); clamp so the fixing row stays feasible
    link = _link(*x_hat.cut_point())
    return np.clip(link, lb[:link.size], ub[:link.size])


@dataclass(frozen=True)
class RecourseTemplate:
    """The subproblem LP of one instance and scenario set, built once.

    Scenarios and first-stage points differ only in the spill upper bounds,
    the balance right-hand sides and the fixing right-hand sides, so a
    subproblem is the template's model with those three parts replaced.
    """
    model: LinearModel
    link: list               # subproblem columns of r+, r-, w and f
    spill: np.ndarray        # spill columns, |J| x T
    balance: np.ndarray      # balance rows, |N| x T
    fixing: np.ndarray       # fixing rows, one per link column
    farm_at: list            # node index of each farm
    wind: dict               # scenario id -> |J| x T realizations


def recourse_template(instance: SystemInstance, scenarios: ScenarioSet) -> RecourseTemplate:
    """The template of ``instance`` and ``scenarios``, from one ``build_subproblem``."""
    link = _link_columns(instance)
    n_link = sum(cols.size for cols in link)
    model = build_subproblem(instance, scenarios, scenarios.scenario_ids[0], None)
    wind = scenarios.wind_matrix(instance).reshape(-1, instance.n_farms, instance.horizon)
    return RecourseTemplate(model, link, _recourse_columns(instance, n_link)[2],
                            _recourse_rows(instance)[2],
                            np.arange(model.row_count - n_link, model.row_count),
                            _topology(instance)[1], dict(zip(scenarios.scenario_ids, wind)))


class RecourseSolver:
    """A template's LP held by a persistent ``backend.LPSolver``.  Not for
    concurrent use: each worker thread owns one."""

    def __init__(self, template: RecourseTemplate):
        self.template = template
        self.lp = LPSolver(template.model)


def solve_subproblem(instance: SystemInstance, scenarios: ScenarioSet, omega: str,
                     x_hat: FirstStageSolution,
                     solver: RecourseSolver | None = None) -> SubproblemResult:
    """Recourse cost of ``omega`` at ``x_hat`` and the duals of the fixings.

    ``solver`` must hold the template of ``instance`` and ``scenarios``; a
    one-shot call builds its own.
    """
    if solver is None:
        solver = RecourseSolver(recourse_template(instance, scenarios))
    t, model = solver.template, solver.template.model
    wind = t.wind[omega]
    rhs = np.concatenate([_balance_rhs(instance, t.farm_at, wind).ravel(),
                          _fixing_rhs(model.lb, model.ub, x_hat)])
    res = solver.lp.solve(t.spill.ravel(), model.lb[t.spill.ravel()], wind.ravel(),
                          np.concatenate([t.balance.ravel(), t.fixing]), rhs, rhs)
    if res.status is not SolveStatus.OPTIMAL:
        raise SubproblemInfeasibleError(
            f"subproblem for scenario {omega} returned {res.status.value}; "
            "complete recourse should make this impossible")
    lam = res.row_dual[t.fixing]
    return SubproblemResult(omega, res.objective, *(lam[cols] for cols in t.link))


# -- solution extraction ---------------------------------------------------

def extract_first_stage(instance: SystemInstance, result: SolveResult) -> FirstStageSolution:
    X = first_stage_layout(instance)
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
    """A random feasible day-ahead point, via a randomized-objective MILP solve."""
    model, X = _first_stage_model(instance)
    res = solve_milp(replace(model, c=rng.uniform(-1.0, 1.0, X.n)), mip_gap=mip_gap)
    if res.status is not SolveStatus.OPTIMAL:
        raise ModelBuildError(f"first-stage sampling solve returned {res.status.value}")
    return extract_first_stage(instance, res)


def default_theta_min(instance: SystemInstance) -> float:
    """Provable recourse lower bound: only the -C^- p^- terms can be negative,
    and p^- is capped by the reserve offer limit."""
    T = instance.horizon
    return -float(sum(g.deploy_down_price * g.res_down_cap
                      for g in instance.generators)) * T
