"""Model builders: row census, hand LP oracles, enumeration oracle, cuts."""

import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from sucbenders import formulations
from sucbenders.backend import SolveStatus, solve_lp, solve_milp
from sucbenders.cli import METHODS, execute_method
from sucbenders.cuts import (Cut, CutKind, CutMode, CutPool,
                             make_full_aggregate_cut, make_per_scenario_cuts,
                             track_and_consolidate)
from sucbenders.backend import LinearModel
from sucbenders.data import Line, ScenarioSet
from sucbenders.engine import (BendersConfig, _cut_duals, run,
                               solve_subproblems)
from sucbenders.formulations import (FirstStageSolution, MasterSolver, ModelBuildError,
                                     RecourseSolver, SubproblemInfeasibleError,
                                     build_extensive,
                                     build_master, build_subproblem,
                                     cycle_basis, default_theta_min, extract_first_stage,
                                     first_stage_layout,
                                     first_stage_row_count,
                                     first_stage_violation, link_columns,
                                     master_template, recourse_template,
                                     sample_feasible_first_stage,
                                     second_stage_row_count, solve_subproblem)
from conftest import solve_held

# -- row census --------------------------------------------------------------
# toy-a by hand: per generator (no enforced initial periods)
#   min-up + min-down:            2 * T = 8
#   logic, exclusion, two ramps,
#   p-min, p-max:                 6 * T = 24
# two generators: 64; plus T * (nodes + cycles) = 4 * 2 = 8 -> 72 first-stage
# rows.  Second stage per scenario: T * (nodes + 2*gens + cycles) = 4*6 = 24.
# Both stages state Kirchhoff's voltage law with one row per fundamental
# cycle, and toy-a's one line between two buses is a tree, without cycles.

TOY_FS_ROWS = 72
TOY_SS_ROWS = 24


def test_first_stage_census_toy_a(toy_a):
    inst, _ = toy_a
    assert first_stage_row_count(inst) == TOY_FS_ROWS


def test_second_stage_census_toy_a(toy_a):
    inst, _ = toy_a
    assert second_stage_row_count(inst) == TOY_SS_ROWS


def test_extensive_row_count_toy_a(toy_a):
    inst, scen = toy_a
    model = build_extensive(inst, scen)
    assert model.row_count == TOY_FS_ROWS + scen.n_scenarios * TOY_SS_ROWS


def test_empty_pool_master_rows(toy_a):
    # one theta row per scenario, in every cut mode's first master
    inst, scen = toy_a
    master = build_master(master_template(inst, scen, default_theta_min(inst)), CutPool())
    assert master.row_count == TOY_FS_ROWS + scen.n_scenarios
    for mode in CutMode:
        first = run(inst, scen, BendersConfig(mode=mode, max_iters=1)).state.history[0]
        assert first.master_rows == TOY_FS_ROWS + scen.n_scenarios


def test_empty_pool_master_value_is_cda_plus_theta_min(toy_a):
    inst, scen = toy_a
    tmin = default_theta_min(inst)
    res = solve_milp(build_master(master_template(inst, scen, tmin), CutPool()))
    sol = extract_first_stage(inst, res)
    assert res.objective == pytest.approx(sol.c_da + tmin, abs=1e-6)


def test_default_theta_min_toy_a(toy_a):
    inst, _ = toy_a
    # -(C-_g1 * R-_g1 + C-_g2 * R-_g2) * T = -(8*20 + 25*15) * 4
    assert default_theta_min(inst) == pytest.approx(-2140.0)


def test_theta_min_holds_when_down_deployment_is_paid(toy_a):
    # a negative C- pays for p-, so -C- p- >= 0 and the bound is 0; the
    # old -T * sum C- R- was +2140 and cut the recourse's optimum off
    inst, scen = toy_a
    paid = dataclasses.replace(inst, generators=tuple(
        dataclasses.replace(g, deploy_down_price=price)
        for g, price in zip(inst.generators, (-8.0, -25.0))))
    assert default_theta_min(paid) == 0.0
    options = dict(eps=1e-6, mip_gap=1e-6, theta_min=None, max_iters=100, alpha=0.01,
                   zeta=0.75, rho=5, kappa=5, clustering="hierarchical",
                   attribute="duals", subsets=2, gamma=1.0, workers=1)
    reports = {m: execute_method(m, paid, scen, options) for m in METHODS}
    want = reports["extensive"].objective
    assert want == pytest.approx(2460.0)
    for method, rep in reports.items():
        assert rep.converged, method
        assert rep.objective == pytest.approx(want, rel=2e-6), method


# -- cycle form --------------------------------------------------------------

def _incidence(inst) -> np.ndarray:
    """Lines x nodes: +1 at a line's from-node, -1 at its to-node."""
    at = {n: k for k, n in enumerate(inst.nodes)}
    inc = np.zeros((inst.n_lines, inst.n_nodes))
    for k, ln in enumerate(inst.lines):
        inc[k, at[ln.from_node]], inc[k, at[ln.to_node]] = 1.0, -1.0
    return inc


def test_cycle_basis(toy_a, med_b):
    # a basis of closed walks: L - N + 1 independent cycles on a connected
    # network, each line signed by the direction the cycle runs along it, so
    # that its signed incidence sums to zero at every node
    two_lines = dataclasses.replace(
        toy_a[0], lines=toy_a[0].lines + (Line("l2", "n2", "n1", 4.0, 30.0),))
    for inst, n_cycles in ((med_b[0], 2), (toy_a[0], 0), (two_lines, 1)):
        inst.validate()
        K = cycle_basis(inst)
        assert K.shape == (n_cycles, inst.n_lines)
        assert n_cycles == inst.n_lines - inst.n_nodes + 1
        assert set(np.unique(K)) <= {-1.0, 0.0, 1.0}
        assert np.array_equal(K @ _incidence(inst), np.zeros((n_cycles, inst.n_nodes)))
        if n_cycles:
            assert np.linalg.matrix_rank(K) == n_cycles
        assert np.array_equal(cycle_basis(inst), K)
    # the parallel lines run opposite ways, so the 2-cycle takes both forward
    assert cycle_basis(two_lines).tolist() == [[1.0, 1.0]]


def _angle_form_recourse(inst, scen, omega, x):
    """Q and its slope in the link values from the recourse LP in angle form,
    built here from the instance data.  Columns: p+/p- interleaved per
    (generator, period), spill per (farm, period), shed/angle interleaved
    per (node, period), flow per (line, period); rows: nodal balance per
    (node, period), then flow = B (angle_from - angle_to) per (line,
    period).  The clipped r+/r- are the p+/p- upper bounds, and w and f
    enter the balance right-hand sides."""
    gens, farms, lines = inst.generators, inst.wind_farms, inst.lines
    G, J, N, L, T = inst.n_gens, inst.n_farms, inst.n_nodes, inst.n_lines, inst.horizon
    at = {n: k for k, n in enumerate(inst.nodes)}
    gen_at = np.array([at[g.node] for g in gens])
    farm_at = np.array([at[w.node] for w in farms])
    fr = np.array([at[ln.from_node] for ln in lines])
    to = np.array([at[ln.to_node] for ln in lines])
    t = np.arange(T)

    def per(n, start, k=1):
        return start + k * (np.arange(n)[:, None] * T + t)

    pp = per(G, 0, 2)
    pm = pp + 1
    spill = per(J, 2 * G * T)
    shed = per(N, (2 * G + J) * T, 2)
    angle = shed + 1
    flow = per(L, (2 * G + J + 2 * N) * T)
    n_cols = (2 * G + J + 2 * N + L) * T
    bal, kirchhoff = per(N, 0), per(L, N * T)
    B = np.array([ln.susceptance for ln in lines])[:, None]
    i, j, v = [], [], []
    for rows, cols, vals in ((bal, shed, 1.0), (bal[gen_at], pp, 1.0),
                             (bal[gen_at], pm, -1.0), (bal[farm_at], spill, -1.0),
                             (bal[fr], flow, -1.0), (bal[to], flow, 1.0),
                             (kirchhoff, flow, 1.0), (kirchhoff, angle[fr], -B),
                             (kirchhoff, angle[to], B)):
        i.append(rows.ravel())
        j.append(cols.ravel())
        v.append(np.broadcast_to(vals, rows.shape).ravel())
    A = sp.csr_matrix((np.concatenate(v), (np.concatenate(i), np.concatenate(j))),
                      shape=((N + L) * T, n_cols))

    rp = np.clip(x.r_plus, 0.0, np.array([g.res_up_cap for g in gens])[:, None])
    rm = np.clip(x.r_minus, 0.0, np.array([g.res_down_cap for g in gens])[:, None])
    w = np.clip(x.w, 0.0, np.array([f.capacity for f in farms])[:, None])
    cap = np.array([ln.capacity for ln in lines])[:, None]
    f = np.clip(x.f, -cap, cap)
    wind = np.array([[scen.value(omega, farm.id, s) for s in range(1, T + 1)]
                     for farm in farms])
    rhs = np.zeros((N, T))
    np.add.at(rhs, farm_at, w - wind)
    np.add.at(rhs, fr, -f)
    np.add.at(rhs, to, f)
    c, lb, ub = np.zeros(n_cols), np.zeros(n_cols), np.full(n_cols, np.inf)
    c[pp] = np.array([g.deploy_up_price for g in gens])[:, None]
    c[pm] = -np.array([g.deploy_down_price for g in gens])[:, None]
    c[shed] = inst.shed_cost
    ub[pp], ub[pm], ub[spill] = rp, rm, wind
    ub[shed] = [[inst.load_at(n, s) for s in range(1, T + 1)] for n in inst.nodes]
    free = np.array([n != inst.ref_node for n in inst.nodes])[:, None]
    lb[angle] = np.where(free, -np.inf, 0.0)
    ub[angle] = np.where(free, np.inf, 0.0)
    lb[flow], ub[flow] = -cap, cap
    row = np.concatenate([rhs.ravel(), np.zeros(L * T)])
    res = solve_held(LinearModel(c, lb, ub, np.zeros(n_cols, dtype=bool), A, row, row))
    assert res is not None     # optimal
    # dQ/d(rhs) is the balance-row dual y: w enters its node's rhs with +1,
    # f its from-node's with -1 and its to-node's with +1; r+ and r- are
    # read from the duals of the active p+/p- upper bounds
    y = res.row_dual[:N * T].reshape(N, T)
    lam_r = np.minimum(res.col_dual[np.stack([pp, pm], axis=-1)], 0.0)
    return res.objective, np.concatenate([lam_r.ravel(), y[farm_at].ravel(),
                                       (y[to] - y[fr]).ravel()])


def _with_capacity(inst, scale):
    """``inst`` with every line capacity scaled by ``scale``."""
    return dataclasses.replace(inst, lines=tuple(
        dataclasses.replace(ln, capacity=scale * ln.capacity) for ln in inst.lines))


@pytest.mark.parametrize("capacity_scale", [1.0, 0.2])
def test_cycle_form_recourse_equals_the_angle_form(med_b, capacity_scale):
    # the recourse LP has no angles and one Kirchhoff row per fundamental
    # cycle and period; its cost and slope are those of the angle form.  No
    # med-b line limit binds in its recourse, so that Q does not depend on
    # the Kirchhoff rows; at a fifth of the line capacities some do
    inst, scen = med_b
    net = _with_capacity(inst, capacity_scale)
    rng = np.random.default_rng(17)
    solver = RecourseSolver(recourse_template(net, scen))
    congested = 0
    for _ in range(3):
        x = sample_feasible_first_stage(net, rng)
        for omega in scen.scenario_ids:
            got = solve_subproblem(net, scen, omega, x, solver)
            q, lam = _angle_form_recourse(net, scen, omega, x)
            assert got.objective == pytest.approx(q, rel=1e-9, abs=1e-9)
            np.testing.assert_allclose(got.lam, lam, rtol=0.0, atol=1e-9)
            congested += q > _angle_form_recourse(inst, scen, omega, x)[0] + 1e-6
    assert (congested > 0) == (capacity_scale < 1.0)


@pytest.mark.parametrize("capacity_scale, angle_form", [(1.0, 20754.4),
                                                        (0.2, 49307.66742014742)])
def test_first_stage_admits_the_angle_forms_flows(med_b, capacity_scale, angle_form):
    # both stages state the DC law in cycle form; the med-b extensive optimum
    # is the one that the angle form (free angles, one reference bus) gives,
    # also at a fifth of the line capacities, where lines bind
    inst, scen = med_b
    net = _with_capacity(inst, capacity_scale)
    res = solve_milp(build_extensive(net, scen))
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(angle_form, rel=2 * BendersConfig().eps)


# -- hand LP oracles ---------------------------------------------------------

def _perfect_foresight(toy_a):
    """Day-ahead solution of the |Omega|=1 problem using scenario s1's wind."""
    inst, scen = toy_a
    only = scen.restrict(["s1"])
    res = solve_milp(build_extensive(inst, only))
    return inst, scen, only, extract_first_stage(inst, res)


def test_perfect_foresight_zero_recourse(toy_a):
    inst, scen, only, x_hat = _perfect_foresight(toy_a)
    assert x_hat.r_plus.sum() == pytest.approx(0.0, abs=1e-6)
    sub = solve_subproblem(inst, only, "s1", x_hat)
    assert sub.objective == pytest.approx(0.0, abs=1e-6)


def test_wind_deficit_forces_shedding_at_shed_cost(toy_a):
    # with zero reserves, a 10 MW wind deficit per period can only be shed:
    # Q = T * 10 * C_shed
    inst, scen, only, x_hat = _perfect_foresight(toy_a)
    assert x_hat.r_plus.sum() == pytest.approx(0.0, abs=1e-6)
    deficit = {
        ("d", "w1", t): x_hat.w[0, t - 1] - 10.0 for t in range(1, 5)
    }
    assert all(v >= 0 for v in deficit.values())
    scen_d = ScenarioSet(("d",), (1.0,), deficit)
    sub = solve_subproblem(inst, scen_d, "d", x_hat)
    assert sub.objective == pytest.approx(4 * 10.0 * inst.shed_cost, abs=1e-4)


def test_complete_recourse_on_random_points(toy_a):
    inst, scen = toy_a
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = sample_feasible_first_stage(inst, rng)
        assert first_stage_violation(inst, x) <= 1e-6
        for omega in scen.scenario_ids:
            solve_subproblem(inst, scen, omega, x)  # raises if not optimal


def test_first_stage_violation_sees_each_kind_of_constraint(toy_a):
    # break, one at a time, a <= row (p-max), a >= row (p-min), an equality
    # row (logic) and a column bound (r+ >= 0 in the last period, where
    # lowering r+ loosens every row it enters) of a feasible point
    inst, _ = toy_a
    x = sample_feasible_first_stage(inst, np.random.default_rng(21))
    assert first_stage_violation(inst, x) <= 1e-6
    g = inst.generators[0]

    def bumped(name, idx, value):
        arr = getattr(x, name).copy()
        arr[idx] = value
        return dataclasses.replace(x, **{name: arr})

    broken = {
        "p-max": bumped("p", (0, 0), g.p_max * x.u[0, 0] + 1.0),
        "p-min": bumped("r_minus", (0, 0), x.r_minus[0, 0] + x.p[0, 0] + 1.0),
        "logic": bumped("y", (0, 1), x.y[0, 1] + 0.5),
        "bound": bumped("r_plus", (0, inst.horizon - 1), -1.0),
    }
    for kind, point in broken.items():
        assert first_stage_violation(inst, point) > 1e-3, kind


# -- enumeration oracle ------------------------------------------------------

def enumeration_oracle(inst, scen) -> float:
    """Minimum over all 2^(|G|*T) commitment patterns of the pattern-fixed LP.

    With u fixed, y and z are forced to the 0/1 start/stop differences by the
    logic equalities and positive costs, so the LP relaxation is exact per
    pattern and the minimum over patterns equals the MILP optimum.
    """
    model = build_extensive(inst, scen)
    u = first_stage_layout(inst).u.ravel()
    best = np.inf
    for bits in itertools.product((0.0, 1.0), repeat=len(u)):
        res = solve_lp(model.fixed(u, np.array(bits), relax=True))
        if res.status is SolveStatus.OPTIMAL and res.objective < best:
            best = res.objective
    return float(best)


def test_extensive_matches_enumeration_oracle(toy_a):
    inst, scen = toy_a
    milp = solve_milp(build_extensive(inst, scen))
    oracle = enumeration_oracle(inst, scen)
    assert milp.objective == pytest.approx(oracle, abs=1e-5)


# -- cut evaluation ----------------------------------------------------------

def _zero_cut(inst, intercept=7.0, lam=None):
    n_link = sum(cols.size for cols in link_columns(inst))
    return Cut(CutKind.CLUSTER_AGGREGATE, 1, ("s1",), {"s1": 1.0}, intercept,
               np.zeros(n_link) if lam is None else lam, np.zeros(n_link), tag="s1")


def _point(inst, r_plus):
    shape_g = (inst.n_gens, inst.horizon)
    shape_w = (inst.n_farms, inst.horizon)
    shape_f = (inst.n_lines, inst.horizon)
    return FirstStageSolution(
        np.zeros(shape_g), np.zeros(shape_g), np.zeros(shape_g),
        np.zeros(shape_g), r_plus, np.zeros(shape_g),
        np.zeros(shape_w), np.zeros(shape_f), 0.0)


def test_zero_dual_cut_is_constant(toy_a):
    inst, _ = toy_a
    cut = _zero_cut(inst)
    x = _point(inst, np.full((inst.n_gens, inst.horizon), 3.0))
    assert cut.evaluate(x.link()) == pytest.approx(7.0)


def test_single_dual_linear_term(toy_a):
    inst, _ = toy_a
    rp = link_columns(inst)[0]
    lam = np.zeros(sum(cols.size for cols in link_columns(inst)))
    lam[rp[0, 0]] = 2.0
    cut = _zero_cut(inst, lam=lam)
    x = _point(inst, np.zeros((inst.n_gens, inst.horizon)))
    x.r_plus[0, 0] = 5.0  # 5 above the zero anchor
    assert cut.evaluate(x.link()) == pytest.approx(7.0 + 10.0)


def test_cut_tight_at_anchor(toy_a):
    inst, scen = toy_a
    rng = np.random.default_rng(3)
    x = sample_feasible_first_stage(inst, rng)
    sub = solve_subproblem(inst, scen, "s2", x)
    cut = Cut(CutKind.CLUSTER_AGGREGATE, 1, ("s2",), {"s2": 1.0}, sub.objective,
              sub.lam, x.link(), tag="s2")
    assert cut.evaluate(x.link()) == pytest.approx(sub.objective, abs=1e-9)


def _assert_lam_is_the_slope_of_q(inst, scen, x, solve_at):
    """``solve_at(x')`` gives one scenario's result at x'.  Per family, move
    one link value to the bottom of its box, the top and a point strictly
    inside; Q is convex and piecewise linear in it, so a step h within the
    box obeys Q(x + h e_j) >= Q(x) + lam_j h, and where the steps either
    side give one slope, lam_j is that slope."""
    template = recourse_template(inst, scen)
    lo, hi = template.link_lo, template.link_hi
    families = link_columns(inst)

    def solve(link):
        rp, rm, w, f = (link[cols] for cols in families)
        return solve_at(dataclasses.replace(x, r_plus=rp, r_minus=rm, w=w, f=f))

    h = 1e-2
    at_x = solve(x.link())
    for cols in families:
        # two positions with an open box, those with a nonzero slope first
        open_box = [j for j in cols.ravel() if hi[j] > lo[j]]
        smooth = 0
        for j in sorted(open_box, key=lambda j: at_x.lam[j] == 0)[:2]:
            for v in (lo[j], hi[j], lo[j] + 0.37 * (hi[j] - lo[j])):
                link = x.link().copy()
                link[j] = v
                base = solve(link)
                slopes = []
                for step in (h, -h):
                    if lo[j] <= v + step <= hi[j]:
                        link[j] = v + step
                        q = solve(link).objective
                        assert q >= base.objective + base.lam[j] * step - 1e-9
                        slopes.append((q - base.objective) / step)
                if len(slopes) == 2 and abs(slopes[0] - slopes[1]) <= 1e-6:
                    assert base.lam[j] == pytest.approx(slopes[0], abs=1e-6)
                    smooth += 1
        assert smooth >= 1
    # r+, r- and w each have a position whose slope the cut takes in full
    for cols in families[:3]:
        assert np.abs(at_x.lam[cols]).max() > 1.0


def test_subproblem_lam_is_the_slope_of_q(med_b):
    inst, scen = med_b
    x = sample_feasible_first_stage(inst, np.random.default_rng(21))
    solver = RecourseSolver(recourse_template(inst, scen))
    _assert_lam_is_the_slope_of_q(
        inst, scen, x, lambda x_at: solve_subproblem(inst, scen, "s06", x_at, solver))


def test_warm_subproblem_lam_is_the_slope_of_q(med_b):
    # s06 starts from the anchor s01's basis; at a degenerate optimum its lam
    # may differ from a cold solve's, but it must still be a slope of Q
    inst, scen = med_b
    x = sample_feasible_first_stage(inst, np.random.default_rng(21))
    solver = RecourseSolver(recourse_template(inst, scen))
    k = scen.scenario_ids.index("s06")
    assert k > 0
    _assert_lam_is_the_slope_of_q(
        inst, scen, x, lambda x_at: solve_subproblems(inst, scen, x_at, solver=solver)[0][k])


def test_master_cut_rows_read_back_as_the_cuts(toy_a):
    # a cut row is "theta terms - lambda . x >= rhs", so rhs minus its
    # first-stage part is Theta(x) at any x, and its theta part carries the
    # member scenarios with the master's weights
    inst, scen = toy_a
    ids = scen.scenario_ids
    rng = np.random.default_rng(8)
    anchor = sample_feasible_first_stage(inst, rng)
    results = [solve_subproblem(inst, scen, om, anchor) for om in ids]
    # unit weights: each theta carries its own scenario's cut unscaled
    per_scenario = make_per_scenario_cuts(results, dict.fromkeys(ids, 1.0), anchor, 1)
    full = make_full_aggregate_cut(results, dict(zip(ids, scen.probabilities)), anchor, 1)
    X = first_stage_layout(inst)
    x = rng.uniform(-5.0, 5.0, X.n)
    point = extract_first_stage(inst, SimpleNamespace(x=x)).link()
    for cuts, thetas in (
            (per_scenario, [[float(om == c.members[0]) for om in ids] for c in per_scenario]),
            ([full], [list(scen.probabilities)])):
        pool = CutPool()
        for cut in cuts:
            pool.add(cut)
        master = build_master(master_template(inst, scen, default_theta_min(inst)), pool)
        first = master.row_count - len(cuts)
        for k, (cut, theta) in enumerate(zip(cuts, thetas)):
            row = master.A[first + k].toarray().ravel()
            assert master.row_lo[first + k] - row[:X.n] @ x == \
                pytest.approx(cut.evaluate(point), rel=1e-12, abs=1e-9)
            assert row[X.n:].tolist() == theta


def test_cut_rows_keep_no_coefficient_that_highs_would_ignore(toy_a):
    # slopes summed over scenarios carry cancellation noise; a cut row keeps
    # only the coefficients of magnitude > 1e-9 (HiGHS's small_matrix_value)
    # and its right-hand side every term
    inst, scen = toy_a
    ids = scen.scenario_ids
    anchor = sample_feasible_first_stage(inst, np.random.default_rng(8))
    results = [solve_subproblem(inst, scen, om, anchor) for om in ids]
    cut = make_full_aggregate_cut(results, dict(zip(ids, scen.probabilities)), anchor, 1)
    lam = cut.lam.copy()
    zeros = np.flatnonzero(lam == 0.0)
    assert zeros.size >= 4
    lam[zeros[:4]] = [5.7e-15, -1e-12, 1e-9, -2e-9]
    noisy = dataclasses.replace(cut, lam=lam)
    template = master_template(inst, scen, default_theta_min(inst))
    [(cols, vals, rhs)] = template.cut_rows([noisy])
    assert np.abs(vals).min() > 1e-9
    kept = np.flatnonzero(np.abs(lam) > 1e-9)
    assert cols[:kept.size].tolist() == template.link[kept].tolist()
    assert rhs == pytest.approx(noisy.intercept - lam @ noisy.anchor, rel=1e-12)
    pool = CutPool()
    pool.add(noisy)
    master = build_master(template, pool)
    assert np.abs(master.A[master.row_count - 1].data).min() > 1e-9


def test_master_rejects_cuts_it_cannot_render(toy_a):
    # a cut over an unknown scenario fits no master
    inst, scen = toy_a
    anchor = sample_feasible_first_stage(inst, np.random.default_rng(8))
    stray = dataclasses.replace(solve_subproblem(inst, scen, scen.scenario_ids[0], anchor),
                                scenario_id="nowhere")
    pool = CutPool()
    pool.add(make_per_scenario_cuts([stray], {"nowhere": 1.0}, anchor, 1)[0])
    with pytest.raises(ModelBuildError, match="unknown scenarios"):
        build_master(master_template(inst, scen, default_theta_min(inst)), pool)


def test_subproblem_has_no_binaries(toy_a):
    inst, scen = toy_a
    x = sample_feasible_first_stage(inst, np.random.default_rng(5))
    assert not build_subproblem(inst, scen, "s1", x).integral.any()


# -- master template -----------------------------------------------------------

MODEL_ARRAYS = ("c", "lb", "ub", "integral", "row_lo", "row_hi")
MATRIX_ARRAYS = ("indptr", "indices", "data")


def _reference_master(inst, scen, pool, theta_min, fixed=None):
    """The master of ``pool`` from scratch: a fresh template's static block
    and every cut's entries summed into one canonical CSR by a COO pass, and
    each cut's rhs subtracted term by term in a loop."""
    static = master_template(inst, scen, theta_min, fixed).static
    X = first_stage_layout(inst)
    link = np.concatenate([np.stack([X.rp, X.rm], axis=-1).ravel(), X.w.ravel(),
                           X.f.ravel()])
    theta = {omega: X.n + k for k, omega in enumerate(scen.scenario_ids)}
    coo = static.A.tocoo()
    i, j, v, lo = [coo.row], [coo.col], [coo.data], list(static.row_lo)
    for cut in pool.live_cuts():
        weights = {theta[omega]: pi for omega, pi in cut.theta_weights.items()}
        nz = np.flatnonzero(cut.lam)
        cols = np.concatenate([link[nz], list(weights)])
        i.append(np.full(cols.size, len(lo)))
        j.append(cols)
        v.append(np.concatenate([-cut.lam[nz], list(weights.values())]))
        rhs = cut.intercept
        for term in cut.lam * cut.anchor:
            rhs -= term
        lo.append(rhs)
    A = sp.csr_matrix((np.concatenate(v), (np.concatenate(i), np.concatenate(j))),
                      shape=(len(lo), static.c.size))
    return dataclasses.replace(static, A=A, row_lo=np.array(lo),
                               row_hi=np.append(static.row_hi,
                                                np.full(len(lo) - static.row_count, np.inf)))


def _assert_same_model(got, want):
    for f in MODEL_ARRAYS:
        assert np.array_equal(getattr(got, f), getattr(want, f)), f
    for f in MATRIX_ARRAYS:
        assert np.array_equal(getattr(got.A, f), getattr(want.A, f)), f


@pytest.mark.parametrize("fixed", [False, True], ids=["free", "fixed-commitments"])
@pytest.mark.parametrize("mode", list(CutMode), ids=lambda m: m.value)
def test_template_master_equals_a_from_scratch_build(toy_a, mode, fixed):
    # one template follows a run's pool as it grows (and, in the aggregated
    # mode, as consolidation merges its rows); every master it assembles
    # equals the from-scratch build bit for bit, and it keeps the rows of
    # live cuts only
    inst, scen = toy_a
    tmin = default_theta_min(inst)
    g = inst.generators[0]
    commitments = ({(g.id, t): 1 for t in range(1, inst.horizon + 1)} if fixed
                   else None)
    final = run(inst, scen, BendersConfig(mode=mode, max_iters=8),
                fixed_commitments=commitments).pool
    template = master_template(inst, scen, tmin, commitments)
    pool = CutPool()
    for k in sorted(final.cuts_by_iter):
        for cut in final.cuts_by_iter[k]:
            pool.add(cut)
        _assert_same_model(build_master(template, pool),
                           _reference_master(inst, scen, pool, tmin, commitments))
    if mode is CutMode.AGGREGATED:
        assert track_and_consolidate(pool, np.zeros(pool.row_contribution), kappa=1) > 0
        _assert_same_model(build_master(template, pool),
                           _reference_master(inst, scen, pool, tmin, commitments))
    assert set(template._rows) == set(pool.live_cuts())
    if fixed:
        u = first_stage_layout(inst).u[0]
        assert (template.static.lb[u] == 1.0).all() and (template.static.ub[u] == 1.0).all()


def test_master_derivatives_leave_the_template_unchanged(toy_a):
    # the LP relaxation, the fixed-binaries copy and the master solver's
    # arrays share the template's arrays; none may write to them, and
    # repeated builds of one pool do not grow the cut cache
    inst, scen = toy_a
    template = master_template(inst, scen, default_theta_min(inst))
    static = template.static
    before = ([getattr(static, f).copy() for f in MODEL_ARRAYS]
              + [getattr(static.A, f).copy() for f in MATRIX_ARRAYS])
    pool = run(inst, scen, BendersConfig(mode=CutMode.MULTI, max_iters=6)).pool
    for _ in range(2):
        master = build_master(template, pool)
        assert len(template._rows) == pool.row_contribution
    relaxed = dataclasses.replace(master, integral=np.zeros_like(master.integral))
    solver = MasterSolver(template, mip_gap=1e-6)
    for model, solve, relax in ((master, solve_milp, False), (relaxed, solve_lp, True)):
        solve(model)
        _cut_duals(solver, pool, solver.solve(pool, relax))
    after = ([getattr(static, f) for f in MODEL_ARRAYS]
             + [getattr(static.A, f) for f in MATRIX_ARRAYS])
    for old, new in zip(before, after):
        assert np.array_equal(old, new)
        assert not new.flags.writeable
    _assert_same_model(build_master(template, pool), master)
    assert len(template._rows) == pool.row_contribution


def _assert_same_solve(got, want, duals: bool):
    assert got.status is want.status is SolveStatus.OPTIMAL
    assert got.objective == want.objective
    assert np.array_equal(got.x, want.x)
    assert got.simplex_iters == want.simplex_iters
    if duals:
        assert np.array_equal(got.row_dual, want.row_dual)
        assert np.array_equal(got.col_dual, want.col_dual)


@pytest.mark.parametrize("fixture, mode, consolidate", [
    ("toy_a", CutMode.AGGREGATED, True), ("med_b", CutMode.MULTI, False)])
def test_master_solver_equals_a_solve_of_the_built_master(request, fixture, mode,
                                                          consolidate):
    # the master solver passes the template's prepared arrays to one HiGHS
    # instance; each of its solves equals solve_milp / solve_lp of
    # build_master bit for bit, with the LP's row duals in model order, also
    # after the instance has solved other masters
    inst, scen = request.getfixturevalue(fixture)
    pool = run(inst, scen, BendersConfig(mode=mode, max_iters=6)).pool
    if consolidate:
        assert track_and_consolidate(pool, np.zeros(pool.row_contribution), kappa=1) > 0
        assert any(c.kind is CutKind.CONSOLIDATED for c in pool.live_cuts())
    template = master_template(inst, scen, default_theta_min(inst))
    solver = MasterSolver(template, mip_gap=1e-6)
    master = build_master(template, pool)
    relaxed = dataclasses.replace(master, integral=np.zeros_like(master.integral))
    binaries = np.flatnonzero(master.integral)
    for _ in range(2):
        _assert_same_solve(solver.solve(pool, relax=True), solve_lp(relaxed), duals=True)
        milp = solver.solve(pool, relax=False)
        _assert_same_solve(milp, solve_milp(master, mip_gap=1e-6), duals=False)
        assert milp.row_dual is None and milp.mip_nodes >= 1
        assert milp.dual_bound <= milp.objective + 1e-6
        _assert_same_solve(solver.solve(pool, relax=True, binaries=milp.x),
                           solve_lp(master.fixed(binaries, milp.x[binaries], relax=True)),
                           duals=True)
    assert solver.solve(CutPool(), relax=True).row_count == template.static.row_count


def test_master_rejects_a_non_finite_cut(toy_a):
    inst, scen = toy_a
    ids = scen.scenario_ids
    anchor = sample_feasible_first_stage(inst, np.random.default_rng(8))
    results = [solve_subproblem(inst, scen, om, anchor) for om in ids]
    cut = make_full_aggregate_cut(results, dict(zip(ids, scen.probabilities)), anchor, 1)
    lam = cut.lam.copy()
    lam[0] = np.nan
    pool = CutPool()
    pool.add(dataclasses.replace(cut, lam=lam))
    with pytest.raises(ModelBuildError, match="non-finite"):
        MasterSolver(master_template(inst, scen, default_theta_min(inst)),
                     1e-6).solve(pool, relax=True)


def test_per_point_recourse_data_gives_the_same_results(med_b):
    # the point's clipped link, A_link @ link and p+/p- bounds are computed
    # once and shared by every scenario; each result equals a one-shot solve
    # on its own template, and the slope equals -A_link^T y from the
    # from-scratch model's duals
    inst, scen = med_b
    x = sample_feasible_first_stage(inst, np.random.default_rng(21))
    solver = RecourseSolver(recourse_template(inst, scen))
    t = solver.template
    point = t.point(x)
    for omega in scen.scenario_ids:
        got = solve_subproblem(inst, scen, omega, x, solver, point)
        want = solve_subproblem(inst, scen, omega, x)
        assert got.scenario_id == want.scenario_id == omega
        assert got.objective == want.objective
        assert np.array_equal(got.lam, want.lam)
        assert got.simplex_iters == want.simplex_iters > 0
        res = solve_held(build_subproblem(inst, scen, omega, x))
        lam = t.link_map.T @ -res.row_dual[:t.link_map.shape[0]]
        lam[:t.n_deploy] = np.minimum(res.col_dual[:t.n_deploy], 0.0)
        assert res.objective == got.objective
        assert np.array_equal(lam, got.lam)


def test_a_warm_scenario_that_is_not_optimal_is_named(med_b):
    # a spill upper bound below its lower bound 0 makes one scenario's LP
    # infeasible; the batch names it
    inst, scen = med_b
    ids = scen.scenario_ids
    x = sample_feasible_first_stage(inst, np.random.default_rng(22))
    t = recourse_template(inst, scen)
    spill_ub = t.spill_ub.copy()
    spill_ub[4, 0] = -1.0
    solver = RecourseSolver(dataclasses.replace(t, spill_ub=spill_ub))
    point = t.point(x)
    solve_subproblem(inst, scen, ids[0], x, solver, point)
    with pytest.raises(SubproblemInfeasibleError,
                       match=f"scenario {ids[4]} returned infeasible"):
        solver.solve(np.arange(1, len(ids)), point, solver.lp.basis())


def test_recourse_template_stacks_each_scenarios_bounds(med_b):
    # row k of the stacked arrays holds the spill upper bounds and the
    # balance right-hand sides of the model built for scenario k
    inst, scen = med_b
    t = recourse_template(inst, scen)
    assert t.scenario_ids == scen.scenario_ids
    assert t.spill_ub.shape == (scen.n_scenarios, inst.n_farms * inst.horizon)
    for k, omega in enumerate(scen.scenario_ids):
        model = build_subproblem(inst, scen, omega, None)
        assert np.array_equal(t.spill_ub[k], model.ub[t.cols[t.n_deploy:]])
        assert np.array_equal(t.balance_rhs[k], model.row_lo[t.balance_rows])


# -- bunching ------------------------------------------------------------------

def test_a_bunch_member_has_its_leaders_duals_and_the_cold_objective(med_b):
    # a member made no HiGHS solve: 0 iterations, the very lam of the solve
    # whose basis covered it (an earlier solve of the batch, or the anchor's,
    # whose duals give the anchor's lam), and the objective of a cold solve
    inst, scen = med_b
    x = sample_feasible_first_stage(inst, np.random.default_rng(33))
    solver = RecourseSolver(recourse_template(inst, scen))
    results, _ = solve_subproblems(inst, scen, x, solver=solver)
    members = [k for k, r in enumerate(results) if r.covered]
    assert 0 < len(members) < len(results) - 1
    by_anchor = 0
    for k in members:
        r = results[k]
        assert r.simplex_iters == 0 and not r.lam.flags.writeable
        cold = solve_subproblem(inst, scen, r.scenario_id, x)
        assert r.objective == pytest.approx(cold.objective, rel=1e-9)
        leaders = [j for j in range(1, len(results))
                   if not results[j].covered and results[j].lam is r.lam]
        if leaders:
            assert len(leaders) == 1 and leaders[0] < k
        else:       # the anchor's basis
            assert np.array_equal(r.lam, results[0].lam)
            by_anchor += 1
    assert 0 < by_anchor < len(members)


def test_a_held_solve_at_another_point_covers_nothing(med_b):
    # the solver holds the anchor's solve at one point, and a batch at
    # another point starts from its basis: the held solve's p+/p- bounds
    # and balance right-hand sides are not the batch's point, so no
    # scenario takes its duals, and every Q is the cold one
    inst, scen = med_b
    rng = np.random.default_rng(33)
    x1, x2 = (sample_feasible_first_stage(inst, rng) for _ in range(2))
    solver = RecourseSolver(recourse_template(inst, scen))
    solve_subproblem(inst, scen, scen.scenario_ids[0], x1, solver)
    results = solver.solve(np.arange(1, scen.n_scenarios), solver.template.point(x2),
                           solver.lp.basis())
    solved = {id(r.lam) for r in results if not r.covered}
    assert all(id(r.lam) in solved for r in results)
    for r in results:
        cold = solve_subproblem(inst, scen, r.scenario_id, x2)
        assert r.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)


def test_a_spill_column_that_zero_wind_fixes_is_unfixed_at_the_bound_its_reduced_cost_picks(
        toy_a):
    # scenario a has no wind at w1 in period 1, so its spill column there is
    # fixed at 0, with a positive reduced cost (the wind is worth having);
    # b, c and d unfix it.  Their basic solution keeps it at 0, its lower
    # bound: taken at its upper bound, it would spill their extra wind and
    # report a's cost for them
    inst, base = toy_a
    values = {(omega, "w1", t): base.value("s1", "w1", t)
              for omega in "abcd" for t in range(1, inst.horizon + 1)}
    values.update({("a", "w1", 1): 0.0, ("b", "w1", 1): 1.0, ("c", "w1", 1): 1.5,
                   ("d", "w1", 1): 2.0})
    scen = ScenarioSet(("a", "b", "c", "d"), (0.25,) * 4, values)
    x = sample_feasible_first_stage(inst, np.random.default_rng(5))
    template = recourse_template(inst, scen)
    at_a = solve_lp(build_subproblem(inst, scen, "a", x))
    spill = template.spill[0]
    assert at_a.x[spill] == 0.0 and at_a.col_dual[spill] > 0
    results, _ = solve_subproblems(inst, scen, x)
    assert [r.covered for r in results] == [False, True, True, True]
    for r in results[1:]:
        cold = solve_subproblem(inst, scen, r.scenario_id, x)
        assert r.objective == pytest.approx(cold.objective, rel=1e-9)
        assert r.objective < results[0].objective - 1.0


def test_bunching_that_stops_still_solves_every_scenario_from_the_anchor_basis(
        med_b, monkeypatch):
    # at this point the anchor's basis covers one scenario, the next test
    # one more and the third none, and testing stops (two covered in three
    # tests): every scenario left is solved from the anchor's basis, with
    # the bits of a solver that bunches nothing
    import scengen
    inst, base = med_b
    rng = np.random.default_rng(3)
    scen = scengen.generate(inst, base, 12, rng)
    sample_feasible_first_stage(inst, rng, 0.05)
    x = sample_feasible_first_stage(inst, rng, 0.05)
    outcomes = []
    test, is_open = formulations._Bunching.cover, formulations._Bunching.open

    def logged(self, vertex, todo):
        got = test(self, vertex, todo)
        outcomes.append(got[0].size)
        return got

    def logged_open(self, left):
        answer = is_open(self, left)
        if not answer and left >= formulations.BUNCH_MIN:
            outcomes.append(None)
        return answer
    monkeypatch.setattr(formulations._Bunching, "cover", logged)
    monkeypatch.setattr(formulations._Bunching, "open", logged_open)
    template = recourse_template(inst, scen)
    solver = RecourseSolver(template)
    results, _ = solve_subproblems(inst, scen, x, solver=solver)
    # None: the stop rule kept the bunching closed with scenarios enough
    # left, after which no basis is tested again
    assert outcomes[:3] == [1, 1, 0] and set(outcomes[3:]) == {None}
    assert [r.scenario_id for r in results] == list(scen.scenario_ids)
    point = template.point(x)
    solver = RecourseSolver(template)
    solve_subproblem(inst, scen, scen.scenario_ids[0], x, solver, point)
    basis = solver.lp.basis()
    for k, r in enumerate(results[1:], start=1):
        [want] = RecourseSolver(template).solve([k], point, basis)
        if r.covered:
            assert r.objective == pytest.approx(want.objective, rel=1e-9)
        else:
            assert (r.objective, r.simplex_iters) == (want.objective, want.simplex_iters)
            assert np.array_equal(r.lam, want.lam)
    assert sum(r.covered for r in results) == 2
