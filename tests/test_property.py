"""Properties: on generated instances of one to three buses, with and without
a cycle in the network, every method reaches the extensive form's optimum
within 2*eps relative; on generated med-b scenarios, every bunched
subproblem's slope is a subgradient of its recourse cost."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import scengen
from conftest import fixture_path
from sucbenders.cli import METHODS, execute_method
from sucbenders.data import (Generator, Line, ScenarioSet, SystemInstance, WindFarm,
                             load_instance, load_scenarios)
from sucbenders.engine import solve_subproblems
from sucbenders.formulations import (RecourseSolver, recourse_template,
                                     sample_feasible_first_stage, solve_subproblem)

EPS = 1e-6
OPTIONS = dict(eps=EPS, mip_gap=1e-6, theta_min=None, max_iters=500, alpha=0.01,
               zeta=0.75, rho=5, kappa=5, clustering="hierarchical",
               attribute="duals", subsets=2, gamma=1.0, workers=1)


@st.composite
def generator(draw, gid: str, node: str) -> Generator:
    """A unit that can carry the whole load alone and ramp over its range in
    one period, so every commitment problem drawn has a feasible first stage."""
    cost = draw(st.floats(5.0, 40.0))
    p_min = draw(st.floats(0.0, 20.0))
    p_max = p_min + draw(st.floats(80.0, 120.0))
    return Generator(
        id=gid, node=node, energy_cost=cost, startup_cost=draw(st.floats(0.0, 100.0)),
        res_up_cost=draw(st.floats(1.0, 5.0)), res_down_cost=draw(st.floats(1.0, 5.0)),
        deploy_up_price=cost + draw(st.floats(1.0, 10.0)),
        deploy_down_price=cost - draw(st.floats(1.0, 5.0)),
        p_min=p_min, p_max=p_max, ramp_up=p_max, ramp_down=p_max,
        res_up_cap=draw(st.floats(5.0, 25.0)), res_down_cap=draw(st.floats(5.0, 25.0)),
        min_up=draw(st.integers(1, 2)), min_down=draw(st.integers(1, 2)),
        init_status=draw(st.integers(0, 1)), init_up_periods=0, init_down_periods=0)


# the lines of each network, as (from, to); the parallel pair runs both ways
NETWORKS = {
    "one bus": (),
    "one line": (("n1", "n2"),),
    "parallel lines": (("n1", "n2"), ("n2", "n1")),
    "triangle": (("n1", "n2"), ("n2", "n3"), ("n1", "n3")),
}


@st.composite
def problems(draw):
    """An instance on one of ``NETWORKS`` with a generator at every bus and
    at most one more, one wind farm, T in 2..3, and 2-3 scenarios.  The
    loads sum to at most 80 MW, which any one generator can carry, so every
    bus can serve its own load; line limits of 5-40 MW bind in about half
    of the multi-bus instances drawn."""
    lines = NETWORKS[draw(st.sampled_from(sorted(NETWORKS)))]
    nodes = tuple(sorted({n for line in lines for n in line})) or ("n1",)
    T = draw(st.integers(2, 3))
    at = nodes + tuple(draw(st.lists(st.sampled_from(nodes), max_size=1)))
    gens = tuple(draw(generator(f"g{k}", n)) for k, n in enumerate(at))
    cap = draw(st.floats(20.0, 50.0))
    load = {(n, t): draw(st.floats(5.0, 80.0 / max(2, len(nodes))))
            for n in nodes for t in range(1, T + 1)}
    inst = SystemInstance(
        name="generated", horizon=T, ref_node="n1", nodes=nodes,
        lines=tuple(Line(f"l{k}", a, b, draw(st.floats(5.0, 20.0)), draw(st.floats(5.0, 40.0)))
                    for k, (a, b) in enumerate(lines, 1)),
        generators=gens, wind_farms=(WindFarm("w1", draw(st.sampled_from(nodes)), cap),),
        load=load, shed_cost=draw(st.floats(200.0, 1000.0)))
    inst.validate()
    ids = tuple(f"s{k}" for k in range(draw(st.integers(2, 3))))
    weights = [draw(st.floats(0.5, 2.0)) for _ in ids]
    scen = ScenarioSet(ids, tuple(w / sum(weights) for w in weights),
                       {(s, "w1", t): draw(st.floats(0.0, cap))
                        for s in ids for t in range(1, T + 1)})
    scen.validate(inst)
    return inst, scen


@settings(max_examples=6, deadline=None, derandomize=True)
@given(problems())
def test_every_method_reaches_the_extensive_optimum(problem):
    inst, scen = problem
    reports = {m: execute_method(m, inst, scen, OPTIONS) for m in METHODS}
    oracle = reports["extensive"].objective
    for method, rep in reports.items():
        assert rep.converged, method
        assert abs(rep.objective - oracle) <= 2 * EPS * max(1.0, abs(oracle)), \
            (method, rep.objective, oracle)


@settings(max_examples=3, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_every_bunched_slope_is_a_subgradient_at_other_points(seed):
    # Q(x') >= Q(x) + lam . (link' - link) for every scenario's result at x,
    # bunch leaders and members alike, against cold solves at two other
    # sampled points
    inst = load_instance(fixture_path("med-b.json"))
    rng = np.random.default_rng(seed)
    scen = scengen.generate(inst, load_scenarios(fixture_path("med-b.csv"), inst), 40, rng)
    x, *others = (sample_feasible_first_stage(inst, rng, 0.05) for _ in range(3))
    template = recourse_template(inst, scen)
    solver = RecourseSolver(template)
    results, _ = solve_subproblems(inst, scen, x, solver=solver)
    assert any(r.covered for r in results)

    def link(point):
        return np.clip(point.link(), template.link_lo, template.link_hi)
    for other in others:
        step = link(other) - link(x)
        for r in results:
            q = solve_subproblem(inst, scen, r.scenario_id, other, solver).objective
            assert q >= r.objective + r.lam @ step - 1e-6 * max(1.0, abs(q)), r.scenario_id
