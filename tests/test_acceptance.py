"""Acceptance gate: eleven criteria, one test (and one pass/fail line) each.

All solver runs are shared through the session-scoped ``suite`` fixture so
the expensive fixtures (med-b in particular) are solved once.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from sucbenders.backend import solve_milp
from sucbenders.clustering import ClusterAssignment, hierarchical, kmeans, kmedoids
from sucbenders.cuts import (CutMode, CutPool, adapt_cluster_count,
                             aggregate_and_add, make_full_aggregate_cut,
                             make_per_scenario_cuts, normalize_duals)
from sucbenders.data import ScenarioSet
from sucbenders.engine import BendersConfig, RunStatus, run, solve_subproblems
from sucbenders.formulations import (SubproblemResult, build_extensive,
                                     build_master, default_theta_min,
                                     link_columns, master_template,
                                     sample_feasible_first_stage,
                                     solve_subproblem)
from sucbenders.outer import SubsetStatus, run_outer
from conftest import untimed_records

EPS = 1e-6
REL_TOL = 2e-6          # method-equivalence relative tolerance
CHAIN_TOL = 1e-9        # relaxation-chain slack
N_VALIDITY_POINTS = 100


def _cfg(mode, **kw):
    return BendersConfig(mode=mode, eps=EPS, mip_gap=1e-6, **kw)


def _benders(inst, scen, mode, **kw):
    sol = run(inst, scen, _cfg(mode, **kw))
    assert sol.status is RunStatus.CONVERGED, f"{mode} did not converge"
    return sol


@pytest.fixture(scope="session")
def suite(toy_a, med_b):
    """Every solver run the criteria share, keyed (fixture, method)."""
    out = {"t_start": time.perf_counter()}
    for tag, (inst, scen) in (("toy", toy_a), ("med", med_b)):
        out[tag, "extensive"] = solve_milp(build_extensive(inst, scen),
                                           mip_gap=1e-6)
        out[tag, "single"] = _benders(inst, scen, CutMode.SINGLE)
        out[tag, "multi"] = _benders(inst, scen, CutMode.MULTI)
        out[tag, "agg"] = _benders(inst, scen, CutMode.AGGREGATED)
        out[tag, "cons5"] = _benders(inst, scen, CutMode.AGGREGATED,
                                     consolidate=True, kappa=5)
        out[tag, "outer2"] = run_outer(inst, scen, _cfg(CutMode.AGGREGATED),
                                       2, gamma=1.0, workers=2)
        out[tag, "outer3"] = run_outer(inst, scen, _cfg(CutMode.AGGREGATED),
                                       3, gamma=1.0, workers=3)
    out["t_methods"] = time.perf_counter() - out["t_start"]
    med_i, med_s = med_b
    out["med", "cons2"] = _benders(med_i, med_s, CutMode.AGGREGATED,
                                   consolidate=True, kappa=2)
    out["med", "outer2_half"] = run_outer(med_i, med_s, _cfg(CutMode.AGGREGATED),
                                          2, gamma=0.5, workers=2)
    return out


BENDERS_METHODS = ("single", "multi", "agg", "cons5")


def _objectives(suite, tag):
    objs = {m: suite[tag, m].objective for m in BENDERS_METHODS}
    objs["extensive"] = suite[tag, "extensive"].objective
    objs["outer2"] = suite[tag, "outer2"].solution.objective
    objs["outer3"] = suite[tag, "outer3"].solution.objective
    return objs


def test_criterion_01_method_equivalence(suite):
    # all methods reach the same optimum on both bundled fixtures
    for tag in ("toy", "med"):
        objs = _objectives(suite, tag)
        ref = objs["extensive"]
        for method, obj in objs.items():
            rel = abs(obj - ref) / max(1.0, abs(ref))
            assert rel <= REL_TOL, f"{tag}/{method}: {obj} vs oracle {ref}"


def test_criterion_02_bound_behavior(suite):
    # in every Benders run the lower bound never decreases and the final
    # gap is within eps
    for tag in ("toy", "med"):
        methods = BENDERS_METHODS + (("cons2",) if tag == "med" else ())
        for method in methods:
            sol = suite[tag, method]
            lbs = [r.lower_bound for r in sol.state.history]
            assert all(b >= a - 1e-9 for a, b in zip(lbs, lbs[1:])), \
                f"{tag}/{method}: lower bound regressed"
            gap = abs(sol.state.upper_bound - sol.state.lower_bound)
            assert gap <= EPS, f"{tag}/{method}: final gap {gap}"


def _anchor_point(cut):
    return SimpleNamespace(link=lambda: cut.anchor)


def test_criterion_03_cut_tightness_and_validity(suite, toy_a, med_b):
    rng = np.random.default_rng(2024)
    for tag, (inst, scen) in (("toy", toy_a), ("med", med_b)):
        pi = dict(zip(scen.scenario_ids, scen.probabilities))
        pools = [suite[tag, "multi"].pool, suite[tag, "agg"].pool]
        cuts = [c for pool in pools for c in pool.live_cuts()]

        # tightness: each cut evaluates to its (pi-weighted) anchor recourse
        seen_anchors = {}
        for cut in cuts:
            key = cut.anchor.tobytes()
            if key not in seen_anchors:
                x = _anchor_point(cut)
                seen_anchors[key] = {
                    om: solve_subproblem(inst, scen, om, x).objective
                    for om in scen.scenario_ids}
            q = seen_anchors[key]
            if cut.theta_weights:
                expected = sum(pi[om] * q[om] for om in cut.members)
            else:
                expected = q[cut.members[0]]
            got = cut.evaluate(_anchor_point(cut).link())
            assert abs(got - expected) <= 1e-6, \
                f"{tag}: cut {cut.row_name()} not tight at anchor"

        # validity: under-estimation at random feasible first-stage points
        for _ in range(N_VALIDITY_POINTS):
            x = sample_feasible_first_stage(inst, rng, mip_gap=1e-4)
            q = {om: solve_subproblem(inst, scen, om, x).objective
                 for om in scen.scenario_ids}
            for cut in cuts:
                if cut.theta_weights:
                    truth = sum(pi[om] * q[om] for om in cut.members)
                else:
                    truth = q[cut.members[0]]
                assert cut.evaluate(x.link()) <= truth + 1e-6, \
                    f"{tag}: cut {cut.row_name()} over-estimates"


def test_criterion_04_aggregation_identities(suite, toy_a, med_b):
    # aggregated mode pinned to 1 cluster reproduces the single-cut run, and
    # pinned to |Omega| clusters the multi-cut run: every mode solves one
    # master, and the pinned runs add the same cut rows to it, so the runs
    # record the same iterations
    for tag, (inst, scen) in (("toy", toy_a), ("med", med_b)):
        for method, clusters in (("single", 1), ("multi", scen.n_scenarios)):
            sol = suite[tag, method]
            pinned = _benders(inst, scen, CutMode.AGGREGATED, adaptive=False,
                              initial_clusters=clusters)
            assert untimed_records(pinned) == untimed_records(sol), f"{tag}/{method}"
            assert pinned.objective == sol.objective
            assert pinned.final_master_rows == sol.final_master_rows


def test_criterion_05_relaxation_chain(toy_a):
    # at a fixed iteration state (same anchors, same subproblem data) the
    # master optimum weakens monotonically with coarser aggregation
    inst, scen = toy_a
    pi = dict(zip(scen.scenario_ids, scen.probabilities))
    tmin = default_theta_min(inst)
    base = run(inst, scen, BendersConfig(mode=CutMode.MULTI, eps=EPS))
    by_iter = sorted(base.pool.cuts_by_iter)[:5]

    multi_pool, agg_pool, single_pool = CutPool(), CutPool(), CutPool()
    template = master_template(inst, scen, tmin)
    for nu in by_iter:
        anchor = _anchor_point(base.pool.cuts_by_iter[nu][0])
        results, _ = solve_subproblems(inst, scen, anchor)
        for cut in make_per_scenario_cuts(results, pi, anchor, nu):
            multi_pool.add(cut)
        labels = hierarchical(normalize_duals(results, link_columns(inst)), 2).labels
        aggregate_and_add(agg_pool, results, anchor, pi, labels, nu)
        single_pool.add(make_full_aggregate_cut(results, pi, anchor, nu))

        v_multi = solve_milp(build_master(template, multi_pool)).objective
        v_agg = solve_milp(build_master(template, agg_pool)).objective
        v_single = solve_milp(build_master(template, single_pool)).objective
        assert v_multi >= v_agg - CHAIN_TOL, f"state {nu}: multi < clustered"
        assert v_agg >= v_single - CHAIN_TOL, f"state {nu}: clustered < single"


def test_criterion_06_iteration_ordering(suite):
    # single-cut needs at least as many iterations as multi-cut, and final
    # master rows order multi >= aggregated >= single
    single, multi, agg = (suite["med", m] for m in ("single", "multi", "agg"))
    assert single.iterations >= multi.iterations
    assert multi.final_master_rows >= agg.final_master_rows
    assert agg.final_master_rows >= single.final_master_rows


def test_single_cut_converges_fast_on_toy_a(suite):
    # a guard on cut strength: with the whole slope of Q in every cut,
    # single-cut converges on toy-a in 49 iterations; cuts that lose the
    # part of the slope at an active bound took 109
    assert suite["toy", "single"].iterations <= 60


def test_criterion_07_consolidation(suite):
    plain = suite["med", "agg"]
    ref = plain.objective
    for key in ("cons2", "cons5"):
        sol = suite["med", key]
        assert abs(sol.objective - ref) <= 2 * EPS * max(1.0, abs(ref))
        assert sol.final_master_rows <= plain.final_master_rows


def test_criterion_08_outer_restriction_bound(suite):
    oracle = suite["med", "extensive"].objective
    tol = 2 * EPS * max(1.0, abs(oracle))
    for key in ("outer2", "outer3"):           # gamma = 1.0 recovers optimum
        obj = suite["med", key].solution.objective
        assert obj >= oracle - EPS
        assert abs(obj - oracle) <= tol
    half = suite["med", "outer2_half"].solution.objective
    assert half >= oracle - EPS                # fixing can only restrict

    # the fixture exercises the intersection: subset schedules disagree
    completed = [o for o in suite["med", "outer2"].outcomes
                 if o.status is SubsetStatus.COMPLETED]
    assert len(completed) >= 2
    stacked = np.stack([o.commitment for o in completed])
    assert np.any(stacked != stacked[0]), "subset schedules never differ"


def test_criterion_09_clustering_suite():
    line = np.array([[0.0], [1.0], [10.0]])
    for algo in (hierarchical, kmeans, kmedoids):
        two = algo(line, 2)
        assert two.labels == (0, 0, 1)
        assert algo(line, 1).labels == (0, 0, 0)
        assert algo(line, 3).labels == (0, 1, 2)
    assert kmedoids(line, 2).medoids == (0, 2)

    # subset-formation walkthrough: 6 scenarios, clusters {w1,w2},{w3,w4},
    # {w5,w6}, medoids w1/w3/w6 -> each subset is its cluster + foreign medoids
    from sucbenders.outer import plan_from_assignment
    ids = tuple(f"w{i}" for i in range(1, 7))
    scen = ScenarioSet(ids, tuple([1 / 6] * 6),
                       {(sc, "f", 1): float(i) for i, sc in enumerate(ids)})
    plan = plan_from_assignment(
        scen, ClusterAssignment(3, (0, 0, 1, 1, 2, 2), medoids=(0, 2, 5)))
    assert plan.subsets == (("w1", "w2", "w3", "w6"),
                            ("w3", "w4", "w1", "w6"),
                            ("w5", "w6", "w1", "w3"))

    rng = np.random.default_rng(99)
    pts = rng.normal(size=(9, 3))
    for algo in (hierarchical, kmeans, kmedoids):
        runs = {algo(pts.copy(), 3).labels for _ in range(5)}
        assert len(runs) == 1, "clustering is not deterministic"


def test_criterion_10_adaptive_controller():
    # dead-band arithmetic at P = 100 (alpha=0.01, best ub 10000, zeta=0.75):
    # thresholds are 25 (up) and 175 (down)
    args = dict(alpha=0.01, zeta=0.75, rho=5, n_scenarios=50)
    assert adapt_cluster_count(10.0, 10_000.0, 5, **args) == 10    # slow: +rho
    assert adapt_cluster_count(200.0, 10_000.0, 5, **args) == 1    # fast: clamp
    assert adapt_cluster_count(100.0, 10_000.0, 5, **args) == 5    # dead band
    assert adapt_cluster_count(0.0, 10_000.0, 48, **args) == 50    # upper clamp


def _link_result(omega, families, *blocks):
    """A subproblem result whose r+, r-, w and f duals are ``blocks``."""
    lam = np.empty(sum(cols.size for cols in families))
    for cols, block in zip(families, blocks):
        lam[cols] = block
    return SubproblemResult(omega, 0.0, lam)


def test_criterion_11_normalization():
    rng = np.random.default_rng(7)
    shape_g, shape_w, shape_f = (3, 4), (2, 4), (2, 4)
    families = link_columns(SimpleNamespace(n_gens=3, n_farms=2, n_lines=2, horizon=4))
    results = [_link_result(f"s{i}", families,
                            rng.normal(size=shape_g), rng.normal(size=shape_g),
                            rng.normal(size=shape_w), rng.normal(size=shape_f))
               for i in range(8)]
    feats = normalize_duals(results, families)
    assert feats.shape == (8, 4 * (2 * 3 + 2 + 2))
    assert feats.min() >= 0.0 and feats.max() <= 1.0

    # each family's extremes map to exactly 0 and 1
    offset = 0
    for shape in (shape_g, shape_g, shape_w, shape_f):
        width = shape[0] * shape[1]
        block = feats[:, offset:offset + width]
        assert block.min() == 0.0 and block.max() == 1.0
        offset += width

    # degenerate family (constant) maps to all zeros
    flat = [_link_result(f"s{i}", families, np.full(shape_g, 3.0),
                         rng.normal(size=shape_g), rng.normal(size=shape_w),
                         rng.normal(size=shape_f)) for i in range(4)]
    assert np.all(normalize_duals(flat, families)[:, :12] == 0.0)
