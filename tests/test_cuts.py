"""Cut pool: normalization, aggregation, consolidation, adaptive control."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sucbenders.cuts import (CutKind, CutPool, adapt_cluster_count,
                             aggregate_and_add, make_full_aggregate_cut,
                             make_per_scenario_cuts, normalize_duals,
                             select_attributes, track_and_consolidate)
from sucbenders.engine import solve_subproblems
from sucbenders.formulations import (FirstStageSolution, SubproblemResult, link_columns,
                                     sample_feasible_first_stage)


def _families(G=2, J=1, L=1, T=3):
    """Positions of the r+, r-, w and f families in the link order."""
    return link_columns(SimpleNamespace(n_gens=G, n_farms=J, n_lines=L, horizon=T))


FAMILIES = _families()
N_LINK = sum(cols.size for cols in FAMILIES)


def _result(scenario, q, seed, n_link=N_LINK):
    rng = np.random.default_rng(seed)
    return SubproblemResult(scenario, q, rng.normal(size=n_link))


def _x(shape_g=(2, 3), shape_w=(1, 3), shape_f=(1, 3), seed=0):
    rng = np.random.default_rng(seed)
    zeros_g = np.zeros(shape_g)
    return FirstStageSolution(
        zeros_g, zeros_g, zeros_g, zeros_g,
        rng.uniform(0, 5, shape_g), rng.uniform(0, 5, shape_g),
        rng.uniform(0, 5, shape_w), rng.uniform(-5, 5, shape_f), 100.0)


# -- normalization (min-max mapping) -----------------------------------------

def test_family_1_3_5_maps_to_0_half_1():
    # one generator, farm and line over one period: link order r+, r-, w, f
    results = [SubproblemResult(f"s{i}", 0.0, np.array([v, 0.0, 0.0, 0.0]))
               for i, v in enumerate((1.0, 3.0, 5.0))]
    feats = normalize_duals(results, _families(1, 1, 1, 1))
    assert feats[:, 0].tolist() == [0.0, 0.5, 1.0]
    # the remaining (constant) families map to all zeros
    assert np.all(feats[:, 1:] == 0.0)


def test_constant_family_maps_to_zero():
    results = [SubproblemResult(f"s{i}", 0.0, np.full(8, 4.2)) for i in range(3)]
    assert np.all(normalize_duals(results, _families(1, 1, 1, 2)) == 0.0)


def test_identical_scenarios_identical_rows():
    a = _result("s1", 1.0, seed=9)
    b = SubproblemResult("s2", 1.0, a.lam.copy())
    c = _result("s3", 1.0, seed=10)
    feats = normalize_duals([a, b, c], FAMILIES)
    assert np.array_equal(feats[0], feats[1])


def test_normalized_range_and_extremes():
    results = [_result(f"s{i}", float(i), seed=i) for i in range(6)]
    feats = normalize_duals(results, FAMILIES)
    assert feats.min() >= 0.0 and feats.max() <= 1.0
    # each non-constant family hits exactly 0 and 1 somewhere
    assert feats.min() == 0.0 and feats.max() == 1.0


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10_000))
def test_normalization_range_property(n, seed):
    results = [_result(f"s{i}", 0.0, seed=seed + i) for i in range(n)]
    feats = normalize_duals(results, FAMILIES)
    assert feats.shape[0] == n
    assert np.all(feats >= 0.0) and np.all(feats <= 1.0)


def test_objective_attribute_minmax():
    results = [_result("s1", 0.0, 1), _result("s2", 5.0, 2), _result("s3", 10.0, 3)]
    feats = select_attributes("objective", results, FAMILIES, None, None)
    assert feats[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_objective_attribute_ignores_roundoff():
    # a spread of 1e-12 on Q = 2000 is roundoff: it maps to 0, not [0, 1, 0]
    results = [_result("s1", 2000.0, 1), _result("s2", 2000.0 + 2e-12, 2),
               _result("s3", 2000.0, 3)]
    feats = select_attributes("objective", results, FAMILIES, None, None)
    assert np.all(feats == 0.0)
    # a spread above the floor still spans [0, 1]
    results[1] = _result("s2", 2000.0 + 1e-3, 2)
    feats = select_attributes("objective", results, FAMILIES, None, None)
    assert feats[:, 0].tolist() == [0.0, 1.0, 0.0]


def test_wind_attribute_is_cached(toy_a):
    inst, scen = toy_a
    families = link_columns(inst)
    n_link = sum(cols.size for cols in families)
    results = [_result(sc, 0.0, i, n_link) for i, sc in enumerate(scen.scenario_ids)]
    cache = {}
    first = select_attributes("wind", results, families, scen, inst, cache)
    second = select_attributes("wind", results, families, scen, inst, cache)
    assert first is second  # bit-identical cached matrix


# -- aggregation --------------------------------------------------------------

def test_aggregate_row_is_weighted_sum_of_rows():
    # clusters {s1},{s2} with pi=(0.5,0.5) vs cluster {s1,s2}: the aggregate
    # evaluates to 0.5*cut1 + 0.5*cut2 at any point
    r1, r2 = _result("s1", 10.0, 1), _result("s2", 30.0, 2)
    pi = {"s1": 0.5, "s2": 0.5}
    anchor = _x(seed=1)
    # unit weights give the raw per-scenario cuts
    singles = make_per_scenario_cuts([r1, r2], dict.fromkeys(pi, 1.0), anchor, 1)
    merged = make_full_aggregate_cut([r1, r2], pi, anchor, 1)
    for seed in range(5):
        pt = _x(seed=seed + 2)
        point = pt.link()
        lhs = merged.evaluate(point)
        rhs = 0.5 * singles[0].evaluate(point) + 0.5 * singles[1].evaluate(point)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_aggregate_and_add_row_delta():
    results = [_result(f"s{i}", float(i), i) for i in range(4)]
    pi = {f"s{i}": 0.25 for i in range(4)}
    pool = CutPool()
    added = aggregate_and_add(pool, results, _x(), pi, [0, 0, 1, 1], 1)
    assert added == 2
    assert pool.row_contribution == 2
    members = sorted(tuple(sorted(c.members)) for c in pool.live_cuts())
    assert members == [("s0", "s1"), ("s2", "s3")]


def test_per_scenario_cuts_are_the_singleton_cluster_aggregates():
    # a multi-cut iteration's cuts are those of an |Omega|-cluster
    # aggregation of the same results, field for field and bit for bit
    results = [_result(f"s{i}", 10.0 * i + 0.1, i + 50) for i in range(3)]
    pi = {"s0": 0.2, "s1": 0.3, "s2": 0.5}
    anchor = _x(seed=9)
    pool = CutPool()
    assert aggregate_and_add(pool, results, anchor, pi, range(3), 4) == 3
    singles = make_per_scenario_cuts(results, pi, anchor, 4)
    assert len(singles) == 3
    for got, want in zip(singles, pool.live_cuts()):
        assert got.kind is want.kind is CutKind.CLUSTER_AGGREGATE
        assert (got.origin_iter, got.members, got.theta_weights, got.intercept,
                got.tag) == (want.origin_iter, want.members, want.theta_weights,
                             want.intercept, want.tag)
        assert np.array_equal(got.lam, want.lam)
        assert np.array_equal(got.anchor, want.anchor)
        (omega,) = got.members
        assert got.theta_weights == {omega: pi[omega]}


def test_aggregate_rejects_bad_partition():
    results = [_result("s0", 0.0, 0), _result("s1", 1.0, 1)]
    pi = {"s0": 0.5, "s1": 0.5}
    with pytest.raises(ValueError):
        aggregate_and_add(CutPool(), results, _x(), pi, [0, 0, 1], 1)


def test_aggregation_dominance_random_points():
    # any point satisfying all per-scenario cuts (as theta >= Theta_omega)
    # satisfies the pi-weighted aggregate
    results = [_result(f"s{i}", float(10 * i), i + 20) for i in range(3)]
    pi = {f"s{i}": 1 / 3 for i in range(3)}
    anchor = _x(seed=30)
    singles = make_per_scenario_cuts(results, dict.fromkeys(pi, 1.0), anchor, 1)
    merged = make_full_aggregate_cut(results, pi, anchor, 1)
    for seed in range(10):
        pt = _x(seed=seed + 31)
        theta = [c.evaluate(pt.link()) for c in singles]  # tightest feasible theta
        agg_lhs = sum(pi[c.members[0]] * th for c, th in zip(singles, theta))
        assert agg_lhs >= merged.evaluate(pt.link()) - 1e-9


# -- consolidation ------------------------------------------------------------

def _seeded_pool():
    results = [_result(f"s{i}", float(i), i + 5) for i in range(4)]
    pi = {f"s{i}": 0.25 for i in range(4)}
    pool = CutPool()
    aggregate_and_add(pool, results, _x(seed=40), pi, [0, 0, 1, 1], 3)
    return pool


def test_consolidation_fires_after_kappa_inactive_iterations():
    pool = _seeded_pool()
    inactive = np.zeros(2)            # one dual per cut row, in pool order
    assert track_and_consolidate(pool, inactive, kappa=2) == 0   # a_3 = 1
    removed = track_and_consolidate(pool, inactive, kappa=2)     # a_3 = 2 -> fire
    assert removed == 1  # |C_3| - 1
    assert pool.consolidated_iters == [3]
    cuts = pool.live_cuts()
    assert len(cuts) == 1 and cuts[0].kind is CutKind.CONSOLIDATED
    assert sorted(cuts[0].members) == ["s0", "s1", "s2", "s3"]


def test_active_cut_resets_counter():
    pool = _seeded_pool()
    inactive = np.zeros(2)
    track_and_consolidate(pool, inactive, kappa=2)
    track_and_consolidate(pool, np.array([0.5, 0.0]), kappa=2)
    assert pool.activity[3] == 0
    assert pool.consolidated_iters == []
    # consolidated iterations are permanent and never re-processed
    track_and_consolidate(pool, inactive, kappa=2)
    track_and_consolidate(pool, inactive, kappa=2)
    assert pool.consolidated_iters == [3]
    assert track_and_consolidate(pool, np.zeros(1), kappa=2) == 0   # the cons[3] row


def test_dual_count_mismatch_raises():
    # one dual per cut row: a short or long vector cannot be matched to rows
    for duals in (np.zeros(0), np.zeros(1), np.zeros(3)):
        pool = _seeded_pool()
        with pytest.raises(ValueError, match="cut-row duals"):
            track_and_consolidate(pool, duals, kappa=1)
        assert pool.activity[3] == 0 and pool.row_contribution == 2


def test_consolidation_reads_each_iteration_at_its_pool_offset():
    # iterations 3 and 5 hold two rows each; only iteration 5's rows are
    # inactive, so only it is consolidated
    pool = _seeded_pool()
    results = [_result(f"s{i}", float(i), i + 7) for i in range(4)]
    aggregate_and_add(pool, results, _x(seed=41), {f"s{i}": 0.25 for i in range(4)},
                      [0, 1, 0, 1], 5)
    assert track_and_consolidate(pool, np.array([0.0, 0.3, 0.0, 0.0]), kappa=1) == 1
    assert pool.consolidated_iters == [5]
    assert [len(pool.cuts_by_iter[k]) for k in (3, 5)] == [2, 1]


def test_consolidated_cut_preserves_weighted_sum():
    pool = _seeded_pool()
    before = pool.live_cuts()
    track_and_consolidate(pool, np.zeros(2), kappa=1)
    merged = pool.live_cuts()[0]
    for seed in range(5):
        pt = _x(seed=seed + 50)
        assert merged.evaluate(pt.link()) == pytest.approx(
            sum(c.evaluate(pt.link()) for c in before), abs=1e-9)


# -- adaptive cluster count ----------------------------------------------------
# dead-band with P = alpha * best_ub; examples from the controller's contract:
#   P=100, zeta=0.75 -> up-threshold 25, down-threshold 175

ALPHA, ZETA, RHO = 0.01, 0.75, 5
BEST_UB = 10_000.0  # P = 100


def test_slow_progress_adds_clusters():
    assert adapt_cluster_count(10.0, BEST_UB, 5, ALPHA, ZETA, RHO, 50) == 10


def test_fast_progress_removes_clusters_with_clamp():
    assert adapt_cluster_count(200.0, BEST_UB, 5, ALPHA, ZETA, RHO, 50) == 1


def test_dead_band_keeps_count():
    assert adapt_cluster_count(100.0, BEST_UB, 5, ALPHA, ZETA, RHO, 50) == 5


def test_clamp_to_scenario_count():
    assert adapt_cluster_count(0.0, BEST_UB, 48, ALPHA, ZETA, RHO, 50) == 50


@settings(max_examples=100, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(0, 1e6), st.integers(1, 50),
       st.integers(1, 10))
def test_adapt_always_in_range(delta, best_ub, count, rho):
    out = adapt_cluster_count(delta, best_ub, count, ALPHA, ZETA, rho, 50)
    assert 1 <= out <= 50
    assert abs(out - count) <= rho


def test_consolidating_overlapping_cuts_sums_their_theta_weights():
    # two cuts of one iteration share scenario s1; the merged row must weight
    # theta_s1 by the sum of both weights, or it is not the sum of the rows
    pool = CutPool()
    results = [_result(f"s{i}", float(i + 1), i + 60) for i in range(3)]
    pi = {"s0": 0.2, "s1": 0.3, "s2": 0.5}
    x = _x(seed=61)
    aggregate_and_add(pool, results[:2], x, pi, [0, 0], 3)
    aggregate_and_add(pool, results[1:], x, pi, [0, 0], 3)
    before = pool.live_cuts()
    assert track_and_consolidate(pool, np.zeros(2), kappa=1) == 1
    [merged] = pool.live_cuts()
    assert merged.members == ("s0", "s1", "s2")
    assert merged.theta_weights == {"s0": 0.2, "s1": 0.6, "s2": 0.5}
    # with every theta at its scenario's own under-estimator, the merged row
    # holds with equality, as the sum of the two rows does
    for seed in range(5):
        link = _x(seed=seed + 70).link()
        theta = {r.scenario_id: r.objective + float(r.lam @ (link - x.link()))
                 for r in results}
        lhs = sum(w * theta[omega] for omega, w in merged.theta_weights.items())
        assert lhs == pytest.approx(merged.evaluate(link), rel=1e-12, abs=1e-9)
        assert lhs == pytest.approx(sum(c.evaluate(link) for c in before),
                                    rel=1e-12, abs=1e-9)


def test_roundoff_dual_family_maps_to_zero_on_med_b(med_b):
    # on med-b the flow slopes are roundoff (|lambda_f| ~ 1e-13), which plain
    # min-max scaling would stretch to [0, 1]; the wind family is real
    inst, scen = med_b
    families = link_columns(inst)
    x = sample_feasible_first_stage(inst, np.random.default_rng(2))
    results, _ = solve_subproblems(inst, scen, x)
    lam = np.stack([r.lam for r in results])
    flows = lam[:, families[3]]
    assert 0.0 < np.ptp(flows) <= 1e-9 * np.abs(lam).max()
    feats = normalize_duals(results, families)
    sizes = np.cumsum([cols.size for cols in families])
    assert np.all(feats[:, sizes[2]:] == 0.0)
    assert feats[:, sizes[1]:sizes[2]].max() == 1.0
