"""Cut pool: normalization, aggregation, consolidation, adaptive control."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sucbenders.cuts import (CutKind, CutPool, adapt_cluster_count,
                             aggregate_and_add, make_full_aggregate_cut,
                             make_per_scenario_cuts, normalize_duals,
                             select_attributes, track_and_consolidate)
from sucbenders.formulations import FirstStageSolution, SubproblemResult


def _result(scenario, q, seed, shape_g=(2, 3), shape_w=(1, 3), shape_f=(1, 3)):
    rng = np.random.default_rng(seed)
    return SubproblemResult(scenario, q,
                            rng.normal(size=shape_g), rng.normal(size=shape_g),
                            rng.normal(size=shape_w), rng.normal(size=shape_f))


def _x(shape_g=(2, 3), shape_w=(1, 3), shape_f=(1, 3), seed=0):
    rng = np.random.default_rng(seed)
    zeros_g = np.zeros(shape_g)
    n_nodes = 2
    return FirstStageSolution(
        zeros_g, zeros_g, zeros_g, zeros_g,
        rng.uniform(0, 5, shape_g), rng.uniform(0, 5, shape_g),
        rng.uniform(0, 5, shape_w), rng.uniform(-5, 5, shape_f),
        np.zeros((n_nodes, shape_g[1])), 100.0)


# -- normalization (min-max mapping) -----------------------------------------

def test_family_1_3_5_maps_to_0_half_1():
    shape = (1, 1)
    results = [
        SubproblemResult(f"s{i}", 0.0, np.full(shape, v), np.zeros(shape),
                         np.zeros(shape), np.zeros(shape))
        for i, v in enumerate((1.0, 3.0, 5.0))
    ]
    feats = normalize_duals(results)
    assert feats[:, 0].tolist() == [0.0, 0.5, 1.0]
    # the remaining (constant) families map to all zeros
    assert np.all(feats[:, 1:] == 0.0)


def test_constant_family_maps_to_zero():
    shape = (1, 2)
    results = [SubproblemResult(f"s{i}", 0.0, np.full(shape, 4.2),
                                np.full(shape, 4.2), np.full(shape, 4.2),
                                np.full(shape, 4.2)) for i in range(3)]
    assert np.all(normalize_duals(results) == 0.0)


def test_identical_scenarios_identical_rows():
    a = _result("s1", 1.0, seed=9)
    b = SubproblemResult("s2", 1.0, a.lam_rp.copy(), a.lam_rm.copy(),
                         a.lam_w.copy(), a.lam_f.copy())
    c = _result("s3", 1.0, seed=10)
    feats = normalize_duals([a, b, c])
    assert np.array_equal(feats[0], feats[1])


def test_normalized_range_and_extremes():
    results = [_result(f"s{i}", float(i), seed=i) for i in range(6)]
    feats = normalize_duals(results)
    assert feats.min() >= 0.0 and feats.max() <= 1.0
    # each non-constant family hits exactly 0 and 1 somewhere
    assert feats.min() == 0.0 and feats.max() == 1.0


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10_000))
def test_normalization_range_property(n, seed):
    results = [_result(f"s{i}", 0.0, seed=seed + i) for i in range(n)]
    feats = normalize_duals(results)
    assert feats.shape[0] == n
    assert np.all(feats >= 0.0) and np.all(feats <= 1.0)


def test_objective_attribute_minmax():
    results = [_result("s1", 0.0, 1), _result("s2", 5.0, 2), _result("s3", 10.0, 3)]
    feats = select_attributes("objective", results, None, None)
    assert feats[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_wind_attribute_is_cached(toy_a):
    inst, scen = toy_a
    results = [_result(sc, 0.0, i, shape_g=(2, 4), shape_w=(1, 4), shape_f=(1, 4))
               for i, sc in enumerate(scen.scenario_ids)]
    cache = {}
    first = select_attributes("wind", results, scen, inst, cache)
    second = select_attributes("wind", results, scen, inst, cache)
    assert first is second  # bit-identical cached matrix


# -- aggregation --------------------------------------------------------------

def test_aggregate_row_is_weighted_sum_of_rows():
    # clusters {s1},{s2} with pi=(0.5,0.5) vs cluster {s1,s2}: the aggregate
    # evaluates to 0.5*cut1 + 0.5*cut2 at any point
    r1, r2 = _result("s1", 10.0, 1), _result("s2", 30.0, 2)
    pi = {"s1": 0.5, "s2": 0.5}
    anchor = _x(seed=1)
    singles = make_per_scenario_cuts([r1, r2], anchor, 1)
    merged = make_full_aggregate_cut([r1, r2], pi, anchor, 1)
    for seed in range(5):
        pt = _x(seed=seed + 2)
        point = pt.cut_point()
        lhs = merged.evaluate(*point)
        rhs = 0.5 * singles[0].evaluate(*point) + 0.5 * singles[1].evaluate(*point)
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
    singles = make_per_scenario_cuts(results, anchor, 1)
    merged = make_full_aggregate_cut(results, pi, anchor, 1)
    for seed in range(10):
        pt = _x(seed=seed + 31)
        theta = [c.evaluate(*pt.cut_point()) for c in singles]  # tightest feasible theta
        agg_lhs = sum(pi[c.members[0]] * th for c, th in zip(singles, theta))
        assert agg_lhs >= merged.evaluate(*pt.cut_point()) - 1e-9


# -- consolidation ------------------------------------------------------------

def _seeded_pool():
    results = [_result(f"s{i}", float(i), i + 5) for i in range(4)]
    pi = {f"s{i}": 0.25 for i in range(4)}
    pool = CutPool()
    aggregate_and_add(pool, results, _x(seed=40), pi, [0, 0, 1, 1], 3)
    names = [c.row_name() for c in pool.live_cuts()]
    return pool, names


def test_consolidation_fires_after_kappa_inactive_iterations():
    pool, names = _seeded_pool()
    inactive = {n: 0.0 for n in names}
    assert track_and_consolidate(pool, inactive, kappa=2) == 0   # a_3 = 1
    removed = track_and_consolidate(pool, inactive, kappa=2)     # a_3 = 2 -> fire
    assert removed == 1  # |C_3| - 1
    assert pool.consolidated_iters == [3]
    cuts = pool.live_cuts()
    assert len(cuts) == 1 and cuts[0].kind is CutKind.CONSOLIDATED
    assert sorted(cuts[0].members) == ["s0", "s1", "s2", "s3"]


def test_active_cut_resets_counter():
    pool, names = _seeded_pool()
    inactive = {n: 0.0 for n in names}
    track_and_consolidate(pool, inactive, kappa=2)
    active = dict(inactive, **{names[0]: 0.5})
    track_and_consolidate(pool, active, kappa=2)
    assert pool.activity[3] == 0
    assert pool.consolidated_iters == []
    # consolidated iterations are permanent and never re-processed
    track_and_consolidate(pool, inactive, kappa=2)
    track_and_consolidate(pool, inactive, kappa=2)
    assert pool.consolidated_iters == [3]
    assert track_and_consolidate(pool, {"cons[3]": 0.0}, kappa=2) == 0


def test_missing_dual_raises():
    pool, _ = _seeded_pool()
    with pytest.raises(KeyError):
        track_and_consolidate(pool, {}, kappa=2)


def test_consolidated_cut_preserves_weighted_sum():
    pool, names = _seeded_pool()
    before = pool.live_cuts()
    inactive = {n: 0.0 for n in names}
    track_and_consolidate(pool, inactive, kappa=1)
    merged = pool.live_cuts()[0]
    for seed in range(5):
        pt = _x(seed=seed + 50)
        assert merged.evaluate(*pt.cut_point()) == pytest.approx(
            sum(c.evaluate(*pt.cut_point()) for c in before), abs=1e-9)


def test_pool_snapshot_shape():
    pool, _ = _seeded_pool()
    snap = pool.snapshot()
    assert snap["cuts_by_kind"] == {"cluster-aggregate": 2}
    assert snap["consolidated_iters"] == []


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
