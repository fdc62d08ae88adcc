"""Subset formation, gamma cutoff, commitment intersection, two-pass solve."""

import json
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from sucbenders.backend import solve_milp
from sucbenders.clustering import ClusterAssignment
from sucbenders.cuts import CutMode
from sucbenders.data import ScenarioSet
from sucbenders import outer
from sucbenders.engine import BendersConfig, EngineError, RunStatus, solve_subproblems
from sucbenders.formulations import build_extensive, sample_feasible_first_stage
from sucbenders.outer import (OuterError, SubsetOutcome, SubsetStatus,
                              form_subsets, intersect_commitments,
                              plan_from_assignment, run_outer, seed_pool,
                              solve_subsets)


def _six_scenario_set():
    ids = tuple(f"w{i}" for i in range(1, 7))
    reals = {(sc, "f1", 1): float(i) for i, sc in enumerate(ids)}
    return ScenarioSet(ids, tuple([1 / 6] * 6), reals)


def test_subset_formation_from_assignment():
    # clusters {w1,w2},{w3,w4},{w5,w6} with medoids w1,w3,w6: each subset is
    # its own cluster plus the two foreign medoids
    scen = _six_scenario_set()
    assignment = ClusterAssignment(3, (0, 0, 1, 1, 2, 2), medoids=(0, 2, 5))
    plan = plan_from_assignment(scen, assignment)
    assert plan.medoids == ("w1", "w3", "w6")
    assert plan.subsets == (
        ("w1", "w2", "w3", "w6"),
        ("w3", "w4", "w1", "w6"),
        ("w5", "w6", "w1", "w3"),
    )


def test_subset_probability_renormalization():
    scen = _six_scenario_set()
    assignment = ClusterAssignment(3, (0, 0, 1, 1, 2, 2), medoids=(0, 2, 5))
    plan = plan_from_assignment(scen, assignment)
    sub = scen.restrict(list(plan.subsets[0]))
    assert sum(sub.probabilities) == pytest.approx(1.0)
    assert set(sub.probabilities) == {0.25}


def test_form_subsets_range_checks(toy_a):
    inst, scen = toy_a
    with pytest.raises(OuterError):
        form_subsets(inst, scen, 1)
    with pytest.raises(OuterError):
        form_subsets(inst, scen, 4)
    with pytest.raises(OuterError):
        form_subsets(inst, scen, 2, gamma=0.0)


def test_form_subsets_partition(toy_a):
    inst, scen = toy_a
    plan = form_subsets(inst, scen, 2)
    members = [sc for cluster in plan.clusters for sc in cluster]
    assert sorted(members) == sorted(scen.scenario_ids)
    for c, subset in enumerate(plan.subsets):
        own = set(plan.clusters[c])
        foreign = set(subset) - own
        assert foreign == {m for e, m in enumerate(plan.medoids) if e != c}


def _outcome(i, u, status=SubsetStatus.COMPLETED):
    return SubsetOutcome(i, status, u, 1.0, 0.1, 3, 10)


def test_intersection_drops_disagreements(toy_a):
    inst, _ = toy_a
    u1 = np.ones((2, 4))
    u2 = np.ones((2, 4))
    u2[1, 2] = 0.0  # disagree at (g2, t3)
    fixed = intersect_commitments(inst, [_outcome(0, u1), _outcome(1, u2)])
    assert ("g2", 3) not in fixed
    assert len(fixed) == 7
    assert fixed[("g1", 1)] == 1


def test_intersection_single_outcome_fixes_everything(toy_a):
    inst, _ = toy_a
    u = np.zeros((2, 4))
    fixed = intersect_commitments(inst, [_outcome(0, u)])
    assert len(fixed) == 8
    assert set(fixed.values()) == {0}


def test_intersection_ignores_canceled(toy_a):
    inst, _ = toy_a
    u1 = np.ones((2, 4))
    canceled = SubsetOutcome(1, SubsetStatus.CANCELED, None, None, 0.1, 1, 0)
    fixed = intersect_commitments(inst, [_outcome(0, u1), canceled])
    assert len(fixed) == 8  # only the completed outcome counts


def test_intersection_requires_completed(toy_a):
    inst, _ = toy_a
    canceled = SubsetOutcome(0, SubsetStatus.CANCELED, None, None, 0.1, 1, 0)
    with pytest.raises(OuterError):
        intersect_commitments(inst, [canceled])


def test_gamma_cutoff_ceiling_semantics(toy_a):
    inst, scen = toy_a
    plan = form_subsets(inst, scen, 3, gamma=0.34)  # ceil(0.34*3) = 2
    outcomes = solve_subsets(inst, plan, scen, BendersConfig(mode=CutMode.MULTI))
    done = [o for o in outcomes if o.status is SubsetStatus.COMPLETED]
    canceled = [o for o in outcomes if o.status is SubsetStatus.CANCELED]
    assert len(done) == 2 and len(canceled) == 1
    assert all(o.commitment is not None for o in done)
    assert all(o.commitment is None for o in canceled)


def test_outer_recovers_oracle_at_full_completion(toy_a):
    inst, scen = toy_a
    oracle = solve_milp(build_extensive(inst, scen)).objective
    result = run_outer(inst, scen, BendersConfig(mode=CutMode.MULTI), 2,
                       gamma=1.0, workers=2)
    assert result.solution.objective == pytest.approx(oracle, abs=2e-6)
    assert result.t1 == max(o.wall_time for o in result.outcomes
                            if o.status is SubsetStatus.COMPLETED)


def test_outer_restriction_bound_low_gamma(toy_a):
    inst, scen = toy_a
    oracle = solve_milp(build_extensive(inst, scen)).objective
    result = run_outer(inst, scen, BendersConfig(mode=CutMode.MULTI), 3,
                       gamma=0.34)
    assert result.solution.objective >= oracle - 1e-6


def test_outer_summary_schema(toy_a):
    inst, scen = toy_a
    result = run_outer(inst, scen, BendersConfig(mode=CutMode.MULTI), 2)
    doc = result.summary(inst)
    assert {"subsets", "T1", "T2", "fixed_count", "free_count"} <= set(doc)
    assert doc["fixed_count"] + doc["free_count"] == inst.n_gens * inst.horizon
    for entry in doc["subsets"]:
        assert {"id", "status", "objective", "tau_s", "iterations"} <= set(entry)


def test_seeded_cuts_are_valid(toy_a):
    # every cut that pass 2 starts from under-estimates the weighted
    # recourse of its members at any feasible first-stage point
    inst, scen = toy_a
    plan = form_subsets(inst, scen, 2)
    outcomes = solve_subsets(inst, plan, scen, BendersConfig(mode=CutMode.MULTI))
    pool = seed_pool(outcomes)
    cuts = pool.live_cuts()
    assert len(cuts) == sum(o.pool.row_contribution for o in outcomes)
    # one group per (subset, origin iteration), each with disjoint members
    assert len(pool.cuts_by_iter) == sum(len(o.pool.cuts_by_iter) for o in outcomes)
    for group in pool.cuts_by_iter.values():
        members = [m for c in group for m in c.members]
        assert len(members) == len(set(members))
    rng = np.random.default_rng(17)
    for _ in range(50):
        x = sample_feasible_first_stage(inst, rng)
        q = {r.scenario_id: r.objective for r in solve_subproblems(inst, scen, x)[0]}
        for cut in cuts:
            bound = sum(w * q[omega] for omega, w in cut.theta_weights.items())
            assert cut.evaluate(x.link()) <= bound + 1e-7 * max(1.0, abs(bound))


def test_second_pass_starts_from_the_subset_cuts(toy_a):
    # pass 2 starts from every completed subset's live cuts and needs few
    # iterations; pass-1 records reach the trace with their subset id
    inst, scen = toy_a
    oracle = solve_milp(build_extensive(inst, scen)).objective
    records = []
    result = run_outer(inst, scen, BendersConfig(mode=CutMode.MULTI), 2,
                       trace=records.append)
    assert result.solution.objective == pytest.approx(oracle, abs=2e-6)
    assert result.solution.iterations <= 5
    assert result.seeded_cuts == sum(o.pool.row_contribution for o in result.outcomes) > 0
    assert result.summary(inst)["seeded_cuts"] == result.seeded_cuts
    docs = [json.loads(line) for line in records]
    for o in result.outcomes:
        assert sum(d.get("subset_id") == o.subset_id for d in docs) == o.iterations
    assert sum("subset_id" not in d for d in docs) == result.solution.iterations


def test_single_cut_second_pass_starts_from_the_subset_cuts(toy_a):
    # single-cut's master has one theta per scenario, so it takes the subset
    # cuts as the other modes do
    inst, scen = toy_a
    oracle = solve_milp(build_extensive(inst, scen)).objective
    result = run_outer(inst, scen, BendersConfig(mode=CutMode.SINGLE), 2)
    assert result.seeded_cuts == sum(o.pool.row_contribution for o in result.outcomes) > 0
    assert result.solution.status is RunStatus.CONVERGED
    assert result.solution.objective == pytest.approx(oracle, abs=2e-6)


def test_outer_trace_reaches_the_sink_one_record_at_a_time(toy_a):
    # three subset runs trace from three worker threads (more than the
    # cores); a sink that updates its text with a thread switch in between
    # loses no record, because the outer scheme calls it under a lock
    inst, scen = toy_a
    text = ""

    def sink(line):
        nonlocal text
        current = text
        time.sleep(0)
        text = current + line + "\n"

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = run_outer(inst, scen, BendersConfig(mode=CutMode.MULTI, workers=3), 3,
                           workers=3, trace=sink)
    finally:
        sys.setswitchinterval(interval)
    docs = [json.loads(line) for line in text.splitlines()]
    assert len(docs) == (sum(o.iterations for o in result.outcomes)
                         + result.solution.iterations)


def test_a_failed_subset_cancels_the_others(med_b, monkeypatch):
    # subset 0 fails after 50 ms; the other subset polls its stop flag for up
    # to 3 s and must see it set well before then
    inst, scen = med_b
    plan = form_subsets(inst, scen, 2)
    waited = []

    def stub_run(instance, sub_scen, config, should_stop=None, trace=None, **kwargs):
        if sub_scen.scenario_ids == plan.subsets[0]:
            time.sleep(0.05)
            raise EngineError("subset 0 failed")
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3.0 and not should_stop():
            time.sleep(0.005)
        waited.append(time.perf_counter() - t0)
        return SimpleNamespace(status=RunStatus.CANCELED, iterations=1,
                               final_master_rows=0)

    monkeypatch.setattr(outer, "run", stub_run)
    with pytest.raises(EngineError, match="subset 0 failed"):
        solve_subsets(inst, plan, scen, BendersConfig(mode=CutMode.MULTI), workers=2)
    assert len(waited) == 1 and waited[0] < 1.0
