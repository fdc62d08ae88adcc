"""Tests of the benchmark's own code: scenario generator, reference values,
span arithmetic, summary statistics and the call wrappers.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import statistics
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import layers
import reference
import scengen
import workloads
from sucbenders import formulations
from spans import Recorder, Span, Tracer, covered_length, percentile, self_times, summary


@pytest.fixture(scope="module")
def med_b():
    return workloads.load_fixture("med-b")


def _realizations(instance, base, seed):
    return scengen.generate(instance, base, 200, np.random.default_rng(seed))


def test_generator_is_seeded_and_valid(med_b):
    instance, base = med_b
    first = _realizations(instance, base, 7)
    first.validate(instance)
    assert first.n_scenarios == 200
    assert first == _realizations(instance, base, 7)
    assert first.realizations != _realizations(instance, base, 8).realizations


def test_generator_draws_both_regimes_within_capacity(med_b):
    instance, base = med_b
    windy, calm = scengen.regime_profiles(instance, base)
    assert windy.sum() > calm.sum()
    gen = _realizations(instance, base, 3)
    wind = gen.wind_matrix(instance)
    caps = np.repeat([w.capacity for w in instance.wind_farms], instance.horizon)
    assert np.all(wind >= 0.0) and np.all(wind <= caps)
    # each scenario lies nearer the regime it was drawn from
    nearer_windy = (np.abs(wind - windy).sum(axis=1) < np.abs(wind - calm).sum(axis=1))
    assert 50 < nearer_windy.sum() < 150


def test_reference_recourse_matches_the_package(med_b):
    instance, base = med_b
    rng = np.random.default_rng(4)
    scenarios = scengen.generate(instance, base, 6, rng)
    x_hat = formulations.sample_feasible_first_stage(instance, rng, 0.05)
    for omega in scenarios.scenario_ids:
        got = formulations.solve_subproblem(instance, scenarios, omega, x_hat).objective
        assert reference.recourse_cost(instance, scenarios, omega, x_hat) == \
            pytest.approx(got, rel=1e-9, abs=1e-9)


def test_solve_check_rejects_an_oracle_off_the_recorded_optimum():
    loop = workloads.SolveLoop("toy-a", ("extensive", "aggregated"), workers=1)
    known = reference.EXTENSIVE_OBJECTIVE["toy-a"]
    ok = {"converged": True, "objective": known}
    assert loop.check({"extensive": ok, "aggregated": ok}) == {}
    off = {"converged": True, "objective": known * 0.99}
    errors = loop.check({"extensive": off, "aggregated": off})
    assert set(errors) == {"extensive", "aggregated"}


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, run_id=0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("engine.run", 0.0, 10.0),
        _span("backend.solve_lp", 1.0, 3.0, parent=0),
        _span("backend.solve_lp", 2.0, 5.0, parent=0),   # overlaps: another thread
        _span("formulations.build_master", 8.0, 9.0, parent=0),
        _span("highs.lp", 1.5, 2.5, parent=1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 1.0, 1.0])


def test_covered_length_clips_and_merges():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 1), (1, 2), (3, 4), (3.5, 3.6), (5, 5)]) == 3.0


def test_summary_matches_statistics_quantiles():
    values = [float(v) for v in range(10, 0, -1)]
    s = summary(values)
    assert (s["q1"], s["median"], s["q3"], s["n"]) == (2.75, 5.5, 8.25, 10)
    assert s["median"] == statistics.median(values)
    assert summary([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0, "n": 1}
    assert percentile(range(1, 101), 50) == 50.5
    assert percentile([3.0], 95) == 3.0


def test_tracer_records_spans_across_threads_and_restores():
    def leaf(x):
        return x + 1

    def fan_out(xs):
        with mod.ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(mod.leaf, xs))

    mod = types.SimpleNamespace(leaf=leaf, fan_out=fan_out,
                                ThreadPoolExecutor=ThreadPoolExecutor)
    rec = Recorder()
    tracer = Tracer(rec)
    tracer.wrap(mod, "leaf", "inner.leaf", stats=lambda r: {"value": r})
    tracer.wrap(mod, "fan_out", "outer.fan_out")
    tracer.wrap_executor(mod)
    assert mod.fan_out([1, 2, 3]) == [2, 3, 4]
    tracer.restore()
    assert (mod.leaf, mod.fan_out, mod.ThreadPoolExecutor) == (
        leaf, fan_out, ThreadPoolExecutor)
    root, *leaves = rec.spans
    assert root.name == "outer.fan_out" and root.parent is None
    assert [s.parent for s in leaves] == [0, 0, 0]
    assert sorted(s.stats["value"] for s in leaves) == [2, 3, 4]
    assert {s.run_id for s in rec.spans} == {root.run_id}


def test_layer_wrappers_restore_every_binding():
    before = [getattr(m, a) for m, a, _, _ in layers.BINDINGS]
    layers.install(Recorder()).restore()
    assert [getattr(m, a) for m, a, _, _ in layers.BINDINGS] == before


def test_traced_metric_names_match_benchmark_json():
    import json
    from pathlib import Path

    spans = [_span("bench.w1.x0", 0.0, 2.0), _span("formulations.solve_subproblem", 0.5, 1.0, 0)]
    names = set(layers.layer_metrics(spans, {0}, 2.0, 1, workers=1))
    names |= set(layers.method_counts([])) | {"data.load_s", "trace.overhead_pct"}
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert names == {m["name"] for m in spec["per_layer"]}


def test_host_speed_scale_uses_the_mean_task_time():
    import hostspeed

    assert hostspeed.scale([0.03, 0.03, 0.06]) == pytest.approx(hostspeed.REFERENCE_S / 0.04)
    samples = []
    hostspeed.sample(samples, 0.0)
    assert len(samples) == 1 and samples[0] > 0.0
