"""Which calls the traced run wraps, and the per-layer metrics it derives.

Layers are the package modules ``data``, ``formulations``, ``backend``,
``engine``, ``cuts``, ``clustering`` and ``outer``; ``highs`` names the
scipy HiGHS calls as ``sucbenders.backend`` binds them.  Each wrapper sits
on the name that the *caller* binds (``from .backend import solve_lp``
copies the function into the caller's namespace), so every call site into a
layer is listed here.
"""

from __future__ import annotations

import statistics

from sucbenders import backend, cli, clustering, data, engine, formulations, outer

from spans import Recorder, Tracer, percentile, self_times

# Benders methods whose iteration counts and final master rows are reported.
BENDERS_METHODS = ("single-cut", "multi-cut", "aggregated",
                   "aggregated-consolidation", "outer")


def _outer_stats(result) -> dict:
    completed = sum(o.status.value == "completed" for o in result.outcomes)
    return {"subsets_attempted": len(result.outcomes),
            "subsets_completed": completed, "fixed_count": len(result.fixed)}


# (module, attribute, span name, counts read from the result)
BINDINGS = (
    (backend, "linprog", "highs.lp", lambda r: {"simplex_iters": int(r.nit)}),
    (backend, "milp", "highs.milp",
     lambda r: {"mip_nodes": int(r.get("mip_node_count") or 0)}),
    (cli, "solve_milp", "backend.solve_milp", None),
    (engine, "solve_milp", "backend.solve_milp", None),
    (engine, "solve_lp", "backend.solve_lp", None),
    (formulations, "solve_lp", "backend.solve_lp", None),
    (cli, "build_extensive", "formulations.build_extensive", None),
    (engine, "build_master", "formulations.build_master", None),
    (engine, "extract_first_stage", "formulations.extract_first_stage", None),
    (engine, "solve_subproblem", "formulations.solve_subproblem", None),
    (formulations, "build_subproblem", "formulations.build_subproblem", None),
    (cli, "run", "engine.run", None),
    (outer, "run", "engine.run", None),
    (engine, "solve_subproblems", "engine.solve_subproblems", None),
    (engine, "make_per_scenario_cuts", "cuts.make", lambda r: {"rows_added": len(r)}),
    (engine, "make_full_aggregate_cut", "cuts.make", lambda r: {"rows_added": 1}),
    (engine, "aggregate_and_add", "cuts.make", lambda n: {"rows_added": n}),
    (engine, "track_and_consolidate", "cuts.consolidate",
     lambda n: {"rows_removed": n}),
    (engine, "select_attributes", "clustering.select_attributes", None),
    (clustering, "hierarchical", "clustering.hierarchical", None),
    (clustering, "kmeans", "clustering.kmeans", None),
    (outer, "kmedoids", "clustering.kmedoids", None),
    (cli, "run_outer", "outer.run_outer", _outer_stats),
    (outer, "form_subsets", "outer.form_subsets", None),
    (outer, "solve_subsets", "outer.solve_subsets", None),
    (outer, "intersect_commitments", "outer.intersect_commitments", None),
    (data, "load_instance", "data.load_instance", None),
    (data, "load_scenarios", "data.load_scenarios", None),
)


def install(recorder: Recorder) -> Tracer:
    """Wrap every binding; call ``restore()`` on the result to undo."""
    tracer = Tracer(recorder)
    for module, attr, name, stats in BINDINGS:
        tracer.wrap(module, attr, name, stats)
    tracer.wrap_executor(engine)
    tracer.wrap_executor(outer)
    return tracer


def _count(spans, key: str) -> int:
    return sum((s.stats or {}).get(key, 0) for s in spans)


def layer_metrics(spans, run_ids: set, pass_wall_s: float, n_passes: int,
                  workers: int) -> dict:
    """Per-layer metrics over the spans of the operations in ``run_ids``.

    Shares are self time (or phase time) as a percentage of the traced
    passes' wall time; counts are per pass.  Threads busy in parallel can
    push the shares' sum past 100.
    """
    selfs = self_times(spans)
    picked = [i for i, s in enumerate(spans) if s.run_id in run_ids]

    def named(*names):
        return [i for i in picked if spans[i].name in names]

    def self_pct(idx):
        return 100.0 * sum(selfs[i] for i in idx) / pass_wall_s

    def dur(idx):
        return sum(spans[i].duration for i in idx)

    def in_layer(layer):
        return [i for i in picked if spans[i].layer == layer]

    def with_parent(child_name, parent_names):
        return [i for i in named(child_name)
                if spans[i].parent is not None
                and spans[spans[i].parent].name in parent_names]

    master_phase = (with_parent("formulations.build_master", ("engine.run",))
                    + with_parent("backend.solve_milp", ("engine.run",)))
    pass1 = named("outer.solve_subsets")
    busy = with_parent("engine.run", ("outer.solve_subsets",))
    pass2 = with_parent("engine.run", ("outer.run_outer",))
    sub_ms = [1e3 * spans[i].duration for i in named("formulations.solve_subproblem")]
    per_pass = 1.0 / n_passes

    def count(name, key):
        return _count([spans[i] for i in named(name)], key) * per_pass

    return {
        "highs.milp_pct": self_pct(named("highs.milp")),
        "highs.lp_pct": self_pct(named("highs.lp")),
        "backend.assemble_pct": self_pct(in_layer("backend")),
        "formulations.build_master_pct": self_pct(named("formulations.build_master")),
        "formulations.build_extensive_pct": self_pct(named("formulations.build_extensive")),
        "formulations.build_subproblem_pct": self_pct(named("formulations.build_subproblem")),
        "formulations.dual_extract_pct": self_pct(named("formulations.solve_subproblem")),
        "formulations.self_pct": self_pct(in_layer("formulations")),
        "engine.master_phase_pct": 100.0 * dur(master_phase) / pass_wall_s,
        "engine.sub_phase_pct": 100.0 * dur(named("engine.solve_subproblems")) / pass_wall_s,
        "engine.self_pct": self_pct(in_layer("engine")),
        "cuts.make_pct": self_pct(named("cuts.make")),
        "cuts.consolidate_pct": self_pct(named("cuts.consolidate")),
        "clustering.self_pct": self_pct(in_layer("clustering")),
        "outer.pass1_pct": 100.0 * dur(pass1) / pass_wall_s,
        "outer.pass2_pct": 100.0 * dur(pass2) / pass_wall_s,
        "outer.self_pct": self_pct(in_layer("outer")),
        "bench.self_pct": self_pct(in_layer("bench")),
        "formulations.solve_subproblem_ms.p50": percentile(sub_ms, 50),
        "formulations.solve_subproblem_ms.p95": percentile(sub_ms, 95),
        "highs.milp_calls": len(named("highs.milp")) * per_pass,
        "highs.mip_nodes": count("highs.milp", "mip_nodes"),
        "highs.lp_calls": len(named("highs.lp")) * per_pass,
        "highs.simplex_iters": count("highs.lp", "simplex_iters"),
        "formulations.build_master_calls": len(named("formulations.build_master")) * per_pass,
        "cuts.rows_added": count("cuts.make", "rows_added"),
        "cuts.rows_removed": count("cuts.consolidate", "rows_removed"),
        "clustering.calls": len(in_layer("clustering")) * per_pass,
        "outer.subsets_attempted": count("outer.run_outer", "subsets_attempted"),
        "outer.subsets_completed": count("outer.run_outer", "subsets_completed"),
        "outer.fixed_count": count("outer.run_outer", "fixed_count"),
        "outer.pass1_parallel_eff": (dur(busy) / (dur(pass1) * workers)
                                     if pass1 else 0.0),
        "trace.spans": len(picked) * per_pass,
    }


def method_counts(details) -> dict:
    """Iterations and final master rows per Benders method, from
    ``(operation name, detail)`` pairs; 0 for a method not run."""
    out = {}
    for m in BENDERS_METHODS:
        runs = [d for name, d in details if name == m]
        out[f"engine.iterations.{m}"] = (
            statistics.median(d["iterations"] for d in runs) if runs else 0)
        out[f"cuts.final_master_rows.{m}"] = (
            statistics.median(d["master_rows"] for d in runs) if runs else 0)
    return out


def largest_layer_self_time(metrics: dict) -> str:
    """Name of the largest self-time share among the disjoint layer parts."""
    parts = ("highs.milp_pct", "highs.lp_pct", "backend.assemble_pct",
             "formulations.self_pct", "engine.self_pct", "cuts.make_pct",
             "cuts.consolidate_pct", "clustering.self_pct", "outer.self_pct")
    return max(parts, key=lambda k: metrics[k])
