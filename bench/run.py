#!/usr/bin/env python3
"""sucbenders benchmark: one workload per run, measured for a fixed time.

Run from the root of a checkout:

    python3 bench/run.py --workload toy-a-loop --seed 1 --seconds 30 --trace 0

It imports the package from ``src/`` of the same checkout.  ``setup_s`` is
the median, over six fresh interpreters, of the time to import the
benchmark and the package and set the workload up once; three of them run
before the measured passes and three after.  The run sets the workload up
in its own process and repeats passes of it until the next pass would end
after ``--seconds``; ``workload_s`` is the median pass time, scaled to a
reference host speed measured between the operations (see
``hostspeed.py``).  Every operation of every pass is checked for
correctness.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
traces every pass with wrappers around each call into a package layer (see
``layers.py``) and reports the per-layer metrics and the tracing overhead.
Details and, when traced, the spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Recorder, summary, wrapper_cost

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_PROCS = 6  # half before the measured passes, half after


@dataclass
class Op:
    name: str
    seconds: float
    detail: dict | None
    error: str | None
    run_id: int | None


@dataclass
class Pass:
    wall: float
    ops: list


def run_pass(workload, recorder=None, after_op=None) -> Pass:
    """One pass: every operation timed, then the workload's checks.
    ``after_op(seconds)``, if given, runs after each operation, outside its
    time."""
    ops = []
    for name, fn in workload.operations():
        span = recorder.open(f"bench.{name}") if recorder else None
        t0 = time.perf_counter()
        detail, error = None, None
        try:
            detail = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        run_id = None
        if recorder:
            recorder.close(span)
            run_id = recorder.spans[span].run_id
        ops.append(Op(name, seconds, detail, error, run_id))
        if after_op is not None:
            after_op(seconds)
    wall = sum(o.seconds for o in ops)
    errors = workload.check({o.name: o.detail for o in ops if o.error is None})
    for o in ops:
        if o.error is None and o.name in errors:
            o.error = errors[o.name]
        if o.error is not None:
            print(f"FAILED {o.name}: {o.error}", file=sys.stderr)
    return Pass(wall, ops)


def measure(workload, seconds: float, recorder=None, after_op=None) -> list:
    """Passes until the next one, at the median pass time so far, would end
    after ``seconds``; at least one."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(workload, recorder, after_op))
        expected = statistics.median(p.wall for p in passes)
        if time.perf_counter() - t0 + expected > seconds:
            return passes


def op_report(passes) -> list:
    """Per-operation time and, on recourse-200, scenarios per second."""
    per_op: dict = {}
    for p in passes:
        for o in p.ops:
            per_op.setdefault(o.name, []).append(o.seconds)
    lines = []
    for name, secs in per_op.items():
        s = summary(secs)
        lines.append(f"  op_s.{name:26s} median {s['median']:.4f} s  "
                     f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  (n={s['n']})")
    recourse = {}
    for p in passes:
        for w in (1, 2):
            ops = [o for o in p.ops if o.detail and o.detail.get("workers") == w]
            if ops:
                n = sum(o.detail["scenarios"] for o in ops)
                recourse.setdefault(w, []).append(n / sum(o.seconds for o in ops))
    for w, rates in recourse.items():
        s = summary(rates)
        lines.append(f"  recourse_scen_per_s (workers={w}) median {s['median']:.2f} "
                     f"(n={s['n']} passes)")
    return lines


def units() -> dict:
    """Unit of every metric, as ``BENCHMARK.json`` lists it."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def fresh_setup_s(workload: str, seed: int) -> float:
    """Import plus one set-up, timed in a new interpreter."""
    out = subprocess.run([sys.executable, __file__, "--workload", workload,
                          "--seed", str(seed), "--seconds", "0", "--setup-only"],
                         capture_output=True, text=True, check=True)
    return float(out.stdout.split()[-1])


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, set the workload up once, print the seconds taken")
    args = ap.parse_args(argv)

    if not (SRC / "sucbenders" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    if args.setup_only:
        workload.setup(args.seed)
        print(time.perf_counter() - t_start)
        return 0

    setups = [] if args.trace else [fresh_setup_s(args.workload, args.seed)
                                    for _ in range(SETUP_PROCS // 2)]
    import hostspeed
    import layers
    recorder = Recorder() if args.trace else None
    tracer = layers.install(recorder) if args.trace else None
    workload.setup(args.seed)
    if tracer:
        tracer.restore()

    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    host = []
    if not args.trace:
        hostspeed.sample(host, 0.0)
        passes = measure(workload, args.seconds,
                         after_op=lambda seconds: hostspeed.sample(host, seconds))
        setups += [fresh_setup_s(args.workload, args.seed)
                   for _ in range(SETUP_PROCS - len(setups))]
        walls = summary(p.wall for p in passes)
        metrics = {
            "setup_s": statistics.median(setups),
            "workload_s": walls["median"] * hostspeed.scale(host),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        lines.append(f"  setup_s: median of {SETUP_PROCS} fresh-interpreter imports and "
                     "set-ups: " + "  ".join(f"{s:.3f}" for s in setups) + " s")
        lines.append(f"  host speed between operations: mean task "
                     f"{1e3 * statistics.fmean(host):.2f} ms (n={len(host)}), reference "
                     f"{1e3 * hostspeed.REFERENCE_S:.2f} ms: pass times scaled by "
                     f"{hostspeed.scale(host):.4f}")
        lines.append(f"  pass wall s, unscaled: median {walls['median']:.3f}  "
                     f"q1 {walls['q1']:.3f}  q3 {walls['q3']:.3f}  (n={walls['n']})")
        lines += op_report(passes)
    else:
        setup_spans = len(recorder.spans)
        tracer = layers.install(recorder)
        try:
            passes = measure(workload, args.seconds, recorder)
        finally:
            tracer.restore()
        traced_wall = sum(p.wall for p in passes)
        run_ids = {o.run_id for p in passes for o in p.ops}
        metrics = layers.layer_metrics(recorder.spans, run_ids, traced_wall,
                                       len(passes), workload.workers)
        metrics.update(layers.method_counts(
            [(o.name, o.detail) for p in passes for o in p.ops if o.detail]))
        metrics["data.load_s"] = sum(s.duration for s in recorder.spans[:setup_spans]
                                     if s.layer == "data")
        per_call = wrapper_cost()
        metrics["trace.overhead_pct"] = (
            100.0 * metrics["trace.spans"] * per_call
            / statistics.median(p.wall for p in passes))
        lines.append(f"  tracing overhead: {metrics['trace.spans']:.0f} spans a pass x "
                     f"{1e6 * per_call:.2f} us a wrapped call = "
                     f"{metrics['trace.overhead_pct']:.3f} % of the traced pass median "
                     f"{statistics.median(p.wall for p in passes):.3f} s (n={len(passes)})")
        lines.append(f"  largest layer self time: {layers.largest_layer_self_time(metrics)}")
        lines += op_report(passes)
        OUT.mkdir(exist_ok=True)
        recorder.write_jsonl(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    unit = units()
    ops = [o for p in passes for o in p.ops]
    failed = sum(o.error is not None for o in ops)
    lines.append(f"  operations: {len(ops)} attempted, {failed} failed")
    for name, value in metrics.items():
        lines.append(f"  {name} = {value:.6g} {unit[name]}")
    print("\n".join(lines), flush=True)

    OUT.mkdir(exist_ok=True)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "setup_s": setups, "host_task_s": host,
               "passes": [{"wall_s": p.wall,
                           "ops": [{"name": o.name, "seconds": o.seconds,
                                    "detail": o.detail, "error": o.error}
                                   for o in p.ops]} for p in passes]}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(details, fh, indent=1, default=str)

    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
