#!/usr/bin/env python3
"""Print one digest line per method run, to compare the iterates of two trees.

Runs all six methods on toy-a (1 worker) and on med-b (2 workers) with the
benchmark's pinned solver options (``bench/workloads.solver_options``);
``--workers N`` runs both fixtures at N workers instead.  The package is
imported from wherever ``PYTHONPATH`` points, so two source trees can be
compared with the same script:

    PYTHONPATH=/path/to/old/src python3 scripts/iterate_digest.py > old.txt
    PYTHONPATH=src python3 scripts/iterate_digest.py > new.txt
    diff old.txt new.txt

and so can two worker counts on one tree, whose iterates must not differ:

    PYTHONPATH=src python3 scripts/iterate_digest.py --workers 1 > w1.txt
    PYTHONPATH=src python3 scripts/iterate_digest.py --workers 2 > w2.txt
    diff w1.txt w2.txt

Each line holds the fixture, the method, the iteration count, the final
master rows, ``repr`` of the objective and the SHA-256 of the per-iteration
trace records restricted to the iterate keys ``DIGEST_KEYS`` (an outer
run's grouped by subset).  Equal lines mean equal bounds, cluster counts
and master sizes in every iteration.  The trace's timings, HiGHS
statistics and gap (a function of the bounds in the MILP phase) are left
out, so trees that trace different statistics can be compared.

A last line covers the bunched subproblem phase at scale: the SHA-256 of
every (scenario, Q, simplex iterations, covered, lambda bytes) that
``engine.solve_subproblems`` returns at the three first-stage points of the
``recourse-200`` workload (``RecourseEval().setup(1)``: 200 generated med-b
scenarios).  The phase is serial, so this line does not depend on
``--workers``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "bench"))

import sucbenders  # noqa: E402  (from PYTHONPATH, not from this checkout)
from sucbenders import cli, engine  # noqa: E402

from workloads import RecourseEval, load_fixture, solver_options  # noqa: E402

RUNS = (("toy-a", 1), ("med-b", 2))
DIGEST_KEYS = ("subset_id", "iter", "phase", "lb", "ub", "clusters", "master_rows")


def digest(records: list[str]) -> str:
    docs = [{k: v for k, v in json.loads(line).items() if k in DIGEST_KEYS}
            for line in records]
    # concurrent outer subsets interleave their records; order them by subset
    # (pass 2, which has no subset id, last), keeping each run's own order
    docs.sort(key=lambda d: d.get("subset_id", math.inf))
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


def recourse_digest() -> str:
    """The SHA-256 of every subproblem result at recourse-200's points."""
    workload = RecourseEval()
    workload.setup(1)
    h = hashlib.sha256()
    for point in workload.points:
        results, _ = engine.solve_subproblems(workload.instance, workload.scenarios, point)
        for r in results:
            h.update(repr((r.scenario_id, r.objective, r.simplex_iters,
                           r.covered)).encode())
            h.update(r.lam.tobytes())
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count for both fixtures (default: 1 on toy-a, "
                             "2 on med-b)")
    args = parser.parse_args()
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be >= 1")
    print(f"# package: {Path(sucbenders.__file__).resolve().parent}", file=sys.stderr)
    for fixture, pinned in RUNS:
        workers = pinned if args.workers is None else args.workers
        instance, scenarios = load_fixture(fixture)
        for method in cli.METHODS:
            records: list[str] = []
            rep = cli.execute_method(method, instance, scenarios,
                                     solver_options(workers), records.append)
            print(f"{fixture} {method} iters={rep.iterations} rows={rep.master_rows} "
                  f"objective={rep.objective!r} trace={digest(records)}", flush=True)
    print(f"recourse-200 points={RecourseEval.n_points} "
          f"scenarios={RecourseEval.n_scenarios} results={recourse_digest()}")


if __name__ == "__main__":
    main()
