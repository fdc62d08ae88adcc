#!/usr/bin/env python3
"""Print one digest line per method run, to compare the iterates of two trees.

Runs all six methods on toy-a (1 worker) and on med-b (2 workers) with the
benchmark's pinned solver options (``bench/workloads.solver_options``).  The
package is imported from wherever ``PYTHONPATH`` points, so two source trees
can be compared with the same script:

    PYTHONPATH=/path/to/old/src python3 scripts/iterate_digest.py > old.txt
    PYTHONPATH=src python3 scripts/iterate_digest.py > new.txt
    diff old.txt new.txt

Each line holds the fixture, the method, the iteration count, the final
master rows, ``repr`` of the objective and the SHA-256 of the per-iteration
trace records with their ``*_time_s`` keys removed.  Equal lines mean equal
bounds, cluster counts and master sizes in every iteration.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "bench"))

import sucbenders  # noqa: E402  (from PYTHONPATH, not from this checkout)
from sucbenders import cli  # noqa: E402

from workloads import load_fixture, solver_options  # noqa: E402

RUNS = (("toy-a", 1), ("med-b", 2))


def digest(records: list[str]) -> str:
    docs = [{k: v for k, v in json.loads(line).items() if not k.endswith("_time_s")}
            for line in records]
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


def main() -> None:
    print(f"# package: {Path(sucbenders.__file__).resolve().parent}", file=sys.stderr)
    for fixture, workers in RUNS:
        instance, scenarios = load_fixture(fixture)
        for method in cli.METHODS:
            records: list[str] = []
            rep = cli.execute_method(method, instance, scenarios,
                                     solver_options(workers), records.append)
            print(f"{fixture} {method} iters={rep.iterations} rows={rep.master_rows} "
                  f"objective={rep.objective!r} trace={digest(records)}", flush=True)


if __name__ == "__main__":
    main()
