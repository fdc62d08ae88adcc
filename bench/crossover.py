#!/usr/bin/env python3
"""Crossover probe: aggregated Benders against the extensive MILP as the
number of generated med-b scenarios grows.  Not one of the gated workloads.

Run from the root of a checkout:

    python3 bench/crossover.py --sizes 10 20 40 --seed 1

Prints one line per size: wall time and objective of both methods, whether
they agree within 2*eps, and which one was faster.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from sucbenders import cli  # noqa: E402

import scengen  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[10, 20, 40])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    instance, base = workloads.load_fixture("med-b")
    print(f"{'|Omega|':>7s} {'extensive s':>12s} {'aggregated s':>13s} "
          f"{'agg iters':>9s} {'agree':>5s}  faster")
    for n in args.sizes:
        scenarios = scengen.generate(instance, base, n, np.random.default_rng(args.seed))
        scenarios.validate(instance)
        reps = {}
        for method in ("extensive", "aggregated"):
            t0 = time.perf_counter()
            rep = cli.execute_method(method, instance, scenarios,
                                     workloads.solver_options(workers=1))
            reps[method] = (time.perf_counter() - t0, rep)
        (t_ext, ext), (t_agg, agg) = reps["extensive"], reps["aggregated"]
        agree = (agg.converged and abs(agg.objective - ext.objective)
                 <= 2 * workloads.EPS * max(1.0, abs(ext.objective)))
        faster = "aggregated" if t_agg < t_ext else "extensive"
        print(f"{n:7d} {t_ext:12.2f} {t_agg:13.2f} {agg.iterations:9d} "
              f"{str(agree):>5s}  {faster}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
