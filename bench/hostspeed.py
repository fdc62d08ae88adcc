"""Host speed, measured by a fixed task that does not use the package.

On a shared virtual machine the same code runs up to a third slower or
faster from one second to the next and from one run to the next; the task's
time jumps between two levels, about 30 and 45 ms on the VM the bounds were
tuned on.  A level lasts a fraction of a second, but the share of time
spent on the slow level changes from run to run.  After every operation of
every pass the benchmark runs this task repeatedly for a tenth of the
operation's time, so the samples are spread over the run in proportion to
the time measured, and it scales its pass times by
``REFERENCE_S / mean task time``.  A run on a slow stretch of the host then
reads like one on a fast stretch.  The mean, not the median, because the
share of time spent at each level sets the average speed.  The task mixes
an interpreted Python loop with a HiGHS LP solve, as the package's own
work does.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linprog

# Mean task time on the 2-core VM the bounds were tuned on.
REFERENCE_S = 0.040

_rng = np.random.default_rng(0)
_A = _rng.uniform(0.0, 1.0, (120, 240))
_B = _A.sum(axis=1) / 4
_C = -_rng.uniform(0.5, 1.0, 240)


def task_s() -> float:
    """Time of one run of the task."""
    t0 = time.perf_counter()
    total = 0
    for k in range(150_000):
        total += k * k
    res = linprog(_C, A_ub=_A, b_ub=_B, bounds=(0.0, 1.0), method="highs")
    if res.status != 0:
        raise RuntimeError(f"host-speed LP: {res.message}")
    return time.perf_counter() - t0


def sample(samples: list, seconds: float) -> None:
    """Append task times to ``samples`` for a tenth of ``seconds``; at least one."""
    t_end = time.perf_counter() + seconds / 10
    samples.append(task_s())
    while time.perf_counter() < t_end:
        samples.append(task_s())


def scale(samples) -> float:
    """Factor that brings times taken among ``samples`` to reference speed."""
    return REFERENCE_S / statistics.fmean(samples)
