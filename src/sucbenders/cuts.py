"""Optimality-cut pool: aggregation, consolidation, adaptive cluster count.

A cut generated at iteration k from anchor point x^(k) with subproblem value
Q and slope lambda of Q in the link values (``SubproblemResult.lam``, read
from the subproblem's balance-row duals and p+/p- bound duals) represents
the affine under-estimator Theta(x) = Q + lambda . (x - x^(k)).  Aggregated
cuts carry probability-weighted sums of intercepts and slopes over their
member scenarios, so evaluating one yields the pi-weighted recourse
estimate of the whole cluster.  Every Benders cut is such an aggregate:
single-cut makes one over all scenarios, multi-cut one per scenario (the
singleton clusters of an |Omega|-cluster aggregated run, bit for bit), and
consolidation merges one iteration's aggregates into a single row.

``x``, ``lambda`` and the anchor are vectors in the link order of
``formulations``: r+/r- interleaved per (generator, period), then w per
(farm, period), then f per (line, period).  ``SubproblemResult.lam``,
``Cut.lam``/``anchor`` and ``FirstStageSolution.link()`` all use it; the
positions of the four families in it (``formulations.link_columns``) are
passed in where a family is needed on its own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

INACTIVITY_TOL = 1e-9
# a dual family whose spread is at most this fraction of the largest |dual|
# over all families is roundoff, and maps to all zeros
NORM_REL_FLOOR = 1e-9


class CutMode(enum.Enum):
    SINGLE = "single-cut"
    MULTI = "multi-cut"
    AGGREGATED = "aggregated"


class CutKind(enum.Enum):
    CLUSTER_AGGREGATE = "cluster-aggregate"
    CONSOLIDATED = "consolidated"


@dataclass(frozen=True, eq=False)
class Cut:
    """One optimality cut.  Cuts compare and hash by identity, so a master
    template can key its rendered rows by cut."""
    kind: CutKind
    origin_iter: int
    members: tuple                 # scenario ids covered
    theta_weights: dict            # scenario id -> pi
    intercept: float               # pi-weighted Q at the anchor
    lam: np.ndarray                # pi-weighted slopes of Q, link order
    anchor: np.ndarray             # first-stage link values at generation
    tag: str = ""                  # disambiguates rows within one iteration

    def row_name(self) -> str:
        if self.kind is CutKind.CONSOLIDATED:
            return f"cons[{self.origin_iter}]"
        return f"cut[{self.origin_iter},{self.tag}]"

    def evaluate(self, link: np.ndarray) -> float:
        """Theta at the first-stage point whose link values are ``link``."""
        return self.intercept + float(self.lam @ (link - self.anchor))


class CutPool:
    """Cuts grouped by origin iteration, with inactivity counters and the
    set of consolidated iterations."""

    def __init__(self):
        self.cuts_by_iter: dict[int, list[Cut]] = {}
        self.activity: dict[int, int] = {}
        self.consolidated_iters: list[int] = []

    def live_cuts(self) -> list[Cut]:
        return [c for k in sorted(self.cuts_by_iter) for c in self.cuts_by_iter[k]]

    @property
    def row_contribution(self) -> int:
        return sum(len(v) for v in self.cuts_by_iter.values())

    def add(self, cut: Cut) -> None:
        self.cuts_by_iter.setdefault(cut.origin_iter, []).append(cut)
        self.activity.setdefault(cut.origin_iter, 0)


def _make_cut(origin: int, tag: str, results, pi: dict, x_hat) -> Cut:
    """The pi-weighted aggregate cut of ``results`` (its members, in order)."""
    weights = {r.scenario_id: pi[r.scenario_id] for r in results}
    lam = np.zeros_like(results[0].lam)
    intercept = 0.0
    for r in results:
        intercept += weights[r.scenario_id] * r.objective
        lam += weights[r.scenario_id] * r.lam
    return Cut(CutKind.CLUSTER_AGGREGATE, origin, tuple(weights), weights,
               float(intercept), lam, x_hat.link(), tag=tag)


def _cluster_cuts(results, x_hat, pi: dict, labels, origin: int) -> list[Cut]:
    """One aggregate cut per cluster, in label order.

    ``labels`` assigns a cluster id to each entry of ``results``.
    """
    if len(labels) != len(results):
        raise ValueError(
            f"assignment covers {len(labels)} points, got {len(results)} results")
    clusters: dict[int, list] = {}
    for r, lab in zip(results, labels):
        clusters.setdefault(int(lab), []).append(r)
    return [_make_cut(origin, f"c{lab}", clusters[lab], pi, x_hat)
            for lab in sorted(clusters)]


def make_per_scenario_cuts(results, pi: dict, x_hat, origin: int) -> list[Cut]:
    """One singleton aggregate per scenario (multi-cut mode): the cuts that
    ``aggregate_and_add`` makes with every scenario in its own cluster."""
    return _cluster_cuts(results, x_hat, pi, range(len(results)), origin)


def make_full_aggregate_cut(results, pi: dict, x_hat, origin: int) -> Cut:
    """One pi-weighted cut over all scenarios (single-cut mode)."""
    return _make_cut(origin, "all", results, pi, x_hat)


def aggregate_and_add(pool: CutPool, results, x_hat, pi: dict,
                      labels, origin: int) -> int:
    """Add one cluster-aggregate cut per cluster; returns rows added.

    ``labels`` assigns a cluster id to each entry of ``results``.
    """
    cuts = _cluster_cuts(results, x_hat, pi, labels, origin)
    for cut in cuts:
        pool.add(cut)
    return len(cuts)


def track_and_consolidate(pool: CutPool, row_duals: np.ndarray, kappa: int,
                          tol: float = INACTIVITY_TOL) -> int:
    """Update inactivity counters from the master's cut-row duals ``mu``
    (one per pool row, in pool order) and consolidate iterations whose
    cluster cuts stayed inactive for ``kappa`` successive iterations.
    Returns the number of rows removed."""
    if len(row_duals) != pool.row_contribution:
        raise ValueError(f"{len(row_duals)} cut-row duals for "
                         f"{pool.row_contribution} cut rows")
    removed = 0
    start = 0
    for k in sorted(pool.cuts_by_iter):
        cuts = pool.cuts_by_iter[k]
        mu = row_duals[start:start + len(cuts)]
        start += len(cuts)
        # a consolidated iteration holds one consolidated cut and is skipped
        if not all(c.kind is CutKind.CLUSTER_AGGREGATE for c in cuts):
            continue
        if np.abs(mu).max() <= tol:
            pool.activity[k] = pool.activity.get(k, 0) + 1
        else:
            pool.activity[k] = 0
        if pool.activity[k] >= kappa:
            merged = _merge_cluster_cuts(cuts)
            removed += len(cuts) - 1
            pool.cuts_by_iter[k] = [merged]
            pool.consolidated_iters.append(k)
    return removed


def _merge_cluster_cuts(cuts: list[Cut]) -> Cut:
    base = cuts[0]
    members: list = []
    weights: dict = {}
    intercept = 0.0
    lam = np.zeros_like(base.lam)
    for c in cuts:
        # a scenario in two cuts carries the sum of its theta weights
        for omega, w in c.theta_weights.items():
            if omega not in weights:
                members.append(omega)
            weights[omega] = weights.get(omega, 0.0) + w
        intercept += c.intercept
        lam += c.lam
    return Cut(CutKind.CONSOLIDATED, base.origin_iter, tuple(members), weights,
               float(intercept), lam, base.anchor, tag="all")


# -- clustering attributes --------------------------------------------------

def _minmax(arr: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """``arr`` scaled to [0, 1]; all zeros when its spread is at most ``floor``."""
    if arr.size == 0:     # an empty family, such as the flows of a one-bus system
        return arr
    lo, hi = float(arr.min()), float(arr.max())
    if hi - lo <= floor:
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


def normalize_duals(results, families) -> np.ndarray:
    """Feature matrix |Omega| x D from min-max-normalized dual families.

    ``families`` holds the positions of each family (r+, r-, wind, flow)
    in the link-order duals.  Each family is normalized over all of its
    entries across indices and scenarios, then flattened and concatenated
    per scenario.  All entries lie in [0, 1].  A family maps to 0 when it
    is constant, or when its spread is at most ``NORM_REL_FLOOR`` times the
    largest |dual| over all families: min-max scaling would stretch such
    roundoff to [0, 1].
    """
    if not results:
        raise ValueError("need at least one subproblem result")
    lam = np.stack([r.lam for r in results])                  # |Omega| x link
    floor = NORM_REL_FLOOR * float(np.abs(lam).max(initial=0.0))
    return np.concatenate([_minmax(lam[:, cols], floor).reshape(len(results), -1)
                           for cols in families], axis=1)


def select_attributes(attribute: str, results, families, scenarios, instance,
                      cache: dict | None = None) -> np.ndarray:
    """Clustering feature matrix: 'duals', 'objective' or 'wind' (static).

    The objectives map to 0 when their spread is at most ``NORM_REL_FLOOR``
    times max|Q|, as a dual family does (``normalize_duals``)."""
    if attribute == "duals":
        return normalize_duals(results, families)
    if attribute == "objective":
        q = np.array([[r.objective] for r in results])
        return _minmax(q, NORM_REL_FLOOR * float(np.abs(q).max(initial=0.0)))
    if attribute == "wind":
        if cache is not None and "wind" in cache:
            return cache["wind"]
        full = scenarios.wind_matrix(instance)
        idx = [scenarios.scenario_ids.index(r.scenario_id) for r in results]
        mat = full[idx]
        if cache is not None:
            cache["wind"] = mat
        return mat
    raise ValueError(f"unknown clustering attribute {attribute!r}")


# -- adaptive cluster count ---------------------------------------------------

def adapt_cluster_count(lb_delta: float, best_ub: float, count: int,
                        alpha: float, zeta: float, rho: int,
                        n_scenarios: int) -> int:
    """Dead-band controller on lower-bound progress.

    The band is centred at P = alpha * best upper bound with half-relative
    width zeta; slow progress adds rho clusters, fast progress removes rho,
    and the result is clamped to [1, |Omega|].
    """
    p = alpha * best_ub
    d_up = (1.0 - zeta) * p
    d_down = (1.0 + zeta) * p
    if lb_delta < d_up:
        count += rho
    elif lb_delta > d_down:
        count -= rho
    return max(1, min(n_scenarios, count))
