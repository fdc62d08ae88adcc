"""Optimality-cut pool: aggregation, consolidation, adaptive cluster count.

A cut generated at iteration k from anchor point x^(k) with subproblem value
Q and fixing-constraint duals lambda represents the affine under-estimator
Theta(x) = Q + lambda . (x - x^(k)).  Aggregated cuts carry
probability-weighted sums of intercepts and dual blocks over their member
scenarios, so evaluating one yields the pi-weighted recourse estimate of the
whole cluster.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

INACTIVITY_TOL = 1e-9
NORM_EPS = 0.0  # degenerate families (max == min) map to all zeros


class CutMode(enum.Enum):
    SINGLE = "single-cut"
    MULTI = "multi-cut"
    AGGREGATED = "aggregated"


class CutKind(enum.Enum):
    PER_SCENARIO = "per-scenario"
    CLUSTER_AGGREGATE = "cluster-aggregate"
    CONSOLIDATED = "consolidated"


@dataclass(frozen=True)
class Cut:
    kind: CutKind
    origin_iter: int
    members: tuple                 # scenario ids covered
    theta_weights: dict            # scenario id -> pi (aggregate kinds)
    intercept: float               # (pi-weighted) Q at the anchor
    lam_rp: np.ndarray
    lam_rm: np.ndarray
    lam_w: np.ndarray
    lam_f: np.ndarray
    anchor_rp: np.ndarray
    anchor_rm: np.ndarray
    anchor_w: np.ndarray
    anchor_f: np.ndarray
    tag: str = ""                  # disambiguates rows within one iteration

    def row_name(self) -> str:
        if self.kind is CutKind.CONSOLIDATED:
            return f"cons[{self.origin_iter}]"
        return f"cut[{self.origin_iter},{self.tag}]"

    def evaluate(self, r_plus, r_minus, w, f) -> float:
        val = self.intercept
        val += float(np.sum(self.lam_rp * (r_plus - self.anchor_rp)))
        val += float(np.sum(self.lam_rm * (r_minus - self.anchor_rm)))
        val += float(np.sum(self.lam_w * (w - self.anchor_w)))
        val += float(np.sum(self.lam_f * (f - self.anchor_f)))
        return val


class CutPool:
    """Cuts grouped by origin iteration, with inactivity counters and the
    set of consolidated iterations."""

    def __init__(self):
        self.cuts_by_iter: dict[int, list[Cut]] = {}
        self.activity: dict[int, int] = {}
        self.consolidated_iters: list[int] = []

    def live_cuts(self) -> list[Cut]:
        out: list[Cut] = []
        for k in sorted(self.cuts_by_iter):
            out.extend(self.cuts_by_iter[k])
        return out

    @property
    def row_contribution(self) -> int:
        return sum(len(v) for v in self.cuts_by_iter.values())

    def add(self, cut: Cut) -> None:
        self.cuts_by_iter.setdefault(cut.origin_iter, []).append(cut)
        if cut.kind is CutKind.CLUSTER_AGGREGATE:
            self.activity.setdefault(cut.origin_iter, 0)


def _make_cut(kind: CutKind, origin: int, tag: str, members, weights,
              results_by_id: dict, pi_by_id: dict, x_hat) -> Cut:
    first = results_by_id[members[0]]
    lam_rp = np.zeros_like(first.lam_rp)
    lam_rm = np.zeros_like(first.lam_rm)
    lam_w = np.zeros_like(first.lam_w)
    lam_f = np.zeros_like(first.lam_f)
    intercept = 0.0
    for omega in members:
        r = results_by_id[omega]
        wgt = weights[omega]
        intercept += wgt * r.objective
        lam_rp += wgt * r.lam_rp
        lam_rm += wgt * r.lam_rm
        lam_w += wgt * r.lam_w
        lam_f += wgt * r.lam_f
    rp, rm, w, f = x_hat.cut_point()
    return Cut(kind, origin, tuple(members),
               dict(weights) if kind is not CutKind.PER_SCENARIO else {},
               float(intercept), lam_rp, lam_rm, lam_w, lam_f,
               rp.copy(), rm.copy(), w.copy(), f.copy(), tag=tag)


def make_per_scenario_cuts(results, x_hat, origin: int) -> list[Cut]:
    """One raw cut per scenario (multi-cut mode)."""
    return [_make_cut(CutKind.PER_SCENARIO, origin, r.scenario_id,
                      [r.scenario_id], {r.scenario_id: 1.0},
                      {r.scenario_id: r}, {}, x_hat)
            for r in results]


def make_full_aggregate_cut(results, pi: dict, x_hat, origin: int,
                            kind: CutKind = CutKind.CLUSTER_AGGREGATE) -> Cut:
    """One pi-weighted cut over all scenarios (single-cut mode, consolidation)."""
    members = [r.scenario_id for r in results]
    weights = {m: pi[m] for m in members}
    return _make_cut(kind, origin, "all", members, weights,
                     {r.scenario_id: r for r in results}, pi, x_hat)


def aggregate_and_add(pool: CutPool, results, x_hat, pi: dict,
                      labels, origin: int) -> int:
    """Add one cluster-aggregate cut per cluster; returns rows added.

    ``labels`` assigns a cluster id to each entry of ``results``; the
    assignment must partition the scenario set into nonempty clusters.
    """
    if len(labels) != len(results):
        raise ValueError(
            f"assignment covers {len(labels)} points, got {len(results)} results")
    results_by_id = {r.scenario_id: r for r in results}
    clusters: dict[int, list[str]] = {}
    for r, lab in zip(results, labels):
        clusters.setdefault(int(lab), []).append(r.scenario_id)
    if any(not members for members in clusters.values()):
        raise ValueError("empty cluster in assignment")
    added = 0
    for lab in sorted(clusters):
        members = clusters[lab]
        weights = {m: pi[m] for m in members}
        pool.add(_make_cut(CutKind.CLUSTER_AGGREGATE, origin, f"c{lab}",
                           members, weights, results_by_id, pi, x_hat))
        added += 1
    return added


def track_and_consolidate(pool: CutPool, row_duals: dict, kappa: int,
                          tol: float = INACTIVITY_TOL) -> int:
    """Update inactivity counters from the master row duals ``mu`` and
    consolidate iterations whose cluster cuts stayed inactive for ``kappa``
    successive iterations.  Returns the number of rows removed."""
    removed = 0
    for k in sorted(pool.cuts_by_iter):
        cuts = pool.cuts_by_iter[k]
        if k in pool.consolidated_iters:
            continue
        if not all(c.kind is CutKind.CLUSTER_AGGREGATE for c in cuts):
            continue
        mus = []
        for c in cuts:
            name = c.row_name()
            if name not in row_duals:
                raise KeyError(f"missing master dual for cut row {name}")
            mus.append(abs(row_duals[name]))
        if max(mus) <= tol:
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
    lam_rp = np.zeros_like(base.lam_rp)
    lam_rm = np.zeros_like(base.lam_rm)
    lam_w = np.zeros_like(base.lam_w)
    lam_f = np.zeros_like(base.lam_f)
    for c in cuts:
        members.extend(c.members)
        weights.update(c.theta_weights)
        intercept += c.intercept
        lam_rp += c.lam_rp
        lam_rm += c.lam_rm
        lam_w += c.lam_w
        lam_f += c.lam_f
    return Cut(CutKind.CONSOLIDATED, base.origin_iter, tuple(members), weights,
               float(intercept), lam_rp, lam_rm, lam_w, lam_f,
               base.anchor_rp, base.anchor_rm, base.anchor_w, base.anchor_f,
               tag="all")


# -- clustering attributes --------------------------------------------------

def _minmax(arr: np.ndarray) -> np.ndarray:
    lo, hi = float(arr.min()), float(arr.max())
    if hi - lo <= NORM_EPS:
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


def normalize_duals(results) -> np.ndarray:
    """Feature matrix |Omega| x D from min-max-normalized dual families.

    Each family (r+, r-, wind, flow fixings) is normalized over all of its
    entries across indices and scenarios, then flattened and concatenated
    per scenario.  All entries lie in [0, 1]; a constant family maps to 0.
    """
    if not results:
        raise ValueError("need at least one subproblem result")
    blocks = []
    for attr in ("lam_rp", "lam_rm", "lam_w", "lam_f"):
        fam = np.stack([getattr(r, attr) for r in results])   # |Omega| x ...
        blocks.append(_minmax(fam).reshape(len(results), -1))
    return np.concatenate(blocks, axis=1)


def select_attributes(attribute: str, results, scenarios, instance,
                      cache: dict | None = None) -> np.ndarray:
    """Clustering feature matrix: 'duals', 'objective' or 'wind' (static)."""
    if attribute == "duals":
        return normalize_duals(results)
    if attribute == "objective":
        q = np.array([[r.objective] for r in results])
        return _minmax(q)
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
