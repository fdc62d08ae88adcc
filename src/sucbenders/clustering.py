"""Deterministic clustering: Ward agglomerative, Lloyd k-means, PAM k-medoids.

All three use Euclidean distance and fixed tie-break rules (lowest index
wins) so that identical inputs produce identical assignments across runs and
platforms.  Point counts here are scenario counts, so the cubic PAM/Ward
loops are cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KMEANS_MAX_ITER = 100
SWAP_TOL = 1e-12


@dataclass(frozen=True)
class ClusterAssignment:
    k: int
    labels: tuple            # point index -> cluster id in [0, k)
    medoids: tuple = ()      # point index per cluster (k-medoids only)

    def members(self, cluster: int) -> list[int]:
        return [i for i, lab in enumerate(self.labels) if lab == cluster]


def _check_k(n: int, k: int) -> None:
    if not (1 <= k <= n):
        raise ValueError(f"cluster count {k} out of range [1, {n}]")


def _canonical_labels(groups: list[list[int]]) -> tuple[int, ...]:
    """Assign cluster ids 0..k-1 ordered by each group's smallest member."""
    order = sorted(range(len(groups)), key=lambda g: min(groups[g]))
    labels = [0] * sum(len(g) for g in groups)
    for new_id, g in enumerate(order):
        for i in groups[g]:
            labels[i] = new_id
    return tuple(labels)


def hierarchical(points: np.ndarray, k: int) -> ClusterAssignment:
    """Agglomerative merge with Ward linkage down to k clusters.

    Equal merge costs break toward the pair with the smallest
    (min member index of A, min member index of B).
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    _check_k(n, k)
    clusters: list[list[int]] = [[i] for i in range(n)]
    centroids = [pts[i].copy() for i in range(n)]
    sizes = [1] * n
    while len(clusters) > k:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                na, nb = sizes[a], sizes[b]
                d2 = float(np.sum((centroids[a] - centroids[b]) ** 2))
                cost = na * nb / (na + nb) * d2
                key = (cost, min(clusters[a]), min(clusters[b]))
                if best is None or key < best[0]:
                    best = (key, a, b)
        _, a, b = best
        na, nb = sizes[a], sizes[b]
        centroids[a] = (na * centroids[a] + nb * centroids[b]) / (na + nb)
        clusters[a] = clusters[a] + clusters[b]
        sizes[a] = na + nb
        del clusters[b], centroids[b], sizes[b]
    return ClusterAssignment(k, _canonical_labels(clusters))


def _assign_nearest(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)  # argmin takes the lowest index on ties


def _farthest_first(pts: np.ndarray, k: int) -> np.ndarray:
    chosen = [0]
    d2 = ((pts - pts[0]) ** 2).sum(axis=1)
    while len(chosen) < k:
        nxt = int(d2.argmax())
        chosen.append(nxt)
        d2 = np.minimum(d2, ((pts - pts[nxt]) ** 2).sum(axis=1))
    return pts[chosen].copy()


def kmeans(points: np.ndarray, k: int) -> ClusterAssignment:
    """Lloyd iterations from farthest-first seeding at point 0, until the
    labels, each empty cluster repaired, repeat those of an earlier pass.

    When k exceeds the distinct points, unrepaired labels never settle (the
    duplicates that fill empty clusters go back to the lowest-index one of
    equal centres), and repaired ones can cycle through a few labellings,
    which the first repeat ends.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    _check_k(n, k)
    centers = _farthest_first(pts, k)
    labels = _repair_empty(pts, _assign_nearest(pts, centers), centers, k)
    seen = {labels.tobytes()}
    for _ in range(KMEANS_MAX_ITER):
        for c in range(k):
            centers[c] = pts[labels == c].mean(axis=0)
        labels = _repair_empty(pts, _assign_nearest(pts, centers), centers, k)
        if labels.tobytes() in seen:
            break
        seen.add(labels.tobytes())
    groups = [list(np.flatnonzero(labels == c)) for c in range(k)]
    return ClusterAssignment(k, _canonical_labels(groups))


def _repair_empty(pts, labels, centers, k):
    """Give each empty cluster the point farthest from its current centroid
    (lowest index on ties, and never emptying a donor cluster)."""
    labels = labels.copy()
    sizes = np.bincount(labels, minlength=k)
    # a repair fills one empty cluster and empties none
    for c in np.flatnonzero(sizes == 0):
        resid = ((pts - centers[labels]) ** 2).sum(axis=1)
        order = np.lexsort((np.arange(len(pts)), -resid))
        i = order[sizes[labels[order]] > 1][0]
        sizes[labels[i]] -= 1
        sizes[c] += 1
        labels[i] = c
    return labels


def kmedoids(points: np.ndarray, k: int) -> ClusterAssignment:
    """PAM: greedy BUILD then best-improvement SWAP.

    On equal total cost a swap is still taken if it moves to a
    lexicographically smaller sorted medoid tuple, which pins the result to
    the lowest-index optimum among ties.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    _check_k(n, k)
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))

    # BUILD
    totals = dist.sum(axis=1)
    medoids = [int(totals.argmin())]
    while len(medoids) < k:
        cur = dist[:, medoids].min(axis=1)
        best = None
        for h in range(n):
            if h in medoids:
                continue
            gain = float(np.maximum(cur - dist[:, h], 0.0).sum())
            if best is None or gain > best[0] + SWAP_TOL:
                best = (gain, h)
        medoids.append(best[1])

    def cost_of(meds: list[int]) -> float:
        return float(dist[:, meds].min(axis=1).sum())

    # SWAP
    while True:
        cur_cost = cost_of(medoids)
        cur_key = (cur_cost, tuple(sorted(medoids)))
        best_key, best_meds = cur_key, None
        for mi, m in enumerate(sorted(medoids)):
            for h in range(n):
                if h in medoids:
                    continue
                cand = sorted(medoids)
                cand[cand.index(m)] = h
                key = (cost_of(cand), tuple(sorted(cand)))
                if key[0] < best_key[0] - SWAP_TOL or (
                        abs(key[0] - best_key[0]) <= SWAP_TOL and key[1] < best_key[1]):
                    best_key, best_meds = (key[0], tuple(sorted(cand))), sorted(cand)
        if best_meds is None:
            break
        medoids = best_meds

    medoids = sorted(medoids)
    labels_raw = np.array([medoids[int(np.argmin(dist[i, medoids]))] for i in range(n)])
    # each medoid belongs to its own cluster (distance 0, unique points aside)
    for m in medoids:
        labels_raw[m] = m
    groups = [list(np.flatnonzero(labels_raw == m)) for m in medoids]
    order = sorted(range(len(groups)), key=lambda g: min(groups[g]))
    labels = [0] * n
    med_out = []
    for new_id, g in enumerate(order):
        for i in groups[g]:
            labels[i] = new_id
        med_out.append(medoids[g])
    return ClusterAssignment(k, tuple(labels), tuple(med_out))
