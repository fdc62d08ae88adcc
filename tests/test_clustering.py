"""Deterministic clustering algorithms against brute-force/derived oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sucbenders import clustering
from sucbenders.clustering import hierarchical, kmeans, kmedoids

LINE = np.array([[0.0], [1.0], [10.0]])


def groups_of(assignment):
    return sorted(sorted(assignment.members(c)) for c in range(assignment.k))


# -- {0, 1, 10} line examples --------------------------------------------------

@pytest.mark.parametrize("algo", [hierarchical, kmeans, kmedoids])
def test_line_k2_splits_off_ten(algo):
    assert groups_of(algo(LINE, 2)) == [[0, 1], [2]]


@pytest.mark.parametrize("algo", [hierarchical, kmeans, kmedoids])
def test_k1_single_cluster(algo):
    a = algo(LINE, 1)
    assert a.labels == (0, 0, 0)


@pytest.mark.parametrize("algo", [hierarchical, kmeans, kmedoids])
def test_k_equals_n_singletons(algo):
    a = algo(LINE, 3)
    assert a.labels == (0, 1, 2)


@pytest.mark.parametrize("algo", [hierarchical, kmeans, kmedoids])
@pytest.mark.parametrize("k", [0, 4])
def test_k_out_of_range(algo, k):
    with pytest.raises(ValueError):
        algo(LINE, k)


def test_kmeans_brute_force_optimal_on_line():
    # enumerate all 2-partitions of {0,1,10}: {0,1}|{10} has WCSS 0.5, optimal
    best = None
    for labels in itertools.product((0, 1), repeat=3):
        if len(set(labels)) != 2:
            continue
        wcss = 0.0
        for c in (0, 1):
            pts = LINE[[i for i in range(3) if labels[i] == c]]
            wcss += float(((pts - pts.mean()) ** 2).sum())
        if best is None or wcss < best[0]:
            best = (wcss, labels)
    got = kmeans(LINE, 2)
    assert groups_of(got) == sorted(
        sorted(i for i in range(3) if best[1][i] == c) for c in set(best[1]))


def test_kmedoids_brute_force_and_tie_break():
    # brute force over medoid pairs: (0,10) and (1,10) tie at cost 1;
    # lowest-index rule selects point 0
    a = kmedoids(LINE, 2)
    assert a.medoids == (0, 2)
    assert groups_of(a) == [[0, 1], [2]]


def test_kmedoids_k_equals_n_all_medoids():
    a = kmedoids(LINE, 3)
    assert a.medoids == (0, 1, 2)


def test_kmedoids_duplicate_points_lower_index_medoid():
    pts = np.array([[2.0], [2.0], [9.0]])
    a = kmedoids(pts, 2)
    assert a.medoids[0] == 0  # tie between the duplicates breaks low
    assert groups_of(a) == [[0, 1], [2]]


def test_kmeans_identical_points_repair_rule():
    pts = np.zeros((4, 2))
    a = kmeans(pts, 2)
    assert a.k == 2
    assert all(len(a.members(c)) >= 1 for c in range(2))


def _few_distinct_rows():
    rng = np.random.default_rng(0)
    return rng.normal(size=(24, 30))[rng.integers(0, 24, 200)]


@pytest.mark.parametrize("pts, k", [(np.ones((5, 3)), 3), (_few_distinct_rows(), 50)],
                         ids=["5-equal-rows", "200-rows-of-24"])
def test_kmeans_ends_when_k_exceeds_the_distinct_points(monkeypatch, pts, k):
    # duplicates that fill empty clusters move between equal centres, and the
    # loop must still end well before KMEANS_MAX_ITER
    passes = []
    assign = clustering._assign_nearest
    monkeypatch.setattr(clustering, "_assign_nearest",
                        lambda *args: passes.append(1) or assign(*args))
    a = kmeans(pts, k)
    assert len(passes) <= 15
    assert sorted(set(a.labels)) == list(range(k))
    assert kmeans(pts, k).labels == a.labels


def _repair_empty_reference(pts, labels, centers, k):
    """The repair as first written: a Python sort of every point and a
    recount of a cluster's size per candidate, for each empty cluster."""
    labels = labels.copy()
    for c in range(k):
        if np.any(labels == c):
            continue
        resid = ((pts - centers[labels]) ** 2).sum(axis=1)
        order = sorted(range(len(pts)), key=lambda i: (-resid[i], i))
        for i in order:
            if np.sum(labels == labels[i]) > 1:
                labels[i] = c
                break
    return labels


@pytest.mark.parametrize("seed", range(40))
def test_repair_empty_matches_the_reference_on_duplicated_points(seed):
    # few distinct rows, so residuals tie; labels that leave clusters empty
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 60)), int(rng.integers(1, 4))
    k = int(rng.integers(1, n + 1))
    distinct = rng.integers(0, 3, (int(rng.integers(1, 6)), d)).astype(float)
    pts = distinct[rng.integers(0, len(distinct), n)]
    used = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
    labels = used[rng.integers(0, used.size, n)]
    centers = pts[rng.integers(0, n, k)]
    got = clustering._repair_empty(pts, labels, centers, k)
    assert np.array_equal(got, _repair_empty_reference(pts, labels, centers, k))
    assert np.array_equal(np.unique(got), np.arange(k))


@pytest.mark.parametrize("k", [20, 100, 200])
def test_kmeans_at_large_k_keeps_the_reference_labels(monkeypatch, k):
    pts = _few_distinct_rows()
    got = kmeans(pts, k)
    monkeypatch.setattr(clustering, "_repair_empty", _repair_empty_reference)
    assert kmeans(pts, k) == got


def test_hierarchical_first_merge_is_cheapest_pair():
    # Ward merge cost between singletons is d^2/2: 0-1 merge first
    a = hierarchical(LINE, 2)
    assert a.labels[0] == a.labels[1] != a.labels[2]


# -- determinism and invariants -------------------------------------------------

@pytest.mark.parametrize("algo", [hierarchical, kmeans, kmedoids])
def test_determinism_five_runs(algo):
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(12, 4))
    first = algo(pts.copy(), 4)
    for _ in range(5):
        again = algo(pts.copy(), 4)
        assert again.labels == first.labels
        assert again.medoids == first.medoids


def test_medoids_belong_to_their_cluster():
    rng = np.random.default_rng(23)
    pts = rng.normal(size=(10, 3))
    a = kmedoids(pts, 3)
    for c, m in enumerate(a.medoids):
        assert a.labels[m] == c


def test_hierarchical_permutation_consistency():
    rng = np.random.default_rng(29)
    pts = rng.normal(size=(8, 2))
    perm = rng.permutation(8)
    base = hierarchical(pts, 3)
    permuted = hierarchical(pts[perm], 3)
    base_groups = groups_of(base)
    # map permuted labels back to original indices
    back = sorted(sorted(int(perm[i]) for i in g) for g in groups_of(permuted))
    assert back == base_groups


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(2, 10), st.integers(1, 3)),
                  elements=st.floats(-100, 100)),
       st.data())
def test_label_invariants_property(pts, data):
    k = data.draw(st.integers(1, len(pts)))
    for algo in (hierarchical, kmeans, kmedoids):
        a = algo(pts, k)
        assert len(a.labels) == len(pts)
        assert set(a.labels) == set(range(k))  # every cluster nonempty


@pytest.mark.parametrize("algo", [hierarchical, kmeans])
@pytest.mark.parametrize("pts", [
    np.array([[0.0, 1.0], [0.0, 1.0], [2.0, 0.0], [0.0, 1.0], [2.0, 0.0]]),
    np.zeros((5, 3)),
], ids=["duplicate-rows", "all-equal-rows"])
def test_trivial_counts_give_the_trivial_labels(algo, pts):
    # the engine skips clustering at 1 and at |Omega| clusters and uses these
    # labels, also for scenarios whose duals coincide
    n = len(pts)
    assert algo(pts, 1).labels == (0,) * n
    assert algo(pts, n).labels == tuple(range(n))
