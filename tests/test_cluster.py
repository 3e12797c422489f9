import functools
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from companysim import cluster as cluster_module
from companysim.cluster import (
    ClusterAssignment,
    KMeansResult,
    _cut,
    _eigh_in_place,
    _initial_distances,
    _kmeans_counts,
    _kmeanspp_init,
    _lloyd,
    _normalized_laplacian,
    _sq_dists,
    _unit_rows,
    agglomerative,
    cluster_quality,
    cluster_sweep,
    fit_clusters,
    kmeans,
    knn_affinity,
    load_assignment,
    pca,
    random_cluster_assignment,
    reduce_dims,
    save_assignment,
    save_sweep_csv,
    spectral_embedding,
)
from companysim.errors import (
    ComputationError,
    ConfigError,
    DataValidationError,
    RankDeficiencyError,
    ZeroVectorError,
)


def _blobs(rng, centers, per=20, scale=0.3):
    X = np.vstack([
        c + scale * rng.normal(size=(per, len(c))) for c in centers
    ])
    labels = [i for i in range(len(centers)) for _ in range(per)]
    return X, labels


# ---------------------------------------------------------------------------
# PCA


def _oracle_pca(X, k):
    Xc = X - X.mean(axis=0)
    eigvals, eigvecs = np.linalg.eigh(Xc.T @ Xc)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    components = eigvecs[:, order].T[:k]
    for i in range(k):
        j = int(np.argmax(np.abs(components[i])))
        if components[i, j] < 0:
            components[i] = -components[i]
    scores = Xc @ components.T
    ratio = eigvals[:k] / eigvals.sum()
    return scores, components, ratio


def test_pca_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(40, 6)) @ np.diag([5, 3, 2, 1, 0.5, 0.1])
    scores, components, ratio = pca(X, 4)
    o_scores, o_components, o_ratio = _oracle_pca(X, 4)
    assert np.allclose(components, o_components, atol=1e-8)
    assert np.allclose(scores, o_scores, atol=1e-8)
    assert np.allclose(ratio, o_ratio, atol=1e-10)


def test_pca_components_orthonormal():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 5))
    _, components, _ = pca(X, 5)
    assert np.allclose(components @ components.T, np.eye(5), atol=1e-10)


def test_pca_sign_convention_deterministic():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(25, 4))
    _, c1, _ = pca(X, 3)
    _, c2, _ = pca(X.copy(), 3)
    assert np.array_equal(c1, c2)
    for row in c1:
        assert row[int(np.argmax(np.abs(row)))] > 0


def test_pca_rejects_rank_deficient_request():
    rng = np.random.default_rng(4)
    base = rng.normal(size=(20, 2))
    X = np.hstack([base, base @ np.array([[1.0, 2.0], [3.0, 4.0]])])
    with pytest.raises(RankDeficiencyError):
        pca(X, 3)
    pca(X, 2)


def test_reduce_dims_dispatch():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 8))
    assert reduce_dims(X, 3, method="pca").shape == (30, 3)
    assert reduce_dims(np.abs(X) + 0.1, 2, method="spectral",
                       n_neighbors=5).shape == (30, 2)
    with pytest.raises(ConfigError):
        reduce_dims(X, 2, method="umap")


# ---------------------------------------------------------------------------
# K-means


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(6)
    X, truth = _blobs(rng, [[0, 0], [10, 0], [0, 10]], per=25)
    result = kmeans(X, 3, seed=1, n_init=4)
    q = cluster_quality(truth, result.labels.tolist())
    assert q.v_measure == 1.0


def test_kmeans_inertia_history_non_increasing():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(120, 4))
    result = kmeans(X, 8, seed=0, n_init=1)
    hist = np.array(result.inertia_history)
    assert np.all(np.diff(hist) <= 1e-9)
    assert result.inertia == hist[-1]


def test_kmeans_deterministic_given_seed():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(50, 3))
    a = kmeans(X, 5, seed=3)
    b = kmeans(X, 5, seed=3)
    assert np.array_equal(a.labels, b.labels)
    assert a.inertia == b.inertia


def test_kmeans_k_equals_n_and_duplicates():
    # duplicated points force empty-cluster handling when k == n
    X = np.array([[0.0, 0], [0, 0], [5, 5], [9, 9]])
    result = kmeans(X, 4, seed=0, n_init=2)
    assert sorted(np.unique(result.labels).tolist()) == [0, 1, 2, 3]
    assert result.inertia <= 1e-12
    with pytest.raises(ConfigError):
        kmeans(X, 5)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_kmeans_rejects_max_iter_below_one(max_iter):
    X = np.random.default_rng(9).normal(size=(10, 2))
    with pytest.raises(ConfigError, match=f"max_iter must be >= 1, got {max_iter}"):
        kmeans(X, 3, max_iter=max_iter)
    with pytest.raises(ConfigError, match="max_iter"):
        _kmeans_counts(X, [2, 3], 0, 1, max_iter)


# The per-cluster-mask Lloyd loop that ``_lloyd`` replaced, kept verbatim.
def _reference_lloyd(X, centers, max_iter):
    n_clusters = centers.shape[0]
    labels = np.full(X.shape[0], -1, dtype=np.int64)
    history: list[float] = []
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        dist2 = _sq_dists(X, centers)
        new_labels = np.argmin(dist2, axis=1)
        min_dist2 = dist2[np.arange(X.shape[0]), new_labels]
        # Re-seed any emptied cluster from the point farthest from its center,
        # so the requested cluster count survives.
        reseeded = False
        used = set()
        for c in range(n_clusters):
            if np.any(new_labels == c):
                continue
            order = np.argsort(-min_dist2, kind="stable")
            pick = next(int(i) for i in order if int(i) not in used)
            used.add(pick)
            centers[c] = X[pick]
            new_labels[pick] = c
            min_dist2[pick] = 0.0
            reseeded = True
        history.append(float(min_dist2.sum()))
        if not reseeded and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(n_clusters):
            members = labels == c
            if np.any(members):
                centers[c] = X[members].mean(axis=0)
    return labels, centers, history[-1], n_iter, history


def _assert_lloyd_equals_reference(X, centers, max_iter=300):
    got = _lloyd(X, centers.copy(), max_iter)
    want = _reference_lloyd(X, centers.copy(), max_iter)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2:] == want[2:]


@pytest.mark.parametrize("centers", [
    # the re-seed of cluster 2 takes the lone member of cluster 1, which
    # stays empty this round and keeps its center
    [[0.0], [50.0], [1000.0]],
    # the re-seed of cluster 0 empties cluster 1, which is re-seeded next
    [[1000.0], [50.0], [0.0]],
])
def test_lloyd_reseed_that_empties_a_cluster_matches_reference(centers):
    X = np.array([[0.0], [0.1], [100.0], [0.05]])
    _assert_lloyd_equals_reference(X, np.array(centers))


@pytest.mark.parametrize("seed", range(12))
def test_lloyd_equals_reference_loop(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(8, 60)), int(rng.integers(1, 6))
    if seed % 3 == 0:
        X = rng.normal(size=(n, d))
    elif seed % 3 == 1:  # integer grid: duplicate rows and distance ties
        X = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    else:  # a few distinct rows, each repeated
        X = rng.normal(size=(4, d))[rng.integers(0, 4, size=n)]
    k = int(rng.integers(1, n + 1))
    # k-means++ starts, then starts far from the data that empty clusters
    _assert_lloyd_equals_reference(X, X[_kmeanspp_init(X, k, rng, {})])
    far = X[rng.integers(0, n, size=k)] + 50.0 * rng.normal(size=(k, d))
    far[0] = X[0]
    _assert_lloyd_equals_reference(X, far)
    _assert_lloyd_equals_reference(X, far, max_iter=2)


def _reference_kmeanspp_init(X, n_clusters, rng):
    """The k-means++ start drawn with ``Generator.choice``."""
    n = X.shape[0]
    centers = np.empty((n_clusters, X.shape[1]), dtype=np.float64)
    centers[0] = X[int(rng.integers(n))]
    closest = np.sum((X - centers[0]) ** 2, axis=1)
    for c in range(1, n_clusters):
        total = float(closest.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=closest / total))
        else:
            idx = int(rng.integers(n))
        centers[c] = X[idx]
        closest = np.minimum(closest, np.sum((X - centers[c]) ** 2, axis=1))
    return centers


def test_kmeanspp_init_draws_what_generator_choice_draws():
    for seed in range(200):
        data = np.random.default_rng([seed, 1])
        n, d = int(data.integers(1, 80)), int(data.integers(1, 6))
        if seed % 2:  # a few distinct rows, each repeated: zero distances
            X = data.normal(size=(3, d))[data.integers(0, 3, size=n)]
        else:
            X = data.normal(size=(n, d)) * 10.0 ** data.integers(-3, 4)
        k = int(data.integers(1, n + 1))
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        centers = X[_kmeanspp_init(X, k, rng, {})]
        assert np.array_equal(centers, _reference_kmeanspp_init(X, k, reference_rng))
        assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("far", [1e200, np.inf, np.nan])
def test_kmeanspp_init_fails_on_a_non_finite_total(far):
    X = np.array([[0.0], [far], [-1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            _kmeanspp_init(X, 2, np.random.default_rng(0), {})
        if far == 1e200:  # finite rows: choice raised on the overflowed total too
            with pytest.raises(ValueError):
                _reference_kmeanspp_init(X, 2, np.random.default_rng(0))


# The k-means of one start per count: the draws of ``Generator.choice`` and
# the per-cluster ``.mean`` Lloyd loop, the oracle of the shared starts.
def _per_count_kmeans(X, n_clusters, seed=0, n_init=4, max_iter=300):
    best = None
    for attempt in range(n_init):
        rng = np.random.default_rng([seed, attempt])
        centers = _reference_kmeanspp_init(X, n_clusters, rng)
        labels, centers, inertia, n_iter, history = _reference_lloyd(
            X, centers, max_iter
        )
        if best is None or inertia < best.inertia:
            best = KMeansResult(labels, centers, inertia, n_iter, history)
    return best


def _kmeans_inputs(seed):
    """Seeded rows, d = 1 included: gaussian, integer grids with duplicate
    rows and distance ties, or a few distinct rows each repeated."""
    rng = np.random.default_rng([seed, 7])
    n, d = int(rng.integers(2, 50)), int(rng.integers(1, 5))
    if seed % 3 == 0:
        X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-2, 3)
    elif seed % 3 == 1:
        X = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    else:
        X = rng.normal(size=(4, d))[rng.integers(0, 4, size=n)]
    middle = rng.integers(1, n + 1, size=3).tolist()
    return X, sorted({1, n, *middle}), int(rng.integers(0, 50))


def _assert_same_kmeans(got, want):
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.centers, want.centers)
    assert got.inertia == want.inertia
    assert got.n_iter == want.n_iter
    assert got.inertia_history == want.inertia_history


@pytest.mark.parametrize("seed", range(18))
def test_shared_starts_equal_a_lone_run_per_count(seed):
    X, counts, run_seed = _kmeans_inputs(seed)
    # counts above the distinct rows re-seed on every round up to max_iter
    options = {"n_init": 3, "max_iter": 40}
    fits = _kmeans_counts(X, counts[::-1], run_seed, **options)
    assert sorted(fits) == counts
    for k in counts:
        want = _per_count_kmeans(X, k, seed=run_seed, **options)
        _assert_same_kmeans(fits[k], want)
        _assert_same_kmeans(kmeans(X, k, seed=run_seed, **options), want)


@pytest.mark.parametrize("seed", range(18))
def test_start_for_the_largest_count_extends_each_smaller_start(seed):
    X, counts, run_seed = _kmeans_inputs(seed)
    rows = {}
    for attempt in range(3):
        rng = np.random.default_rng([run_seed, attempt])
        start = X[_kmeanspp_init(X, max(counts), rng, rows)]
        for k in counts:
            per_count_rng = np.random.default_rng([run_seed, attempt])
            assert np.array_equal(
                start[:k], _reference_kmeanspp_init(X, k, per_count_rng)
            )
        assert rng.bit_generator.state == per_count_rng.bit_generator.state
    for idx, row in rows.items():
        assert np.array_equal(row, np.sum((X - X[idx]) ** 2, axis=1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
@pytest.mark.parametrize("k", [1, 2])
def test_kmeans_rejects_a_non_finite_row_for_every_count(bad, k):
    # 1e200 is finite, but its squared distance overflows
    X = np.array([[0.0, 1.0], [bad, 1.0], [2.0, 2.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        for seed in (11, 1, 0):  # the first center is row 0, 1, 2
            with pytest.raises(ValueError, match=r"k-means\+\+ distances sum to"):
                kmeans(X, k, seed=seed, n_init=1)
            with pytest.raises(ValueError, match=r"k-means\+\+ distances sum to"):
                _kmeans_counts(X, [k], seed, 1)


# ---------------------------------------------------------------------------
# Agglomerative (oracle: recompute linkage from original distances each merge)


def _oracle_agglomerative(X, n_clusters, linkage):
    n = X.shape[0]
    if linkage == "ward":
        pass
    D = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    clusters = [[i] for i in range(n)]

    def cost(a, b):
        if linkage == "average":
            return float(np.mean([D[i, j] for i in a for j in b]))
        if linkage == "complete":
            return float(np.max([D[i, j] for i in a for j in b]))
        mu_a = X[a].mean(axis=0)
        mu_b = X[b].mean(axis=0)
        return float(
            2.0 * len(a) * len(b) / (len(a) + len(b))
            * ((mu_a - mu_b) ** 2).sum()
        )

    merges = []
    while len(clusters) > n_clusters:
        ordered = sorted(clusters, key=min)
        best = None
        for a, b in itertools.combinations(ordered, 2):
            c = cost(a, b)
            if best is None or c < best[0]:
                best = (c, a, b)
        c, a, b = best
        merges.append((min(a), min(b), c))
        clusters.remove(a)
        clusters.remove(b)
        clusters.append(sorted(a + b))
    labels = np.empty(n, dtype=np.int64)
    for idx, members in enumerate(sorted(clusters, key=min)):
        for m in members:
            labels[m] = idx
    return labels, merges


@pytest.mark.parametrize("linkage", ["average", "complete", "ward"])
def test_agglomerative_matches_direct_recomputation(linkage):
    rng = np.random.default_rng(17)
    for trial in range(3):
        X = rng.normal(size=(12, 3))
        labels, merges = agglomerative(X, 3, linkage=linkage)
        o_labels, o_merges = _oracle_agglomerative(X, 3, linkage)
        assert np.array_equal(labels, o_labels), f"{linkage} trial {trial}"
        for (a, b, c), (oa, ob, oc) in zip(merges, o_merges):
            assert (a, b) == (oa, ob)
            assert abs(c - oc) <= 1e-9 * max(1.0, abs(oc))


def test_agglomerative_average_heights_monotone():
    rng = np.random.default_rng(18)
    X = rng.normal(size=(20, 4))
    _, merges = agglomerative(X, 1, linkage="average")
    heights = [m[2] for m in merges]
    assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))


def test_agglomerative_recovers_blobs():
    rng = np.random.default_rng(19)
    X, truth = _blobs(rng, [[0, 0], [8, 8], [0, 8]], per=15)
    for linkage in ("average", "complete", "ward"):
        labels, _ = agglomerative(X, 3, linkage=linkage)
        assert cluster_quality(truth, labels.tolist()).v_measure == 1.0


def test_agglomerative_ward_requires_euclidean():
    with pytest.raises(ConfigError):
        agglomerative(np.zeros((4, 2)), 2, linkage="ward", metric="cosine")


# Reference: the pair-search loop agglomerative used to be, kept verbatim,
# fed the distance matrix whose lower triangle is copied from its upper one.


def _reference_distances(X, linkage, metric):
    def unit_rows(X):
        return X / np.linalg.norm(X, axis=1)[:, None]

    if linkage == "ward":
        diff2 = (
            np.sum(X**2, axis=1)[:, None]
            - 2.0 * (X @ X.T)
            + np.sum(X**2, axis=1)[None, :]
        )
        dist = np.clip(diff2, 0.0, None)
    elif metric == "euclidean":
        diff2 = (
            np.sum(X**2, axis=1)[:, None]
            - 2.0 * (X @ X.T)
            + np.sum(X**2, axis=1)[None, :]
        )
        dist = np.sqrt(np.clip(diff2, 0.0, None))
    else:
        dist = 1.0 - unit_rows(X) @ unit_rows(X).T
    lower = np.tril_indices(X.shape[0], -1)
    dist[lower] = dist.T[lower]
    return dist


def _reference_agglomerative(X, n_clusters, linkage, metric):
    n = X.shape[0]
    dist = _reference_distances(X, linkage, metric)
    np.fill_diagonal(dist, np.inf)
    active = list(range(n))
    sizes = {i: 1 for i in range(n)}
    members = {i: [i] for i in range(n)}
    merges = []

    while len(active) > n_clusters:
        best_pair = None
        best_cost = np.inf
        for a_pos, i in enumerate(active):
            for j in active[a_pos + 1:]:
                cost = dist[i, j]
                if cost < best_cost:
                    best_cost = cost
                    best_pair = (i, j)
        assert best_pair is not None
        i, j = best_pair
        merges.append((min(members[i]), min(members[j]), float(best_cost)))
        ni, nj = sizes[i], sizes[j]
        for k in active:
            if k in (i, j):
                continue
            if linkage == "average":
                updated = (ni * dist[k, i] + nj * dist[k, j]) / (ni + nj)
            elif linkage == "complete":
                updated = max(dist[k, i], dist[k, j])
            else:  # ward on squared distances
                nk = sizes[k]
                updated = (
                    (ni + nk) * dist[k, i]
                    + (nj + nk) * dist[k, j]
                    - nk * dist[i, j]
                ) / (ni + nj + nk)
            dist[i, k] = dist[k, i] = updated
        dist[j, :] = np.inf
        dist[:, j] = np.inf
        sizes[i] = ni + nj
        members[i].extend(members[j])
        del sizes[j], members[j]
        active.remove(j)

    ordered = sorted(active, key=lambda c: min(members[c]))
    labels = np.empty(n, dtype=np.int64)
    for label, cluster in enumerate(ordered):
        for row in members[cluster]:
            labels[row] = label
    return labels, merges


_LINKAGE_METRICS = [
    ("average", "euclidean"), ("average", "cosine"),
    ("complete", "euclidean"), ("complete", "cosine"),
    ("ward", "euclidean"),
]


def _oracle_inputs(rng):
    """Seeded inputs: gaussian rows, and small integer grids whose
    duplicate points and equal distances make many exact cost ties."""
    for _ in range(8):
        n = int(rng.integers(2, 30))
        yield rng.normal(size=(n, int(rng.integers(1, 6))))
        grid = rng.integers(1, 4, size=(n, int(rng.integers(1, 4))))
        yield grid.astype(np.float64)


@pytest.mark.parametrize("linkage,metric", _LINKAGE_METRICS)
def test_agglomerative_equals_reference_loop(linkage, metric):
    rng = np.random.default_rng(31)
    for X in _oracle_inputs(rng):
        reference = _reference_distances(X, linkage, metric)
        np.fill_diagonal(reference, np.inf)
        assert np.array_equal(_initial_distances(X, linkage, metric), reference)
        n_clusters = int(rng.integers(1, X.shape[0] + 1))
        labels, merges = agglomerative(X, n_clusters, linkage, metric)
        ref_labels, ref_merges = _reference_agglomerative(
            X, n_clusters, linkage, metric
        )
        assert labels.dtype == np.int64
        assert np.array_equal(labels, ref_labels)
        assert merges == ref_merges


@pytest.mark.parametrize("linkage,metric", _LINKAGE_METRICS)
def test_cut_of_one_history_equals_fresh_runs(linkage, metric):
    rng = np.random.default_rng(32)
    for X in _oracle_inputs(rng):
        n = X.shape[0]
        _, merges = agglomerative(X, 1, linkage, metric)
        for k in sorted({1, 2, n // 3 + 1, n // 2 + 1, n}):
            labels, fresh = agglomerative(X, k, linkage, metric)
            assert merges[:n - k] == fresh
            assert np.array_equal(_cut(merges, n, k), labels)


# The merge loop that scanned the whole matrix for each merge, kept verbatim.
def _full_scan_agglomerative(X, n_clusters, linkage="average", metric="euclidean"):
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    dist = _initial_distances(X, linkage, metric)
    sizes = np.ones(n, dtype=np.int64)
    merges: list[tuple[int, int, float]] = []
    for _ in range(n - n_clusters):
        i, j = divmod(int(np.argmin(dist)), n)
        cost = dist[i, j]
        if not np.isfinite(cost):
            raise ComputationError(f"non-finite linkage distance {cost}")
        ni, nj = sizes[i], sizes[j]
        if linkage == "average":
            row = (ni * dist[i] + nj * dist[j]) / (ni + nj)
        elif linkage == "complete":
            row = np.maximum(dist[i], dist[j])
        else:  # ward on squared distances
            row = (
                (ni + sizes) * dist[i] + (nj + sizes) * dist[j] - sizes * cost
            ) / (ni + nj + sizes)
        row[i] = np.inf
        dist[i] = row
        dist[:, i] = row
        dist[j] = np.inf
        dist[:, j] = np.inf
        sizes[i] = ni + nj
        merges.append((i, j, float(cost)))
    return _cut(merges, n, n_clusters), merges


@pytest.mark.parametrize("linkage,metric", _LINKAGE_METRICS)
def test_cached_row_minima_merge_as_the_full_scan(linkage, metric):
    rng = np.random.default_rng(33)
    for trial in range(6):
        n = int(rng.integers(20, 301))
        if trial % 3 == 0:
            X = rng.normal(size=(n, int(rng.integers(1, 8))))
        elif trial % 3 == 1:  # integer grid: exact cost ties everywhere
            X = rng.integers(1, 5, size=(n, int(rng.integers(1, 4)))).astype(float)
        else:  # a few distinct rows, each repeated: zero-cost merges
            X = rng.normal(size=(6, 3))[rng.integers(0, 6, size=n)] + 2.0
        n_clusters = int(rng.integers(1, n // 4 + 2))
        labels, merges = agglomerative(X, n_clusters, linkage, metric)
        want_labels, want_merges = _full_scan_agglomerative(
            X, n_clusters, linkage, metric
        )
        assert np.array_equal(labels, want_labels)
        assert merges == want_merges


def test_agglomerative_ties_merge_smallest_pair_first():
    # four copies of one point: every pair costs 0, so the merges chain
    # into slot 0 in index order; the far point joins last
    X = np.array([[0.0], [5.0], [0.0], [0.0], [0.0]])
    _, merges = agglomerative(X, 1, linkage="complete")
    assert [(i, j) for i, j, _ in merges] == [(0, 2), (0, 3), (0, 4), (0, 1)]
    labels, _ = agglomerative(X, 2, linkage="complete")
    assert labels.tolist() == [0, 1, 0, 0, 0]


def test_agglomerative_rejects_non_finite_distances():
    X = np.array([[0.0, 1.0], [np.nan, 1.0], [2.0, 2.0]])
    with pytest.raises(ComputationError):
        agglomerative(X, 1)


@pytest.mark.parametrize("X", [
    [[0.0, 1.0], [np.nan, 1.0], [2.0, 2.0]],
    [[0.0, 1.0], [np.inf, 1.0], [2.0, 2.0]],
    # finite rows whose squared distances overflow: the last merge costs inf
    [[0.0], [1.0], [1e200]],
])
def test_agglomerative_fails_where_the_full_scan_fails(X):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ComputationError) as got:
            agglomerative(np.array(X), 1, linkage="ward")
        with pytest.raises(ComputationError) as want:
            _full_scan_agglomerative(np.array(X), 1, linkage="ward")
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# Spectral


def test_knn_affinity_symmetric_nonnegative():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(25, 4))
    W = knn_affinity(X, 5)
    assert np.array_equal(W, W.T)
    assert np.all(W >= 0)
    assert np.all(np.diag(W) == 0)
    assert np.all((W > 0).sum(axis=1) >= 5)


# The per-row-lexsort kNN graph and the Laplacian expression that
# ``knn_affinity`` and ``_normalized_laplacian`` replaced, kept verbatim.
def _reference_knn_affinity(X, n_neighbors):
    unit = _unit_rows(X)
    n = unit.shape[0]
    sims = np.clip(unit @ unit.T, 0.0, None)
    np.fill_diagonal(sims, 0.0)
    directed = np.zeros_like(sims)
    for i in range(n):
        order = np.lexsort((np.arange(n), -sims[i]))
        keep = order[:n_neighbors]
        directed[i, keep] = sims[i, keep]
    return np.maximum(directed, directed.T)


def _reference_laplacian(W):
    degrees = W.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    laplacian = np.eye(W.shape[0]) - (inv_sqrt[:, None] * W) * inv_sqrt[None, :]
    return (laplacian + laplacian.T) / 2.0


def _knn_points(rng, n, d, kind):
    if kind == 0:
        X = rng.normal(size=(n, d))
    elif kind == 1:  # integer grid: many equal similarities
        X = rng.integers(-1, 3, size=(n, d)).astype(np.float64)
        X[np.linalg.norm(X, axis=1) == 0.0, 0] = 1.0
    elif kind == 2:  # duplicate rows
        X = rng.normal(size=(6, d))[rng.integers(0, 6, size=n)]
    else:  # nonnegative and orthogonal rows: fewer than k positive sims
        X = np.zeros((n, d))
        X[np.arange(n), rng.integers(0, d, size=n)] = rng.integers(1, 3, size=n)
    return X


def _knn_inputs(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(5, 300)), int(rng.integers(2, 8))
    X = _knn_points(rng, n, d, seed % 4)
    return X, int(rng.integers(1, n))


# n at the edges of knn_affinity's 256-row blocks, on the tie-heavy kinds
# (integer grid, duplicate rows), with the smallest and largest k
_KNN_BLOCK_CASES = [
    pytest.param((kind, n, k), id=f"kind{kind}-n{n}-k{k}")
    for kind in (1, 2) for n in (256, 257, 513) for k in (1, n - 1)
]


@pytest.mark.parametrize("case", [*range(24), *_KNN_BLOCK_CASES])
def test_knn_affinity_and_laplacian_equal_reference(case):
    if isinstance(case, int):
        X, k = _knn_inputs(case)
    else:
        kind, n, k = case
        X = _knn_points(np.random.default_rng(n), n, 4, kind)
    W = knn_affinity(X, k)
    want = _reference_knn_affinity(X, k)
    assert np.array_equal(W, want)
    assert not np.signbit(W).any()
    if np.all(want.sum(axis=1) > 0.0):
        L = _normalized_laplacian(W)
        assert np.array_equal(L, _reference_laplacian(want))
        assert np.array_equal(np.signbit(L), np.signbit(_reference_laplacian(want)))


@pytest.mark.parametrize("drop_first", [True, False])
def test_spectral_embedding_equals_reference(drop_first):
    rng = np.random.default_rng(24)
    X, _ = _blobs(rng, [[8, 1, 1], [1, 8, 1], [1, 1, 8]], per=20, scale=1.0)
    _, eigvecs = np.linalg.eigh(_reference_laplacian(_reference_knn_affinity(X, 7)))
    start = 1 if drop_first else 0
    want = eigvecs[:, start:start + 4].copy()
    for i in range(want.shape[1]):
        j = int(np.argmax(np.abs(want[:, i])))
        if want[j, i] < 0:
            want[:, i] = -want[:, i]
    assert np.array_equal(spectral_embedding(X, 4, 7, drop_first), want)


@pytest.mark.parametrize("kernel", [knn_affinity, spectral_embedding])
def test_spectral_kernels_trace_under_one_point_six_matrices(kernel):
    n = 600
    rng = np.random.default_rng(25)
    X, _ = _blobs(rng, [[8, 1, 1], [1, 8, 1], [1, 1, 8]], per=n // 3)
    tracemalloc.start()
    try:
        kernel(X, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * n * n * 8


def _disconnected_laplacian():
    """The normalized Laplacian of a kNN graph with three components."""
    rng = np.random.default_rng(27)
    X, _ = _blobs(rng, [[8, 1, 1], [1, 8, 1], [1, 1, 8]], per=20)
    L = _normalized_laplacian(knn_affinity(X, 5))
    assert np.count_nonzero(np.abs(np.linalg.eigvalsh(L)) < 1e-12) == 3
    return L


def _symmetric(n):
    a = np.random.default_rng(n).normal(size=(n, n))
    return a + a.T


_EIGH_CASES = [
    *(pytest.param(functools.partial(_symmetric, n), id=f"n{n}")
      # 3: the first n with a reflector; 26 and 27: either side of the
      # 25 rows below which dstedc hands the tridiagonal to dsteqr
      for n in (1, 2, 3, 7, 26, 27, 300)),
    pytest.param(_disconnected_laplacian, id="disconnected-knn-laplacian"),
]


@pytest.mark.parametrize("make", _EIGH_CASES)
def test_eigh_in_place_equals_numpy_eigh_in_the_input_buffer(make):
    a = make()
    want_values, want_vectors = np.linalg.eigh(a)
    values, vectors = _eigh_in_place(a)
    assert np.array_equal(values, want_values)
    assert np.array_equal(vectors, want_vectors)
    # the point of the helper: no second n x n array
    assert np.shares_memory(vectors, a)


def test_eigh_in_place_agrees_with_numpy_eigh_on_nan():
    a = _symmetric(7)
    a[2, 4] = a[4, 2] = np.nan
    try:
        want = np.linalg.eigh(a.copy())
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            _eigh_in_place(a)
    else:
        got = _eigh_in_place(a)
        assert np.isnan(want[1]).any()
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)


@pytest.mark.parametrize("make", _EIGH_CASES)
def test_eigh_in_place_without_lapack_symbols_falls_back_to_the_gufunc(
    make, monkeypatch
):
    monkeypatch.setattr(cluster_module, "_lapack", lambda: None)
    a = make()
    want_values, want_vectors = np.linalg.eigh(a)
    values, vectors = _eigh_in_place(a)
    assert np.array_equal(values, want_values)
    assert np.array_equal(vectors, want_vectors)
    assert np.shares_memory(vectors, a)


def _lapack_or_skip():
    lapack = cluster_module._lapack()
    if lapack is None:
        pytest.skip("numpy's LAPACK exports no dsytrd, dstedc and dormtr "
                    "this module can call")
    return lapack


_ROUTINES = list(cluster_module._LAPACK_SIGNATURES)


@pytest.mark.parametrize("failing", _ROUTINES,
                         ids=["workspace-query", "dsytrd", "dstedc", "dormtr"])
def test_eigh_in_place_raises_on_nonzero_info(failing, monkeypatch):
    lapack, calls = _lapack_or_skip(), []

    def traced(name):
        def call(*args):
            lapack[name](*args)
            calls.append(name)
            if name == failing:
                args[-1]._obj.value = 1  # INFO, passed by reference
        return call

    monkeypatch.setattr(cluster_module, "_lapack",
                        lambda: {name: traced(name) for name in lapack})
    with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
        _eigh_in_place(_symmetric(7))
    assert calls == _ROUTINES[:_ROUTINES.index(failing) + 1]


def _largest_entry(top):
    """A symmetric matrix whose largest |entry| is exactly ``top``."""
    a = _symmetric(6)
    a *= 0.5 * top / np.abs(a).max()
    a[0, 0] = top
    return a


@pytest.mark.parametrize("top", [
    np.nextafter(cluster_module._UNSCALED_MIN, 0.0), 1e-200,
    np.nextafter(cluster_module._UNSCALED_MAX, np.inf), 1e200, np.inf,
], ids=["just-below-min", "tiny", "just-above-max", "huge", "inf"])
def test_eigh_in_place_refuses_a_matrix_lapack_would_rescale(top, monkeypatch):
    monkeypatch.setattr(cluster_module, "_lapack",
                        lambda: pytest.fail("LAPACK was looked up"))
    for a in (_largest_entry(top), -_largest_entry(top)):
        with pytest.raises(ValueError, match="rescale"):
            _eigh_in_place(a)


@pytest.mark.parametrize("a", [
    _largest_entry(cluster_module._UNSCALED_MIN),
    _largest_entry(cluster_module._UNSCALED_MAX),
    np.zeros((6, 6)), np.array([[1e-200]]),
], ids=["min", "max", "zero", "n1-tiny"])
def test_eigh_in_place_takes_what_lapack_does_not_rescale(a):
    want_values, want_vectors = np.linalg.eigh(a)
    values, vectors = _eigh_in_place(a)
    assert np.array_equal(values, want_values)
    assert np.array_equal(vectors, want_vectors)


@pytest.mark.parametrize("a", [
    np.eye(3, dtype=np.float32), np.eye(4)[:, :3], np.asfortranarray(_symmetric(3)),
    _symmetric(4)[::2, ::2],
], ids=["float32", "not-square", "fortran-order", "strided"])
def test_eigh_in_place_refuses_what_lapack_cannot_take_in_place(a):
    with pytest.raises(ValueError, match="C-contiguous"):
        _eigh_in_place(a)


_EIGH_RSS_PROBE = """
import os, resource, sys
import numpy as np
from companysim.cluster import _eigh_in_place
n = int(sys.argv[1])
warm = np.random.default_rng(1).normal(size=(400, 400))
_eigh_in_place(warm + warm.T)  # OpenBLAS's own buffers, touched once
a = np.random.default_rng(0).normal(size=(n, n))
a += a.T
with open("/proc/self/statm") as f:
    before = int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
_eigh_in_place(a)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
print((peak - before) / (8 * n * n))
"""


@pytest.fixture(scope="module")
def eigh_rss_rise():
    """The rise in peak RSS over one n = 1,500 solve, in n^2 doubles."""
    _lapack_or_skip()
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("needs /proc/self/statm")
    src = str(Path(cluster_module.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", _EIGH_RSS_PROBE, "1500"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return float(done.stdout)


def test_eigh_in_place_raises_peak_rss_by_its_workspace_alone(eigh_rss_rise):
    """No private copy of the matrix, which would make the rise about
    3 n^2 doubles."""
    assert eigh_rss_rise <= 2.5


def test_eigh_in_place_needs_less_than_dsyevds_workspace(eigh_rss_rise):
    """dstedc's n^2 workspace and the ½n^2 packed reflectors, where one
    dsyevd call, with its 2n^2 workspace, reads about 2.2 n^2 doubles."""
    assert eigh_rss_rise <= 1.9


def test_zero_row_raises_from_knn_affinity_and_cosine_linkage():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ZeroVectorError, match=r"\[2\]"):
        knn_affinity(X, 2)
    with pytest.raises(ZeroVectorError, match=r"\[2\]"):
        agglomerative(X, 2, metric="cosine")


@pytest.mark.parametrize("n_components", [0, -3])
def test_spectral_embedding_rejects_non_positive_components(n_components):
    X = np.random.default_rng(21).normal(size=(12, 4)) + 3.0
    with pytest.raises(ConfigError, match=f"got {n_components}"):
        spectral_embedding(X, n_components, n_neighbors=4)


def test_spectral_embedding_checks_the_component_count_before_eigh(monkeypatch):
    def no_eigh(*args, **kwargs):
        pytest.fail("eigh ran for a component count that cannot be taken")

    monkeypatch.setattr(cluster_module, "_eigh_in_place", no_eigh)
    X = np.random.default_rng(21).normal(size=(12, 4)) + 3.0
    for n_components, drop_first in ((12, True), (13, False), (50, True)):
        with pytest.raises(RankDeficiencyError, match=(
                f"cannot take {n_components} spectral components from 12 points")):
            spectral_embedding(X, n_components, 4, drop_first)
    # the affinity's own input errors come first
    with pytest.raises(ConfigError, match="n_neighbors"):
        spectral_embedding(X, 13, 12)
    X[3] = 0.0
    with pytest.raises(ZeroVectorError, match=r"\[3\]"):
        spectral_embedding(X, 13, 4)


def test_spectral_embedding_constant_first_eigenvector_dropped():
    rng = np.random.default_rng(22)
    X, _ = _blobs(rng, [[0, 0], [6, 6]], per=15)
    emb = spectral_embedding(X, 2, n_neighbors=8, drop_first=True)
    assert emb.shape == (30, 2)
    # kept eigenvectors are not the trivial constant direction
    assert emb[:, 0].std() > 1e-6


def test_spectral_cluster_recovers_blobs():
    rng = np.random.default_rng(23)
    # affinity is cosine-based, so centers must sit away from the origin
    X, truth = _blobs(rng, [[8, 1, 1], [1, 8, 1], [1, 1, 8]], per=20)
    labels = fit_clusters(X, "spectral", [3], seed=0, n_init=4, n_neighbors=12)[3][0]
    assert cluster_quality(truth, labels.tolist()).v_measure == 1.0


@pytest.mark.parametrize("method, options", [
    ("kmeans", {"seed": 4, "n_init": 3}),
    ("agglomerative", {"linkage": "complete", "metric": "cosine"}),
    ("agglomerative", {"linkage": "ward"}),
    ("spectral", {"seed": 2, "n_init": 2, "n_neighbors": 6}),
])
def test_fit_clusters_counts_in_one_call_equal_each_count_alone(method, options):
    rng = np.random.default_rng(26)
    X, _ = _blobs(rng, [[8.0, 1.0, 1.0], [1.0, 8.0, 1.0], [1.0, 1.0, 8.0]],
                  per=8, scale=2.0)
    counts = [5, 2, 24, 9]
    fits = fit_clusters(X, method, counts, **options)
    assert sorted(fits) == sorted(counts)
    for k in counts:
        labels, facts = fit_clusters(X, method, [k], **options)[k]
        assert np.array_equal(fits[k][0], labels)
        assert fits[k][1] == facts
        assert sorted(np.unique(labels).tolist()) == list(range(k))


def test_fit_clusters_facts_are_the_library_results():
    rng = np.random.default_rng(27)
    X, _ = _blobs(rng, [[8.0, 1.0], [1.0, 8.0]], per=6)
    fit = kmeans(X, 3, seed=5, n_init=2)
    assert fit_clusters(X, "kmeans", [3], seed=5, n_init=2)[3][1] == {
        "inertia": fit.inertia, "n_iter": fit.n_iter}
    _, merges = agglomerative(X, 3, "ward")
    facts = fit_clusters(X, "agglomerative", [3, 12], linkage="ward")
    assert facts[3][1] == {"linkage": "ward", "metric": "euclidean",
                           "last_merge_cost": merges[-1][2]}
    assert facts[12][1]["last_merge_cost"] is None  # no merge at k == n
    assert fit_clusters(X, "spectral", [2], n_neighbors=4)[2][1]["n_neighbors"] == 4
    with pytest.raises(ConfigError, match="got 13"):
        fit_clusters(X, "agglomerative", [3, 13])
    with pytest.raises(ConfigError, match="unknown cluster method 'random'"):
        fit_clusters(X, "random", [3])


# ---------------------------------------------------------------------------
# Quality scores


def test_cluster_quality_perfect_and_degenerate():
    q = cluster_quality(["a", "a", "b", "b"], [1, 1, 0, 0])
    assert (q.homogeneity, q.completeness, q.v_measure) == (1.0, 1.0, 1.0)
    # single predicted cluster: completeness 1 by convention
    q = cluster_quality(["a", "a", "b", "b"], [0, 0, 0, 0])
    assert q.completeness == 1.0
    assert q.homogeneity == 0.0
    assert q.v_measure == 0.0
    # single true class: homogeneity 1 by convention
    q = cluster_quality(["a", "a", "a"], [0, 1, 2])
    assert q.homogeneity == 1.0
    assert q.completeness == 0.0


def test_cluster_quality_harmonic_identity():
    rng = np.random.default_rng(24)
    for _ in range(25):
        n = int(rng.integers(3, 40))
        truth = rng.integers(0, 4, size=n).tolist()
        pred = rng.integers(0, 5, size=n).tolist()
        q = cluster_quality(truth, pred)
        if q.homogeneity + q.completeness > 0:
            expected = 2 * q.homogeneity * q.completeness / (
                q.homogeneity + q.completeness
            )
            assert q.v_measure == expected


def test_cluster_quality_natural_log_entropy_value():
    # H(true) = ln 2 with a fully uninformative 2-cluster split keeps
    # homogeneity strictly between 0 and 1; hand value for a known table.
    truth = ["a", "a", "b", "b"]
    pred = [0, 1, 0, 1]
    q = cluster_quality(truth, pred)
    assert q.homogeneity == 0.0
    assert q.completeness == 0.0


# ---------------------------------------------------------------------------
# Assignments


def test_random_assignment_deterministic_and_in_range():
    ids = [f"c{i}" for i in range(40)]
    a = random_cluster_assignment(ids, 7, seed=5)
    b = random_cluster_assignment(ids, 7, seed=5)
    assert np.array_equal(a.labels, b.labels)
    assert a.labels.min() >= 0 and a.labels.max() < 7


def test_assignment_validates_labels():
    with pytest.raises(ValueError):
        ClusterAssignment(["a", "b"], np.array([0, 5]), 2, "m")
    with pytest.raises(ValueError):
        ClusterAssignment(["a"], np.array([0, 1]), 2, "m")


def test_load_assignment_rejects_a_repeated_company(tmp_path):
    path = tmp_path / "clusters.csv"
    path.write_text("company_id,cluster\na,0\nb,1\nc,1\nb,0\n")
    with pytest.raises(DataValidationError,
                       match="line 5: duplicate company id 'b' \\(first seen on line 3\\)"):
        load_assignment(path)
    path.write_text("company_id,cluster\na,0\nb,1\nc,1\n")
    loaded = load_assignment(path)
    assert loaded.ids == ["a", "b", "c"]
    assert loaded.labels.tolist() == [0, 1, 1]


def test_saved_assignment_reads_back_whatever_its_ids_hold(tmp_path):
    ids = ["cr\rhere", "lf\nhere", "a,b", 'say "hi"', "", "plain"]
    assignment = ClusterAssignment(ids, np.array([0, 1, 2, 0, 1, 2]), 3, "m")
    path = tmp_path / "clusters.csv"
    save_assignment(assignment, path)
    assert path.read_bytes().startswith(b'company_id,cluster\n"cr\rhere",0\n')
    loaded = load_assignment(path)
    assert loaded.ids == ids
    assert loaded.labels.tolist() == [0, 1, 2, 0, 1, 2]


# ---------------------------------------------------------------------------
# Sweep


def test_cluster_sweep_grid_and_skips():
    rng = np.random.default_rng(11)
    X, labels = _blobs(rng, [[8.0, 1.0, 1.0, 1.0], [1.0, 8.0, 1.0, 1.0],
                             [1.0, 1.0, 8.0, 1.0]], per=10)
    rows = cluster_sweep(
        X, labels,
        methods=("kmeans", "agglomerative"),
        cluster_counts=(3, 5, 100),
        reduced_dims=(2, 3, 50),
    )
    # 100 clusters > 30 points and 50 dims > 4 features are skipped
    assert {(r["method"], r["n_clusters"], r["reduced_dim"]) for r in rows} == {
        (m, k, r)
        for m in ("kmeans", "agglomerative")
        for k in (3, 5)
        for r in (2, 3)
    }
    for row in rows:
        assert 0.0 <= row["v_measure"] <= 1.0
    # well-separated blobs at the true count should agree almost perfectly
    best = [r for r in rows if r["method"] == "kmeans" and r["n_clusters"] == 3]
    assert all(r["v_measure"] > 0.95 for r in best)


def test_cluster_sweep_agglomerative_rows_equal_per_count_runs():
    rng = np.random.default_rng(12)
    X, labels = _blobs(rng, [[8.0, 1.0, 1.0, 1.0], [1.0, 8.0, 1.0, 1.0],
                             [1.0, 1.0, 8.0, 1.0]], per=10, scale=2.0)
    counts = (25, 3, 7, 100, 12)
    rows = cluster_sweep(X, labels, methods=("agglomerative",),
                         cluster_counts=counts, reduced_dims=(2, 3))
    expected = []
    for r in (2, 3):
        reduced, _, _ = pca(X, r)
        for count in counts[:3] + counts[4:]:
            fresh, _ = agglomerative(reduced, count)
            q = cluster_quality(labels, fresh.tolist())
            expected.append(("agglomerative", count, r, q.homogeneity,
                             q.completeness, q.v_measure))
    assert [
        (row["method"], row["n_clusters"], row["reduced_dim"],
         row["homogeneity"], row["completeness"], row["v_measure"])
        for row in rows
    ] == expected


def test_cluster_sweep_spectral_rows_equal_per_count_runs():
    rng = np.random.default_rng(13)
    X, labels = _blobs(rng, [[8.0, 1.0, 1.0, 1.0], [1.0, 8.0, 1.0, 1.0],
                             [1.0, 1.0, 8.0, 1.0]], per=10, scale=2.0)
    counts = (12, 3, 100, 7)
    rows = cluster_sweep(X, labels, methods=("spectral",),
                         cluster_counts=counts, reduced_dims=(2, 3),
                         n_neighbors=6)
    expected = []
    for r in (2, 3):
        reduced, _, _ = pca(X, r)
        for count in (12, 3, 7):
            fresh = fit_clusters(reduced, "spectral", [count], n_neighbors=6)[count][0]
            q = cluster_quality(labels, fresh.tolist())
            expected.append(("spectral", count, r, q.homogeneity,
                             q.completeness, q.v_measure))
    assert [
        (row["method"], row["n_clusters"], row["reduced_dim"],
         row["homogeneity"], row["completeness"], row["v_measure"])
        for row in rows
    ] == expected


def _sweep_inputs(monkeypatch, X, reduced_dims):
    """(reduced dims of the rows, k-means inputs, pca calls) of a kmeans
    sweep; there is one k-means input per dimension."""
    import companysim.cluster as cluster_module

    seen, pca_calls = [], []
    real_kmeans, real_pca = cluster_module._kmeans_counts, cluster_module.pca
    monkeypatch.setattr(cluster_module, "_kmeans_counts",
                        lambda Z, *a, **k: seen.append(Z) or real_kmeans(Z, *a, **k))
    monkeypatch.setattr(cluster_module, "pca",
                        lambda Z, r: pca_calls.append(r) or real_pca(Z, r))
    rows = cluster_sweep(X, [i % 3 for i in range(len(X))], methods=("kmeans",),
                         cluster_counts=(3,), reduced_dims=reduced_dims)
    dims = [row["reduced_dim"] for row in rows]
    assert len(seen) == len(dims)
    return dims, seen, pca_calls


def test_cluster_sweep_runs_one_pca_and_slices_each_dimension(monkeypatch):
    X = np.random.default_rng(14).normal(size=(30, 6))
    expected = {r: pca(X, r)[0] for r in range(1, 7)}
    dims, seen, pca_calls = _sweep_inputs(monkeypatch, X, (2, 4, 1, 7, 3, 5))
    assert pca_calls == [5]  # 7 is above the feature count
    assert dims == [2, 4, 1, 3, 5]
    for Z, r in zip(seen, dims):
        assert Z.flags.c_contiguous
        assert np.array_equal(Z, expected[r])
    import companysim.cluster as cluster_module

    calls = []
    for name in ("pca", "_kmeans_counts"):
        monkeypatch.setattr(cluster_module, name,
                            lambda *a, name=name, **k: calls.append(name))
    with pytest.raises(ConfigError, match="n_components must be >= 1, got 0"):
        cluster_sweep(X, [i % 3 for i in range(30)], reduced_dims=(2, 0))
    assert calls == []  # no fit at 2 before 0 is rejected


def test_cluster_sweep_skips_dimensions_above_the_rank(monkeypatch):
    rng = np.random.default_rng(14)
    X = rng.normal(size=(30, 3)) @ rng.normal(size=(3, 6)) + 5.0  # rank 3
    expected = {r: pca(X, r)[0] for r in (1, 2, 3)}
    dims, seen, _ = _sweep_inputs(monkeypatch, X, (2, 4, 1, 7, 3, 5))
    assert dims == [2, 1, 3]
    for Z, r in zip(seen, dims):
        assert np.array_equal(Z, expected[r])


def test_cluster_sweep_skips_spectral_without_enough_neighbours():
    # 14 rows cannot give each point the default 15 neighbours
    X = np.random.default_rng(15).normal(size=(14, 8))
    rows = cluster_sweep(X, ["a", "b"] * 7)
    assert {row["method"] for row in rows} == {"kmeans", "agglomerative"}
    dims = {row["reduced_dim"] for row in rows}
    # 14 neighbours need 15 points; 13 fit
    for n_neighbors, spectral_dims in ((14, set()), (13, dims)):
        rows = cluster_sweep(X, ["a", "b"] * 7, n_neighbors=n_neighbors)
        assert {row["reduced_dim"] for row in rows
                if row["method"] == "spectral"} == spectral_dims


@pytest.mark.parametrize("counts", [(50,), (3,)])
def test_cluster_sweep_rejects_an_unknown_method_before_any_fit(monkeypatch, counts):
    import companysim.cluster as cluster_module

    calls = []
    for name in ("pca", "_kmeans_counts"):
        monkeypatch.setattr(cluster_module, name,
                            lambda *a, name=name, **k: calls.append(name))
    X = np.random.default_rng(16).normal(size=(30, 4))
    with pytest.raises(ConfigError, match="unknown sweep method 'bogus'"):
        cluster_sweep(X, [i % 3 for i in range(30)],
                      methods=("kmeans", "bogus"), cluster_counts=counts)
    assert calls == []


def test_cluster_sweep_validates_alignment():
    with pytest.raises(ValueError):
        cluster_sweep(np.ones((4, 3)), ["a", "b"])


def test_save_sweep_csv_layout(tmp_path):
    rows = [{
        "method": "kmeans", "n_clusters": 3, "reduced_dim": 2,
        "homogeneity": 1.0, "completeness": 0.5, "v_measure": 2 / 3,
        "seed": 4,
    }]
    out = tmp_path / "sweep.csv"
    save_sweep_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "method,n_clusters,reduced_dim,homogeneity,completeness,v_measure,seed"
    assert lines[1] == "kmeans,3,2,1.00000000,0.50000000,0.66666667,4"
