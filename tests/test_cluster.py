import itertools

import numpy as np
import pytest

from companysim.cluster import (
    ClusterAssignment,
    _cut,
    _initial_distances,
    agglomerative,
    cluster_quality,
    cluster_sweep,
    kmeans,
    knn_affinity,
    load_assignment,
    pca,
    random_cluster_assignment,
    reduce_dims,
    save_sweep_csv,
    spectral_cluster,
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


def test_zero_row_raises_from_knn_affinity_and_cosine_linkage():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ZeroVectorError, match=r"\[2\]"):
        knn_affinity(X, 2)
    with pytest.raises(ZeroVectorError, match=r"\[2\]"):
        agglomerative(X, 2, metric="cosine")


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
    result = spectral_cluster(X, 3, n_neighbors=12, seed=0, n_init=4)
    assert cluster_quality(truth, result.labels.tolist()).v_measure == 1.0


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
