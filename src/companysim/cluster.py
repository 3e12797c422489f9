"""Unsupervised structure discovery on embedding matrices: dimensionality
reduction (PCA, Laplacian-eigenmap style spectral embedding), k-means,
agglomerative merging, spectral clustering, and label-agreement scores.

Everything here is deterministic given the seed: initializations use
``np.random.default_rng`` and every tie (equal distances, equal merge costs)
breaks toward the smallest index.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ComputationError,
    ConfigError,
    DataValidationError,
    RankDeficiencyError,
    ZeroVectorError,
)

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Dimensionality reduction


def pca(X: np.ndarray, n_components: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centered SVD principal components.

    Returns (scores, components, explained_variance_ratio). Component signs
    are fixed so the largest-magnitude loading of each component is
    positive, which makes results reproducible across BLAS builds.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-d, got shape {X.shape}")
    n, d = X.shape
    if n_components < 1:
        raise ConfigError(f"n_components must be >= 1, got {n_components}")
    centered = X - X.mean(axis=0)
    U, S, Vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(S > (S[0] * 1e-12 if S.size and S[0] > 0 else 0.0)))
    if n_components > rank:
        raise RankDeficiencyError(
            f"requested {n_components} components but centered data has rank {rank}"
        )
    for i in range(n_components):
        j = int(np.argmax(np.abs(Vt[i])))
        if Vt[i, j] < 0:
            Vt[i] = -Vt[i]
            U[:, i] = -U[:, i]
    scores = U[:, :n_components] * S[:n_components]
    variance = S**2
    total = float(variance.sum())
    ratio = variance[:n_components] / total if total > 0 else variance[:n_components]
    return scores, Vt[:n_components], ratio


def _unit_rows(X: np.ndarray, ids: Sequence[str] | None = None) -> np.ndarray:
    """Rows scaled to unit euclidean norm, as float64. A zero row raises
    ``ZeroVectorError`` naming its id, or its row index when ``ids`` is
    None."""
    X = np.asarray(X, dtype=np.float64)
    norms = np.linalg.norm(X, axis=1)
    zero = np.flatnonzero(norms == 0.0)[:5].tolist()
    if zero:
        names = zero if ids is None else [ids[i] for i in zero]
        raise ZeroVectorError(f"zero rows {names}")
    return X / norms[:, None]


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared euclidean distances between the rows of A and of B, as
    ``|a|^2 - 2 a.b + |b|^2`` clipped at zero, computed in place on the
    product ``A @ B.T``."""
    dist2 = A @ B.T
    dist2 *= 2.0
    np.subtract(np.sum(A**2, axis=1)[:, None], dist2, out=dist2)
    dist2 += np.sum(B**2, axis=1)[None, :]
    return np.clip(dist2, 0.0, None, out=dist2)


def knn_affinity(X: np.ndarray, n_neighbors: int) -> np.ndarray:
    """Symmetric k-nearest-neighbor affinity from cosine similarity.

    Negative similarities are clipped to zero; the directed kNN graph is
    symmetrized with an elementwise max so the matrix stays an affinity.
    """
    unit = _unit_rows(X)
    n = unit.shape[0]
    if not 1 <= n_neighbors < n:
        raise ConfigError(
            f"n_neighbors must be in [1, {n - 1}], got {n_neighbors}"
        )
    sims = np.clip(unit @ unit.T, 0.0, None)
    np.fill_diagonal(sims, 0.0)
    directed = np.zeros_like(sims)
    for i in range(n):
        order = np.lexsort((np.arange(n), -sims[i]))
        keep = order[:n_neighbors]
        directed[i, keep] = sims[i, keep]
    return np.maximum(directed, directed.T)


def spectral_embedding(
    X: np.ndarray,
    n_components: int,
    n_neighbors: int = 15,
    drop_first: bool = True,
) -> np.ndarray:
    """Eigenvectors of the symmetric normalized Laplacian of the kNN graph,
    smallest eigenvalues first. ``drop_first`` skips the near-constant
    leading eigenvector, which is the usual choice when the embedding is a
    feature map rather than a clustering input.
    """
    W = knn_affinity(X, n_neighbors)
    degrees = W.sum(axis=1)
    if np.any(degrees == 0.0):
        isolated = np.flatnonzero(degrees == 0.0)[:5].tolist()
        raise ComputationError(
            f"affinity graph has isolated rows {isolated}; "
            "increase n_neighbors or check for degenerate embeddings"
        )
    inv_sqrt = 1.0 / np.sqrt(degrees)
    laplacian = np.eye(W.shape[0]) - (inv_sqrt[:, None] * W) * inv_sqrt[None, :]
    laplacian = (laplacian + laplacian.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(laplacian)
    start = 1 if drop_first else 0
    if start + n_components > eigvecs.shape[1]:
        raise RankDeficiencyError(
            f"cannot take {n_components} spectral components from "
            f"{eigvecs.shape[1]} points"
        )
    block = eigvecs[:, start:start + n_components].copy()
    for i in range(block.shape[1]):
        j = int(np.argmax(np.abs(block[:, i])))
        if block[j, i] < 0:
            block[:, i] = -block[:, i]
    return block


def reduce_dims(
    X: np.ndarray,
    n_components: int,
    method: str = "pca",
    n_neighbors: int = 15,
) -> np.ndarray:
    """Project rows to ``n_components`` dimensions with 'pca' or 'spectral'."""
    if method == "pca":
        scores, _, _ = pca(X, n_components)
        return scores
    if method == "spectral":
        return spectral_embedding(X, n_components, n_neighbors, drop_first=True)
    raise ConfigError(f"unknown reduction method {method!r}")


# ---------------------------------------------------------------------------
# K-means


@dataclass
class KMeansResult:
    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    n_iter: int
    inertia_history: list[float]


def _kmeanspp_init(X: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((n_clusters, X.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = X[first]
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


def _lloyd(
    X: np.ndarray, centers: np.ndarray, max_iter: int
) -> tuple[np.ndarray, np.ndarray, float, int, list[float]]:
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


def kmeans(
    X: np.ndarray,
    n_clusters: int,
    seed: int = 0,
    n_init: int = 4,
    max_iter: int = 300,
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ starts; the best of ``n_init``
    seeded restarts (lowest inertia, ties to the earliest restart) wins."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"X must be a non-empty 2-d array, got shape {X.shape}")
    if not 1 <= n_clusters <= X.shape[0]:
        raise ConfigError(
            f"n_clusters must be in [1, {X.shape[0]}], got {n_clusters}"
        )
    if n_init < 1:
        raise ConfigError(f"n_init must be >= 1, got {n_init}")
    best: KMeansResult | None = None
    for attempt in range(n_init):
        rng = np.random.default_rng([seed, attempt])
        centers = _kmeanspp_init(X, n_clusters, rng)
        labels, centers, inertia, n_iter, history = _lloyd(X, centers, max_iter)
        if best is None or inertia < best.inertia:
            best = KMeansResult(labels, centers, inertia, n_iter, history)
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Agglomerative clustering (Lance-Williams updates, quadratic memory)


_LINKAGES = ("average", "complete", "ward")


def _initial_distances(X: np.ndarray, linkage: str, metric: str) -> np.ndarray:
    """Pairwise linkage distances (squared for ward) with +inf on the
    diagonal. The lower triangle is copied from the upper one in place, so
    the matrix is exactly symmetric."""
    if linkage == "ward" and metric != "euclidean":
        raise ConfigError("ward linkage requires the euclidean metric")
    if metric == "euclidean":
        dist = _sq_dists(X, X)
        if linkage != "ward":
            np.sqrt(dist, out=dist)
    elif metric == "cosine":
        # two distinct operands: BLAS's symmetric product (taken for U @ U.T)
        # can differ from the general one in the last bit
        dist = _unit_rows(X) @ _unit_rows(X).T
        np.subtract(1.0, dist, out=dist)
    else:
        raise ConfigError(f"unknown metric {metric!r}")
    for i in range(dist.shape[0]):
        dist[i + 1:, i] = dist[i, i + 1:]
    np.fill_diagonal(dist, np.inf)
    return dist


def _cut(merges: Sequence[tuple[int, int, float]], n: int, k: int) -> np.ndarray:
    """Labels of ``n`` rows after the first ``n - k`` merges, numbered by
    each cluster's smallest member."""
    slots = np.arange(n)
    for i, j, _ in merges[:n - k]:
        slots[slots == j] = i
    return np.unique(slots, return_inverse=True)[1]


def agglomerative(
    X: np.ndarray,
    n_clusters: int,
    linkage: str = "average",
    metric: str = "euclidean",
) -> tuple[np.ndarray, list[tuple[int, int, float]]]:
    """Bottom-up merging until ``n_clusters`` remain.

    Returns (labels, merges) where merges record, in order, the two merged
    clusters (named by their smallest original row index) and the merge
    cost. Ward costs are in the squared-distance domain. Labels are
    numbered by each final cluster's smallest member index.

    Each step merges the globally closest pair, the first minimum of the
    distance matrix in row-major order: cost ties break toward the
    smallest index pair, because the matrix is exactly symmetric (its
    lower triangle is a copy of the upper). A merged cluster keeps the
    matrix slot of its smallest member, which is therefore its name; the
    Lance-Williams update rewrites that slot's row and column, and the
    other slot's row and column become +inf. Memory is one n x n float64
    matrix, O(n^2); time is one O(n^2) scan per merge, O(n^3) in all.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if linkage not in _LINKAGES:
        raise ConfigError(f"linkage must be one of {_LINKAGES}, got {linkage!r}")
    if not 1 <= n_clusters <= n:
        raise ConfigError(f"n_clusters must be in [1, {n}], got {n_clusters}")
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


# ---------------------------------------------------------------------------
# Spectral clustering


def spectral_cluster(
    X: np.ndarray,
    n_clusters: int,
    n_neighbors: int = 15,
    seed: int = 0,
    n_init: int = 4,
) -> KMeansResult:
    """Normalized-cut style clustering: embed with the bottom ``n_clusters``
    Laplacian eigenvectors (including the trivial one), normalize rows to
    the unit sphere, and k-means the result."""
    rows = spectral_embedding(X, n_clusters, n_neighbors, drop_first=False)
    norms = np.linalg.norm(rows, axis=1)
    norms[norms == 0.0] = 1.0
    return kmeans(rows / norms[:, None], n_clusters, seed=seed, n_init=n_init)


# ---------------------------------------------------------------------------
# Agreement scores and assignments


@dataclass
class ClusterQuality:
    homogeneity: float
    completeness: float
    v_measure: float

    def to_dict(self) -> dict:
        return {
            "homogeneity": self.homogeneity,
            "completeness": self.completeness,
            "v_measure": self.v_measure,
        }


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    probs = counts[counts > 0] / total
    return float(-(probs * np.log(probs)).sum())


def cluster_quality(
    true_labels: Sequence, pred_labels: Sequence
) -> ClusterQuality:
    """Homogeneity/completeness/V-measure with natural-log entropies.

    A score whose reference entropy is zero (single true class, or single
    predicted cluster) is defined as 1.0; the V-measure is the harmonic
    mean 2hc/(h+c), or 0.0 when both terms are zero.
    """
    if len(true_labels) != len(pred_labels):
        raise ValueError("label sequences must align")
    if not len(true_labels):
        raise ValueError("cannot score empty labelings")
    true_ids = {label: i for i, label in enumerate(sorted(set(true_labels)))}
    pred_ids = {label: i for i, label in enumerate(sorted(set(pred_labels)))}
    table = np.zeros((len(true_ids), len(pred_ids)), dtype=np.float64)
    for t, p in zip(true_labels, pred_labels):
        table[true_ids[t], pred_ids[p]] += 1.0
    n = table.sum()
    h_true = _entropy(table.sum(axis=1))
    h_pred = _entropy(table.sum(axis=0))

    h_true_given_pred = 0.0
    for col in range(table.shape[1]):
        column = table[:, col]
        col_total = column.sum()
        if col_total > 0:
            h_true_given_pred += (col_total / n) * _entropy(column)
    h_pred_given_true = 0.0
    for row in range(table.shape[0]):
        row_vals = table[row]
        row_total = row_vals.sum()
        if row_total > 0:
            h_pred_given_true += (row_total / n) * _entropy(row_vals)

    homogeneity = 1.0 if h_true == 0.0 else 1.0 - h_true_given_pred / h_true
    completeness = 1.0 if h_pred == 0.0 else 1.0 - h_pred_given_true / h_pred
    if homogeneity + completeness == 0.0:
        v_measure = 0.0
    else:
        v_measure = (
            2.0 * homogeneity * completeness / (homogeneity + completeness)
        )
    return ClusterQuality(homogeneity, completeness, v_measure)


@dataclass
class ClusterAssignment:
    """Company ids with integer cluster labels plus method bookkeeping."""

    ids: list[str]
    labels: np.ndarray
    n_clusters: int
    method: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.ids) != self.labels.shape[0]:
            raise ValueError(
                f"{len(self.ids)} ids but {self.labels.shape[0]} labels"
            )
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.n_clusters
        ):
            raise ValueError("labels out of range for declared n_clusters")

    def as_mapping(self) -> dict[str, int]:
        return {i: int(l) for i, l in zip(self.ids, self.labels)}


def random_cluster_assignment(
    ids: Sequence[str], n_clusters: int, seed: int = 0
) -> ClusterAssignment:
    """Uniform random labels; the chance baseline for attribution scores."""
    if n_clusters < 1:
        raise ConfigError(f"n_clusters must be >= 1, got {n_clusters}")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_clusters, size=len(ids))
    return ClusterAssignment(
        ids=list(ids),
        labels=labels,
        n_clusters=n_clusters,
        method="random",
        meta={"seed": seed},
    )


DEFAULT_SWEEP_COUNTS = (11, 25, 66, 100)
DEFAULT_SWEEP_DIMS = (5, 10, 20)


def cluster_sweep(
    X: np.ndarray,
    reference_labels: Sequence,
    methods: Sequence[str] = ("kmeans", "agglomerative", "spectral"),
    cluster_counts: Sequence[int] = DEFAULT_SWEEP_COUNTS,
    reduced_dims: Sequence[int] = DEFAULT_SWEEP_DIMS,
    seed: int = 0,
    n_init: int = 4,
    n_neighbors: int = 15,
) -> list[dict]:
    """Agreement with reference labels across method x count x dimension.

    Cells that cannot run on this input (more clusters than points, more
    dimensions than the feature rank) are skipped rather than failed, so
    one sweep call works on any universe size.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != len(reference_labels):
        raise ValueError(
            f"{X.shape[0]} rows but {len(reference_labels)} reference labels"
        )
    rows: list[dict] = []
    for r in reduced_dims:
        if r > min(X.shape[0] - 1, X.shape[1]):
            continue
        try:
            reduced, _, _ = pca(X, r)
        except RankDeficiencyError:
            continue
        for method in methods:
            if method == "agglomerative":
                # one merge history, cut at each count
                valid = [count for count in cluster_counts if count <= X.shape[0]]
                if valid:
                    _, merges = agglomerative(reduced, min(valid))
            for count in cluster_counts:
                if count > X.shape[0]:
                    continue
                if method == "kmeans":
                    labels = kmeans(reduced, count, seed=seed,
                                    n_init=n_init).labels
                elif method == "agglomerative":
                    labels = _cut(merges, X.shape[0], count)
                elif method == "spectral":
                    try:
                        labels = spectral_cluster(
                            reduced, count, n_neighbors=n_neighbors,
                            seed=seed, n_init=n_init,
                        ).labels
                    except ComputationError:
                        continue
                else:
                    raise ConfigError(f"unknown sweep method {method!r}")
                quality = cluster_quality(
                    list(reference_labels), labels.tolist()
                )
                rows.append({
                    "method": method,
                    "n_clusters": int(count),
                    "reduced_dim": int(r),
                    "homogeneity": quality.homogeneity,
                    "completeness": quality.completeness,
                    "v_measure": quality.v_measure,
                    "seed": int(seed),
                })
    return rows


def save_sweep_csv(rows: Sequence[Mapping], path: str | Path) -> None:
    columns = ["method", "n_clusters", "reduced_dim", "homogeneity",
               "completeness", "v_measure", "seed"]
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([
                row["method"], row["n_clusters"], row["reduced_dim"],
                f"{row['homogeneity']:.8f}", f"{row['completeness']:.8f}",
                f"{row['v_measure']:.8f}", row["seed"],
            ])


def save_assignment(assignment: ClusterAssignment, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["company_id", "cluster"])
        for company_id, label in zip(assignment.ids, assignment.labels):
            writer.writerow([company_id, int(label)])


def load_assignment(path: str | Path, method: str = "loaded") -> ClusterAssignment:
    first_line: dict[str, int] = {}
    labels: list[int] = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["company_id", "cluster"]:
            raise DataValidationError(
                f"assignment file must start with 'company_id,cluster', got {header!r}"
            )
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise DataValidationError(f"line {line_no}: expected 2 columns")
            try:
                label = int(row[1])
            except ValueError:
                raise DataValidationError(
                    f"line {line_no}: bad cluster label {row[1]!r}"
                ) from None
            if label < 0:
                raise DataValidationError(f"line {line_no}: negative cluster label")
            if row[0] in first_line:
                raise DataValidationError(
                    f"line {line_no}: duplicate company id {row[0]!r} "
                    f"(first seen on line {first_line[row[0]]})"
                )
            first_line[row[0]] = line_no
            labels.append(label)
    if not labels:
        raise DataValidationError(f"no assignments in {path}")
    return ClusterAssignment(
        ids=list(first_line),
        labels=np.array(labels, dtype=np.int64),
        n_clusters=max(labels) + 1,
        method=method,
    )
