"""Unsupervised structure discovery on embedding matrices: dimensionality
reduction (PCA, Laplacian-eigenmap style spectral embedding), k-means,
agglomerative merging, spectral clustering, and label-agreement scores.

Everything here is deterministic given the seed: initializations use
``np.random.default_rng`` and every tie (equal distances, equal merge costs)
breaks toward the smallest index.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import math
import mmap
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    ComputationError,
    ConfigError,
    DataValidationError,
    RankDeficiencyError,
    ZeroVectorError,
)
from .outputs import replacing, rows_text


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


# rows per block where an n x n matrix is worked on a block at a time
_BLOCK = 256


def _symmetrize(A: np.ndarray, combine) -> None:
    """Set ``A[i, j]`` and ``A[j, i]`` to ``combine(A[i, j], A[j, i])`` in
    place, one block pair at a time, so the only temporaries are blocks.
    ``combine`` must not depend on the order of its arguments."""
    n = A.shape[0]
    for lo in range(0, n, _BLOCK):
        for lo2 in range(lo, n, _BLOCK):
            upper = A[lo:lo + _BLOCK, lo2:lo2 + _BLOCK]
            lower = A[lo2:lo2 + _BLOCK, lo:lo + _BLOCK]
            merged = combine(upper, lower.T)
            upper[...] = merged
            lower[...] = merged.T


def knn_affinity(X: np.ndarray, n_neighbors: int) -> np.ndarray:
    """Symmetric k-nearest-neighbor affinity from cosine similarity.

    Negative similarities are clipped to zero; the directed kNN graph is
    symmetrized with an elementwise max so the matrix stays an affinity.
    Each row keeps its ``n_neighbors`` largest similarities (its own zero
    diagonal included); among equal values the smallest column indices win.
    Memory is the n x n result plus, for one block of rows at a time, a
    partitioned copy and a bool mask of that block.
    """
    unit = _unit_rows(X)
    n = unit.shape[0]
    if not 1 <= n_neighbors < n:
        raise ConfigError(
            f"n_neighbors must be in [1, {n - 1}], got {n_neighbors}"
        )
    sims = unit @ unit.T
    del unit  # the row blocks below can reuse its memory
    np.clip(sims, 0.0, None, out=sims)
    np.fill_diagonal(sims, 0.0)
    for lo in range(0, n, _BLOCK):
        rows = sims[lo:lo + _BLOCK]
        # a copy, so the block's partition is freed before the next one
        kth = np.partition(rows, n - n_neighbors, axis=1)[:, n - n_neighbors].copy()
        below = rows < kth[:, None]
        n_kept = n - np.count_nonzero(below, axis=1)
        rows[below] = 0.0
        del below
        # rows with more ties at their k-th value than places left for them
        for i in np.flatnonzero(n_kept > n_neighbors):
            row = rows[i]
            ties = np.flatnonzero(row == kth[i])
            places = n_neighbors - (n_kept[i] - ties.size)
            row[ties[places:]] = 0.0
    _symmetrize(sims, np.maximum)
    return sims


def _normalized_laplacian(W: np.ndarray) -> np.ndarray:
    """``I - D^-1/2 W D^-1/2``, symmetrized as ``(L + L.T) / 2``, built in
    W's own buffer (W is overwritten and returned)."""
    degrees = W.sum(axis=1)
    if np.any(degrees == 0.0):
        isolated = np.flatnonzero(degrees == 0.0)[:5].tolist()
        raise ComputationError(
            f"affinity graph has isolated rows {isolated}; "
            "increase n_neighbors or check for degenerate embeddings"
        )
    inv_sqrt = 1.0 / np.sqrt(degrees)
    W *= inv_sqrt[:, None]
    W *= inv_sqrt[None, :]
    diagonal = 1.0 - W.diagonal()
    # 0.0 - p rather than -p: an absent edge stays +0.0, as in I - P
    np.subtract(0.0, W, out=W)
    np.fill_diagonal(W, diagonal)
    _symmetrize(W, lambda a, b: (a + b) / 2.0)
    return W


def _eigenvalues_did_not_converge(err=None, flag=None):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


# each routine's arguments: c a character, i an integer by reference,
# p an array's address
_LAPACK_SIGNATURES = {
    "dsyevd": "ccipippipii",
    "dsytrd": "cipippppii",
    "dstedc": "cipppipipii",
    "dormtr": "ccciipippipii",
}


@functools.cache
def _lapack():
    """The LAPACK routines behind ``np.linalg.eigh``, by name, found
    through the link of numpy's own linalg extension: ``dsyevd``, asked
    here only for its workspace size, and the three steps it takes,
    ``dsytrd``, ``dstedc`` and ``dormtr``. None when that LAPACK lacks any
    of them under both namings. Both take 64-bit integers: numpy 2 wheels
    bundle ``scipy_dsyevd_64_``, numpy 1 wheels ``dsyevd_64_``."""
    lib = ctypes.CDLL(_umath_linalg.__file__)
    kinds = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int64),
             "p": ctypes.c_void_p}
    for prefix in ("scipy_", ""):
        names = {r: f"{prefix}{r}_64_" for r in _LAPACK_SIGNATURES}
        if all(hasattr(lib, name) for name in names.values()):
            routines = {r: getattr(lib, name) for r, name in names.items()}
            for r, function in routines.items():
                function.argtypes = [kinds[k] for k in _LAPACK_SIGNATURES[r]]
                function.restype = None
            return routines
    return None


# dsyevd rescales a matrix whose largest |entry| is nonzero and below
# sqrt(smlnum), or above sqrt(1 / smlnum), before it reduces it
_SMLNUM = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
_UNSCALED_MIN, _UNSCALED_MAX = math.sqrt(_SMLNUM), math.sqrt(1.0 / _SMLNUM)


def _doubles(address: int, count: int) -> np.ndarray:
    """A numpy view of ``count`` doubles at ``address``. It does not keep
    their memory alive, and it does not keep a mapping from closing."""
    return np.ctypeslib.as_array((ctypes.c_double * count).from_address(address))


def _eigh_in_place(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What ``np.linalg.eigh(a)`` returns, computed in ``a``'s own buffer.

    ``a`` must be a C-contiguous, exactly symmetric float64 matrix, and it
    is overwritten. ``eigh`` copies its input into a private buffer and
    runs LAPACK's ``dsyevd`` there, job 'V', triangle 'L', with the
    workspace its query asks for. ``dsyevd`` is ``dsytrd`` (reduce to a
    tridiagonal, the Householder reflectors left in the matrix),
    ``dstedc('I')`` (the tridiagonal's eigenvectors, in an n x n block of
    the workspace) and ``dormtr`` (apply the reflectors to them), then a
    copy back. Here the three run one at a time on ``a`` itself:

    1. ``dsytrd`` on ``a``. Read in column-major order, ``a``'s lower
       triangle is its upper one, equal by symmetry.
    2. The reflectors (in numpy's view, row j from column j + 2 on) are
       packed into the last n^2 doubles of the workspace, which
       ``dstedc``'s workspace and the unpacked reflectors leave free.
    3. ``dstedc`` writes the eigenvectors into ``a`` rather than into the
       workspace, as the rows of ``a``; the vectors returned are ``a.T``.
    4. The reflectors are unpacked, zeros elsewhere, into the first n^2
       doubles of ``dstedc``'s workspace, and ``dormtr`` applies them to
       ``a``, with the workspace after them.

    So at most 1.5 n^2 doubles beyond ``a`` are touched (``dstedc``'s
    n^2 + 4n + 1 and the ½n^2 packed reflectors) where ``dsyevd`` touches
    2n^2. Each routine gets the ``lwork`` ``dsyevd`` gives it out of the
    queried size: 2n^2 + 4n + 1 to ``dsytrd`` and n^2 + 4n + 1 to
    ``dstedc`` and ``dormtr`` (more below n = 14, where ``dsytrd``'s
    blocks ask for more), because the block sizes they choose, and with
    them the bits, follow ``lwork``: ``dormtr``'s own query, which leaves
    out ``dormqr``'s 65 x 64 block, shrinks its blocks. The results
    are bit-identical to ``eigh``'s. The workspace is one anonymous
    mapping, outside numpy's allocator, unmapped before this returns.

    ``dsyevd`` would rescale a matrix whose largest |entry| lies outside
    [``_UNSCALED_MIN``, ``_UNSCALED_MAX``] (about 1e-146 and 1e146); such
    a matrix (n > 1) raises ``ValueError`` instead. A normalized
    Laplacian's diagonal is exactly 1, so it never is one.

    A numpy whose LAPACK ``_lapack`` cannot find, and any n < 2, falls
    back to the ``eigh`` gufunc, given ``a`` as its output (it still
    copies ``a``)."""
    if a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != a.shape[1] \
            or not (a.flags.c_contiguous and a.flags.writeable):
        raise ValueError("_eigh_in_place needs a writeable C-contiguous "
                         f"square float64 matrix, got {a.dtype} {a.shape}")
    n = a.shape[0]
    if n > 1:
        top = max(a.max(), -a.min())  # NaN compares false and passes
        if 0.0 < top < _UNSCALED_MIN or top > _UNSCALED_MAX:
            raise ValueError(f"_eigh_in_place takes no matrix that LAPACK "
                             f"would rescale: largest |entry| {top:.3g}")
    values = np.empty(n)
    lapack = _lapack()
    if lapack is None or n < 2:  # below n = 2 dsyevd does no LAPACK work
        with np.errstate(call=_eigenvalues_did_not_converge, invalid="call",
                         over="ignore", divide="ignore", under="ignore"):
            _umath_linalg.eigh_lo(a, signature="d->dd", out=(values, a))
        return values, a
    info = ctypes.c_int64(0)

    def call(routine, *args):
        """``routine`` on ``args``, integers by reference, and then INFO;
        a nonzero INFO raises."""
        lapack[routine](*(ctypes.byref(ctypes.c_int64(x)) if kind == "i" else x
                          for kind, x in zip(_LAPACK_SIGNATURES[routine], args)),
                        ctypes.byref(info))
        if info.value:
            _eigenvalues_did_not_converge()

    def spans():
        """Each reflector's row j in numpy's view (from column j + 2 on)
        and its place in the packed copy."""
        start = 0
        for j in range(n - 2):
            yield j, slice(start, start + n - 2 - j)
            start += n - 2 - j

    A, W = a.ctypes.data, values.ctypes.data
    size, isize = ctypes.c_double(0.0), ctypes.c_int64(0)
    call("dsyevd", b"V", b"L", n, A, n, W, ctypes.byref(size), -1,
         ctypes.byref(isize), -1)
    # dsyevd's LWORK: E and TAU, then dsytrd's workspace, which later
    # holds dstedc's (the first lwork of it) and the packed reflectors
    lwork, liwork = int(size.value), isize.value
    with mmap.mmap(-1, 8 * (lwork + liwork)) as space:
        # the address alone: a live ctypes view would keep the mapping open
        e = ctypes.addressof(ctypes.c_char.from_buffer(space))
        tau, work, iwork = e + 8 * n, e + 16 * n, e + 8 * lwork
        lwork -= 2 * n
        call("dsytrd", b"L", n, A, n, W, e, tau, work, lwork)
        lwork -= n * n
        packed = _doubles(work + 8 * lwork, n * n)
        for j, at in spans():
            packed[at] = a[j, j + 2:]
        call("dstedc", b"I", n, W, e, A, n, work, lwork, iwork, liwork)
        reflectors = _doubles(work, n * n).reshape(n, n)
        reflectors.fill(0.0)
        for j, at in spans():
            reflectors[j, j + 2:] = packed[at]
        call("dormtr", b"L", b"L", b"N", n, n, work, n, tau, A, n,
             work + 8 * n * n, lwork)
    return values, a.T


def spectral_embedding(
    X: np.ndarray,
    n_components: int,
    n_neighbors: int = 15,
    drop_first: bool = True,
) -> np.ndarray:
    """Eigenvectors of the symmetric normalized Laplacian of the kNN graph,
    smallest eigenvalues first. ``drop_first`` skips the near-constant
    leading eigenvector, which is the usual choice when the embedding is a
    feature map rather than a clustering input. Each column's sign makes
    its largest-magnitude entry positive.

    A kNN graph with c connected components has a c-dimensional null space
    (eigenvalue 0, spanned by the components' indicator vectors), so when
    the graph is disconnected the leading columns are an arbitrary basis of
    that null space, not a canonical layout.

    Memory is one n x n float64 matrix (the affinity, turned into the
    Laplacian in place and then, by ``_eigh_in_place``, into its
    eigenvectors) plus, while the solver runs, 1.5 n^2 doubles mapped
    outside numpy: ``dstedc``'s n^2 workspace beside the ½n^2
    Householder reflectors that ``dsytrd`` left and ``dormtr`` applies.
    """
    if n_components < 1:
        raise ConfigError(f"n_components must be >= 1, got {n_components}")
    affinity = knn_affinity(X, n_neighbors)
    start = 1 if drop_first else 0
    if start + n_components > affinity.shape[0]:
        raise RankDeficiencyError(
            f"cannot take {n_components} spectral components from "
            f"{affinity.shape[0]} points"
        )
    _, eigvecs = _eigh_in_place(_normalized_laplacian(affinity))
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


def _kmeanspp_init(
    X: np.ndarray,
    n_clusters: int,
    rng: np.random.Generator,
    rows: dict[int, np.ndarray],
) -> np.ndarray:
    """Row indices of a k-means++ start of ``n_clusters`` centers. Each
    center takes one draw from ``rng``, so the start for k clusters is the
    first k of the start for any larger count. ``rows`` memoizes the
    squared distances from a picked row to every row of X, keyed by its
    index; share one dict among the starts drawn on one X."""
    n = X.shape[0]

    def dist_row(idx: int) -> np.ndarray:
        if idx not in rows:
            rows[idx] = np.sum((X - X[idx]) ** 2, axis=1)
        return rows[idx]

    picks = [int(rng.integers(n))]
    closest = dist_row(picks[0])
    # checked for every count: a later total sums smaller distances, so it
    # is finite when this one is
    total = float(closest.sum())
    if not math.isfinite(total):
        raise ValueError(f"k-means++ distances sum to {total}")
    for _ in range(1, n_clusters):
        if total > 0.0:
            # the steps of rng.choice(n, p=closest / total), and its one
            # draw, without its per-call checks of p
            cdf = (closest / total).cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            idx = int(rng.integers(n))
        picks.append(idx)
        closest = np.minimum(closest, dist_row(idx))
        total = float(closest.sum())
    return np.array(picks)


def _lloyd(
    X: np.ndarray, centers: np.ndarray, max_iter: int
) -> tuple[np.ndarray, np.ndarray, float, int, list[float]]:
    n, n_clusters = X.shape[0], centers.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        dist2 = _sq_dists(X, centers)
        new_labels = np.argmin(dist2, axis=1)
        min_dist2 = dist2[np.arange(n), new_labels]
        counts = np.bincount(new_labels, minlength=n_clusters)
        # Re-seed each emptied cluster, in cluster order, from the farthest
        # point not yet picked, so the requested cluster count survives. A
        # re-seed that empties a later cluster gets that one re-seeded too;
        # an earlier one stays empty this round and keeps its center.
        reseeded = not counts.all()
        if reseeded:
            farthest = iter(np.argsort(-min_dist2, kind="stable").tolist())
            for c in range(n_clusters):
                if counts[c]:
                    continue
                pick = next(farthest)
                counts[new_labels[pick]] -= 1
                counts[c] += 1
                centers[c] = X[pick]
                new_labels[pick] = c
                min_dist2[pick] = 0.0
        history.append(float(min_dist2.sum()))
        if not reseeded and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # each cluster's members are one contiguous slice, in row order;
        # its sum over the count is what .mean(axis=0) computes
        grouped = X[np.argsort(labels, kind="stable")]
        end = 0
        for c, count in enumerate(counts.tolist()):
            if count:
                end += count
                centers[c] = np.add.reduce(grouped[end - count:end], axis=0) / count
    return labels, centers, history[-1], n_iter, history


def _kmeans_counts(
    X: np.ndarray,
    counts: Sequence[int],
    seed: int,
    n_init: int,
    max_iter: int = 300,
) -> dict[int, KMeansResult]:
    """``kmeans(X, k, seed, n_init, max_iter)`` for each k in ``counts``,
    keyed by k. Each restart draws one k-means++ start, for the largest
    count, and runs Lloyd from each count's prefix of it: that prefix is
    the start a run for that count alone would draw."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"X must be a non-empty 2-d array, got shape {X.shape}")
    for k in counts:
        if not 1 <= k <= X.shape[0]:
            raise ConfigError(f"n_clusters must be in [1, {X.shape[0]}], got {k}")
    if n_init < 1:
        raise ConfigError(f"n_init must be >= 1, got {n_init}")
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    rows: dict[int, np.ndarray] = {}
    starts = [
        _kmeanspp_init(X, max(counts), np.random.default_rng([seed, attempt]), rows)
        for attempt in range(n_init)
    ]
    # freed before Lloyd allocates the results, which outlive this call, so
    # the memo's heap pages are free for reuse rather than pinned below them
    del rows
    best: dict[int, KMeansResult] = {}
    for start in starts:
        for k in set(counts):
            labels, centers, inertia, n_iter, history = _lloyd(
                X, X[start[:k]], max_iter
            )
            if k not in best or inertia < best[k].inertia:
                best[k] = KMeansResult(labels, centers, inertia, n_iter, history)
    return best


def kmeans(
    X: np.ndarray,
    n_clusters: int,
    seed: int = 0,
    n_init: int = 4,
    max_iter: int = 300,
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ starts; the best of ``n_init``
    seeded restarts (lowest inertia, ties to the earliest restart) wins.
    Restart r draws its start from ``default_rng([seed, r])``, one draw per
    center, so a run for fewer clusters starts from a prefix of the same
    centers (``fit_clusters`` shares the starts across its counts this
    way). A non-finite row of X, or squared distances that overflow,
    raise ``ValueError`` for every count."""
    return _kmeans_counts(X, [n_clusters], seed, n_init, max_iter)[n_clusters]


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
    other slot's row and column become +inf.

    The scan for that minimum reads a cache of each row's first minimum
    (Muellner's generic algorithm, arXiv:1109.2378, without its priority
    queue): the matrix's first minimum is the cached one of the first row
    with the smallest. A merge rescans the merged row and the rows whose
    cached minimum sat in one of the two merged columns; every other row
    only compares its cache with the merged column. Memory is one n x n
    float64 matrix, O(n^2); time is O(n) per merge plus O(n) per rescanned
    row, O(n^3) only when every merge rescans most rows.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if linkage not in _LINKAGES:
        raise ConfigError(f"linkage must be one of {_LINKAGES}, got {linkage!r}")
    if not 1 <= n_clusters <= n:
        raise ConfigError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    dist = _initial_distances(X, linkage, metric)
    sizes = np.ones(n, dtype=np.int64)
    rowarg = np.argmin(dist, axis=1)
    rowmin = dist[np.arange(n), rowarg]
    merges: list[tuple[int, int, float]] = []
    for _ in range(n - n_clusters):
        i = int(np.argmin(rowmin))
        j = int(rowarg[i])
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
        # rescan the rows whose cached minimum sat in column i or j, row i
        # among them; any other row changed only in column i
        rescan = np.flatnonzero((rowarg == i) | (rowarg == j))
        fresh = (row < rowmin) | ((row == rowmin) & (i < rowarg))
        rowmin[fresh] = row[fresh]
        rowarg[fresh] = i
        rowarg[rescan] = np.argmin(dist[rescan], axis=1)
        rowmin[rescan] = dist[rescan, rowarg[rescan]]
        # a dead row matches no column again
        rowmin[j], rowarg[j] = np.inf, -1
    return _cut(merges, n, n_clusters), merges


# ---------------------------------------------------------------------------
# One fit per method, shared by all its cluster counts


def fit_clusters(
    X: np.ndarray, method: str, counts: Sequence[int], seed: int = 0,
    n_init: int = 4, n_neighbors: int = 15, linkage: str = "average",
    metric: str = "euclidean",
) -> dict[int, tuple[np.ndarray, dict]]:
    """Count -> (labels of the rows of X, the fit's facts) for each count in
    ``counts``. One fit serves all counts and gives each the labels a call
    for it alone gives. ``kmeans`` draws each restart's k-means++ start once,
    for the largest count (facts: inertia, n_iter); ``agglomerative`` cuts
    one merge history at each count (linkage, metric, last merge's cost);
    ``spectral`` is the normalized cut (von Luxburg, arXiv:0711.0189):
    k-means of each count's leading columns of one bottom Laplacian
    eigenvector embedding, rows at unit norm (inertia, n_neighbors)."""
    if method == "kmeans":
        return {k: (f.labels, {"inertia": f.inertia, "n_iter": f.n_iter})
                for k, f in _kmeans_counts(X, counts, seed, n_init).items()}
    if method == "agglomerative":
        n = len(X)
        if max(counts) > n:
            raise ConfigError(f"n_clusters must be in [1, {n}], got {max(counts)}")
        _, merges = agglomerative(X, min(counts), linkage, metric)
        return {k: (_cut(merges, n, k), {
            "linkage": linkage, "metric": metric,
            "last_merge_cost": merges[n - k - 1][2] if k < n else None,
        }) for k in counts}
    if method != "spectral":
        raise ConfigError(f"unknown cluster method {method!r}")
    embedded = spectral_embedding(X, max(counts), n_neighbors, drop_first=False)
    fits = {}
    for k in counts:
        norms = np.linalg.norm(embedded[:, :k], axis=1)
        norms[norms == 0.0] = 1.0
        fit = kmeans(embedded[:, :k] / norms[:, None], k, seed=seed, n_init=n_init)
        fits[k] = (fit.labels, {"inertia": fit.inertia, "n_neighbors": n_neighbors})
    return fits


# ---------------------------------------------------------------------------
# Agreement scores and assignments


@dataclass
class ClusterQuality:
    homogeneity: float
    completeness: float
    v_measure: float

    def to_dict(self) -> dict:
        return asdict(self)


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    probs = counts[counts > 0] / total
    return float(-(probs * np.log(probs)).sum())


def _conditional_entropy(table: np.ndarray, n: float) -> float:
    """H(row label | column label) of a contingency table of ``n`` items."""
    h = 0.0
    for col in range(table.shape[1]):
        column = table[:, col]
        col_total = column.sum()
        if col_total > 0:
            h += (col_total / n) * _entropy(column)
    return h


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

    h_true_given_pred = _conditional_entropy(table, n)
    h_pred_given_true = _conditional_entropy(table.T, n)

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
    """Company ids with integer cluster labels and the method that gave them."""

    ids: list[str]
    labels: np.ndarray
    n_clusters: int
    method: str

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
    )


FIT_METHODS = ("kmeans", "agglomerative", "spectral")
DEFAULT_SWEEP_COUNTS = (11, 25, 66, 100)
DEFAULT_SWEEP_DIMS = (5, 10, 20)


def cluster_sweep(
    X: np.ndarray,
    reference_labels: Sequence,
    methods: Sequence[str] = FIT_METHODS,
    cluster_counts: Sequence[int] = DEFAULT_SWEEP_COUNTS,
    reduced_dims: Sequence[int] = DEFAULT_SWEEP_DIMS,
    seed: int = 0,
    n_init: int = 4,
    n_neighbors: int = 15,
) -> list[dict]:
    """Agreement with reference labels across method x count x dimension.

    Cells that cannot run on this input (more clusters than points, more
    dimensions than the feature rank, spectral with no more points than
    ``n_neighbors`` or on a graph with an isolated row) are skipped rather
    than failed, so one sweep call works on any universe size.

    Per reduced dimension, each method makes one ``fit_clusters`` call for
    all the counts that fit; every row equals a separate run per count.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != len(reference_labels):
        raise ValueError(
            f"{X.shape[0]} rows but {len(reference_labels)} reference labels"
        )
    for method in methods:
        if method not in FIT_METHODS:
            raise ConfigError(f"unknown sweep method {method!r}")
    for r in reduced_dims:
        if r < 1:
            raise ConfigError(f"n_components must be >= 1, got {r}")
    valid = [count for count in cluster_counts if count <= X.shape[0]]
    rows: list[dict] = []
    dims = [r for r in reduced_dims if r <= min(X.shape[0] - 1, X.shape[1])]
    try:
        # pca(X, r) scores are the first r columns of pca(X, max r): one SVD
        top = pca(X, max(dims))[0] if dims else None
    except RankDeficiencyError:
        top = None  # rank below the largest dimension: one pca per dimension
    for r in dims:
        if top is not None:
            reduced = top[:, :r].copy()
        else:
            try:
                reduced, _, _ = pca(X, r)
            except RankDeficiencyError:
                continue
        for method in methods:
            if not valid or (method == "spectral" and n_neighbors >= X.shape[0]):
                continue  # no count fits, or the kNN graph lacks points
            try:
                fits = fit_clusters(reduced, method, valid, seed, n_init, n_neighbors)
            except ComputationError:
                if method == "spectral":
                    continue  # an isolated row in the kNN graph
                raise
            for count in valid:
                quality = cluster_quality(
                    list(reference_labels), fits[count][0].tolist()
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


def sweep_csv(rows: Sequence[Mapping]) -> str:
    """The sweep table ``save_sweep_csv`` writes."""
    columns = ["method", "n_clusters", "reduced_dim", "homogeneity",
               "completeness", "v_measure", "seed"]
    scores = {"homogeneity", "completeness", "v_measure"}
    return rows_text(columns, (
        [f"{row[c]:.8f}" if c in scores else row[c] for c in columns] for row in rows
    ))


def save_sweep_csv(rows: Sequence[Mapping], path: str | Path) -> None:
    with replacing(path) as f:
        f.write(sweep_csv(rows))


def assignment_csv(assignment: ClusterAssignment) -> str:
    """The assignment file ``save_assignment`` writes."""
    return rows_text(["company_id", "cluster"], (
        [company_id, int(label)]
        for company_id, label in zip(assignment.ids, assignment.labels)
    ))


def save_assignment(assignment: ClusterAssignment, path: str | Path) -> None:
    with replacing(path) as f:
        f.write(assignment_csv(assignment))


def load_assignment(path: str | Path) -> ClusterAssignment:
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
        method="loaded",
    )
