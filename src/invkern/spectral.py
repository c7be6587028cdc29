"""Gram matrices, eigenanalysis, entropy decomposition, and clustering.

The clustering pipeline is entropy-ranked kernel spectral clustering:
eigendecompose the uncentered Gram matrix, keep the axes contributing
most to the quadratic Renyi entropy estimate, scale them by sqrt of the
eigenvalue, normalize rows, and run angular k-means.  From
``LANCZOS_MIN_N`` points on, only the top eigenpairs that certify that
selection are computed (:func:`truncated_eig`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import best_matching
from .errors import DegenerateEmbeddingError, NumericalError, ValidationError
from .invariance import KernelSpec, kernel_matrix

# Point count from which clustering computes only the certified top
# eigenpairs.  Measured crossover in a fresh process, where the truncated
# path also pays the one-off scipy import (about 0.25 s): dense eigh wins
# up to about 1250 points, Lanczos from 1500 on (see README).
LANCZOS_MIN_N = 1500

# k-means restarts (best inertia wins) and the Lloyd iteration cap of each.
_KMEANS_RESTARTS = 10
_KMEANS_MAX_ITER = 300


@dataclass
class GramMatrix:
    """Symmetric kernel matrix with provenance."""

    values: np.ndarray
    kernel: KernelSpec
    point_count: int
    source: str | None = None


@dataclass
class EigenDecomposition:
    """Eigenvalues sorted descending with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass
class ClusteringResult:
    """Cluster labels plus the spectral evidence that produced them."""

    labels: np.ndarray
    embedding: np.ndarray
    entropy_contributions: np.ndarray
    selected_axes: list
    inertia: float
    seed: int
    entropy_total: float
    degenerate: bool = False


def _gram_values(gram) -> np.ndarray:
    return np.asarray(getattr(gram, "values", gram), dtype=float)


def build_gram(data, spec: KernelSpec) -> GramMatrix:
    """:func:`invkern.invariance.kernel_matrix` of a dataset, with provenance."""
    points = np.asarray(getattr(data, "points", data))
    n = len(points)
    if n < 2:
        raise ValidationError("need at least two points to build a Gram matrix")
    meta = getattr(data, "meta", None)
    source = meta.get("name") if isinstance(meta, dict) else None
    return GramMatrix(kernel_matrix(points, spec), spec, n, source)


def check_psd(gram):
    """Minimum eigenvalue and whether it clears -1e-8 * max(trace, 1)."""
    values = _gram_values(gram)
    try:
        eigenvalues = np.linalg.eigvalsh(values)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"eigenvalue computation failed: {err}") from err
    min_eigenvalue = float(eigenvalues[0])
    passed = min_eigenvalue >= -1e-8 * max(float(np.trace(values)), 1.0)
    return min_eigenvalue, passed


def _descending(eigenvalues, vectors) -> EigenDecomposition:
    # The order and sign convention of sym_eig, shared by both solvers.
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    anchor = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[anchor, np.arange(vectors.shape[1])] < 0
    vectors[:, flip] *= -1.0
    return EigenDecomposition(eigenvalues, vectors)


def _dense_eig(values: np.ndarray) -> EigenDecomposition:
    if len(values) > 5000:
        raise ValidationError("dense eigendecomposition limited to N <= 5000")
    try:
        eigenvalues, vectors = np.linalg.eigh(values)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"eigendecomposition did not converge: {err}") from err
    return _descending(eigenvalues, vectors)


def sym_eig(gram, n_axes: int | None = None) -> EigenDecomposition:
    """Symmetric eigendecomposition, descending, fixed signs.

    Without ``n_axes``, all N eigenpairs from dense ``eigh`` (N <= 5000).
    With ``n_axes`` and N >= ``LANCZOS_MIN_N``, only the top eigenpairs
    that certify the entropy selection of ``n_axes`` axes
    (:func:`truncated_eig`).  The sign convention makes the
    largest-magnitude component of each eigenvector positive, so outputs
    are reproducible across runs.
    """
    values = _gram_values(gram)
    if n_axes is not None and len(values) >= LANCZOS_MIN_N:
        return truncated_eig(values, n_axes)
    return _dense_eig(values)


def _entropy_ranking(eig: EigenDecomposition, n: int):
    # Contributions lambda_i (v_i'1)^2 / N^2, and the axes ranked by
    # contribution, then eigenvalue, then index (lexsort is stable).
    projections = eig.eigenvectors.T @ np.ones(n)
    contributions = eig.eigenvalues * projections**2 / n**2
    return contributions, np.lexsort((-eig.eigenvalues, -contributions))


def truncated_eig(gram, n_axes: int) -> EigenDecomposition:
    """Top M eigenpairs, enough to select ``n_axes`` entropy axes exactly.

    Lanczos (``eigsh``) computes the top M = 2 * n_axes eigenpairs, and M
    doubles until a certificate holds: an axis that was not computed
    contributes at most max(lambda_M, 0) / N, since (v'1)^2 <= N, so once
    the n_axes-th largest computed contribution exceeds that bound (by a
    relative 1e-9 for solver tolerance) the selection equals the dense
    one.  When M would pass N/2 uncertified, or Lanczos fails, the result
    is the dense decomposition.  Order and signs follow :func:`sym_eig`.
    """
    # Imported here: scipy adds about 0.25 s to every fresh process, and
    # only clustering at N >= LANCZOS_MIN_N needs it.
    from scipy.sparse.linalg import ArpackError, eigsh

    values = _gram_values(gram)
    n = len(values)
    if not 1 <= n_axes <= n:
        raise ValidationError(f"n_axes must be in [1, {n}], got {n_axes}")
    # A random start, not ones(N): the Krylov space of ones cannot reach
    # eigenvectors orthogonal to it, which would void the certificate.
    v0 = np.random.default_rng(0).standard_normal(n)
    m = 2 * n_axes
    while m <= n // 2:
        try:
            eig = _descending(*eigsh(values, k=m, which="LA", v0=v0))
        except ArpackError:
            break
        bound = max(eig.eigenvalues[-1], 0.0) / n
        contributions, order = _entropy_ranking(eig, n)
        if contributions[order[n_axes - 1]] > bound * (1.0 + 1e-9):
            return eig
        m *= 2
    return _dense_eig(values)


def renyi_entropy(gram, eig: EigenDecomposition | None = None):
    """Entropy mass (1'K1)/N^2 and its per-axis decomposition.

    Axis i contributes lambda_i * (v_i' 1)^2 / N^2, one value per
    eigenpair of ``eig``.  Over the full decomposition (the default) the
    contributions sum back to the total, which is the conservation law
    the tests pin; over a truncated one they fall short of it.
    """
    values = _gram_values(gram)
    n = len(values)
    total = float(values.sum()) / n**2
    if eig is None:
        eig = sym_eig(gram)
    return total, _entropy_ranking(eig, n)[0]


def keca_embed(gram, n_axes: int, eig: EigenDecomposition | None = None):
    """Entropy-ranked spectral embedding with unit-row normalization.

    Selects, among the eigenpairs of ``eig``, the ``n_axes`` axes of
    largest entropy contribution (ties broken by larger eigenvalue, then
    lower index), scales each by sqrt(max(lambda, 0)), and normalizes
    rows to unit length; rows with norm below 1e-12 are left as zero
    vectors.
    """
    n = len(_gram_values(gram))
    if not 1 <= n_axes <= n:
        raise ValidationError(f"n_axes must be in [1, {n}], got {n_axes}")
    if eig is None:
        eig = sym_eig(gram)
    contributions, order = _entropy_ranking(eig, n)
    # An axis contributes at most max|lambda| / N, since (v'1)^2 <= N.  The
    # eigensolver's backward error, about N * eps * max|lambda|, moves the
    # mass 1'K1 / N^2 by up to eps * max|lambda|: below that is round-off.
    noise = np.finfo(float).eps * np.max(np.abs(eig.eigenvalues))
    if not np.any(contributions > noise):
        raise DegenerateEmbeddingError("all entropy contributions vanish")
    axes = order[:n_axes]
    embedding = np.sqrt(np.maximum(eig.eigenvalues[axes], 0.0)) * eig.eigenvectors[:, axes]
    norms = np.linalg.norm(embedding, axis=1)
    keep = norms >= 1e-12
    embedding[keep] /= norms[keep, None]
    embedding[~keep] = 0.0
    return embedding, axes.tolist()


def _pairwise_distance(points, centers, metric):
    if metric == "euclidean":
        diff = points[:, None, :] - centers[None, :, :]
        return np.sum(diff * diff, axis=2)
    norms = np.linalg.norm(centers, axis=1)
    unit = np.divide(centers, norms[:, None], out=np.zeros_like(centers), where=norms[:, None] > 0)
    return 1.0 - points @ unit.T


def _seed_centers(points, k, metric, rng):
    # k-means++: weight by squared metric distance to the nearest center.
    n = len(points)
    chosen = [int(rng.integers(n))]
    for _ in range(1, k):
        dist = _pairwise_distance(points, points[chosen], metric).min(axis=1)
        weights = dist if metric == "euclidean" else dist**2
        total = weights.sum()
        if total <= 0.0:
            chosen.append(int(rng.integers(n)))
        else:
            chosen.append(int(rng.choice(n, p=weights / total)))
    return points[chosen].copy()


def _lloyd(points, centers, metric):
    n, k = len(points), len(centers)
    previous = None
    labels = np.zeros(n, dtype=int)
    inertia = 0.0
    for _ in range(_KMEANS_MAX_ITER):
        dist = _pairwise_distance(points, centers, metric)
        labels = np.argmin(dist, axis=1)
        own = dist[np.arange(n), labels]
        for c in range(k):
            if np.any(labels == c):
                continue
            idx = int(np.argmax(own))
            labels[idx] = c
            own[idx] = -np.inf
        inertia = float(np.maximum(dist[np.arange(n), labels], 0.0).sum())
        if previous is not None and np.array_equal(labels, previous):
            break
        previous = labels
        for c in range(k):
            members = points[labels == c]
            center = members.mean(axis=0)
            if metric == "angular":
                norm = np.linalg.norm(center)
                if norm < 1e-12:
                    center = points[int(np.argmax(own))]
                    norm = np.linalg.norm(center)
                if norm > 0:
                    center = center / norm
            centers[c] = center
    return labels, inertia


def kmeans(points, k: int, metric: str = "euclidean", seed: int = 0):
    """Deterministic k-means with k-means++ seeding.

    The angular metric treats rows as unit vectors with distance
    1 - cos; empty clusters are re-seeded at the farthest point.  Best
    inertia over ten restarts wins, ties going to the
    earliest restart, so a fixed seed fixes the labels.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if not 1 <= k <= len(pts):
        raise ValidationError(f"k must be in [1, {len(pts)}], got {k}")
    if metric not in ("euclidean", "angular"):
        raise ValidationError(f"unknown metric {metric!r}")
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(_KMEANS_RESTARTS):
        centers = _seed_centers(pts, k, metric, rng)
        labels, inertia = _lloyd(pts, centers, metric)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels, float(best_inertia)


def cluster_gram(gram, k: int, seed: int = 0) -> ClusteringResult:
    """Run the spectral pipeline on a prebuilt Gram matrix, embedding on k axes.

    From ``LANCZOS_MIN_N`` points on, ``entropy_contributions`` holds one
    value per computed eigenpair (see :func:`truncated_eig`), not N.
    """
    eig = sym_eig(gram, k)
    total, contributions = renyi_entropy(gram, eig)
    embedding, axes = keca_embed(gram, k, eig)
    labels, inertia = kmeans(embedding, k, metric="angular", seed=seed)
    degenerate = len(np.unique(labels)) < k
    return ClusteringResult(
        labels=labels,
        embedding=embedding,
        entropy_contributions=contributions,
        selected_axes=axes,
        inertia=inertia,
        seed=seed,
        entropy_total=total,
        degenerate=degenerate,
    )


def spectral_cluster(data, spec: KernelSpec, k: int, seed: int = 0) -> ClusteringResult:
    """Entropy-ranked kernel spectral clustering of a dataset.

    Pipeline: Gram matrix -> entropy decomposition -> embedding on the
    top k axes -> angular k-means.
    """
    return cluster_gram(build_gram(data, spec), k, seed=seed)


def clustering_accuracy(labels, truth) -> float:
    """Best label-permutation agreement rate in [0, 1]."""
    labels = np.asarray(labels).ravel()
    truth = np.asarray(truth).ravel()
    if labels.shape != truth.shape:
        raise ValueError("labels and truth must have the same length")
    classes, codes = np.unique(np.concatenate([labels, truth]), return_inverse=True)
    m, n = len(classes), len(labels)
    confusion = np.zeros((m, m), dtype=int)
    np.add.at(confusion, (codes[:n], codes[n:]), 1)
    best = int(confusion[np.arange(m), best_matching(-confusion)].sum())
    return best / n
