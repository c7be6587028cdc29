"""Gram matrices, eigenanalysis, entropy decomposition, and clustering.

The clustering pipeline is entropy-ranked kernel spectral clustering:
eigendecompose the uncentered Gram matrix, keep the axes contributing
most to the quadratic Renyi entropy estimate, scale them by sqrt of the
eigenvalue, normalize rows, and run angular k-means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import best_matching
from .errors import (
    DegenerateEmbeddingError,
    NegativeDistanceError,
    NumericalError,
    ValidationError,
)
from .invariance import KernelSpec, triple_tiles
from .kernels import base_values


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
    """Pairwise kernel matrix; only the upper triangle is evaluated.

    Entry (i, j) equals eval_kernel(spec, x_i, x_j).  The base kernel
    runs on the row tiles of :func:`invkern.invariance.triple_tiles`, and
    the upper triangle is mirrored, so the result is exactly symmetric.
    """
    points = np.asarray(getattr(data, "points", data))
    n = len(points)
    if n < 2:
        raise ValidationError("need at least two points to build a Gram matrix")
    gram = np.zeros((n, n))
    for start, triple in triple_tiles(points, spec.invariance):
        try:
            values = base_values(spec.base, *triple)
        except NegativeDistanceError as err:
            i, j = np.unravel_index(err.index, np.broadcast(*triple).shape)
            raise NegativeDistanceError(
                f"kernel evaluation failed for pair ({start + i}, {start + j}): {err}",
                index=err.index,
            ) from err
        stop = start + len(values)
        gram[start:stop, start:] = np.triu(values)
        # Rows below this tile are still zero in these columns, so adding
        # the transposed strict upper triangle mirrors it exactly.
        gram[start:, start:stop] += np.triu(values, 1).T
    meta = getattr(data, "meta", None)
    source = meta.get("name") if isinstance(meta, dict) else None
    return GramMatrix(gram, spec, n, source)


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


def sym_eig(gram) -> EigenDecomposition:
    """Dense symmetric eigendecomposition, descending, fixed signs.

    The sign convention makes the largest-magnitude component of each
    eigenvector positive, so outputs are reproducible across runs.
    """
    values = _gram_values(gram)
    if len(values) > 5000:
        raise ValidationError("dense eigendecomposition limited to N <= 5000")
    try:
        eigenvalues, vectors = np.linalg.eigh(values)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"eigendecomposition did not converge: {err}") from err
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    anchor = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[anchor, np.arange(vectors.shape[1])] < 0
    vectors[:, flip] *= -1.0
    return EigenDecomposition(eigenvalues, vectors)


def renyi_entropy(gram, eig: EigenDecomposition | None = None):
    """Entropy mass (1'K1)/N^2 and its per-axis decomposition.

    Axis i contributes lambda_i * (v_i' 1)^2 / N^2; the contributions
    sum back to the total, which is the conservation law the tests pin.
    """
    values = _gram_values(gram)
    n = len(values)
    total = float(values.sum()) / n**2
    if eig is None:
        eig = sym_eig(gram)
    projections = eig.eigenvectors.T @ np.ones(n)
    contributions = eig.eigenvalues * projections**2 / n**2
    return total, contributions


def keca_embed(gram, n_axes: int, eig: EigenDecomposition | None = None):
    """Entropy-ranked spectral embedding with unit-row normalization.

    Selects the ``n_axes`` axes of largest entropy contribution (ties
    broken by larger eigenvalue, then lower index), scales each by
    sqrt(max(lambda, 0)), and normalizes rows to unit length; rows with
    norm below 1e-12 are left as zero vectors.
    """
    values = _gram_values(gram)
    n = len(values)
    if not 1 <= n_axes <= n:
        raise ValidationError(f"n_axes must be in [1, {n}], got {n_axes}")
    if eig is None:
        eig = sym_eig(gram)
    _, contributions = renyi_entropy(gram, eig)
    if not np.any(contributions > 0.0):
        raise DegenerateEmbeddingError("all entropy contributions vanish")
    order = sorted(
        range(n), key=lambda i: (-contributions[i], -eig.eigenvalues[i], i)
    )
    axes = list(order[:n_axes])
    columns = [
        np.sqrt(max(eig.eigenvalues[a], 0.0)) * eig.eigenvectors[:, a] for a in axes
    ]
    embedding = np.column_stack(columns)
    norms = np.linalg.norm(embedding, axis=1)
    keep = norms >= 1e-12
    embedding[keep] /= norms[keep, None]
    embedding[~keep] = 0.0
    return embedding, axes


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


def _lloyd(points, centers, metric, max_iter):
    n, k = len(points), len(centers)
    previous = None
    labels = np.zeros(n, dtype=int)
    inertia = 0.0
    for _ in range(max_iter):
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


def kmeans(points, k: int, metric: str = "euclidean", seed: int = 0,
           n_restarts: int = 10, max_iter: int = 300):
    """Deterministic k-means with k-means++ seeding.

    The angular metric treats rows as unit vectors with distance
    1 - cos; empty clusters are re-seeded at the farthest point.  Best
    inertia over ``n_restarts`` restarts wins, ties going to the
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
    for _ in range(n_restarts):
        centers = _seed_centers(pts, k, metric, rng)
        labels, inertia = _lloyd(pts, centers, metric, max_iter)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels, float(best_inertia)


def cluster_gram(gram, k: int, seed: int = 0, n_axes: int | None = None) -> ClusteringResult:
    """Run the spectral pipeline on a prebuilt Gram matrix."""
    eig = sym_eig(gram)
    total, contributions = renyi_entropy(gram, eig)
    embedding, axes = keca_embed(gram, n_axes or k, eig)
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


def spectral_cluster(data, spec: KernelSpec, k: int, seed: int = 0,
                     n_axes: int | None = None) -> ClusteringResult:
    """Entropy-ranked kernel spectral clustering of a dataset.

    Pipeline: Gram matrix -> entropy decomposition -> embedding on the
    top ``n_axes`` (default k) axes -> angular k-means.
    """
    return cluster_gram(build_gram(data, spec), k, seed=seed, n_axes=n_axes)


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
