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
# eigenpairs.  Set when the truncated path also paid a scipy import; the
# numpy Lanczos now beats dense eigh from a few hundred points on (see
# README), but a lower threshold would change the bits of smaller runs.
LANCZOS_MIN_N = 1500

# k-means restarts (best inertia wins) and the Lloyd iteration cap of each.
_KMEANS_RESTARTS = 10
_KMEANS_MAX_ITER = 300


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


def build_gram(data, spec: KernelSpec) -> np.ndarray:
    """:func:`invkern.invariance.kernel_matrix` of a dataset or point array."""
    points = np.asarray(getattr(data, "points", data))
    if len(points) < 2:
        raise ValidationError("need at least two points to build a Gram matrix")
    return kernel_matrix(points, spec)


@dataclass(frozen=True)
class PsdReport:
    """Outcome of :func:`check_psd` for one Gram matrix."""

    min_eigenvalue: float
    passed: bool
    trace: float


def check_psd(gram) -> PsdReport:
    """Minimum eigenvalue, the trace, and whether the minimum clears
    -1e-8 * max(trace, 1).

    A trace or eigenvalue that overflows raises NumericalError.
    """
    gram = np.asarray(gram, dtype=float)
    try:
        eigenvalues = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"eigenvalue computation failed: {err}") from err
    with np.errstate(over="ignore", invalid="ignore"):
        trace = float(np.trace(gram))
    if not (np.isfinite(trace) and np.isfinite(eigenvalues).all()):
        raise NumericalError("the Gram's trace or an eigenvalue overflows")
    min_eigenvalue = float(eigenvalues[0])
    return PsdReport(min_eigenvalue, min_eigenvalue >= -1e-8 * max(trace, 1.0), trace)


def _descending(eigenvalues, vectors) -> EigenDecomposition:
    # The order and sign convention of sym_eig, shared by both solvers.
    if not np.isfinite(eigenvalues).all():
        raise NumericalError("an eigenvalue of the Gram overflows")
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
    are reproducible across runs.  An eigenvalue that overflows raises
    NumericalError.
    """
    gram = np.asarray(gram, dtype=float)
    if n_axes is not None and len(gram) >= LANCZOS_MIN_N:
        return truncated_eig(gram, n_axes)
    return _dense_eig(gram)


def _entropy_ranking(eig: EigenDecomposition, n: int):
    # Contributions lambda_i (v_i'1)^2 / N^2, and the axes ranked by
    # contribution, then eigenvalue, then index (lexsort is stable).
    projections = eig.eigenvectors.T @ np.ones(n)
    contributions = eig.eigenvalues * projections**2 / n**2
    return contributions, np.lexsort((-eig.eigenvalues, -contributions))


# Lanczos tolerance for residuals and breakdowns, relative to |theta_1|.  The
# tridiagonal is diagonalized every 1 + j // _CHECK_SPACING steps, and the
# run gives up after 16 steps per wanted pair plus 64: the Grams measured
# settled within 10 per pair.
_RITZ_TOL = 64 * np.finfo(float).eps
_CHECK_SPACING = 16
_LANCZOS_STEPS_PER_PAIR = 16
_LANCZOS_SLACK = 64


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    # Two classical Gram-Schmidt passes against the rows of basis, in place:
    # the second removes what rounding left after the first.
    for _ in range(2):
        w -= (basis @ w) @ basis
    return w


@np.errstate(over="ignore", invalid="ignore")
def _lanczos(gram: np.ndarray, m: int, v0: np.ndarray) -> EigenDecomposition | None:
    """Top ``m`` eigenpairs by Lanczos from ``v0``, or None if they do not settle.

    Single-vector Lanczos with full reorthogonalization (two Gram-Schmidt
    passes per step).  From step m on, the top ``m`` Ritz pairs of the
    tridiagonal T_j are accepted once every residual |beta_j s_ji| is at
    most _RITZ_TOL * |theta_1|, theta_1 the Ritz value largest in
    magnitude.  A breakdown means the basis spans an invariant subspace,
    which holds one vector of each eigenspace the start touched: Lanczos
    goes on from a fixed-seed random vector orthogonal to the basis, as
    ARPACK does, so the rest of the spectrum stays reachable.  When that
    fresh vector breaks down at once, the rest of the spectrum is one
    repeated eigenvalue (the null space of a low-rank Gram, or the whole
    identity) whose eigenvectors only a dense solve fixes, and the result
    is None, as it is when the step budget runs out first or a value
    overflows.
    """
    n = len(gram)
    steps = min(n, _LANCZOS_STEPS_PER_PAIR * m + _LANCZOS_SLACK)
    basis = np.empty((steps, n))
    alpha, beta = np.zeros(steps), np.zeros(steps)
    basis[0] = v0 / np.linalg.norm(v0)
    fresh = np.random.default_rng(1)
    restarted, norm, check = False, 0.0, m
    for j in range(steps):
        done = basis[: j + 1]
        w = gram @ basis[j]
        alpha[j] = basis[j] @ w
        beta[j] = np.linalg.norm(_orthogonalize(w, done))
        if not np.isfinite(alpha[j] + beta[j]):
            return None  # the Gram overflows; the dense solve reports it
        # Gershgorin bound on |theta_1|, cheaper than diagonalizing T_j.
        norm = max(norm, abs(alpha[j]) + beta[j] + (beta[j - 1] if j else 0.0))
        breakdown = beta[j] <= _RITZ_TOL * norm
        last = j + 1 == steps or (breakdown and restarted)
        if j + 1 >= m and (j + 1 >= check or last):
            check = j + 2 + j // _CHECK_SPACING
            tridiagonal = np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
            theta, s = np.linalg.eigh(tridiagonal)
            tol = _RITZ_TOL * max(abs(theta[0]), abs(theta[-1]))
            if np.all(beta[j] * np.abs(s[-1, -m:]) <= tol):
                return _descending(theta[-m:], done.T @ s[:, -m:])
        if last:
            return None
        restarted = breakdown
        if breakdown:
            w = _orthogonalize(fresh.standard_normal(n), done)
            beta[j] = 0.0
        basis[j + 1] = w / np.linalg.norm(w)


def truncated_eig(gram, n_axes: int) -> EigenDecomposition:
    """Top M eigenpairs, enough to select ``n_axes`` entropy axes exactly.

    Lanczos (:func:`_lanczos`) computes the top M = 2 * n_axes
    eigenpairs, and M doubles until a certificate holds: an axis that was
    not computed contributes at most max(lambda_M, 0) / N, since
    (v'1)^2 <= N, so once the n_axes-th largest computed contribution
    exceeds that bound (by a relative 1e-9 for solver tolerance) the
    selection equals the dense one.  When M would pass N/2 uncertified,
    or Lanczos does not settle (:func:`_lanczos`), the result is the
    dense decomposition.  Order and signs follow :func:`sym_eig`.
    """
    gram = np.asarray(gram, dtype=float)
    n = len(gram)
    if not 1 <= n_axes <= n:
        raise ValidationError(f"n_axes must be in [1, {n}], got {n_axes}")
    # A random start, not ones(N): the Krylov space of ones cannot reach
    # eigenvectors orthogonal to it, which would void the certificate.
    v0 = np.random.default_rng(0).standard_normal(n)
    m = 2 * n_axes
    while m <= n // 2:
        eig = _lanczos(gram, m, v0)
        if eig is None:
            break
        bound = max(eig.eigenvalues[-1], 0.0) / n
        contributions, order = _entropy_ranking(eig, n)
        if contributions[order[n_axes - 1]] > bound * (1.0 + 1e-9):
            return eig
        m *= 2
    return _dense_eig(gram)


def renyi_entropy(gram, eig: EigenDecomposition | None = None):
    """Entropy mass (1'K1)/N^2 and its per-axis decomposition.

    Axis i contributes lambda_i * (v_i' 1)^2 / N^2, one value per
    eigenpair of ``eig``.  Over the full decomposition (the default) the
    contributions sum back to the total, which is the conservation law
    the tests pin; over a truncated one they fall short of it.  A mass
    that overflows raises NumericalError.
    """
    gram = np.asarray(gram, dtype=float)
    n = len(gram)
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(gram.sum()) / n**2
    if not np.isfinite(total):
        raise NumericalError("the Gram's entropy mass 1'K1 overflows")
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
    n = len(gram)
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


def _pairwise_distance(points, centers):
    # 1 - cos between rows and centres; a zero centre is at distance 1.
    norms = np.linalg.norm(centers, axis=1)
    unit = np.divide(centers, norms[:, None], out=np.zeros_like(centers), where=norms[:, None] > 0)
    return 1.0 - points @ unit.T


def _seed_centers(points, k, rng):
    # k-means++: weight by squared distance to the nearest center.
    n = len(points)
    chosen = [int(rng.integers(n))]
    for _ in range(1, k):
        weights = _pairwise_distance(points, points[chosen]).min(axis=1) ** 2
        total = weights.sum()
        if total <= 0.0:
            chosen.append(int(rng.integers(n)))
        else:
            chosen.append(int(rng.choice(n, p=weights / total)))
    return points[chosen].copy()


def _lloyd(points, centers):
    n, k = len(points), len(centers)
    previous = before = None
    labels = np.zeros(n, dtype=int)
    inertia = 0.0
    for _ in range(_KMEANS_MAX_ITER):
        dist = _pairwise_distance(points, centers)
        labels = np.argmin(dist, axis=1)
        own = dist[np.arange(n), labels]
        for c in range(k):
            if np.any(labels == c):
                continue
            # The farthest point whose cluster keeps a member; n >= k ensures one.
            shared = np.bincount(labels, minlength=k)[labels] > 1
            idx = int(np.argmax(np.where(shared, own, -np.inf)))
            labels[idx] = c
            own[idx] = -np.inf
        inertia = float(np.maximum(dist[np.arange(n), labels], 0.0).sum())
        # Near-duplicate rows split across clusters can make the labels
        # alternate between two vectors; that cycle is a fixed point too.
        if any(seen is not None and np.array_equal(labels, seen) for seen in (previous, before)):
            break
        before, previous = previous, labels
        for c in range(k):
            center = points[labels == c].mean(axis=0)
            norm = np.linalg.norm(center)
            if norm < 1e-12:
                center = points[int(np.argmax(own))]
                norm = np.linalg.norm(center)
            if norm > 0:
                center = center / norm
            centers[c] = center
    return labels, inertia


def kmeans(points, k: int, seed: int = 0):
    """Deterministic angular k-means with k-means++ seeding.

    Rows are compared with unit centres by distance 1 - cos; an empty
    cluster is re-seeded at the farthest point of a cluster with more
    than one member.  Best inertia over ten restarts wins, ties going to
    the earliest restart, so a fixed seed fixes the labels.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if not 1 <= k <= len(pts):
        raise ValidationError(f"k must be in [1, {len(pts)}], got {k}")
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(_KMEANS_RESTARTS):
        centers = _seed_centers(pts, k, rng)
        labels, inertia = _lloyd(pts, centers)
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
    labels, inertia = kmeans(embedding, k, seed=seed)
    return ClusteringResult(
        labels=labels,
        embedding=embedding,
        entropy_contributions=contributions,
        selected_axes=axes,
        inertia=inertia,
        seed=seed,
        entropy_total=total,
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
        raise ValidationError("labels and truth must have the same length")
    classes, codes = np.unique(np.concatenate([labels, truth]), return_inverse=True)
    m, n = len(classes), len(labels)
    confusion = np.zeros((m, m), dtype=int)
    np.add.at(confusion, (codes[:n], codes[n:]), 1)
    best = int(confusion[np.arange(m), best_matching(-confusion)].sum())
    return best / n
