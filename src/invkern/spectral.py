"""Gram matrices, eigenanalysis, entropy decomposition, and clustering.

The clustering pipeline is entropy-ranked kernel spectral clustering:
eigendecompose the uncentered Gram matrix, keep the axes contributing
most to the quadratic Renyi entropy estimate, scale them by sqrt of the
eigenvalue, normalize rows, and run angular k-means.  From
``LANCZOS_MIN_N`` points on, only the top eigenpairs that certify that
selection are computed (:func:`truncated_eig`), by one Lanczos run whose
work is capped at a share of a dense solve's, after which the dense solve
runs.

Every function here that takes a Gram reads it in one form, the tuple of
row blocks of :func:`invkern.invariance.gram_blocks`, which clustering
builds; an N x N array is read as one block, with the bits of its own
``G @ v`` and ``G.sum()``.  The blocks are read through their order N,
their product with a vector and their mass 1'K1, and a dense solve
unpacks them into the Gram of ``kernel_matrix`` bit for bit (one block is
that Gram, not a copy).  A Gram of another shape raises ValidationError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import best_matching
from .errors import DegenerateEmbeddingError, NumericalError, ValidationError
from .invariance import KernelSpec, gram_blocks, kernel_matrix

# Point count from which clustering computes only the certified top
# eigenpairs.  Over seven Gram families the truncated path's total time is
# below dense from about 300 points on (0.89-0.92 of it at 512, 0.52-0.54
# at 800; README).  The floor sits above the presets' 270 points, so they stay
# dense and bit-identical.
LANCZOS_MIN_N = 512

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


def _gram_points(data) -> np.ndarray:
    # The points of a dataset or point array, at least two of them.
    points = np.asarray(getattr(data, "points", data))
    if len(points) < 2:
        raise ValidationError("need at least two points to build a Gram matrix")
    return points


def build_gram(data, spec: KernelSpec) -> np.ndarray:
    """:func:`invkern.invariance.kernel_matrix` of a dataset or point array."""
    return kernel_matrix(_gram_points(data), spec)


def _blocks(gram) -> tuple:
    # The Gram as row blocks: a tuple as it is, an N x N real array as one block.
    # Block b's columns run from its first row to N, so the first is N wide.
    if not isinstance(gram, tuple):
        gram = np.asarray(gram)
        gram = (gram.astype(float, copy=False),) if gram.dtype.kind in "biuf" else ()
    width = np.shape(gram[0])[1] if gram and np.ndim(gram[0]) == 2 else 0
    if width < 1 or width != sum(len(block) for block in gram):
        raise ValidationError("a Gram must be a non-empty square real array or its row blocks")
    return gram


def _order(blocks) -> int:
    # N: a block's columns run from its first row to the last column.
    return blocks[0].shape[1]


def _matvec(blocks, v: np.ndarray) -> np.ndarray:
    # G @ v.  A block gives its own rows through its square and rectangle, and
    # the rows below it through the rectangle's transpose.
    y = np.zeros(len(v))
    start = 0
    for block in blocks:
        stop = start + len(block)
        y[start:stop] += block @ v[start:]
        y[stop:] += v[start:stop] @ block[:, stop - start :]
        start = stop
    return y


def _mass(blocks):
    # 1'K1: each block's square once and its rectangle twice, for the mirror
    # that no block holds.
    return sum(b[:, : len(b)].sum() + 2.0 * b[:, len(b) :].sum() for b in blocks)


def _dense(blocks) -> np.ndarray:
    # The N x N Gram: a lone block as it is, more unpacked and mirrored into the
    # lower triangle, equal to kernel_matrix's Gram bit for bit.
    if len(blocks) == 1:
        return blocks[0]
    dense = np.empty((_order(blocks), _order(blocks)))
    start = 0
    for block in blocks:
        stop = start + len(block)
        dense[start:stop, start:] = block
        dense[stop:, start:stop] = block[:, stop - start :].T
        start = stop
    return dense


@dataclass(frozen=True)
class PsdReport:
    """Outcome of :func:`check_psd` for one Gram matrix."""

    min_eigenvalue: float
    passed: bool
    trace: float


def check_psd(gram) -> PsdReport:
    """Minimum eigenvalue, the trace, and whether the minimum clears
    -1e-8 * max(trace, 1).

    ``gram`` is an N x N array or a tuple of row blocks, unpacked into one
    N x N array.  A trace or eigenvalue that overflows raises
    NumericalError.
    """
    gram = _dense(_blocks(gram))
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

    ``gram`` is a tuple of row blocks
    (:func:`invkern.invariance.gram_blocks`) or an N x N array, one block.
    Without ``n_axes``, all N eigenpairs from dense ``eigh`` (N <= 5000),
    of the blocks unpacked into one N x N array.  With ``n_axes`` and
    N >= ``LANCZOS_MIN_N``, only the top eigenpairs that certify the
    entropy selection of ``n_axes`` axes (:func:`truncated_eig`), or all N
    when Lanczos spends its budget first.  The sign convention makes the
    largest-magnitude component of each eigenvector positive, so outputs
    are reproducible across runs.  An eigenvalue that overflows raises
    NumericalError.
    """
    blocks = _blocks(gram)
    if n_axes is not None and _order(blocks) >= LANCZOS_MIN_N:
        return truncated_eig(blocks, n_axes)
    return _dense_eig(_dense(blocks))


def _entropy_ranking(eig: EigenDecomposition, n: int):
    # Contributions lambda_i (v_i'1)^2 / N^2, and the axes ranked by
    # contribution, then eigenvalue, then index (lexsort is stable).
    projections = eig.eigenvectors.T @ np.ones(n)
    contributions = eig.eigenvalues * projections**2 / n**2
    return contributions, np.lexsort((-eig.eigenvalues, -contributions))


# Lanczos tolerance for residuals and breakdowns, relative to |theta_1|.  The
# tridiagonal is diagonalized every 1 + j // _CHECK_SPACING steps.
_RITZ_TOL = 64 * np.finfo(float).eps
_CHECK_SPACING = 16
# Lanczos hands over to the dense solve once its flops reach _BUDGET_SHARE
# of the dense solve's.  A step costs a matvec (2 N^2) and two Gram-Schmidt
# passes over its j basis vectors (8 j N); an eigh of order n costs the
# 4 n^3 / 3 of its Householder tridiagonalization.  Lanczos runs these flops
# 1.3 to 2.4 times slower than a dense eigh runs its own, so from
# LANCZOS_MIN_N points on a Gram that never certifies took 1.26 to 1.47
# dense solves (N = 512 to 3000, README).  Below that, where clustering
# stays dense, the budget is a LANCZOS_MIN_N-point Gram's (36 Mflop, a few
# ms): small Grams whose entropy axes lie deep in the spectrum still
# certify.
_BUDGET_SHARE = 0.2
_EIGH_FLOPS = 4.0 / 3.0


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    # Two classical Gram-Schmidt passes against the rows of basis, in place:
    # the second removes what rounding left after the first.
    for _ in range(2):
        w -= (basis @ w) @ basis
    return w


def _lanczos(blocks, m: int, v0: np.ndarray):
    """Yield the top ``m``, ``2m``, ``4m``, ... eigenpairs of one Krylov run from ``v0``.

    Single-vector Lanczos with full reorthogonalization (two Gram-Schmidt
    passes per step).  From step m on, the top ``m`` Ritz pairs of the
    tridiagonal T_j are yielded once every residual |beta_j s_ji| is at
    most _RITZ_TOL * |theta_1|, theta_1 the Ritz value largest in
    magnitude; the run then goes on with the same basis and tridiagonal
    until the top ``2m`` settle, and so on.  The basis grows as it is
    used.  A breakdown means the basis spans an invariant subspace, which
    holds one vector of each eigenspace the start touched: Lanczos goes on
    from a fixed-seed random vector orthogonal to the basis, as ARPACK
    does, so the rest of the spectrum stays reachable.  The run stops when
    that fresh vector breaks down at once (the rest of the spectrum is one
    repeated eigenvalue, the null space of a low-rank Gram or the whole
    identity, whose eigenvectors only a dense solve fixes), when its flops
    reach _BUDGET_SHARE of a dense eigh's (of max(N, LANCZOS_MIN_N)
    points), or when a value overflows.
    """
    n = _order(blocks)
    budget = _BUDGET_SHARE * _EIGH_FLOPS * max(n, LANCZOS_MIN_N) ** 3
    basis = np.empty((min(n, 2 * m), n))
    alpha, beta = np.zeros(n), np.zeros(n)
    basis[0] = v0 / np.linalg.norm(v0)
    fresh = np.random.default_rng(1)
    restarted, norm, check, work = False, 0.0, m, 0.0
    for j in range(n):
        done = basis[: j + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            w = _matvec(blocks, basis[j])
            alpha[j] = basis[j] @ w
            beta[j] = np.linalg.norm(_orthogonalize(w, done))
            finite = np.isfinite(alpha[j] + beta[j])
        if not finite:
            return  # the Gram overflows; the dense solve reports it
        work += 2.0 * n * n + 8.0 * (j + 1) * n
        # Gershgorin bound on |theta_1|, cheaper than diagonalizing T_j.
        norm = max(norm, abs(alpha[j]) + beta[j] + (beta[j - 1] if j else 0.0))
        breakdown = beta[j] <= _RITZ_TOL * norm
        last = j + 1 == n or (breakdown and restarted) or work >= budget
        if j + 1 >= m and (j + 1 >= check or last):
            check = j + 2 + j // _CHECK_SPACING
            work += _EIGH_FLOPS * (j + 1) ** 3
            tridiagonal = np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
            theta, s = np.linalg.eigh(tridiagonal)
            tol = _RITZ_TOL * max(abs(theta[0]), abs(theta[-1]))
            if np.all(beta[j] * np.abs(s[-1, -m:]) <= tol):
                yield _descending(theta[-m:], done.T @ s[:, -m:])
                m *= 2
        if last:
            return
        restarted = breakdown
        if breakdown:
            w = _orthogonalize(fresh.standard_normal(n), done)
            beta[j] = 0.0
        if j + 1 == len(basis):
            basis = np.concatenate([basis, np.empty((min(n, 2 * len(basis)) - len(basis), n))])
        basis[j + 1] = w / np.linalg.norm(w)


def truncated_eig(gram, n_axes: int) -> EigenDecomposition:
    """Top M eigenpairs, enough to select ``n_axes`` entropy axes exactly.

    One Lanczos run (:func:`_lanczos`) computes the top M = 2 * n_axes
    eigenpairs, and goes on to 2M, 4M, ... until a certificate holds: an
    axis that was not computed contributes at most max(lambda_M, 0) / N,
    since (v'1)^2 <= N, so once the n_axes-th largest computed
    contribution exceeds that bound (by a relative 1e-9 for solver
    tolerance) the selection equals the dense one.  When Lanczos stops
    first (its work budget spent, or an exhausted breakdown or overflow,
    see :func:`_lanczos`), the result is the dense decomposition, of row
    blocks unpacked into one N x N array.  Lanczos reads ``gram``, a
    tuple of row blocks or an N x N array as one block, only through its
    products with vectors.  Order and signs follow :func:`sym_eig`.
    """
    blocks = _blocks(gram)
    n = _order(blocks)
    if not 1 <= n_axes <= n:
        raise ValidationError(f"n_axes must be in [1, {n}], got {n_axes}")
    # A random start, not ones(N): the Krylov space of ones cannot reach
    # eigenvectors orthogonal to it, which would void the certificate.
    v0 = np.random.default_rng(0).standard_normal(n)
    for eig in _lanczos(blocks, 2 * n_axes, v0):
        bound = max(eig.eigenvalues[-1], 0.0) / n
        contributions, order = _entropy_ranking(eig, n)
        if contributions[order[n_axes - 1]] > bound * (1.0 + 1e-9):
            return eig
    return _dense_eig(_dense(blocks))


def renyi_entropy(gram, eig: EigenDecomposition | None = None):
    """Entropy mass (1'K1)/N^2 and its per-axis decomposition.

    Axis i contributes lambda_i * (v_i' 1)^2 / N^2, one value per
    eigenpair of ``eig``.  Over the full decomposition (the default) the
    contributions sum back to the total, which is the conservation law
    the tests pin; over a truncated one they fall short of it.  The mass
    sums each row block's square and twice its rectangle: of one block,
    an N x N array, that is the array's own sum; of more, it can differ
    from it in the last bits.  A mass that overflows raises
    NumericalError.
    """
    blocks = _blocks(gram)
    n = _order(blocks)
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(_mass(blocks)) / n**2
    if not np.isfinite(total):
        raise NumericalError("the Gram's entropy mass 1'K1 overflows")
    if eig is None:
        eig = sym_eig(blocks)
    return total, _entropy_ranking(eig, n)[0]


def keca_embed(gram, n_axes: int, eig: EigenDecomposition | None = None):
    """Entropy-ranked spectral embedding with unit-row normalization.

    Selects, among the eigenpairs of ``eig``, the ``n_axes`` axes of
    largest entropy contribution (ties broken by larger eigenvalue, then
    lower index), scales each by sqrt(max(lambda, 0)), and normalizes
    rows to unit length; rows with norm below 1e-12 are left as zero
    vectors.
    """
    blocks = _blocks(gram)
    n = _order(blocks)
    if not 1 <= n_axes <= n:
        raise ValidationError(f"n_axes must be in [1, {n}], got {n_axes}")
    if eig is None:
        eig = sym_eig(blocks)
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
    # k-means++: weight by squared distance to the nearest center.  Each point's
    # nearest distance is kept and lowered by the newest center alone.
    n = len(points)
    chosen = [int(rng.integers(n))]
    nearest = np.full(n, np.inf)
    for _ in range(1, k):
        np.minimum(nearest, _pairwise_distance(points, points[chosen[-1:]])[:, 0], out=nearest)
        weights = nearest**2
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
    if not np.isfinite(pts).all():
        raise ValidationError("k-means points must be finite")
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

    ``gram`` is a tuple of row blocks
    (:func:`invkern.invariance.gram_blocks`), which holds no N x N array
    unless the eigensolver falls back to dense, or an N x N array, one
    block.  From ``LANCZOS_MIN_N`` points on, ``entropy_contributions``
    holds one value per computed eigenpair (see :func:`truncated_eig`),
    not N.
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

    Pipeline: Gram row blocks (:func:`invkern.invariance.gram_blocks`)
    -> entropy decomposition -> embedding on the top k axes -> angular
    k-means.
    """
    return cluster_gram(gram_blocks(_gram_points(data), spec), k, seed=seed)


def clustering_accuracy(labels, truth) -> float:
    """Best label-permutation agreement rate in [0, 1]."""
    labels = np.asarray(labels).ravel()
    truth = np.asarray(truth).ravel()
    if labels.shape != truth.shape:
        raise ValidationError("labels and truth must have the same length")
    if not len(labels):
        raise ValidationError("labels must be non-empty")
    classes, codes = np.unique(np.concatenate([labels, truth]), return_inverse=True)
    m, n = len(classes), len(labels)
    confusion = np.zeros((m, m), dtype=int)
    np.add.at(confusion, (codes[:n], codes[n:]), 1)
    best = int(confusion[np.arange(m), best_matching(-confusion)].sum())
    return best / n
