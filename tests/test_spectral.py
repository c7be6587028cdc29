"""Gram construction, eigenanalysis, entropy, and clustering tests."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invkern
from invkern import (
    PHASE,
    PROJ,
    SCALE,
    SIGN,
    Dataset,
    KernelSpec,
    build_gram,
    chain,
    check_psd,
    cluster_gram,
    clustering_accuracy,
    eval_kernel,
    gaussian,
    gen_directions,
    keca_embed,
    kernel_matrix,
    kmeans,
    laplace,
    linear,
    poly,
    polyhom,
    renyi_entropy,
    rotation,
    spectral_cluster,
    sym_eig,
    truncated_eig,
)
from invkern.errors import DegenerateEmbeddingError, ValidationError, ZeroVectorError
from invkern.invariance import TILE_ROWS
from invkern.spectral import LANCZOS_MIN_N, _entropy_ranking
from oracles import make_triple


def complex_points(rng, n_points, dim, scale=1.0):
    return scale * (
        rng.standard_normal((n_points, dim)) + 1j * rng.standard_normal((n_points, dim))
    )


class TestBuildGram:
    def test_identical_points(self):
        gram = build_gram(np.array([[1.0, 2.0], [1.0, 2.0]]), KernelSpec(gaussian(1.0)))
        np.testing.assert_array_equal(gram.values, np.ones((2, 2)))

    def test_sign_invariant_entries(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        gram = build_gram(pts, KernelSpec(gaussian(1.0), SIGN))
        assert gram.values[0, 2] == 1.0
        assert gram.values[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_linear_gram_is_xxt(self):
        rng = np.random.default_rng(30)
        pts = rng.standard_normal((12, 4))
        gram = build_gram(pts, KernelSpec(linear()))
        np.testing.assert_allclose(gram.values, pts @ pts.T, atol=1e-12)

    def test_matches_pairwise_eval(self):
        rng = np.random.default_rng(31)
        real = rng.standard_normal((8, 3))
        cplx = complex_points(rng, 8, 3)
        cases = [
            (KernelSpec(gaussian(1.3), SIGN), real),
            (KernelSpec(poly(2), SCALE), real),
            (KernelSpec(laplace(1.1), PROJ), real),
            (KernelSpec(gaussian(2.0), PHASE), cplx),
            (KernelSpec(polyhom(2), rotation(3)), cplx),
        ]
        for spec, pts in cases:
            gram = build_gram(pts, spec)
            for i in range(len(pts)):
                for j in range(len(pts)):
                    assert gram.values[i, j] == pytest.approx(
                        eval_kernel(spec, pts[i], pts[j]), rel=1e-12, abs=1e-12
                    )

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(32)
        pts = rng.standard_normal((20, 3))
        gram = build_gram(pts, KernelSpec(gaussian(0.8), SIGN))
        assert np.array_equal(gram.values, gram.values.T)

    def test_unit_diagonal_for_rbf(self):
        rng = np.random.default_rng(33)
        pts = rng.standard_normal((10, 3))
        for inv in (None, SIGN, SCALE, PROJ):
            gram = build_gram(pts, KernelSpec(gaussian(1.0), inv))
            np.testing.assert_array_equal(np.diag(gram.values), np.ones(10))

    def test_multi_tile_gram(self):
        # N spans three row tiles, so tile seams and mirroring are covered
        rng = np.random.default_rng(35)
        n = 2 * TILE_ROWS + 7
        pts = rng.standard_normal((n, 3))
        for inv in (None, SIGN, PROJ):
            spec = KernelSpec(gaussian(1.2), inv)
            gram = build_gram(pts, spec).values
            assert np.array_equal(gram, gram.T)
            np.testing.assert_array_equal(np.diag(gram), np.ones(n))
            picks = [0, 1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 2 * TILE_ROWS, n - 1]
            pairs = [(i, j) for i in picks for j in picks]
            pairs += [tuple(p) for p in rng.integers(n, size=(200, 2))]
            for i, j in pairs:
                assert gram[i, j] == pytest.approx(
                    eval_kernel(spec, pts[i], pts[j]), rel=1e-12, abs=1e-12
                )

    def test_zero_point_reported(self):
        pts = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ZeroVectorError, match="point 1"):
            build_gram(pts, KernelSpec(gaussian(1.0), SCALE))

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            build_gram(np.array([[1.0, 2.0]]), KernelSpec(gaussian(1.0)))

    def test_dataset_provenance(self):
        data = Dataset(np.eye(3), meta={"name": "probe"})
        gram = build_gram(data, KernelSpec(gaussian(1.0)))
        assert gram.source == "probe"
        assert gram.point_count == 3


INVARIANCES = {
    "sign": SIGN, "rot:3": rotation(3), "phase": PHASE, "scale": SCALE,
    "proj": PROJ, "chain(scale,sign)": chain(SCALE, SIGN),
}
BASES = (linear(), gaussian(1.5), laplace(1.5), poly(2), polyhom(2))


def _hand_triple(inv_name, x, y):
    """Invariant triple written out from the raw scalar-product triple."""
    t = make_triple(x, y)
    a, s, c = t.sxx, complex(t.sxy), t.syy
    if inv_name == "sign":
        return a**2, s**2, c**2
    if inv_name == "rot:3":
        return a**3, s**3, c**3
    if inv_name == "phase":
        return a**2, abs(s) ** 2, c**2
    if inv_name == "scale":
        return 1.0, s / np.sqrt(a * c), 1.0
    if inv_name == "proj":
        return 1.0, abs(s) ** 2 / (a * c), 1.0
    return 1.0, (s / np.sqrt(a * c)) ** 2, 1.0


def _hand_kernel(base, a, s, c):
    s = s.real
    if base.family == "linear":
        return s
    if base.family == "poly":
        return (s + 1.0) ** base.degree
    if base.family == "polyhom":
        return s**base.degree
    d2 = max(a + c - 2.0 * s, 0.0)
    if base.family == "gaussian":
        return float(np.exp(-d2 / (2.0 * base.sigma**2)))
    return float(np.exp(-np.sqrt(d2) / base.sigma))


def _tolerance(base, a, c):
    # Rounding of the triple is relative to a + c; the polynomial families
    # square it, and sqrt in the Laplace kernel turns eps into sqrt(eps).
    if base.family in ("poly", "polyhom"):
        return 1e-12 * (1.0 + a + c) ** base.degree
    if base.family == "laplace":
        return 1e-7 * np.sqrt(1.0 + a + c) / base.sigma
    return 1e-12 * (1.0 + a + c)


@st.composite
def point_sets(draw, max_n=6, max_d=4):
    n = draw(st.integers(2, max_n))
    d = draw(st.integers(1, max_d))
    grid = st.lists(st.integers(-30, 30).map(lambda k: k / 10), min_size=n * d, max_size=n * d)
    points = np.array(draw(grid)).reshape(n, d)
    if draw(st.booleans()):
        points = points + 1j * np.array(draw(grid)).reshape(n, d)
    return points


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    points=point_sets(),
    inv_name=st.sampled_from(sorted(INVARIANCES)),
    base=st.sampled_from(BASES),
)
def test_gram_matches_hand_formulas(points, inv_name, base):
    if inv_name == "rot:3":
        points = points.astype(complex)  # m >= 3 needs the complex field
    if inv_name in ("scale", "proj", "chain(scale,sign)"):
        points[np.all(points == 0, axis=1), 0] = 1.0  # quotient undefined at 0
    gram = build_gram(points, KernelSpec(base, INVARIANCES[inv_name])).values
    assert np.array_equal(gram, gram.T)
    n = len(points)
    for i in range(n):
        for j in range(n):
            a, s, c = _hand_triple(inv_name, points[i], points[j])
            want = _hand_kernel(base, a, s, c)
            assert abs(gram[i, j] - want) <= _tolerance(base, a, c), (i, j, want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(points=point_sets(max_n=12, max_d=5))
def test_grams_are_symmetric_and_psd(points):
    for inv_name, inv in [("none", None), *INVARIANCES.items()]:
        pts = points.astype(complex) if inv_name == "rot:3" else points.copy()
        if inv_name in ("scale", "proj", "chain(scale,sign)"):
            pts[np.all(pts == 0, axis=1), 0] = 1.0  # quotient undefined at 0
        for base in BASES:
            gram = kernel_matrix(pts, KernelSpec(base, inv))
            assert np.array_equal(gram, gram.T), (inv_name, base)
            assert check_psd(gram)[1], (inv_name, base)


class TestCheckPsd:
    def test_identity(self):
        assert check_psd(np.eye(3)) == (1.0, True)

    def test_indefinite_matrix(self):
        min_eig, passed = check_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert min_eig == pytest.approx(-1.0, abs=1e-12)
        assert not passed

    def test_invariant_kernels_are_psd(self):
        rng = np.random.default_rng(34)
        real = 0.7 * rng.standard_normal((30, 4))
        cplx = complex_points(rng, 30, 4, scale=0.5)
        cases = [
            (SIGN, real), (SCALE, real), (PROJ, real),
            (PHASE, cplx), (rotation(3), cplx),
        ]
        bases = [linear(), gaussian(1.5), laplace(1.5), poly(2), polyhom(2)]
        for inv, pts in cases:
            for base in bases:
                gram = build_gram(pts, KernelSpec(base, inv))
                _, passed = check_psd(gram)
                assert passed, (inv, base)


class TestSymEig:
    def test_diagonal(self):
        eig = sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_array_equal(eig.eigenvalues, [3.0, 1.0])
        np.testing.assert_array_equal(np.abs(eig.eigenvectors), np.eye(2))

    def test_two_by_two_analytic(self):
        eig = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(eig.eigenvectors[:, 0], np.ones(2) / np.sqrt(2), atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(35)
        a = rng.standard_normal((15, 15))
        gram = a @ a.T
        eig = sym_eig(gram)
        rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        scale = np.linalg.norm(gram)
        assert np.linalg.norm(rebuilt - gram) <= 1e-8 * scale
        assert np.linalg.norm(eig.eigenvectors.T @ eig.eigenvectors - np.eye(15)) <= 1e-8
        for i in range(15):
            residual = gram @ eig.eigenvectors[:, i] - eig.eigenvalues[i] * eig.eigenvectors[:, i]
            assert np.linalg.norm(residual) <= 1e-8 * scale

    def test_sign_convention(self):
        rng = np.random.default_rng(36)
        a = rng.standard_normal((8, 8))
        eig = sym_eig(a @ a.T)
        for col in eig.eigenvectors.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(37)
        a = rng.standard_normal((10, 10))
        gram = a @ a.T
        e1, e2 = sym_eig(gram), sym_eig(gram)
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)


def _dense_pipeline(gram, k, seed=0):
    eig = sym_eig(gram)
    embedding, axes = keca_embed(gram, k, eig)
    labels, _ = kmeans(embedding, k, metric="angular", seed=seed)
    return embedding, axes, labels


def _psd_grams():
    rng = np.random.default_rng(46)
    # rank 5 with nonnegative factors: eigenvalues from the 6th on are 0
    factors = rng.random((300, 5))
    yield factors @ factors.T
    # Gaussian Gram of four blobs
    centers = rng.standard_normal((4, 3)) * 3.0
    pts = np.repeat(centers, 60, axis=0) + rng.standard_normal((240, 3))
    sq = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    yield np.exp(-sq / 2.0)
    # The second eigenvector alternates in sign, orthogonal to the ones
    # vector: a Lanczos run started from ones never finds it and would
    # misnumber every later axis.
    factors = np.repeat(rng.random((100, 3)), 2, axis=0)
    alternating = np.tile([1.0, -1.0], 100) / np.sqrt(200)
    yield factors @ factors.T + 100.0 * np.outer(alternating, alternating)


class TestTruncatedEig:
    def test_matches_dense_above_threshold(self):
        n = LANCZOS_MIN_N + 100
        data, _ = gen_directions(6, n, seed=3)
        gram = build_gram(data, KernelSpec(gaussian(0.1), PROJ))
        eig = truncated_eig(gram, 6)
        assert len(eig.eigenvalues) < n
        dense = sym_eig(gram)
        m = len(eig.eigenvalues)
        np.testing.assert_allclose(eig.eigenvalues, dense.eigenvalues[:m], atol=1e-9)
        embedding, axes = keca_embed(gram, 6, eig)
        dense_embedding, dense_axes, dense_labels = _dense_pipeline(gram, 6)
        assert axes == dense_axes
        np.testing.assert_allclose(embedding, dense_embedding, atol=1e-8)
        result = cluster_gram(gram, 6, seed=0)
        assert len(result.entropy_contributions) == m
        assert result.selected_axes == dense_axes
        assert np.array_equal(result.labels, dense_labels)

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_matches_dense_on_psd_grams(self, index):
        gram = list(_psd_grams())[index]
        k = 3
        eig = truncated_eig(gram, k)
        assert len(eig.eigenvalues) < len(gram)
        embedding, axes = keca_embed(gram, k, eig)
        dense_embedding, dense_axes, dense_labels = _dense_pipeline(gram, k)
        assert axes == dense_axes
        np.testing.assert_allclose(embedding, dense_embedding, atol=1e-8)
        labels, _ = kmeans(embedding, k, metric="angular", seed=0)
        assert np.array_equal(labels, dense_labels)

    def test_identity_never_certifies(self):
        # (v'1)^2 <= N caps every contribution at 1/N = lambda_M / N, so the
        # strict certificate never holds
        dense = sym_eig(np.eye(40))
        eig = truncated_eig(np.eye(40), 2)
        assert np.array_equal(eig.eigenvalues, dense.eigenvalues)
        assert np.array_equal(eig.eigenvectors, dense.eigenvectors)

    def test_axis_count_validated(self):
        with pytest.raises(ValidationError):
            truncated_eig(np.eye(4), 0)

    def test_cli_import_leaves_scipy_unloaded(self):
        src = str(Path(invkern.__file__).parents[1])
        code = "import sys; sys.path.insert(0, sys.argv[1]); import invkern.cli; " \
               "print('scipy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "False"


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(60, 300),
    k=st.integers(1, 4),
    rank=st.integers(1, 8),
    signed=st.booleans(),
    noise=st.sampled_from([0.0, 1e-3, 0.1, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_truncated_eig_selects_the_dense_axes(n, k, rank, signed, noise, seed):
    # Signed factors leave the top eigenvectors nearly orthogonal to the
    # ones vector, so the entropy axes can sit deep in the spectrum.
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((n, rank)) if signed else rng.random((n, rank))
    spread = rng.standard_normal((n, n)) / np.sqrt(n)
    gram = factors @ factors.T + noise * (spread @ spread.T)
    eig, dense = truncated_eig(gram, k), sym_eig(gram)
    axes = _entropy_ranking(eig, n)[1][:k]
    assert np.array_equal(axes, _entropy_ranking(dense, n)[1][:k])
    np.testing.assert_allclose(
        eig.eigenvalues[axes], dense.eigenvalues[axes], rtol=0, atol=1e-9 * dense.eigenvalues[0]
    )


class TestRenyiEntropy:
    def test_rank_one_all_ones(self):
        total, contributions = renyi_entropy(np.ones((6, 6)))
        assert total == pytest.approx(1.0, abs=1e-12)
        assert np.sum(contributions > 1e-12) == 1
        assert contributions.max() == pytest.approx(1.0, abs=1e-9)

    def test_identity_matrix(self):
        total, contributions = renyi_entropy(np.eye(4))
        assert total == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(contributions, np.full(4, 1 / 16), atol=1e-9)

    def test_conservation(self):
        rng = np.random.default_rng(38)
        for _ in range(10):
            a = rng.standard_normal((20, 20))
            gram = a @ a.T
            total, contributions = renyi_entropy(gram)
            assert contributions.sum() == pytest.approx(total, abs=1e-9)


class TestKecaEmbed:
    def test_full_identity_embedding(self):
        embedding, axes = keca_embed(np.eye(4), 4)
        assert sorted(axes) == [0, 1, 2, 3]
        np.testing.assert_allclose(np.abs(embedding).sum(axis=1), np.ones(4), atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(embedding, axis=1), np.ones(4), atol=1e-12)

    def test_two_ideal_blocks_become_orthogonal_directions(self):
        gram = np.zeros((6, 6))
        gram[:3, :3] = 0.9
        gram[3:, 3:] = 0.8
        np.fill_diagonal(gram, 1.0)
        embedding, axes = keca_embed(gram, 2)
        first = embedding[:3]
        second = embedding[3:]
        # rows within one block share a direction, across blocks ~90 degrees
        assert np.allclose(first @ first.T, 1.0, atol=1e-8)
        assert np.allclose(second @ second.T, 1.0, atol=1e-8)
        assert np.allclose(first @ second.T, 0.0, atol=1e-8)

    def test_degenerate_embedding_rejected(self):
        with pytest.raises(DegenerateEmbeddingError):
            keca_embed(np.zeros((4, 4)), 2)

    def test_axis_count_validated(self):
        with pytest.raises(ValueError):
            keca_embed(np.eye(3), 0)
        with pytest.raises(ValueError):
            keca_embed(np.eye(3), 4)


class TestKmeans:
    def test_single_cluster_inertia_is_total_scatter(self):
        rng = np.random.default_rng(39)
        pts = rng.standard_normal((30, 2))
        labels, inertia = kmeans(pts, 1, seed=0)
        assert set(labels.tolist()) == {0}
        scatter = float(np.sum((pts - pts.mean(axis=0)) ** 2))
        assert inertia == pytest.approx(scatter, rel=1e-9)

    def test_separated_blobs_split_perfectly(self):
        rng = np.random.default_rng(40)
        blob_a = rng.standard_normal((25, 2)) * 0.2 + [5, 5]
        blob_b = rng.standard_normal((25, 2)) * 0.2 - [5, 5]
        pts = np.vstack([blob_a, blob_b])
        labels, _ = kmeans(pts, 2, seed=3)
        assert len(set(labels[:25].tolist())) == 1
        assert len(set(labels[25:].tolist())) == 1
        assert labels[0] != labels[-1]

    def test_k_equals_n(self):
        rng = np.random.default_rng(41)
        pts = rng.standard_normal((6, 2))
        _, inertia = kmeans(pts, 6, seed=0)
        assert inertia == pytest.approx(0.0, abs=1e-12)

    def test_angular_metric_splits_directions(self):
        pts = np.array(
            [[1.0, 0.0], [0.999, 0.04], [0.0, 1.0], [0.03, 0.999], [1.0, 0.01], [0.0, 0.98]]
        )
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        labels, _ = kmeans(pts, 2, metric="angular", seed=0)
        assert labels[0] == labels[1] == labels[4]
        assert labels[2] == labels[3] == labels[5]
        assert labels[0] != labels[2]

    def test_deterministic(self):
        rng = np.random.default_rng(42)
        pts = rng.standard_normal((40, 3))
        first = kmeans(pts, 4, seed=7)
        second = kmeans(pts, 4, seed=7)
        assert np.array_equal(first[0], second[0])
        assert first[1] == second[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            kmeans(np.ones((3, 2)), 4)
        with pytest.raises(ValueError):
            kmeans(np.ones((3, 2)), 2, metric="cosine")


class TestSpectralCluster:
    def test_duplicated_point_single_cluster(self):
        pts = np.tile([1.5, -0.5], (8, 1))
        result = spectral_cluster(pts, KernelSpec(gaussian(1.0)), 1, seed=0)
        assert set(result.labels.tolist()) == {0}
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_labels(self):
        rng = np.random.default_rng(43)
        pts = rng.standard_normal((30, 2))
        spec = KernelSpec(gaussian(1.0), SIGN)
        a = spectral_cluster(pts, spec, 2, seed=5)
        b = spectral_cluster(pts, spec, 2, seed=5)
        assert np.array_equal(a.labels, b.labels)

    def test_labels_survive_per_point_sign_corruption(self):
        rng = np.random.default_rng(44)
        data = np.vstack(
            [
                rng.standard_normal((15, 3)) * 0.1 + [2, 0, 0],
                rng.standard_normal((15, 3)) * 0.1 + [0, 2, 0],
            ]
        )
        flips = np.where(rng.random(30) < 0.5, -1.0, 1.0)[:, None]
        spec = KernelSpec(gaussian(1.0), SIGN)
        gram_a = build_gram(data, spec)
        gram_b = build_gram(data * flips, spec)
        assert np.max(np.abs(gram_a.values - gram_b.values)) <= 1e-10
        res_a = cluster_gram(gram_a, 2, seed=0)
        res_b = cluster_gram(gram_b, 2, seed=0)
        assert np.array_equal(res_a.labels, res_b.labels)

    def test_entropy_fields_populated(self):
        rng = np.random.default_rng(45)
        pts = rng.standard_normal((12, 2))
        result = spectral_cluster(pts, KernelSpec(gaussian(1.0)), 2, seed=0)
        assert result.entropy_contributions.sum() == pytest.approx(
            result.entropy_total, abs=1e-9
        )
        assert len(result.selected_axes) == 2
        assert not result.degenerate


class TestClusteringAccuracy:
    def test_exact_match(self):
        assert clustering_accuracy([0, 1, 1, 0], [0, 1, 1, 0]) == 1.0

    def test_swapped_names(self):
        assert clustering_accuracy([1, 0, 0, 1], [0, 1, 1, 0]) == 1.0

    def test_partial(self):
        assert clustering_accuracy([0, 1, 1, 1], [0, 0, 1, 1]) == 0.75

    def test_more_than_eight_classes(self):
        truth = np.repeat(np.arange(12), 3)
        labels = (truth + 5) % 12
        labels[0] = labels[3]
        assert clustering_accuracy(labels, truth) == 35 / 36

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            clustering_accuracy([0, 1], [0, 1, 1])


class TestOneOwnerPerQuantity:
    def test_cluster_gram_sums_the_gram_once(self, monkeypatch):
        import invkern.spectral as spectral

        calls = []
        original = spectral.renyi_entropy

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(spectral, "renyi_entropy", counted)
        pts = np.random.default_rng(47).standard_normal((30, 2))
        cluster_gram(build_gram(pts, KernelSpec(gaussian(1.0), SIGN)), 2)
        assert len(calls) == 1

    def test_truncated_fallback_does_not_enter_sym_eig(self, monkeypatch):
        import invkern.spectral as spectral

        dense = sym_eig(np.eye(40))

        def refuse(*args, **kwargs):
            raise AssertionError("sym_eig entered")

        monkeypatch.setattr(spectral, "sym_eig", refuse)
        eig = truncated_eig(np.eye(40), 2)
        assert np.array_equal(eig.eigenvalues, dense.eigenvalues)
        assert np.array_equal(eig.eigenvectors, dense.eigenvectors)

    def test_keca_tie_break_eigenvalue_then_index(self):
        from invkern.spectral import EigenDecomposition

        # Exact eigenvectors: h1 = ones/2 has (v'1)^2 = 4, e5 has 1, and
        # h2..h4 are orthogonal to ones.  Contributions: 1*4/25 = 4*1/25
        # for h1 and e5, zero for h2..h4.
        hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2
        vectors = np.zeros((5, 5))
        vectors[:4, :4] = hadamard.T
        vectors[4, 4] = 1.0
        eigenvalues = np.array([1.0, 3.0, 3.0, 2.0, 4.0])
        gram = vectors @ np.diag(eigenvalues) @ vectors.T
        eig = EigenDecomposition(eigenvalues, vectors)
        embedding, axes = keca_embed(gram, 4, eig)
        # e5 (eigenvalue 4) before h1 (eigenvalue 1) although its index is
        # higher; among the zero contributions, eigenvalue 3 before 2, and
        # of the two with eigenvalue 3 the lower index first
        assert axes == [4, 0, 1, 2]
        assert all(isinstance(a, int) for a in axes)
        expected = vectors[:, axes] * np.sqrt(eigenvalues[axes])
        expected /= np.linalg.norm(expected, axis=1, keepdims=True)
        np.testing.assert_allclose(embedding, expected, atol=1e-15)
