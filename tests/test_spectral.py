"""Gram construction, eigenanalysis, entropy, and clustering tests."""

import json
import subprocess
import sys
import tracemalloc
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
    KernelSpec,
    PsdReport,
    build_gram,
    chain,
    check_psd,
    cluster_gram,
    clustering_accuracy,
    eval_kernel,
    gaussian,
    gen_directions,
    gen_flipped_blobs,
    gram_blocks,
    keca_embed,
    kernel_matrix,
    kmeans,
    laplace,
    linear,
    poly,
    polyhom,
    renyi_entropy,
    rotation,
    save_dataset,
    spectral_cluster,
    sym_eig,
    truncated_eig,
)
from invkern.errors import (
    DegenerateEmbeddingError,
    NumericalError,
    ValidationError,
    ZeroVectorError,
)
from invkern.invariance import GRAM_BLOCK_ROWS, TILE_ROWS
from invkern.spectral import (
    LANCZOS_MIN_N,
    _blocks,
    _dense,
    _entropy_ranking,
    _mass,
    _matvec,
    _seed_centers,
)
from oracles import make_triple, seed_centers


def complex_points(rng, n_points, dim, scale=1.0):
    return scale * (
        rng.standard_normal((n_points, dim)) + 1j * rng.standard_normal((n_points, dim))
    )


class TestBuildGram:
    def test_identical_points(self):
        gram = build_gram(np.array([[1.0, 2.0], [1.0, 2.0]]), KernelSpec(gaussian(1.0)))
        np.testing.assert_array_equal(gram, np.ones((2, 2)))

    def test_sign_invariant_entries(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        gram = build_gram(pts, KernelSpec(gaussian(1.0), SIGN))
        assert gram[0, 2] == 1.0
        assert gram[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_linear_gram_is_xxt(self):
        rng = np.random.default_rng(30)
        pts = rng.standard_normal((12, 4))
        gram = build_gram(pts, KernelSpec(linear()))
        np.testing.assert_allclose(gram, pts @ pts.T, atol=1e-12)

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
                    assert gram[i, j] == pytest.approx(
                        eval_kernel(spec, pts[i], pts[j]), rel=1e-12, abs=1e-12
                    )

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(32)
        pts = rng.standard_normal((20, 3))
        gram = build_gram(pts, KernelSpec(gaussian(0.8), SIGN))
        assert np.array_equal(gram, gram.T)

    def test_unit_diagonal_for_rbf(self):
        rng = np.random.default_rng(33)
        pts = rng.standard_normal((10, 3))
        for inv in (None, SIGN, SCALE, PROJ):
            gram = build_gram(pts, KernelSpec(gaussian(1.0), inv))
            np.testing.assert_array_equal(np.diag(gram), np.ones(10))

    def test_multi_tile_gram(self):
        # N spans three row tiles, so tile seams and mirroring are covered
        rng = np.random.default_rng(35)
        n = 2 * TILE_ROWS + 7
        pts = rng.standard_normal((n, 3))
        for inv in (None, SIGN, PROJ):
            spec = KernelSpec(gaussian(1.2), inv)
            gram = build_gram(pts, spec)
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
    gram = build_gram(points, KernelSpec(base, INVARIANCES[inv_name]))
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
            assert check_psd(gram).passed, (inv_name, base)


class TestCheckPsd:
    def test_identity(self):
        assert check_psd(np.eye(3)) == PsdReport(1.0, True, 3.0)

    def test_indefinite_matrix(self):
        report = check_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert report.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)
        assert report.trace == 2.0
        assert not report.passed

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
                assert check_psd(gram).passed, (inv, base)


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
    labels, _ = kmeans(embedding, k, seed=seed)
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


@pytest.fixture
def lanczos_steps(monkeypatch):
    # Basis sizes seen by _orthogonalize, which runs once per Lanczos step.
    import invkern.spectral as spectral

    sizes = []
    original = spectral._orthogonalize

    def counted(w, basis):
        sizes.append(len(basis))
        return original(w, basis)

    monkeypatch.setattr(spectral, "_orthogonalize", counted)
    return sizes


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
        labels, _ = kmeans(embedding, k, seed=0)
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

    @pytest.mark.parametrize("case", ["blobs", "identity"])
    def test_uncertified_gram_is_dense_within_the_budget(self, case, lanczos_steps):
        # Neither certifies: on the blobs the n_axes-th contribution stays
        # 50 times below the bound; on the identity it equals it.
        import invkern.spectral as spectral

        if case == "blobs":
            points = gen_flipped_blobs(300, 256, seed=1).points
            gram = kernel_matrix(points, KernelSpec(gaussian(22.0), SIGN))
        else:
            gram = np.eye(40)
        n = len(gram)
        dense = sym_eig(gram)
        eig = truncated_eig(gram, 2)
        assert np.array_equal(eig.eigenvalues, dense.eigenvalues)
        assert np.array_equal(eig.eigenvectors, dense.eigenvectors)
        # Each step costs at least its matvec, 2 N^2 flops.
        budget = spectral._BUDGET_SHARE * spectral._EIGH_FLOPS * max(n, LANCZOS_MIN_N) ** 3
        assert len(lanczos_steps) <= budget / (2 * n * n) + 1

    def test_doubling_m_continues_the_krylov_run(self, lanczos_steps):
        # M = 12 settles in 21 steps without certifying; M = 24 then needs
        # 11 more steps of the same run, not 32 from the start.
        data, _ = gen_directions(6, 2000, seed=7)
        gram = build_gram(data, KernelSpec(gaussian(0.3), PROJ))
        eig = truncated_eig(gram, 6)
        assert len(eig.eigenvalues) == 24
        assert len(lanczos_steps) <= 32
        assert lanczos_steps == list(range(1, len(lanczos_steps) + 1))

    def test_repeated_top_eigenvalue_selects_the_dense_axes(self):
        # Three equal blocks: the top eigenvalue 600 + 1e-3 has multiplicity
        # 3, and a single Krylov space holds one vector of its eigenspace.
        gram = np.kron(np.eye(3), np.ones((600, 600))) + 1e-3 * np.eye(1800)
        assert len(gram) >= LANCZOS_MIN_N
        eig, dense = truncated_eig(gram, 3), sym_eig(gram)
        axes = _entropy_ranking(eig, len(gram))[1][:3]
        dense_axes = _entropy_ranking(dense, len(gram))[1][:3]
        assert sorted(axes) == sorted(dense_axes) == [0, 1, 2]
        np.testing.assert_allclose(eig.eigenvalues[axes], dense.eigenvalues[axes], rtol=1e-12)
        labels = cluster_gram(gram, 3, seed=0).labels
        assert np.array_equal(labels, _dense_pipeline(gram, 3)[2])
        assert np.array_equal(labels, np.repeat([labels[0], labels[600], labels[1200]], 600))

    def test_two_calls_are_bitwise_equal(self):
        for gram in _psd_grams():
            first, second = truncated_eig(gram, 3), truncated_eig(gram, 3)
            assert np.array_equal(first.eigenvalues, second.eigenvalues)
            assert np.array_equal(first.eigenvectors, second.eigenvectors)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_gram_raises_numerical_error(self, bad):
        gram = np.eye(200) + 0.01
        gram[3, 5] = gram[5, 3] = bad
        with pytest.raises(NumericalError):
            truncated_eig(gram, 3)

    def test_truncated_cluster_loads_no_scipy(self, tmp_path):
        # The whole pipeline runs on numpy's BLAS alone, also on the
        # truncated path.
        n = LANCZOS_MIN_N + 100
        data, _ = gen_directions(6, n, seed=3)
        save_dataset(data, tmp_path / "points.csv")
        src = str(Path(invkern.__file__).parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); from invkern.cli import main; "
                "main(sys.argv[2:]); print('scipy' in sys.modules)")
        argv = ["cluster", "--input", str(tmp_path / "points.csv"), "--labeled", "--k", "6",
                "--kernel", "gaussian", "--sigma", "0.1", "--inv", "proj",
                "--out", str(tmp_path / "out")]
        out = subprocess.run(
            [sys.executable, "-c", code, src, *argv], capture_output=True, text=True, check=True
        ).stdout
        assert out.splitlines()[-1] == "False"
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text(encoding="utf-8"))
        assert metrics["n_points"] == n
        assert metrics["eigenpairs"] < n

    def test_cli_import_leaves_scipy_unloaded(self):
        src = str(Path(invkern.__file__).parents[1])
        code = "import sys; sys.path.insert(0, sys.argv[1]); import invkern.cli; " \
               "print('scipy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "False"


def row_blocks(gram):
    """A matrix-defined Gram cut into the row blocks of gram_blocks."""
    return tuple(gram[b : b + GRAM_BLOCK_ROWS, b:] for b in range(0, len(gram), GRAM_BLOCK_ROWS))


class TestGramBlocks:
    # The spectral functions read row blocks through their order, matvec and
    # mass; on more than one block those round apart from the dense ones.
    @pytest.mark.parametrize("n", [300, 512, 513, 1100])
    def test_matvec_and_mass_agree_with_the_dense_gram(self, n):
        data, _ = gen_directions(6, n, seed=5)
        spec = KernelSpec(gaussian(0.3), PROJ)
        gram, blocks = build_gram(data, spec), gram_blocks(data.points, spec)
        v = np.random.default_rng(n).standard_normal(n)
        if len(blocks) == 1:
            assert np.array_equal(_matvec(blocks, v), gram @ v)
            assert _mass(blocks) == gram.sum()
        np.testing.assert_allclose(_matvec(blocks, v), gram @ v, rtol=1e-13, atol=0)
        assert _mass(blocks) == pytest.approx(gram.sum(), rel=1e-13)
        total, _ = renyi_entropy(blocks, sym_eig(gram))
        assert total == pytest.approx(gram.sum() / n**2, rel=1e-13)

    def test_blocks_give_the_dense_labels_on_the_proj_gram(self):
        n = LANCZOS_MIN_N + 100
        data, _ = gen_directions(6, n, seed=3)
        spec = KernelSpec(gaussian(0.1), PROJ)
        blocks = gram_blocks(data.points, spec)
        assert len(blocks) == 2
        result = cluster_gram(blocks, 6, seed=0)
        dense = cluster_gram(build_gram(data, spec), 6, seed=0)
        assert len(result.entropy_contributions) == len(dense.entropy_contributions) < n
        assert result.selected_axes == dense.selected_axes
        assert np.array_equal(result.labels, dense.labels)
        assert np.array_equal(result.labels, _dense_pipeline(build_gram(data, spec), 6)[2])

    @pytest.mark.parametrize("case", ["repeated-top", "rank-5"])
    def test_blocks_give_the_dense_labels_on_matrix_grams(self, case):
        if case == "repeated-top":
            gram, k = np.kron(np.eye(3), np.ones((600, 600))) + 1e-3 * np.eye(1800), 3
        else:
            # Lanczos breaks down after five steps, and its fresh vector at once.
            factors = np.random.default_rng(48).random((1200, 5))
            gram, k = factors @ factors.T, 3
        result = cluster_gram(row_blocks(gram), k, seed=0)
        assert len(result.entropy_contributions) < len(gram)
        assert np.array_equal(result.labels, cluster_gram(gram, k, seed=0).labels)
        assert np.array_equal(result.labels, _dense_pipeline(gram, k)[2])

    def test_uncertified_blocks_fall_back_to_the_dense_solve(self):
        points = gen_flipped_blobs(300, 256, seed=1).points
        spec = KernelSpec(gaussian(22.0), SIGN)
        eig = truncated_eig(gram_blocks(points, spec), 2)
        dense = sym_eig(kernel_matrix(points, spec))
        assert np.array_equal(eig.eigenvalues, dense.eigenvalues)
        assert np.array_equal(eig.eigenvectors, dense.eigenvectors)

    def test_clustering_holds_no_dense_gram(self):
        # The blocks are 0.63 x the dense Gram's bytes at N = 2000; the
        # Lanczos basis and the tile temporaries add a few percent.  A dense
        # Gram alone would be 1 x.
        data, _ = gen_directions(6, 2000, seed=7)
        spec = KernelSpec(gaussian(0.3), PROJ)
        tracemalloc.start()
        try:
            result = cluster_gram(gram_blocks(data.points, spec), 6, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.entropy_contributions) < 2000
        assert peak < 0.75 * 2000 * 2000 * 8



class TestOneGramForm:
    # An N x N array is read as one row block, with the array's own bits.
    def test_an_array_is_one_block_with_its_own_bits(self):
        data, _ = gen_directions(6, 600, seed=5)
        gram = build_gram(data, KernelSpec(gaussian(0.3), PROJ))
        blocks = _blocks(gram)
        assert len(blocks) == 1 and blocks[0] is gram
        assert _blocks(blocks) is blocks
        assert _dense(blocks) is gram
        v = np.random.default_rng(1).standard_normal(600)
        assert np.array_equal(_matvec(blocks, v), gram @ v)
        assert _mass(blocks) == gram.sum()

    def test_integer_and_list_grams_become_float_blocks(self):
        assert _blocks(np.eye(3, dtype=int))[0].dtype == np.float64
        assert sym_eig([[2, 0], [0, 1]]).eigenvalues.tolist() == [2.0, 1.0]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sym_eig(np.empty((0, 0))),
            lambda: sym_eig(()),
            lambda: renyi_entropy(np.empty((0, 0))),
            lambda: check_psd(np.empty((0, 0))),
            lambda: truncated_eig(np.ones((2, 3)), 1),
            lambda: sym_eig(np.ones((2, 3))),
            lambda: check_psd(np.ones((2, 3))),
            lambda: keca_embed(np.ones((3, 2)), 1),
            lambda: cluster_gram(np.ones((2, 3)), 2),
            lambda: cluster_gram(np.ones(4), 2),
            lambda: sym_eig(np.ones((2, 2, 2))),
            lambda: sym_eig(np.array([["a", "b"], ["c", "d"]])),
            lambda: sym_eig(np.eye(2, dtype=complex)),
            lambda: sym_eig((np.ones((2, 3)),)),
            lambda: renyi_entropy((np.ones((2, 4)), np.ones((1, 2)))),
        ],
        ids=[
            "sym_eig-empty",
            "sym_eig-no-blocks",
            "renyi-empty",
            "check_psd-empty",
            "truncated-2x3",
            "sym_eig-2x3",
            "check_psd-2x3",
            "keca-3x2",
            "cluster-2x3",
            "cluster-1d",
            "sym_eig-3d",
            "sym_eig-strings",
            "sym_eig-complex",
            "block-not-n-wide",
            "blocks-not-n-wide",
        ],
    )
    def test_a_gram_of_the_wrong_shape_is_a_validation_error(self, call):
        with pytest.raises(ValidationError, match="a Gram must be a non-empty square real array"):
            call()

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


def unit_rows(rng, n, d):
    pts = rng.standard_normal((n, d))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


class TestKmeans:
    def test_single_cluster_inertia_is_total_scatter(self):
        # One centre at the mean direction leaves sum(1 - cos) = N - |sum x|.
        pts = unit_rows(np.random.default_rng(39), 30, 2)
        labels, inertia = kmeans(pts, 1, seed=0)
        assert set(labels.tolist()) == {0}
        scatter = len(pts) - float(np.linalg.norm(pts.sum(axis=0)))
        assert inertia == pytest.approx(scatter, rel=1e-9)

    def test_separated_blobs_split_perfectly(self):
        rng = np.random.default_rng(40)
        blob_a = rng.standard_normal((25, 2)) * 0.2 + [5, 5]
        blob_b = rng.standard_normal((25, 2)) * 0.2 - [5, 5]
        pts = np.vstack([blob_a, blob_b])
        labels, _ = kmeans(pts / np.linalg.norm(pts, axis=1, keepdims=True), 2, seed=3)
        assert len(set(labels[:25].tolist())) == 1
        assert len(set(labels[25:].tolist())) == 1
        assert labels[0] != labels[-1]

    def test_k_equals_n(self):
        pts = unit_rows(np.random.default_rng(41), 6, 2)
        _, inertia = kmeans(pts, 6, seed=0)
        assert inertia == pytest.approx(0.0, abs=1e-12)

    def test_angular_metric_splits_directions(self):
        pts = np.array(
            [[1.0, 0.0], [0.999, 0.04], [0.0, 1.0], [0.03, 0.999], [1.0, 0.01], [0.0, 0.98]]
        )
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        labels, _ = kmeans(pts, 2, seed=0)
        assert labels[0] == labels[1] == labels[4]
        assert labels[2] == labels[3] == labels[5]
        assert labels[0] != labels[2]

    def test_deterministic(self):
        pts = unit_rows(np.random.default_rng(42), 40, 3)
        first = kmeans(pts, 4, seed=7)
        second = kmeans(pts, 4, seed=7)
        assert np.array_equal(first[0], second[0])
        assert first[1] == second[1]

    @pytest.mark.parametrize("rows, k", [
        ([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], 3),
        ([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.0]], 4),
        ([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]], 4),
    ])
    def test_reseed_never_empties_another_cluster(self, rows, k):
        # An empty cluster must not take the only member of another one.
        for seed in range(4):
            labels, _ = kmeans(np.array(rows), k, seed=seed)
            assert np.array_equal(np.unique(labels), np.arange(k)), seed

    def test_validation(self):
        with pytest.raises(ValueError):
            kmeans(np.ones((3, 2)), 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_are_a_validation_error(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            kmeans(np.full((4, 2), bad), 2)

    @pytest.mark.parametrize("k", [2, 6, 12])
    def test_seeding_chooses_the_reference_centres(self, k):
        # The running nearest distance picks the centres that recomputing every
        # chosen centre's distances picks, with the same random numbers: on random
        # embeddings with duplicate rows, and on exact axis rows, where every
        # weight reaches 0 once both axes are chosen and a uniform draw follows.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n, dim = int(rng.integers(k, 300)), int(rng.integers(1, 13))
            pts = rng.standard_normal((n, dim))
            pts[rng.integers(n, size=n // 3)] = pts[int(rng.integers(n))]
            axes = np.eye(2)[rng.integers(2, size=n)]
            for rows in (pts, axes):
                got = _seed_centers(rows, k, np.random.default_rng(seed))
                assert np.array_equal(got, seed_centers(rows, k, np.random.default_rng(seed)))


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
        assert np.max(np.abs(gram_a - gram_b)) <= 1e-10
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

    def test_no_labels_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="non-empty"):
            clustering_accuracy([], [])


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
