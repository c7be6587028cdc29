"""Invariance, invariant inner kernels, and combined-kernel tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invkern import (
    PHASE,
    PROJ,
    SCALE,
    SIGN,
    ChainCompatibilityWarning,
    Invariance,
    InvarianceReport,
    KernelSpec,
    apply_group,
    chain,
    check_invariance,
    eval_kernel,
    format_invariance,
    frobenius_inner,
    gaussian,
    invariant_inner,
    kernel_label,
    kernel_triple,
    laplace,
    linear,
    median_heuristic_sigma,
    parse_invariance,
    poly,
    polyhom,
    quotient_map_oracle,
    rotation,
    sample_group_element,
)
from invkern.errors import FieldError, OracleSizeError, ParseError, ZeroVectorError


def complex_points(rng, n_points, dim, scale=1.0):
    return scale * (
        rng.standard_normal((n_points, dim)) + 1j * rng.standard_normal((n_points, dim))
    )


class TestApplyGroup:
    # A group element is its scalar factor: identity 1.0, product composition.
    def test_sign_flip(self):
        x = np.array([1.0, -2.0, 0.1])
        out = apply_group(-1.0, x)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [-1.0, 2.0, -0.1])
        np.testing.assert_array_equal(apply_group(-1.0, out), x)

    def test_phase_quarter_turn(self):
        out = apply_group(1j, np.array([1.0 + 0j, 0.0 + 0j]))
        np.testing.assert_array_equal(out, [1j, 0])

    def test_scale(self):
        np.testing.assert_allclose(apply_group(3.0, np.array([1.0, 1.0])), [3.0, 3.0])

    def test_complex_element_on_real_data_rejected(self):
        for g in (np.exp(2j * np.pi / 3), 1j, np.array([[1.0], [1j]])):
            with pytest.raises(FieldError):
                apply_group(g, np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_half_phase_keeps_real_data_real(self):
        # A factor with zero imaginary part acts as a real one.
        out = apply_group(-1.0 + 0j, np.array([1.0, -2.0]))
        assert not np.iscomplexobj(out)
        np.testing.assert_array_equal(out, [-1.0, 2.0])

    def test_real_field_samples_are_floats(self):
        rng = np.random.default_rng(10)
        x = np.array([1.5, -2.0, 0.25])
        for spec in (SIGN, PHASE, SCALE, PROJ, chain(SCALE, SIGN), chain(SCALE, PHASE)):
            for _ in range(20):
                g = sample_group_element(spec, rng, False)
                assert type(g) is float and g != 0.0, format_invariance(spec)
                out = apply_group(g, x)
                assert out.dtype == np.float64
                if spec in (SIGN, PHASE):
                    assert g in (1.0, -1.0)
                    np.testing.assert_array_equal(np.abs(out), np.abs(x))

    def test_identity_and_composition(self):
        rng = np.random.default_rng(11)
        x = complex_points(rng, 1, 4)[0]
        np.testing.assert_array_equal(apply_group(1.0, x), x)
        for spec in [SIGN, rotation(5), PHASE, SCALE, PROJ, chain(SCALE, SIGN), chain(SCALE, PHASE)]:
            for _ in range(10):
                g = sample_group_element(spec, rng, True)
                h = sample_group_element(spec, rng, True)
                left = apply_group(g, apply_group(h, x))
                right = apply_group(g * h, x)
                np.testing.assert_allclose(left, right, rtol=1e-14, atol=0)

    def test_broadcast_moves_each_row_by_its_factor(self):
        rng = np.random.default_rng(12)
        xs = complex_points(rng, 6, 3)
        gs = [sample_group_element(chain(SCALE, PHASE), rng, True) for _ in xs]
        moved = apply_group(np.array(gs)[:, None], xs)
        np.testing.assert_array_equal(moved, [apply_group(g, x) for g, x in zip(gs, xs)])


class TestInvariantInner:
    def test_scale_collapses_positive_multiples(self):
        assert invariant_inner(SCALE, (2.0, 3.0), (10.0, 15.0)) == pytest.approx(1.0)

    def test_sign_inner_is_squared_product(self):
        # Frobenius oracle: <xx', yy'> = 9 + 24 + 24 + 64
        assert invariant_inner(SIGN, (1.0, 2.0), (3.0, 4.0)) == 121.0

    def test_phase_orthogonal(self):
        assert invariant_inner(PHASE, (1.0, 0.0), (0.0, 1.0)) == 0.0

    def test_proj_half(self):
        assert invariant_inner(PROJ, (1.0, 0.0), (1.0, 1.0)) == pytest.approx(0.5)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            invariant_inner(SCALE, (0.0, 0.0), (1.0, 1.0))

    def test_range_bounds(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            proj_value = invariant_inner(PROJ, x, y)
            assert 0.0 <= proj_value <= 1.0 + 1e-12
            assert invariant_inner(PHASE, x, y) >= 0.0


class TestEvalKernel:
    def test_sign_collapses_negation(self):
        spec = KernelSpec(gaussian(3.7), SIGN)
        assert eval_kernel(spec, (1.0, 2.0), (-1.0, -2.0)) == 1.0

    def test_sign_invariant_gaussian_known_value(self):
        spec = KernelSpec(gaussian(1.0), SIGN)
        assert eval_kernel(spec, (1.0, 0.0), (0.0, 1.0)) == pytest.approx(
            np.exp(-1.0), abs=1e-15
        )

    def test_scale_invariant_gaussian_closed_form(self):
        spec = KernelSpec(gaussian(1.0), SCALE)
        expected = np.exp(1.0 / np.sqrt(2.0) - 1.0)
        assert eval_kernel(spec, (1.0, 0.0), (1.0, 1.0)) == pytest.approx(
            expected, abs=1e-15
        )

    def test_sign_invariant_poly(self):
        spec = KernelSpec(poly(2), SIGN)
        assert eval_kernel(spec, (1.0, 2.0), (3.0, 4.0)) == (121 + 1) ** 2

    def test_rotation_needs_complex_data(self):
        spec = KernelSpec(gaussian(1.0), rotation(3))
        with pytest.raises(FieldError):
            eval_kernel(spec, (1.0, 0.0), (0.0, 1.0))

    def test_gaussian_values_bounded(self):
        rng = np.random.default_rng(13)
        for inv in [SIGN, PHASE, SCALE, PROJ]:
            spec = KernelSpec(gaussian(0.9), inv)
            for _ in range(25):
                x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                value = eval_kernel(spec, x, y)
                assert 0.0 < value <= 1.0


class TestSignInvariantGaussianIdentity:
    def test_matches_outer_product_form(self):
        # exp(-||xx' - yy'||_F^2 / (2 sigma^2)) on random real vectors
        rng = np.random.default_rng(14)
        for sigma in (0.5, 1.0, 22.0):
            spec = KernelSpec(gaussian(sigma), SIGN)
            for _ in range(40):
                n = int(rng.integers(2, 11))
                x = rng.standard_normal(n)
                y = rng.standard_normal(n)
                direct = np.exp(
                    -np.sum((np.outer(x, x) - np.outer(y, y)) ** 2) / (2 * sigma**2)
                )
                assert abs(eval_kernel(spec, x, y) - direct) <= 1e-10


def norm(v):
    return float(np.sqrt(np.real(np.vdot(v, v))))


# Hard-coded closed forms, one per invariance and base family.
def closed_form_rotation(m, base):
    def k(x, y):
        s = complex(np.vdot(y, x)) ** m
        sym = float(np.real(s))
        if base == "linear":
            return sym
        if base == "poly":
            return (sym + 1.0) ** 2
        nx2m = norm(x) ** (2 * m)
        ny2m = norm(y) ** (2 * m)
        return float(np.exp(-(nx2m + ny2m - s - np.conj(s)).real / 2.0))

    return k


def closed_form_phase(base):
    def k(x, y):
        s = abs(complex(np.vdot(y, x))) ** 2
        if base == "linear":
            return s
        if base == "poly":
            return (s + 1.0) ** 2
        return float(np.exp(-(norm(x) ** 4 + norm(y) ** 4 - 2.0 * s) / 2.0))

    return k


def closed_form_scale(base):
    def k(x, y):
        s = float(np.vdot(y, x).real) / (norm(x) * norm(y))
        if base == "linear":
            return s
        if base == "poly":
            return (s + 1.0) ** 2
        return float(np.exp(s - 1.0))

    return k


def closed_form_proj(base):
    def k(x, y):
        s = abs(complex(np.vdot(y, x))) ** 2 / (norm(x) ** 2 * norm(y) ** 2)
        if base == "linear":
            return s
        if base == "poly":
            return (s + 1.0) ** 2
        return float(np.exp(s - 1.0))

    return k


class TestClosedFormCatalog:
    """eval_kernel must reproduce every published closed form."""

    @pytest.mark.parametrize("base_name,base", [
        ("linear", linear()), ("poly", poly(2)), ("gaussian", gaussian(1.0)),
    ])
    @pytest.mark.parametrize("inv_name", ["rot2", "rot3", "phase", "scale", "proj"])
    def test_closed_forms(self, base_name, base, inv_name):
        rng = np.random.default_rng(15)
        if inv_name == "rot2":
            spec_inv, oracle, needs_complex = SIGN, closed_form_rotation(2, base_name), False
        elif inv_name == "rot3":
            spec_inv, oracle, needs_complex = rotation(3), closed_form_rotation(3, base_name), True
        elif inv_name == "phase":
            spec_inv, oracle, needs_complex = PHASE, closed_form_phase(base_name), True
        elif inv_name == "scale":
            spec_inv, oracle, needs_complex = SCALE, closed_form_scale(base_name), False
        else:
            spec_inv, oracle, needs_complex = PROJ, closed_form_proj(base_name), True
        spec = KernelSpec(base, spec_inv)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            if needs_complex:
                x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            else:
                x = rng.standard_normal(n)
                y = rng.standard_normal(n)
            got = eval_kernel(spec, x, y)
            want = oracle(x, y)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestQuotientOracle:
    def test_sign_outer_product(self):
        np.testing.assert_array_equal(
            quotient_map_oracle(SIGN, np.array([1.0, 2.0])), [[1.0, 2.0], [2.0, 4.0]]
        )

    def test_scale_unit_vector(self):
        np.testing.assert_allclose(
            quotient_map_oracle(SCALE, np.array([3.0, 4.0])), [0.6, 0.8]
        )

    def test_phase_hermitian_matrix(self):
        out = quotient_map_oracle(PHASE, np.array([1.0, 1j]))
        np.testing.assert_allclose(out, [[1.0, -1j], [1j, 1.0]])

    def test_size_limits(self):
        with pytest.raises(OracleSizeError):
            quotient_map_oracle(rotation(4), np.ones(2))
        with pytest.raises(OracleSizeError):
            quotient_map_oracle(rotation(3), np.ones(9))

    def test_chain_unsupported(self):
        with pytest.raises(ValueError):
            quotient_map_oracle(chain(SCALE, SIGN), np.ones(2))

    @pytest.mark.parametrize("m", [2, 3])
    def test_trick_equals_explicit_tensor_features(self, m):
        rng = np.random.default_rng(16)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            spec = rotation(m)
            explicit = frobenius_inner(
                quotient_map_oracle(spec, x), quotient_map_oracle(spec, y)
            )
            trick = invariant_inner(spec, x, y)
            assert abs(trick - explicit) <= 1e-9 * (1 + abs(trick))

    def test_phase_trick_equals_vvstar_features(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            explicit = frobenius_inner(
                quotient_map_oracle(PHASE, x), quotient_map_oracle(PHASE, y)
            )
            trick = invariant_inner(PHASE, x, y)
            assert abs(trick - explicit) <= 1e-9 * (1 + abs(trick))

    def test_scale_and_proj_oracle_agreement(self):
        rng = np.random.default_rng(18)
        for spec in (SCALE, PROJ):
            for _ in range(40):
                x = rng.standard_normal(4)
                y = rng.standard_normal(4)
                explicit = frobenius_inner(
                    quotient_map_oracle(spec, x), quotient_map_oracle(spec, y)
                )
                trick = invariant_inner(spec, x, y)
                assert abs(trick - explicit) <= 1e-9 * (1 + abs(trick))


class TestChains:
    def test_commutes_and_matches_proj_on_real_data(self):
        rng = np.random.default_rng(19)
        spec_a = KernelSpec(gaussian(1.0), chain(SCALE, SIGN))
        spec_b = KernelSpec(gaussian(1.0), chain(SIGN, SCALE))
        spec_c = KernelSpec(gaussian(1.0), PROJ)
        for _ in range(100):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            a = eval_kernel(spec_a, x, y)
            b = eval_kernel(spec_b, x, y)
            c = eval_kernel(spec_c, x, y)
            assert abs(a - b) <= 1e-12
            assert abs(a - c) <= 1e-12

    def test_unvalidated_chain_warns(self):
        with pytest.warns(ChainCompatibilityWarning):
            chain(SIGN, SIGN)
        with pytest.warns(ChainCompatibilityWarning):
            chain(SIGN, PHASE)

    def test_validated_chain_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain(SCALE, SIGN)
            chain(PHASE, SCALE)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            chain()

    def test_depth_limit(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ChainCompatibilityWarning)
            deep = chain(SCALE, chain(SIGN, chain(SCALE, SIGN)))  # depth 4: allowed
            assert deep.kind == "chain"
            with pytest.raises(ValueError):
                chain(SCALE, chain(SIGN, chain(SCALE, chain(SIGN, SCALE))))


class TestCheckInvariance:
    def test_no_invariance_is_trivially_invariant(self):
        rng = np.random.default_rng(20)
        report = check_invariance(KernelSpec(gaussian(1.0)), rng.standard_normal((5, 2)))
        assert report.passed and report.max_deviation == 0.0

    def test_supported_combinations_pass(self):
        rng = np.random.default_rng(21)
        real = rng.standard_normal((20, 4))
        cplx = complex_points(rng, 20, 4)
        bases = [linear(), gaussian(1.4), poly(2), polyhom(2)]
        cases = [
            (SIGN, real), (SCALE, real), (PROJ, real),
            (rotation(3), cplx), (PHASE, cplx), (PROJ, cplx),
            (chain(SCALE, SIGN), real),
        ]
        for inv, pts in cases:
            for base in bases:
                report = check_invariance(KernelSpec(base, inv), pts, 8, seed=1)
                assert report.passed, (inv, base, report)

    def test_reports_are_pinned(self):
        # Exact reports, a Laplace false failure included: evaluating the
        # pairs in batches must not move a bit of them.
        rng = np.random.default_rng(31)
        real = rng.standard_normal((6, 3))
        cplx = complex_points(rng, 6, 3)
        three = np.random.default_rng(1).standard_normal((3, 4))
        cases = [
            (KernelSpec(gaussian(1.2), SIGN), real, 8, 3, None,
             (True, 0.0, 1e-10, 1.0)),
            (KernelSpec(laplace(0.9), SCALE), real, 8, 3, None,
             (True, 4.440892098500626e-16, 1e-10, 1.0)),
            (KernelSpec(poly(3), rotation(3)), cplx, 8, 3, None,
             (True, 1.8044374883174896e-09, 4.7089570037460684e-05, 470895.7003746068)),
            (KernelSpec(linear(), PROJ), cplx, 8, 3, None,
             (True, 3.3306690738754696e-16, 1.0000000000000003e-10,
              1.0000000000000002)),
            (KernelSpec(gaussian(1.0)), real, 8, 0, SIGN,
             (False, 0.8629177288783728, 1e-10, 1.0)),
            (KernelSpec(laplace(1.0), SCALE), three, 16, 1, None,
             (False, 1.4901161082825354e-08, 1e-10, 1.0)),
        ]
        for spec, pts, n_samples, seed, group, (passed, dev, threshold, scale) in cases:
            report = check_invariance(spec, pts, n_samples, seed=seed, group=group)
            assert report == InvarianceReport(
                passed, dev, threshold, 1e-10, scale, n_samples
            ), kernel_label(spec)

    def test_non_invariant_kernel_fails_against_sign_group(self):
        rng = np.random.default_rng(22)
        pts = rng.standard_normal((20, 3))
        report = check_invariance(KernelSpec(gaussian(1.0)), pts, 8, seed=0, group=SIGN)
        assert not report.passed
        assert report.max_deviation > 1e-6


class TestGrammar:
    @pytest.mark.parametrize("text,expected", [
        ("sign", SIGN),
        ("ROT:2", SIGN),
        ("rot:5", rotation(5)),
        ("Phase", PHASE),
        ("scale", SCALE),
        ("proj", PROJ),
        ("chain(scale,sign)", chain(SCALE, SIGN)),
        (" chain( scale , rot:3 ) ", chain(SCALE, rotation(3))),
    ])
    def test_parse(self, text, expected):
        assert parse_invariance(text) == expected

    @pytest.mark.parametrize("spec", [
        SIGN, rotation(3), PHASE, SCALE, PROJ, chain(SCALE, SIGN),
        chain(SCALE, rotation(4)),
    ])
    def test_round_trip(self, spec):
        assert parse_invariance(format_invariance(spec)) == spec

    @pytest.mark.parametrize("bad", ["", "rot:", "rot:1", "spin", "chain()", "chain(scale,)", "chain(scale"])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_invariance(bad)

    def test_kernel_label(self):
        assert kernel_label(KernelSpec(gaussian(22.0), SIGN)) == "gaussian(sigma=22)+sign"
        assert kernel_label(KernelSpec(poly(3))) == "poly(degree=3)"
        assert kernel_label(KernelSpec(linear(), PROJ)) == "linear+proj"


class TestMedianHeuristic:
    def test_matches_brute_force_feature_distances(self):
        rng = np.random.default_rng(23)
        pts = rng.standard_normal((12, 3))
        feats = [np.outer(p, p) for p in pts]
        dists = [
            np.linalg.norm(feats[i] - feats[j])
            for i in range(12)
            for j in range(i + 1, 12)
        ]
        assert median_heuristic_sigma(pts, SIGN) == pytest.approx(
            float(np.median(dists)), rel=1e-12
        )

    def test_sign_flips_do_not_move_it(self):
        rng = np.random.default_rng(24)
        pts = rng.standard_normal((15, 3))
        flipped = pts * np.where(rng.random(15) < 0.5, -1.0, 1.0)[:, None]
        assert median_heuristic_sigma(pts, SIGN) == pytest.approx(
            median_heuristic_sigma(flipped, SIGN), abs=1e-12
        )


class TestKernelTriple:
    def test_plain_triple_passthrough(self):
        t = kernel_triple(KernelSpec(gaussian(1.0)), (1.0, 2.0), (3.0, 4.0))
        assert (t.sxx, t.sxy, t.syy) == (5.0, 11.0, 25.0)

    def test_invariant_triple(self):
        t = kernel_triple(KernelSpec(gaussian(1.0), SIGN), (1.0, 2.0), (3.0, 4.0))
        assert (t.sxx, t.sxy, t.syy) == (25.0, 121.0, 625.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Invariance("rotation", m=1)
        with pytest.raises(ValueError):
            Invariance("mystery")


class TestKernelValueChecks:
    def test_kernel_matrix_is_the_gram(self):
        from invkern import build_gram, kernel_matrix

        pts = np.random.default_rng(23).standard_normal((7, 3))
        spec = KernelSpec(gaussian(1.3), SIGN)
        values = kernel_matrix(pts, spec)
        assert np.array_equal(values, build_gram(pts, spec).values)
        assert values[2, 5] == pytest.approx(eval_kernel(spec, pts[2], pts[5]), abs=1e-12)

    def test_eval_kernel_overflow_names_pair(self):
        from invkern.errors import NumericalError

        for inv in (None, SIGN):
            with pytest.raises(NumericalError, match=r"pair \(0, 1\)"):
                eval_kernel(KernelSpec(poly(400), inv), [10.0, 10.0], [10.0, 10.0])

    def test_diagonal_overflow_alone_stays_finite(self):
        # (201)^400 overflows for k(x, x), but k(x, y) = 1.02^400 does not
        value = eval_kernel(KernelSpec(poly(400)), [10.0, 10.0], [1e-3, 1e-3])
        assert value == pytest.approx(1.02**400, rel=1e-12)

    def test_check_invariance_overflow_raises(self):
        from invkern.errors import NumericalError

        with pytest.raises(NumericalError):
            check_invariance(KernelSpec(poly(400)), np.full((4, 2), 10.0), group=SIGN)

    def test_check_invariance_argument_errors_are_typed(self):
        from invkern.errors import ValidationError

        with pytest.raises(ValidationError, match="non-empty"):
            check_invariance(KernelSpec(gaussian(1.0), SIGN), np.zeros((0, 2)))
        with pytest.raises(ValidationError, match="at least 1"):
            check_invariance(KernelSpec(gaussian(1.0), SIGN), np.ones((3, 2)), 0)


PROPERTY_INVARIANCES = (SIGN, rotation(3), PHASE, SCALE, PROJ, chain(SCALE, SIGN))
PROPERTY_BASES = (linear(), gaussian(1.5), laplace(1.5), poly(2), polyhom(2))
# Round-off of one rewritten triple component, in units of the triple's
# size: <x,y> over at most 4 complex coordinates, one rounding per
# coordinate in the group action, then at most a cube (rot:3) or a
# division and a square root (scale, proj) add up to about 40 eps; 64 eps
# leaves room over that.
ROUNDING = 64 * np.finfo(float).eps


def invariance_tolerance(base, size):
    """Largest |k(g.x, h.y) - k(x, y)| that round-off alone explains.

    ``size`` bounds every component of both rewritten triples (|sxy| is
    below the diagonal by Cauchy-Schwarz), so each component is off by at
    most err = ROUNDING * size.  The base kernel passes err on through its
    slope: 1 for linear, degree * (size + 1)^(degree - 1) for the
    polynomials, and 1 / (2 sigma^2) per unit of the squared distance
    a + c - 2 Re s, which is off by up to 4 err, for the Gaussian.  The
    Laplace kernel takes the square root of that distance, and
    sqrt(d2 + delta) - sqrt(d2) reaches sqrt(delta) at d2 = 0 (a pair on
    one orbit), so its bound is sqrt(4 err) / sigma, of order sqrt(eps).
    """
    err = ROUNDING * size
    if base.family == "linear":
        return err
    if base.family == "poly":
        return base.degree * (size + 1.0) ** (base.degree - 1) * err
    if base.family == "polyhom":
        return base.degree * size ** (base.degree - 1) * err
    if base.family == "gaussian":
        return 4.0 * err / (2.0 * base.sigma**2)
    return np.sqrt(4.0 * err) / base.sigma


@st.composite
def point_pairs(draw):
    # Grid coordinates make coincident pairs and pairs on one orbit likely.
    d = draw(st.integers(1, 4))
    grid = st.lists(st.integers(-30, 30).map(lambda k: k / 10), min_size=2 * d, max_size=2 * d)
    pair = np.array(draw(grid)).reshape(2, d)
    if draw(st.booleans()):
        pair = pair + 1j * np.array(draw(grid)).reshape(2, d)
    pair[np.all(pair == 0, axis=1), 0] = 1.0  # scale and proj need nonzero points
    return pair


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pair=point_pairs(), seed=st.integers(0, 2**32 - 1))
def test_kernels_are_invariant_under_their_groups(pair, seed):
    rng = np.random.default_rng(seed)
    for inv in PROPERTY_INVARIANCES:
        x, y = pair.astype(complex) if inv == rotation(3) else pair
        complex_field = np.iscomplexobj(x)
        gx = apply_group(sample_group_element(inv, rng, complex_field), x)
        hy = apply_group(sample_group_element(inv, rng, complex_field), y)
        triples = [kernel_triple(KernelSpec(linear(), inv), *p) for p in ((x, y), (gx, hy))]
        size = max(max(t.sxx, t.syy) for t in triples)
        for base in PROPERTY_BASES:
            spec = KernelSpec(base, inv)
            deviation = abs(eval_kernel(spec, gx, hy) - eval_kernel(spec, x, y))
            assert deviation <= invariance_tolerance(base, size), kernel_label(spec)
