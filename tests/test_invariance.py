"""Invariance, invariant inner kernels, and combined-kernel tests."""

import io
import itertools
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invkern import (
    PHASE,
    PROJ,
    SCALE,
    SIGN,
    Invariance,
    InvarianceReport,
    KernelSpec,
    apply_group,
    chain,
    check_invariance,
    eval_kernel,
    format_invariance,
    gaussian,
    gram_blocks,
    invariant_inner,
    kernel_label,
    kernel_matrix,
    kernel_triple,
    laplace,
    linear,
    median_heuristic_sigma,
    parse_invariance,
    poly,
    polyhom,
    rotation,
    sample_group_element,
    transform_triples,
)
from invkern import invariance, kernels
from invkern.data import (
    Dataset, estimate_mixing, gen_directions, gen_flipped_blobs, gen_xor, top_norm_select,
)
from invkern.errors import (
    FieldError, InvkernError, NumericalError, ParseError, ValidationError, ZeroVectorError,
)
from invkern.figures import heatmap_svg, scatter_svg
from invkern.invariance import GRAM_BLOCK_ROWS, _gram_tile, triple_tiles
from invkern.spectral import build_gram, kmeans, spectral_cluster
from invkern.kernels import base_values, squared_distance
from oracles import OracleSizeError, frobenius_inner, median_distance, quotient_map_oracle


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


TWO_STAGE_CHAINS = list(itertools.product((SIGN, rotation(3), PHASE, SCALE, PROJ), repeat=2))


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

    def test_validated_chain_is_silent(self):
        # Every two-stage chain is a quotient by a product of scalar groups:
        # none warns, and none collapses random points, which lie on distinct
        # lines, on any field the chain accepts.
        rng = np.random.default_rng(47)
        complex_field, real_field = complex_points(rng, 12, 3), rng.standard_normal((12, 3))
        off_diagonal = ~np.eye(12, dtype=bool)
        for a, b in TWO_STAGE_CHAINS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                spec = chain(a, b)
            assert spec.parts == (a, b)
            fields = [complex_field] if rotation(3) in spec.parts else [complex_field, real_field]
            for points in fields:
                gram = kernel_matrix(points, KernelSpec(linear(), spec))
                sums = np.add.outer(np.diag(gram), np.diag(gram))
                relative_d2 = (sums - 2 * gram) / sums
                assert relative_d2[off_diagonal].min() > 1e-6, format_invariance(spec)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            chain()

    def test_depth_limit(self):
        deep = chain(SCALE, chain(SIGN, chain(SCALE, SIGN)))
        assert deep.kind == "chain"
        assert chain(SCALE, chain(SIGN, chain(SCALE, chain(SIGN, SCALE)))) == chain(
            SCALE, SIGN, SCALE, SIGN, SCALE
        )

    @pytest.mark.parametrize("nested,flat,text,complex_field", [
        (chain(chain(SCALE, SIGN), PHASE), chain(SCALE, SIGN, PHASE), "chain(scale,sign,phase)",
         True),
        (chain(SIGN, chain(SCALE, PROJ)), chain(SIGN, SCALE, PROJ), "chain(sign,scale,proj)",
         False),
    ])
    def test_nested_chain_is_its_flat_form(self, nested, flat, text, complex_field):
        assert nested == flat
        assert format_invariance(nested) == format_invariance(flat) == text
        assert kernel_label(KernelSpec(linear(), nested)) == f"linear+{text}"
        rng = np.random.default_rng(53)
        points = complex_points(rng, 9, 3) if complex_field else rng.standard_normal((9, 3))
        spec_nested, spec_flat = KernelSpec(gaussian(1.3), nested), KernelSpec(gaussian(1.3), flat)
        grams = [kernel_matrix(points, spec) for spec in (spec_nested, spec_flat)]
        assert grams[0].tobytes() == grams[1].tobytes()
        draws = [
            [sample_group_element(inv, np.random.default_rng(5), complex_field) for _ in range(3)]
            for inv in (nested, flat)
        ]
        assert draws[0] == draws[1]
        assert check_invariance(spec_nested, points, 8, seed=2) == check_invariance(
            spec_flat, points, 8, seed=2
        )

    @pytest.mark.parametrize("kwargs", [
        {"kind": "scale", "m": 5},
        {"kind": "chain", "m": 3, "parts": (SIGN,)},
        {"kind": "proj", "parts": (SIGN,)},
        {"kind": "rotation", "m": 3, "parts": (SIGN,)},
    ])
    def test_fields_the_kind_does_not_read_are_rejected(self, kwargs):
        # Such a spec would compute another kernel than it names, and its
        # text form would parse back to something else.
        with pytest.raises(ValidationError):
            Invariance(**kwargs)

    @pytest.mark.parametrize("m", [2.5, 3.0, True, "3", None])
    def test_rotation_order_must_be_an_integer(self, m):
        # 2.5 and 3.0 used to construct and then fail in the group power.
        with pytest.raises(ValidationError, match="must be an integer"):
            Invariance("rotation", m=m)
        with pytest.raises(ValidationError, match="must be an integer"):
            rotation(m)

    def test_numpy_integer_rotation_order(self):
        spec = Invariance("rotation", m=np.int64(3))
        assert spec == rotation(3) and type(spec.m) is int
        assert format_invariance(spec) == "rot:3"
        x, y = np.array([1.0 + 1.0j, 0.5]), np.array([-1.0 + 0.2j, 2.0])
        assert eval_kernel(KernelSpec(gaussian(1.0), spec), x, y) == eval_kernel(
            KernelSpec(gaussian(1.0), rotation(3)), x, y
        )


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
        # Exact reports: evaluating the pairs in batches must not move a bit
        # of them.  The last is a Laplace pair from one orbit, whose 1.5e-8
        # deviation is the square root of round-off; the Laplace term of
        # the threshold passes it.
        rng = np.random.default_rng(31)
        real = rng.standard_normal((6, 3))
        cplx = complex_points(rng, 6, 3)
        three = np.random.default_rng(1).standard_normal((3, 4))
        cases = [
            (KernelSpec(gaussian(1.2), SIGN), real, 8, 3, None,
             (True, 0.0, 1e-10, 1.0)),
            (KernelSpec(laplace(0.9), SCALE), real, 8, 3, None,
             (True, 4.440892098500626e-16, 2.6500953233506946e-07, 1.0)),
            (KernelSpec(poly(3), rotation(3)), cplx, 8, 3, None,
             (True, 1.8044374883174896e-09, 4.7089570037460684e-05, 470895.7003746068)),
            (KernelSpec(linear(), PROJ), cplx, 8, 3, None,
             (True, 3.3306690738754696e-16, 1.0000000000000003e-10,
              1.0000000000000002)),
            (KernelSpec(gaussian(1.0)), real, 8, 0, SIGN,
             (False, 0.8629177288783728, 1e-10, 1.0)),
            (KernelSpec(laplace(1.0), SCALE), three, 16, 1, None,
             (True, 1.4901161082825354e-08, 2.385185791015625e-07, 1.0)),
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

    @pytest.mark.parametrize("dim", [4, 256])
    @pytest.mark.parametrize("inv", [SCALE, PROJ, chain(SCALE, SIGN)], ids=format_invariance)
    def test_laplace_passes_on_pairs_from_one_orbit(self, inv, dim):
        # Three points make pairs from one orbit common: their squared
        # distance is round-off, which the square root lifts to up to 8e-8.
        spec = KernelSpec(laplace(1.0), inv)
        failed = [
            seed for seed in range(300)
            if not check_invariance(
                spec, np.random.default_rng(seed).standard_normal((3, dim)), 16, seed=seed
            ).passed
        ]
        assert failed == []

    def test_plain_laplace_fails_against_sign_group(self):
        pts = np.random.default_rng(22).standard_normal((20, 3))
        report = check_invariance(KernelSpec(laplace(1.0)), pts, 8, seed=0, group=SIGN)
        assert not report.passed
        assert report.max_deviation > 1e3 * report.threshold


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

    @pytest.mark.parametrize("text", [
        "chain(chain(sign,scale),proj)", "chain(sign,chain(scale,proj))",
    ])
    def test_nested_chains_flatten(self, text):
        assert parse_invariance(text) == chain(SIGN, SCALE, PROJ)

    @pytest.mark.parametrize("bad", ["chain(sign))", "chain((sign)", "chain(sign,(scale)"])
    def test_unbalanced_parentheses(self, bad):
        with pytest.raises(ParseError, match="unbalanced parentheses"):
            parse_invariance(bad)

    @pytest.mark.parametrize("levels", [4, 1200])
    def test_deep_nesting_rejected_before_recursing(self, levels):
        # 1200 levels would overflow the recursion; four exceed the chain depth
        with pytest.raises(ParseError, match="nesting deeper"):
            parse_invariance("chain(" * levels + "sign" + ")" * levels)

    def test_kernel_label(self):
        assert kernel_label(KernelSpec(gaussian(22.0), SIGN)) == "gaussian(sigma=22)+sign"
        assert kernel_label(KernelSpec(poly(3))) == "poly(degree=3)"
        assert kernel_label(KernelSpec(linear(), PROJ)) == "linear+proj"

    def test_kernel_label_prints_the_parameter_each_family_reads(self):
        # sigma as :g, degree as an int, however large.
        assert kernel_label(KernelSpec(laplace(1e-7))) == "laplace(sigma=1e-07)"
        assert kernel_label(KernelSpec(gaussian(1234567.0))) == "gaussian(sigma=1.23457e+06)"
        assert kernel_label(KernelSpec(polyhom(1234567), SCALE)) == "polyhom(degree=1234567)+scale"
        assert kernel_label(KernelSpec(linear())) == "linear"


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

    def test_equals_the_median_of_all_distances_bit_for_bit(self):
        cases = []
        for seed in range(4):
            xor = gen_xor(50, 0.15, seed=seed).points
            blobs = gen_flipped_blobs(49, 256, flip_prob=0.5, seed=seed).points
            lines = top_norm_select(gen_directions(6, 400, seed=seed)[0], 270).points
            cases += [(xor, SIGN), (xor, None), (blobs, SIGN), (blobs, None), (lines, PROJ)]
        rng = np.random.default_rng(25)
        # Integer grids tie many distances; the counts cross tile edges and both parities.
        for n in (2, 3, 4, 5, 17, 127, 128, 129, 130, 256, 257, 300):
            grid = rng.integers(-3, 4, size=(n, 2)).astype(float)
            cases += [(grid, None), (grid, SIGN)]
        cases.append((complex_points(rng, 140, 3), PHASE))
        cases.append((complex_points(rng, 131, 2), rotation(3)))
        for pts, inv in cases:
            assert median_heuristic_sigma(pts, inv) == median_distance(pts, inv), (len(pts), inv)


class TestFlatMemory:
    # The Gram, or the median's buffer of squared distances, is the only
    # N x N array: the tile temporaries are O(TILE_ROWS * N).
    N = 2000

    @staticmethod
    def peak_bytes(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("inv", [None, SIGN, PROJ], ids=["plain", "sign", "proj"])
    def test_kernel_matrix_and_median_stay_flat(self, inv):
        from invkern import kernel_matrix

        n = self.N
        pts = np.random.default_rng(26).standard_normal((n, 2))
        spec = KernelSpec(gaussian(1.0), inv)
        # Tiles are built in the Gram's own memory, with one tile temporary at a time.
        assert self.peak_bytes(lambda: kernel_matrix(pts, spec)) < 1.1 * n * n * 8
        pairs = n * (n - 1) // 2
        assert self.peak_bytes(lambda: median_heuristic_sigma(pts, inv)) < 1.5 * pairs * 8

    @pytest.mark.parametrize("inv", [PHASE, rotation(3)], ids=["phase", "rot:3"])
    def test_complex_kernel_matrix_stays_flat(self, inv):
        # A complex product goes to one reused buffer, beside one temporary:
        # the conjugate of phase, the squares of rot:3.
        from invkern import kernel_matrix

        n = self.N
        pts = complex_points(np.random.default_rng(27), n, 2)
        spec = KernelSpec(gaussian(1.0), inv)
        assert self.peak_bytes(lambda: kernel_matrix(pts, spec)) < 1.25 * n * n * 8


OUT_CASES = [
    (inv, field)
    for field in ("real", "complex")
    for inv in [None, SIGN, rotation(3), PHASE, SCALE, PROJ, chain(SCALE, SIGN)]
    if field == "complex" or inv != rotation(3)
]
OUT_FAMILIES = [linear(), gaussian(1.3), laplace(0.7), poly(3), polyhom(2)]
EXTREME_INVARIANCES = [
    None, SIGN, PHASE, SCALE, PROJ, rotation(3), chain(SCALE, SIGN), chain(SIGN, PROJ),
]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestOutBuffers:
    # transform_triples, squared_distance and base_values write into out when
    # given (kernel_matrix rewrites each tile in the Gram's memory); the results keep
    # every bit of the allocating calls, which only read their inputs.
    @staticmethod
    def triple(field):
        rng = np.random.default_rng(29)
        pts = rng.standard_normal((7, 3)) if field == "real" else complex_points(rng, 7, 3)
        sxy = pts @ pts.conj().T
        norms = np.real(np.diagonal(sxy)).copy()
        return norms[:, None], sxy, norms[None, :]

    @pytest.mark.parametrize(
        ("inv", "field"), OUT_CASES,
        ids=[f"{inv and format_invariance(inv)}-{field}" for inv, field in OUT_CASES],
    )
    def test_out_keeps_bits_and_inputs(self, inv, field):
        triple = self.triple(field)
        before = [t.copy() for t in triple]
        rewritten = transform_triples(inv, *triple)
        assert all(same_bits(t, b) for t, b in zip(triple, before))
        own = triple[1].copy()
        # Into a separate buffer, and in place over a copy of sxy.
        for sxy, buf in ((triple[1], np.empty_like(own)), (own, own)):
            got = transform_triples(inv, triple[0], sxy, triple[2], out=buf)
            assert all(same_bits(g, r) for g, r in zip(got, rewritten))
            assert np.shares_memory(got[1], buf)

        shape = np.broadcast(*rewritten).shape
        frozen = [np.copy(t) for t in rewritten]
        distances = squared_distance(*rewritten)
        buf = np.empty(shape)
        assert same_bits(squared_distance(*rewritten, out=buf), distances)
        for family in OUT_FAMILIES:
            values = base_values(family, *rewritten)
            assert all(same_bits(t, f) for t, f in zip(rewritten, frozen))
            buf = np.empty(shape)
            assert base_values(family, *rewritten, out=buf) is buf
            assert same_bits(buf, values), family
            # In place, over the real part of a copy of the rewritten sxy.
            own = np.copy(rewritten[1])
            in_place = base_values(family, rewritten[0], own, rewritten[2], out=np.real(own))
            assert same_bits(in_place, values), family

    @pytest.mark.parametrize("n", [1, 2, 129, 200, 263])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_kernel_matrix_keeps_the_allocating_bits(self, n, field):
        # Tiles built in the Gram's empty rows above them, the first tile in its
        # own rows, keep the values of the allocating tiles, mirrored.
        from invkern import kernel_matrix
        from invkern.invariance import triple_tiles

        rng = np.random.default_rng(31)
        pts = rng.standard_normal((n, 3)) if field == "real" else complex_points(rng, n, 3)
        spec = KernelSpec(gaussian(1.3), PROJ)
        expected = np.empty((n, n))
        for start, stop, triple in triple_tiles(pts, PROJ):
            expected[start:stop, start:] = base_values(spec.base, *triple)
        upper = np.triu(np.ones((n, n), dtype=bool))
        gram = kernel_matrix(pts, spec)
        assert same_bits(gram[upper], expected[upper])
        assert same_bits(gram, gram.T)


class TestGramTiles:
    # kernel_matrix and gram_blocks fill the Gram bottom up: each tile is built
    # contiguously in its row block's first values, the empty rows above it, never
    # in the finished rows below it; a block's top tile is exactly its own rows.
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 257, 1000])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("height", [None, GRAM_BLOCK_ROWS], ids=["square", "blocks"])
    def test_tiles_are_contiguous_and_above_the_finished_rows(self, n, field, height):
        rng = np.random.default_rng(37)
        pts = rng.standard_normal((n, 3)) if field == "real" else complex_points(rng, n, 3)
        height = height or n
        blocks = tuple(np.empty((min(b + height, n) - b, n - b)) for b in range(0, n, height))
        starts = []
        for start, stop, _ in triple_tiles(pts, None, blocks):
            tile = _gram_tile(blocks, start, stop)
            block, top = blocks[start // height], start % height
            assert tile.flags.c_contiguous
            if top == 0:
                assert tile.shape == (stop - start, n - start)
                assert tile.ctypes.data == block.ctypes.data
            else:
                assert not np.shares_memory(tile, block[top:])
            starts.append(start)
        assert starts == sorted(starts, reverse=True) and starts[-1] == 0

    def test_overflow_error_names_an_overflowing_row(self):
        # Rows 3 and 290 of 300 overflow their norms; whichever tile fails first,
        # the pair named holds one of them.
        pts = np.random.default_rng(38).standard_normal((300, 2))
        pts[[3, 290], 0] = 1e200
        with pytest.raises(NumericalError, match="pair") as info:
            kernel_matrix(pts, KernelSpec(gaussian(1.0)))
        pair = re.search(r"pair \((\d+), (\d+)\)", str(info.value))
        assert {3, 290} & {int(pair[1]), int(pair[2])}

    @pytest.mark.parametrize(
        "points",
        [
            np.ones(3),
            np.ones((2, 2, 2)),
            np.array([["a", "b"], ["c", "d"]]),
            np.array([[1.0, 2.0], [3.0, 4.0]], dtype=object),
            np.ones(2000),
        ],
        ids=["1-d", "3-d", "strings", "objects", "1-d-2000"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda p: kernel_matrix(p, KernelSpec(gaussian(1.0))),
            lambda p: gram_blocks(p, KernelSpec(gaussian(1.0), SIGN)),
            lambda p: median_heuristic_sigma(p),
            lambda p: list(triple_tiles(p, SIGN)),
            lambda p: check_invariance(KernelSpec(gaussian(1.0), SIGN), p),
            lambda p: build_gram(p, KernelSpec(gaussian(1.0))),
            lambda p: spectral_cluster(p, KernelSpec(gaussian(1.0)), 2),
            lambda p: Dataset(p),
            lambda p: kmeans(p, 1),
            lambda p: estimate_mixing(p, [0, 0]),
            lambda p: scatter_svg(p),
            lambda p: heatmap_svg(p, io.BytesIO()),
        ],
        ids=[
            "kernel_matrix", "gram_blocks", "median", "triple_tiles", "check_invariance",
            "build_gram", "spectral_cluster", "Dataset", "kmeans", "estimate_mixing",
            "scatter_svg", "heatmap_svg",
        ],
    )
    def test_a_point_array_not_2d_numeric_is_a_validation_error(self, points, call):
        # Rejected before any buffer is sized: 2000 values read as 2000 points
        # would size a 30.5 MiB Gram or a 15.3 MiB buffer of squared distances.
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="2-D numeric array"):
                call(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_a_dataset_is_read_as_its_points(self):
        data = gen_xor(10, 0.15, seed=5)
        spec = KernelSpec(gaussian(1.0), SIGN)
        assert np.array_equal(kernel_matrix(data, spec), kernel_matrix(data.points, spec))
        pairs = zip(gram_blocks(data, spec), gram_blocks(data.points, spec))
        assert all(np.array_equal(a, b) for a, b in pairs)
        tiles = [(start, stop) for start, stop, _ in triple_tiles(data, SIGN)]
        assert tiles == [(start, stop) for start, stop, _ in triple_tiles(data.points, SIGN)]
        # A dataset of no points is still a point set: its Gram is 0 x 0.
        assert kernel_matrix(Dataset(np.zeros((0, 3))), spec).shape == (0, 0)

    @pytest.mark.parametrize("dtype", [bool, np.int32, np.float32, np.longdouble])
    def test_other_numeric_point_dtypes_are_read(self, dtype):
        pts = np.random.default_rng(39).integers(0, 2, size=(20, 3)).astype(dtype)
        spec = KernelSpec(gaussian(1.0), SIGN)
        gram, floats = kernel_matrix(pts, spec), kernel_matrix(pts.astype(float), spec)
        assert gram.dtype == np.float64
        if dtype is np.longdouble:
            np.testing.assert_allclose(gram, floats, rtol=1e-14, atol=0)
        else:
            assert np.array_equal(gram, floats)
        median = median_heuristic_sigma(pts.astype(float))
        assert median_heuristic_sigma(pts) == pytest.approx(median, rel=1e-14)


class TestGramBlocks:
    # gram_blocks holds the rows b*512 to b*512+h, columns b*512 to N of
    # kernel_matrix's Gram, each block's square mirrored; unpacked by the
    # dense fallback they are that Gram bit for bit.
    @pytest.mark.parametrize("n", [511, 512, 513, 1100])
    @pytest.mark.parametrize("inv", [None, SIGN, PROJ], ids=["plain", "sign", "proj"])
    def test_unpacked_blocks_are_the_kernel_matrix(self, n, inv):
        from invkern.spectral import _dense

        pts = np.random.default_rng(n).standard_normal((n, 3))
        spec = KernelSpec(gaussian(1.0), inv)
        gram, blocks = kernel_matrix(pts, spec), gram_blocks(pts, spec)
        starts = range(0, n, GRAM_BLOCK_ROWS)
        shapes = [(min(s + GRAM_BLOCK_ROWS, n) - s, n - s) for s in starts]
        assert [b.shape for b in blocks] == shapes
        for start, block in zip(starts, blocks):
            assert same_bits(block, gram[start : start + len(block), start:])
        assert same_bits(_dense(blocks), gram)

    def test_unpacked_complex_blocks_are_the_kernel_matrix(self):
        from invkern.spectral import _dense

        pts = complex_points(np.random.default_rng(39), 1100, 3)
        spec = KernelSpec(laplace(1.5), PHASE)
        assert same_bits(_dense(gram_blocks(pts, spec)), kernel_matrix(pts, spec))

    def test_errors_name_the_pair_kernel_matrix_names(self):
        pts = np.random.default_rng(40).standard_normal((700, 2))
        pts[[3, 650], 0] = 1e200
        messages = []
        for build in (kernel_matrix, gram_blocks):
            with pytest.raises(NumericalError) as info:
                build(pts, KernelSpec(gaussian(1.0)))
            messages.append(str(info.value))
        assert messages[0] == messages[1]



class TestRowChunks:
    # Scale and proj denominators are formed a few rows at a time, never in the
    # tile's shape.
    def test_underflowing_denominator_is_an_error_not_a_warning(self):
        # 1e-150 squared underflows to 0.0, and sxy / 0.0 warned before the error.
        pts = np.array([[1e-150, 0.0], [0.0, 1e-150], [1.0, 1.0]])
        with pytest.raises(NumericalError, match=r"pair \(0, 0\)"):
            kernel_matrix(pts, KernelSpec(gaussian(1.0), SCALE))

    def test_proj_tiles_build_no_tile_sized_temporary(self):
        # A 128 x 2000 denominator alone would be 2 MB.
        pts = np.random.default_rng(42).standard_normal((2000, 2))
        tracemalloc.start()
        try:
            blocks = gram_blocks(pts, KernelSpec(gaussian(0.1), PROJ))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sum(b.nbytes for b in blocks) <= 1e6

    @pytest.mark.parametrize("inv", [None, SIGN], ids=["plain", "sign"])
    def test_rbf_tiles_build_no_tile_sized_temporary(self, inv):
        # The norm sum sxx + syy of a 128 x 2000 tile alone would be 2 MB; the
        # rest is proj's overhead.
        pts = np.random.default_rng(42).standard_normal((2000, 2))
        tracemalloc.start()
        try:
            blocks = gram_blocks(pts, KernelSpec(gaussian(0.1), inv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sum(b.nbytes for b in blocks) <= 1e6

    @pytest.mark.parametrize("inv", [SCALE, PROJ])
    def test_denominators_in_row_chunks_keep_bits(self, inv):
        # 70 rows of 1500 values span four denominator chunks; the last pair's
        # finite norms overflow their product and rewrite to NaN.
        rng = np.random.default_rng(43)
        sxx, syy = rng.random((70, 1)) + 0.5, rng.random((1, 1500)) + 0.5
        sxx[-1], syy[0, -1] = 1e200, 1e200
        sxy = rng.standard_normal((70, 1500))
        with np.errstate(over="ignore", invalid="ignore"):
            denom = sxx * syy
            denom[np.isinf(denom)] = np.nan
            expected = sxy / np.sqrt(denom) if inv == SCALE else sxy * sxy / denom
            got = transform_triples(inv, sxx, sxy, syy)
        assert got[0] == got[2] == 1.0
        assert same_bits(got[1], expected) and np.isnan(got[1][-1, -1])


EXTREME_BASES = [linear(), gaussian(1.0), laplace(1.0), poly(2), poly(7), polyhom(3)]


@st.composite
def extreme_points(draw):
    # Rows of norms from 1e-170 to 1e170, with the squared norms' overflow and
    # underflow edges likely, and rows holding a NaN, an infinity or zeros.
    n, d = draw(st.integers(1, 20)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.standard_normal((n, d))
    if draw(st.booleans()):
        points = points + 1j * rng.standard_normal((n, d))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    edges = st.sampled_from([-170.0, -162.0, -155.0, -77.0, 0.0, 77.0, 150.0, 154.0, 170.0])
    exponents = draw(st.lists(st.one_of(edges, st.floats(-170, 170)), min_size=n, max_size=n))
    points *= 10.0 ** np.array(exponents)[:, None]
    # A NaN or infinite row fails every tile above it, so half the sets have none.
    kinds = st.sampled_from(["finite"] * 6 + ["nan", "inf", "-inf", "zero"])
    if draw(st.booleans()):
        kinds = st.sampled_from(["finite"] * 9 + ["zero"])
    for row, kind in enumerate(draw(st.lists(kinds, min_size=n, max_size=n))):
        if kind == "zero":
            points[row] = 0.0
        elif kind != "finite":
            points[row, 0] = float(kind)
    return points


def gram_outcome(build, points, spec):
    """The Gram's dtypes, shapes and bytes, or the error's type and message."""
    try:
        gram = build(points, spec)
    except InvkernError as err:
        return type(err), str(err)
    return [(b.dtype, b.shape, b.tobytes()) for b in (gram if isinstance(gram, tuple) else (gram,))]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(points=extreme_points())
def test_row_chunks_keep_every_bit_and_error(points):
    # Denominators and RBF norm sums of one row at a time give the values,
    # or the error type, message and pair, of one of each per tile.  Tiles of 4 rows
    # in blocks of 8 spread the points over several tiles and blocks.
    with mock.patch.object(invariance, "TILE_ROWS", 4), mock.patch.object(
        invariance, "GRAM_BLOCK_ROWS", 8
    ):
        for inv, base in itertools.product(EXTREME_INVARIANCES, EXTREME_BASES):
            spec = KernelSpec(base, inv)
            for build in (kernel_matrix, gram_blocks):
                whole = gram_outcome(build, points, spec)
                with mock.patch.object(kernels, "_NORM_CHUNK_VALUES", 1):
                    assert whole == gram_outcome(build, points, spec), kernel_label(spec)


ORBIT_CASES = [
    (base, inv, field)
    for base in (gaussian(1.0), laplace(1.0))
    for inv, field in [
        (SIGN, "real"), (PROJ, "real"), (chain(SCALE, SIGN), "real"),
        (PHASE, "complex"), (rotation(4), "complex"), (PROJ, "complex"),
    ]
]


class TestGramOrbits:
    # A Gram cannot tell a point from its transform: every norm is the diagonal
    # of the product that gives <x,y>, so k(x_i, g.x_i) is exactly 1.0, with the
    # partners 300 rows apart, in different tiles.  This holds where BLAS sums
    # the three entries in one order, as OpenBLAS did in every Gram measured
    # whose N, here 600, is a multiple of 8 (see README).
    N = 300

    @pytest.mark.parametrize("d", [3, 64, 256])
    @pytest.mark.parametrize(
        ("base", "inv", "field"), ORBIT_CASES,
        ids=[f"{kernel_label(KernelSpec(b, i))}-{f}" for b, i, f in ORBIT_CASES],
    )
    def test_orbit_pairs_are_exact(self, base, inv, field, d):
        rng = np.random.default_rng(d)
        if field == "real":
            pts, factors = rng.standard_normal((self.N, d)), [-1.0]
        else:
            pts, factors = complex_points(rng, self.N, d), [1j, -1j]
        for g in factors:
            gram = kernel_matrix(np.vstack([pts, apply_group(g, pts)]), KernelSpec(base, inv))
            rows = np.arange(self.N)
            assert np.all(gram[rows, rows + self.N] == 1.0), g
            assert np.all(np.diagonal(gram) == 1.0), g


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
        assert np.array_equal(values, build_gram(pts, spec))
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

    def test_check_invariance_errors_name_sample_rows(self):
        from invkern.errors import NumericalError

        samples = np.array([[1.0, 2.0], [3.0, 1.0], [0.0, 0.0], [2.0, 5.0]])
        with pytest.raises(ZeroVectorError, match="point 2 "):
            check_invariance(KernelSpec(gaussian(1.0), SCALE), samples, seed=3, group=SIGN)
        # only k(x_2, x_2) = (200 + 1)^400 overflows; the others are at most 4^400
        samples = np.array([[0.1, 0.1], [0.2, 0.1], [10.0, 10.0]])
        with pytest.raises(NumericalError, match=r"pair \(2, 2\)"):
            check_invariance(KernelSpec(poly(400)), samples, seed=0, group=SIGN)

    # <x,x> is fine but <y,y> = 1e320 overflows.  Entry (0, 1) alone would
    # rewrite to a finite 1e160 / inf = 0.0 (linear) or exp(-1) (Gaussian);
    # the true scale-invariant inner product is 1/sqrt(2).  The overflow
    # shows only in the rewritten diagonal entry (1, 1).
    HUGE_PAIR = np.array([[1.0, 1.0], [1e160, 0.0]])
    OVERFLOW_SPECS = [
        KernelSpec(base, inv)
        for base in (linear(), gaussian(1.0))
        for inv in (SCALE, chain(SCALE, SIGN))
    ]

    @pytest.mark.parametrize("spec", OVERFLOW_SPECS, ids=kernel_label)
    def test_overflowing_norm_raises_in_eval_kernel_and_kernel_matrix(self, spec):
        from invkern import kernel_matrix
        from invkern.errors import NumericalError

        with pytest.raises(NumericalError, match=r"pair \(1, 1\)"):
            eval_kernel(spec, *self.HUGE_PAIR)
        with pytest.raises(NumericalError, match=r"pair \(1, 1\)"):
            kernel_matrix(self.HUGE_PAIR, spec)

    @pytest.mark.parametrize("spec", OVERFLOW_SPECS, ids=kernel_label)
    def test_overflowing_norm_raises_in_check_invariance(self, spec):
        from invkern.errors import NumericalError

        # Seed 1 draws the one pair (0, 1): the huge row against the other.
        assert list(np.random.default_rng(1).integers(2, size=2)) == [0, 1]
        with pytest.raises(NumericalError, match=r"pair \(1, 1\)"):
            check_invariance(spec, self.HUGE_PAIR, n_group_samples=1, seed=1)

    # Every norm is finite (1e200 and 5e200), but |x| |y| > 1.3e154, so sxx * syy
    # overflows already for k(x, x), and the scale rewrite sxy / sqrt(inf) would
    # be a finite 0.0: k(x, y) is 1.0 for linear+scale, and RBF diagonals exp(-1).
    NEAR_OVERFLOW = np.array([[1e100, 0.0], [1.0, 1.0], [2e100, 1e100]])
    SCALE_SPECS = [
        KernelSpec(base, inv)
        for base in (linear(), gaussian(1.0))
        for inv in (SCALE, chain(SCALE, SIGN))
    ]

    @pytest.mark.parametrize("spec", SCALE_SPECS, ids=kernel_label)
    def test_overflowing_norm_product_raises(self, spec):
        with pytest.raises(NumericalError, match=r"pair \(0, 0\)"):
            eval_kernel(spec, [1e100, 0.0], [2e100, 0.0])
        with pytest.raises(NumericalError, match=r"pair \(0, 0\)"):
            kernel_matrix(self.NEAR_OVERFLOW, spec)
        with pytest.raises(NumericalError, match=r"pair \(0, 0\)"):
            median_heuristic_sigma(self.NEAR_OVERFLOW, spec.invariance)
        # Seed 1 draws the pair (0, 1), whose field fails first at (0, 0).
        with pytest.raises(NumericalError, match=r"pair \(0, 0\)"):
            check_invariance(spec, self.NEAR_OVERFLOW[[0, 2]], n_group_samples=1, seed=1)

    @pytest.mark.parametrize("inv", [SCALE, PROJ])
    def test_overflowing_norm_product_has_no_rewrite(self, inv):
        # sxx * syy = 2 a^4 overflows while |sxy|^2 = a^4 does not: the true proj
        # value is 0.5, and a division by inf would give 0.0 for either kind.
        a2 = 1.14e77**2
        with np.errstate(over="ignore"):
            sxx, sxy, syy = transform_triples(inv, a2, a2, 2 * a2)
            assert (sxx, syy) == (1.0, 1.0) and np.isnan(sxy)
            # A finite product beside it keeps its value.
            pairs = (np.array([a2, 1.0]), np.array([a2, 0.5]), np.array([2 * a2, 1.0]))
            sxy = transform_triples(inv, *pairs)[1]
        assert np.isnan(sxy[0]) and sxy[1] == (0.5 if inv == SCALE else 0.25)

    # |x|^2 = 1e-400 underflows to 0.0, in a row sum and in a product alike, so
    # the point is rejected as a zero vector, named by its lowest index.
    TINY = [1e-200, 0.0]

    @pytest.mark.parametrize("inv", [SCALE, PROJ, chain(SCALE, SIGN)], ids=format_invariance)
    def test_underflowing_norm_is_a_zero_vector(self, inv):
        spec = KernelSpec(gaussian(1.0), inv)
        pts = np.array([[1.0, 0.0], self.TINY, self.TINY])
        with pytest.raises(ZeroVectorError, match="point 0 "):
            eval_kernel(spec, self.TINY, [1.0, 0.0])
        with pytest.raises(ZeroVectorError, match="point 1 "):
            eval_kernel(spec, [1.0, 0.0], self.TINY)
        with pytest.raises(ZeroVectorError, match="point 1 "):
            kernel_matrix(pts, spec)
        with pytest.raises(ZeroVectorError, match="point 1 "):
            median_heuristic_sigma(pts, inv)
        with pytest.raises(ZeroVectorError, match="point 0 "):
            check_invariance(spec, np.array([self.TINY]), n_group_samples=2)

    def test_norms_just_below_the_overflow_keep_their_value(self):
        # |x| |y| = 1e154: sxx * syy = 1e308 is still finite.
        spec = KernelSpec(linear(), SCALE)
        assert eval_kernel(spec, [1e77, 0.0], [1e77, 0.0]) == 1.0
        assert np.array_equal(kernel_matrix([[1e77, 0.0], [0.0, 1e77]], spec), np.eye(2))

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
