"""Base kernel and scalar-triple tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invkern import (
    PROJ,
    BaseKernel,
    Invariance,
    KernelSpec,
    ScalarTriple,
    chain,
    eval_kernel,
    format_invariance,
    gaussian,
    kernel_triple,
    laplace,
    linear,
    parse_invariance,
    poly,
    polyhom,
    rotation,
    triple_value,
)
from invkern.errors import DimensionError, NegativeDistanceError, NumericalError, ValidationError
from invkern.invariance import KINDS
from invkern.kernels import FAMILIES, base_values, squared_distance
from oracles import eval_base, inner_product, make_triple

PLAIN = KernelSpec(linear())


def raw_triple(x, y) -> ScalarTriple:
    """The triple of [x; y] with no invariance, as the package computes it."""
    return kernel_triple(PLAIN, x, y)


def random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class TestInnerProduct:
    def test_orthogonal_vectors(self):
        assert raw_triple((1, 0), (0, 1)).sxy == 0

    def test_real_summation(self):
        # direct summation oracle: 1*3 + 2*4
        assert raw_triple((1, 2), (3, 4)).sxy == 11

    def test_complex_conjugates_second_argument(self):
        x = np.array([1, 1j])
        y = np.array([1, 1])
        assert raw_triple(x, y).sxy == 1 + 1j

    def test_conjugate_symmetry(self):
        # Exact only for the scalar oracle: the pair path reads <x,y> and
        # <y,x> from two BLAS products, whose fused multiply-adds round
        # the imaginary parts differently in the last bit.
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert inner_product(y, x) == pytest.approx(
                np.conj(inner_product(x, y)), abs=0
            )

    def test_self_inner_product_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            v = raw_triple(x, x).sxx
            assert v.imag == 0
            assert v.real >= 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            raw_triple((1, 2), (1, 2, 3))

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            raw_triple(np.array([]), np.array([]))


class TestMakeTriple:
    def test_equal_points(self):
        assert raw_triple((3, 4), (3, 4)) == ScalarTriple(25.0, 25.0, 25.0)

    def test_orthogonal(self):
        assert raw_triple((1, 0), (0, 2)) == ScalarTriple(1.0, 0.0, 4.0)

    def test_direct_summation(self):
        assert raw_triple((1, 2), (3, 4)) == ScalarTriple(5.0, 11.0, 25.0)

    def test_cauchy_schwarz_on_direct_products(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            t = raw_triple(x, y)
            assert abs(t.sxy) ** 2 <= t.sxx * t.syy * (1 + 1e-12)

    def test_distance_identity(self):
        # sxx - 2 Re(sxy) + syy must match the coordinate-wise norm
        rng = np.random.default_rng(6)
        for _ in range(100):
            x = rng.standard_normal(5)
            y = rng.standard_normal(5)
            t = raw_triple(x, y)
            direct = float(np.sum((x - y) ** 2))
            derived = t.sxx - 2 * np.real(t.sxy) + t.syy
            assert derived == pytest.approx(direct, abs=1e-12)


class TestEvalBase:
    def test_gaussian_zero_distance(self):
        assert triple_value(gaussian(1.0), ScalarTriple(7.0, 7.0, 7.0)) == 1.0

    def test_gaussian_known_value(self):
        # distance^2 = 2 for the triple (1, 0, 1)
        value = triple_value(gaussian(1.0), ScalarTriple(1.0, 0.0, 1.0))
        assert value == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_poly_known_value(self):
        assert triple_value(poly(2), ScalarTriple(5.0, 11.0, 25.0)) == 144.0

    def test_polyhom(self):
        assert triple_value(polyhom(3), ScalarTriple(5.0, 2.0, 25.0)) == 8.0

    def test_linear(self):
        assert triple_value(linear(), ScalarTriple(5.0, 11.0, 25.0)) == 11.0

    def test_laplace(self):
        value = triple_value(laplace(2.0), ScalarTriple(1.0, 0.0, 1.0))
        assert value == pytest.approx(np.exp(-np.sqrt(2.0) / 2.0), abs=1e-15)

    def test_complex_sxy_uses_real_part(self):
        value = triple_value(linear(), ScalarTriple(1.0, 2.0 + 3.0j, 1.0))
        assert value == 2.0

    def test_negative_distance_rejected(self):
        with pytest.raises(NegativeDistanceError):
            triple_value(gaussian(1.0), ScalarTriple(1.0, 5.0, 1.0))

    def test_tiny_negative_clamped(self):
        # rounding noise near x == y must not poison exp
        value = triple_value(gaussian(1.0), ScalarTriple(1.0, 1.0 + 2e-16, 1.0))
        assert value == 1.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(7)
        specs = [linear(), gaussian(0.7), laplace(1.3), poly(3), polyhom(2)]
        for _ in range(20):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            for spec in specs:
                assert triple_value(spec, raw_triple(x, y)) == triple_value(
                    spec, raw_triple(y, x)
                )

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(8)
        sxx = rng.uniform(0.1, 4.0, size=30)
        syy = rng.uniform(0.1, 4.0, size=30)
        sxy = rng.uniform(-0.3, 0.3, size=30)
        for spec in [linear(), gaussian(1.2), laplace(0.9), poly(2), polyhom(3)]:
            vec = base_values(spec, sxx, sxy, syy)
            for i in range(30):
                assert vec[i] == triple_value(spec, ScalarTriple(sxx[i], sxy[i], syy[i]))

    def test_scalar_inputs_give_numpy_floats(self):
        # As numpy's own ufuncs do; arrays in give a new array out.
        for spec in [linear(), gaussian(1.2), laplace(0.9), poly(2), polyhom(3)]:
            assert type(base_values(spec, 2.0, 0.5 + 0.25j, 1.0)) is np.float64
            assert base_values(spec, np.ones(3), np.zeros(3), np.ones(3)).shape == (3,)
        assert type(squared_distance(2.0, 0.5, 1.0)) is np.float64
        assert squared_distance(np.ones((2, 1)), np.zeros(3), 1.0).shape == (2, 3)


class TestIsometryInvariance:
    """Triple-based evaluation is blind to the transforms that preserve it."""

    def test_rbf_families_under_rigid_motion(self):
        rng = np.random.default_rng(9)
        for spec in [gaussian(1.1), laplace(0.8)]:
            for _ in range(25):
                n = int(rng.integers(2, 7))
                x = rng.standard_normal(n)
                y = rng.standard_normal(n)
                q = random_orthogonal(n, rng)
                v = rng.standard_normal(n)
                before = eval_base(spec, make_triple(x, y))
                after = eval_base(spec, make_triple(q @ x + v, q @ y + v))
                assert abs(after - before) <= 1e-10

    def test_product_families_under_orthogonal_map(self):
        rng = np.random.default_rng(10)
        for spec in [linear(), poly(2), polyhom(3)]:
            for _ in range(25):
                n = int(rng.integers(2, 7))
                x = rng.standard_normal(n)
                y = rng.standard_normal(n)
                q = random_orthogonal(n, rng)
                before = eval_base(spec, make_triple(x, y))
                after = eval_base(spec, make_triple(q @ x, q @ y))
                assert abs(after - before) <= 1e-10 * max(1.0, abs(before))


class TestValidation:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            gaussian(0.0)
        with pytest.raises(ValueError):
            laplace(-1.0)

    @pytest.mark.parametrize("sigma", [1e200, 1e-170, np.inf, 5e-324])
    def test_two_sigma_squared_must_be_positive_and_finite(self, sigma):
        # sigma**2 would raise OverflowError at 1e200 and round to 0 at 1e-170
        for family in (gaussian, laplace):
            with pytest.raises(ValidationError, match="2 sigma"):
                family(sigma)

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            poly(0)

    @pytest.mark.parametrize("sigma", ["1", True, None, 1 + 0j])
    def test_sigma_must_be_a_real_number(self, sigma):
        # "1" used to raise a bare TypeError in the positivity check.
        for family in ("gaussian", "laplace", "linear"):
            with pytest.raises(ValidationError, match="sigma must be a real number"):
                BaseKernel(family, sigma=sigma)

    @pytest.mark.parametrize("degree", [2.5, 2.0, True, "2", None])
    def test_degree_must_be_an_integer(self, degree):
        # 2.5 used to construct and then report a NaN as an overflow.
        for family in ("poly", "polyhom", "linear"):
            with pytest.raises(ValidationError, match="degree must be an integer"):
                BaseKernel(family, degree=degree)

    def test_sigma_beyond_float_range(self):
        with pytest.raises(ValidationError, match="beyond the float range"):
            BaseKernel("gaussian", sigma=10**400)

    def test_numpy_scalars_become_python_scalars(self):
        kernel = BaseKernel("gaussian", sigma=np.float32(0.1))
        assert type(kernel.sigma) is float and kernel.sigma == float(np.float32(0.1))
        assert type(BaseKernel("gaussian", sigma=2).sigma) is float
        degree = BaseKernel("poly", degree=np.int64(3)).degree
        assert type(degree) is int and degree == 3

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            BaseKernel("sigmoid")

    def test_squared_distance_error_carries_index(self):
        with pytest.raises(NegativeDistanceError) as err:
            squared_distance(np.array([1.0, 1.0]), np.array([0.0, 5.0]), np.array([1.0, 1.0]))
        assert err.value.index == 1

    @pytest.mark.parametrize("norm", [1.0, np.ones((2, 1))], ids=["scalar", "array"])
    def test_squared_distance_tolerance_by_minimum(self, norm):
        # One tolerance (scale and proj diagonals) or one per entry: the minimum
        # decides, and a NaN beside a negative distance still names it.
        noise = np.array([[1.0, 1.0 + 1e-12], [0.5, 1.0]])
        assert np.array_equal(squared_distance(norm, noise, 1.0), [[0.0, 0.0], [1.0, 0.0]])
        for sxy, index in (([[1.0, 0.5], [1.0 + 1e-8, 0.0]], 2), ([[np.nan, 1.0 + 1e-8]], 1)):
            with pytest.raises(NegativeDistanceError) as err:
                squared_distance(norm, np.array(sxy), 1.0)
            assert err.value.index == index


# Parameter values a caller might pass for m, sigma or degree: small and
# huge ints, every float (nan, inf, subnormals), bools, strings and numpy
# scalars.
ODD_PARAMETERS = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.sampled_from([10**30, -10**30, 2**63, 10**400]),
    st.floats(),
    st.sampled_from([1e-320, 5e-324, 1e308, -0.0, 2.0, 0.5]),
    st.booleans(),
    st.text(max_size=3),
    st.sampled_from([np.int64(3), np.int8(-1), np.uint64(2**63), np.float32(2.0),
                     np.float64(np.nan), np.float64(np.inf), np.bool_(True), np.str_("2")]),
)


def odd_or(plain):
    """An odd parameter half the time, else ``plain``, so that each odd
    value is also drawn beside others that construct."""
    return st.booleans().flatmap(lambda odd: ODD_PARAMETERS if odd else st.just(plain))


_PAIR = np.array([[1.0 - 0.5j, 0.25 + 2.0j, -1.5], [0.5 + 1.0j, -2.0, 0.75 - 0.25j]])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    kind=st.sampled_from(KINDS),
    m=st.sampled_from([0, 2, 3]).flatmap(odd_or),
    sigma=odd_or(1.0),
    degree=odd_or(2),
)
def test_constructors_reject_or_build_a_working_spec(family, kind, m, sigma, degree):
    # Either construction raises ValidationError, or the spec evaluates to a
    # finite value or a typed NumericalError and its invariance round-trips
    # through the text grammar.
    try:
        base = BaseKernel(family, sigma=sigma, degree=degree)
        if kind == "rotation":
            invariance = rotation(m)
        elif kind == "chain":
            invariance = chain(rotation(m), PROJ)
        else:
            invariance = Invariance(kind, m=m)
    except ValidationError:
        return
    try:
        value = eval_kernel(KernelSpec(base, invariance), *_PAIR)
    except NumericalError:
        pass
    else:
        assert type(value) is float and np.isfinite(value)
    assert parse_invariance(format_invariance(invariance)) == invariance
