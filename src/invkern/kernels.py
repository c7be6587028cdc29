"""Base kernels evaluated from Hermitian scalar-product triples.

Every supported kernel family is a function of the triple
(<x,x>, <x,y>, <y,y>) alone.  That is what lets the invariances in
:mod:`invkern.invariance` swap the raw triple for an orbit-feature
triple without touching the kernel formulas themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NegativeDistanceError, ValidationError

FAMILIES = ("linear", "gaussian", "laplace", "poly", "polyhom")


@dataclass(frozen=True)
class BaseKernel:
    """One scalar-product-based kernel family with its parameters.

    ``sigma`` is the bandwidth of the RBF families, ``degree`` the
    exponent of the polynomial families; each is ignored by the others.
    """

    family: str
    sigma: float = 1.0
    degree: int = 2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown kernel family {self.family!r}")
        if self.family in ("gaussian", "laplace") and not self.sigma > 0:
            raise ValidationError(f"sigma must be positive, got {self.sigma}")
        if self.family in ("poly", "polyhom") and self.degree < 1:
            raise ValidationError(f"degree must be at least 1, got {self.degree}")


def linear() -> BaseKernel:
    """Euclidean scalar product kernel."""
    return BaseKernel("linear")


def gaussian(sigma: float = 1.0) -> BaseKernel:
    """Gaussian RBF kernel exp(-||x-y||^2 / (2 sigma^2))."""
    return BaseKernel("gaussian", sigma=float(sigma))


def laplace(sigma: float = 1.0) -> BaseKernel:
    """Laplace RBF kernel exp(-||x-y|| / sigma)."""
    return BaseKernel("laplace", sigma=float(sigma))


def poly(degree: int = 2) -> BaseKernel:
    """Inhomogeneous polynomial kernel (<x,y> + 1)^degree."""
    return BaseKernel("poly", degree=int(degree))


def polyhom(degree: int = 2) -> BaseKernel:
    """Homogeneous polynomial kernel <x,y>^degree."""
    return BaseKernel("polyhom", degree=int(degree))


@dataclass(frozen=True)
class ScalarTriple:
    """Hermitian triple (<x,x>, <x,y>, <y,y>); <y,x> is conj(sxy).

    The diagonal entries are real and nonnegative whenever the triple
    comes from an actual inner product.
    """

    sxx: float
    sxy: complex
    syy: float


def inner_product(x, y):
    """Hermitian inner product sum_i x_i * conj(y_i).

    Returns a float for real inputs, a complex number otherwise.
    Conjugate-linear in ``y``, so ``<y,x> == conj(<x,y>)``.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape or x.size < 1:
        raise DimensionError(f"incompatible shapes {x.shape} and {y.shape}")
    value = complex(np.vdot(y, x))
    if not (np.iscomplexobj(x) or np.iscomplexobj(y)):
        return value.real
    return value


def make_triple(x, y) -> ScalarTriple:
    """Scalar-product triple (<x,x>, <x,y>, <y,y>) of two points."""
    sxy = inner_product(x, y)
    sxx = float(np.real(np.vdot(x, x)))
    syy = float(np.real(np.vdot(y, y)))
    return ScalarTriple(sxx, sxy, syy)


def squared_distance(sxx, sxy, syy):
    """Derived squared distance sxx - 2 Re(sxy) + syy, clamped near zero.

    Values below -1e-9 * max(sxx, syy, 1) raise NegativeDistanceError:
    no inner product can produce them.  Smaller negative values are
    floating-point noise near x == y and are clamped to zero.
    """
    sxx = np.asarray(sxx, dtype=float)
    syy = np.asarray(syy, dtype=float)
    # (sxx + syy) first: keeps the value exactly symmetric in x and y
    d2 = (sxx + syy) - 2.0 * np.real(np.asarray(sxy))
    tol = 1e-9 * np.maximum(np.maximum(sxx, syy), 1.0)
    bad = d2 < -tol
    if np.any(bad):
        index = int(np.argmax(np.atleast_1d(bad)))
        value = float(np.atleast_1d(d2)[index])
        raise NegativeDistanceError(
            f"squared distance {value} is negative beyond tolerance; "
            "the triple does not come from an inner product",
            index=index,
        )
    return np.maximum(d2, 0.0)


def base_values(spec: BaseKernel, sxx, sxy, syy):
    """Vectorized kernel evaluation from triple components.

    Complex ``sxy`` is symmetrized to Re(sxy), which is exactly the
    (<x,y>^m + <y,x>^m)/2 combination the invariant closed forms use.
    """
    s = np.real(np.asarray(sxy))
    if spec.family == "linear":
        return np.asarray(s, dtype=float)
    if spec.family == "poly":
        return np.asarray((s + 1.0) ** spec.degree, dtype=float)
    if spec.family == "polyhom":
        return np.asarray(s ** spec.degree, dtype=float)
    d2 = squared_distance(sxx, s, syy)
    if spec.family == "gaussian":
        return np.exp(-d2 / (2.0 * spec.sigma**2))
    return np.exp(-np.sqrt(d2) / spec.sigma)


def eval_base(spec: BaseKernel, triple: ScalarTriple) -> float:
    """Evaluate one base kernel on a scalar-product triple."""
    return float(base_values(spec, triple.sxx, triple.sxy, triple.syy))
