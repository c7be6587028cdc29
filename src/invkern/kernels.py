"""Base kernels evaluated from Hermitian scalar-product triples.

Every supported kernel family is a function of the triple
(<x,x>, <x,y>, <y,y>) alone.  That is what lets the invariances in
:mod:`invkern.invariance` swap the raw triple for an orbit-feature
triple without touching the kernel formulas themselves.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import count_of
from .errors import NegativeDistanceError, ValidationError

# Each kernel family and the one parameter it reads, if any.
FAMILIES = {"linear": None, "gaussian": "sigma", "laplace": "sigma",
            "poly": "degree", "polyhom": "degree"}

# Values of a norm sum sxx + syy or norm product sxx * syy formed at once:
# 16 rows of a 2048-point tile, so they stay in cache.
_NORM_CHUNK_VALUES = 16 * 2048


def row_chunks(shape) -> list:
    """Index expressions of the first axis of ``shape``, about 32k values each.

    The row chunks in which a norm sum or norm product is formed, so that
    it never takes a tile's shape; a 0-d shape is one chunk.
    """
    if not shape:
        return [...]
    rows = max(1, _NORM_CHUNK_VALUES // max(1, math.prod(shape[1:])))
    return [slice(r, r + rows) for r in range(0, shape[0], rows)]


@dataclass(frozen=True)
class BaseKernel:
    """One scalar-product-based kernel family with its parameters.

    ``sigma`` is the RBF bandwidth, ``degree`` the polynomial exponent;
    :data:`FAMILIES` names the one each family reads and the others ignore.
    """

    family: str
    sigma: float = 1.0
    degree: int = 2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown kernel family {self.family!r}")
        reads = FAMILIES[self.family]
        # bool is an int subclass, but a flag is not a bandwidth.
        if isinstance(self.sigma, bool) or not isinstance(self.sigma, numbers.Real):
            raise ValidationError(f"sigma must be a real number, got {self.sigma!r}")
        # Kept as Python scalars, so a numpy scalar computes in float64.
        degree = count_of(self.degree, "degree", 1 if reads == "degree" else None)
        object.__setattr__(self, "degree", degree)
        try:
            object.__setattr__(self, "sigma", float(self.sigma))
        except OverflowError:
            raise ValidationError(f"sigma {self.sigma} is beyond the float range") from None
        # 2 sigma^2 by products: sigma**2 raises OverflowError on a large float.
        if reads == "sigma" and not (
            self.sigma > 0 and 0.0 < 2.0 * self.sigma * self.sigma < np.inf
        ):
            raise ValidationError(
                f"sigma must be positive with 2 sigma^2 in (0, inf), got {self.sigma}"
            )


def linear() -> BaseKernel:
    """Euclidean scalar product kernel."""
    return BaseKernel("linear")


def gaussian(sigma: float = 1.0) -> BaseKernel:
    """Gaussian RBF kernel exp(-||x-y||^2 / (2 sigma^2))."""
    return BaseKernel("gaussian", sigma=sigma)


def laplace(sigma: float = 1.0) -> BaseKernel:
    """Laplace RBF kernel exp(-||x-y|| / sigma)."""
    return BaseKernel("laplace", sigma=sigma)


def poly(degree: int = 2) -> BaseKernel:
    """Inhomogeneous polynomial kernel (<x,y> + 1)^degree."""
    return BaseKernel("poly", degree=degree)


def polyhom(degree: int = 2) -> BaseKernel:
    """Homogeneous polynomial kernel <x,y>^degree."""
    return BaseKernel("polyhom", degree=degree)


@dataclass(frozen=True)
class ScalarTriple:
    """Hermitian triple (<x,x>, <x,y>, <y,y>); <y,x> is conj(sxy).

    The diagonal entries are real and nonnegative whenever the triple
    comes from an actual inner product.
    """

    sxx: float
    sxy: complex
    syy: float


def squared_distance(sxx, sxy, syy, out=None):
    """Derived squared distance sxx - 2 Re(sxy) + syy, clamped near zero.

    Values below -1e-9 * max(sxx, syy, 1) raise NegativeDistanceError:
    no inner product can produce them.  Smaller negative values are
    floating-point noise near x == y and are clamped to zero.  The test is
    one reduction: the minimum is compared with the tolerance when that is
    one number (the 1.0 diagonals of scale and proj), else with -1e-9, the
    largest any tolerance can be, and a mask of the values is built only
    when the minimum is below that or NaN, to name the pair.  A sum of
    norm vectors sxx + syy is formed about 32k values at a time, never in
    the shape of the result, with the bits of one whole sum.  ``out``,
    if given, receives the distances and may hold ``sxy`` or its real
    part; the inputs are only read otherwise, and scalar inputs give a
    NumPy float.
    """
    sxx = np.asarray(sxx, dtype=float)
    syy = np.asarray(syy, dtype=float)
    s = np.real(np.asarray(sxy))
    d2 = np.empty(np.broadcast_shapes(sxx.shape, s.shape, syy.shape)) if out is None else out
    np.multiply(s, 2.0, out=d2)
    # (sxx + syy) first: keeps the value exactly symmetric in x and y.  A sum
    # of norm vectors is formed a few rows at a time, never in d2's shape.
    if sxx.size == syy.size == 1:
        np.subtract(sxx + syy, d2, out=d2)
    else:
        a, b = (np.broadcast_to(v, d2.shape) for v in (sxx, syy))
        for rows in row_chunks(d2.shape):
            np.subtract(a[rows] + b[rows], d2[rows], out=d2[rows])
    # The tolerance is positive, so only a negative d2 can fall below it, and
    # only a negative d2 needs the clamp: one reduction tests for both.  A NaN
    # makes the minimum NaN and takes the branch too, so a negative value
    # beside it is still reported; the clamp keeps the NaN for the callers'
    # finiteness checks.
    lowest = d2.min() if d2.size else 0.0
    if not lowest >= 0.0:
        # No tolerance is above -1e-9, and a NaN one flags nothing, so a minimum
        # at or above the tolerance (when it is one number) or -1e-9 needs no
        # mask: one is built only to name a pair.
        limit = -1e-9
        if sxx.size == syy.size == 1:
            limit = -1e-9 * np.maximum(np.maximum(sxx, syy), 1.0)
        if not lowest >= limit:
            bad = d2 < -1e-9 * np.maximum(np.maximum(sxx, syy), 1.0)
            if np.any(bad):
                index = int(np.argmax(bad))
                value = float(np.ravel(d2)[index])
                raise NegativeDistanceError(
                    f"squared distance {value} is negative beyond tolerance; "
                    "the triple does not come from an inner product",
                    index=index,
                )
        np.maximum(d2, 0.0, out=d2)
    return d2 if out is not None or d2.ndim else d2[()]


def base_values(spec: BaseKernel, sxx, sxy, syy, out=None):
    """Vectorized kernel evaluation from triple components.

    Complex ``sxy`` is symmetrized to Re(sxy), which is exactly the
    (<x,y>^m + <y,x>^m)/2 combination the invariant closed forms use.
    ``out``, if given, receives the values and may hold ``sxy`` or its
    real part, so a Gram tile is evaluated in place; the inputs are only
    read otherwise, and scalar inputs give a NumPy float.
    """
    s = np.real(np.asarray(sxy))
    values = out
    if values is None:
        values = np.empty(np.broadcast_shapes(np.shape(sxx), s.shape, np.shape(syy)))
    if FAMILIES[spec.family] != "sigma":
        if spec.family == "poly":
            np.add(s, 1.0, out=values)
        else:
            np.copyto(values, s)
        # `**=` takes the same route as `**`: a square for degree 2, else np.power.
        if spec.family != "linear":
            values **= spec.degree
    else:
        squared_distance(sxx, s, syy, out=values)
        # a / -c is -a / c exactly, with one pass less over the values.
        if spec.family == "gaussian":
            np.divide(values, -(2.0 * spec.sigma**2), out=values)
        else:
            np.divide(np.sqrt(values, out=values), -spec.sigma, out=values)
        np.exp(values, out=values)
    return values if out is not None or values.ndim else values[()]
