"""Group invariances, invariant inner kernels, and their combination.

An invariance here is a group acting on the data space by scalar
multiplication (sign/root-of-unity flips, complex phases, positive
scales, or arbitrary nonzero scalars).  Each one owns an *invariant
inner kernel*: a kernel whose implicit feature map is the quotient map
collapsing group orbits.  Feeding that kernel's triple into any base
kernel from :mod:`invkern.kernels` yields a fully invariant kernel
without ever materializing the quotient features.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    DimensionError,
    FieldError,
    NegativeDistanceError,
    NumericalError,
    OracleSizeError,
    ParseError,
    ValidationError,
    ZeroVectorError,
)
from .kernels import BaseKernel, ScalarTriple, base_values, squared_distance

KINDS = ("rotation", "phase", "scale", "proj", "chain")

# Chained pairs whose composed quotient is known to be well behaved.
# Other combinations still evaluate but may collapse all orbits.
_VALIDATED_PAIRS = frozenset(
    {frozenset(("scale", "rotation")), frozenset(("scale", "phase"))}
)

_MAX_CHAIN_DEPTH = 4

# Rows of the triple field rewritten at once.  Bounds the temporaries of
# the rewrite and of the base kernel to TILE_ROWS x N values.
TILE_ROWS = 128


class ChainCompatibilityWarning(UserWarning):
    """Chained invariances outside the validated pairs may trivialize."""


@dataclass(frozen=True)
class Invariance:
    """Specification of one invariance, or an ordered chain of them.

    Kinds: ``rotation`` (multiplication by m-th roots of unity, m=2 is
    sign invariance), ``phase`` (unit complex factors), ``scale``
    (positive factors), ``proj`` (any nonzero factor), ``chain``.
    """

    kind: str
    m: int = 0
    parts: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown invariance kind {self.kind!r}")
        if self.kind == "rotation" and self.m < 2:
            raise ValidationError("rotation order m must be at least 2")
        if self.kind == "chain":
            object.__setattr__(self, "parts", tuple(self.parts))
            if not self.parts:
                raise ValidationError("chain must contain at least one invariance")
            if any(not isinstance(p, Invariance) for p in self.parts):
                raise ValidationError("chain parts must be Invariance instances")
            if _depth(self) > _MAX_CHAIN_DEPTH:
                raise ValidationError(f"chain nesting deeper than {_MAX_CHAIN_DEPTH}")
            _warn_if_unvalidated(self)


def _depth(spec: Invariance) -> int:
    if spec.kind != "chain":
        return 1
    return 1 + max(_depth(p) for p in spec.parts)


def _flatten(spec: Invariance | None) -> list:
    if spec is None:
        return []
    if spec.kind != "chain":
        return [spec]
    out = []
    for part in spec.parts:
        out.extend(_flatten(part))
    return out


def _warn_if_unvalidated(spec: Invariance) -> None:
    kinds = [p.kind for p in _flatten(spec)]
    if len(kinds) < 2:
        return
    duplicated = len(set(kinds)) < len(kinds)
    unvalidated = any(
        frozenset((a, b)) not in _VALIDATED_PAIRS
        for i, a in enumerate(kinds)
        for b in kinds[i + 1 :]
    )
    if duplicated or unvalidated:
        warnings.warn(
            f"chain {kinds} is outside the validated combinations; "
            "the composed quotient may collapse all orbits to one point",
            ChainCompatibilityWarning,
            stacklevel=3,
        )


def rotation(m: int) -> Invariance:
    """Invariance under multiplication by the m-th roots of unity."""
    return Invariance("rotation", m=int(m))


def chain(*parts: Invariance) -> Invariance:
    """Ordered composition of invariances, applied left to right."""
    return Invariance("chain", parts=tuple(parts))


SIGN = rotation(2)
PHASE = Invariance("phase")
SCALE = Invariance("scale")
PROJ = Invariance("proj")


@dataclass(frozen=True)
class KernelSpec:
    """A base kernel plus the invariance driving its triple."""

    base: BaseKernel
    invariance: Invariance | None = None


def kernel_label(spec: KernelSpec) -> str:
    """Canonical one-line description, e.g. ``gaussian(sigma=22)+sign``."""
    base = spec.base
    if base.family in ("gaussian", "laplace"):
        text = f"{base.family}(sigma={base.sigma:g})"
    elif base.family in ("poly", "polyhom"):
        text = f"{base.family}(degree={base.degree})"
    else:
        text = "linear"
    if spec.invariance is not None:
        text += "+" + format_invariance(spec.invariance)
    return text


# ---------------------------------------------------------------------------
# Group elements and actions
#
# Every invariance acts by scalar multiplication, so a group element is
# its nonzero scalar factor: the identity is 1.0 and composition is the
# product.


def _turn(num, den=1):
    # exp(2 pi i num / den), exactly 1.0 at whole turns and -1.0 at half turns.
    num = num % den
    if num == 0:
        return 1.0
    if 2 * num == den:
        return -1.0
    return complex(np.exp(2j * np.pi * num / den))


def apply_group(g, x):
    """Apply a group element, i.e. its scalar factor, to data: ``x * g``.

    ``g`` may be a scalar or an array that broadcasts against ``x``.  A
    factor with zero imaginary part is taken as real, so it keeps real
    data real; a genuinely complex factor on real data raises FieldError.
    """
    x, g = np.asarray(x), np.asarray(g)
    if np.iscomplexobj(g) and not np.any(g.imag):
        g = g.real
    if np.iscomplexobj(g) and not np.iscomplexobj(x):
        raise FieldError("a group element with a genuinely complex factor cannot act on real data")
    return x * g


def sample_group_element(spec: Invariance, rng, complex_field: bool):
    """Draw the factor of a random group element with full support on the group.

    On a real data field, continuous phase-like groups are restricted to
    the subgroup that preserves real vectors (the sign subgroup), so sign,
    phase, scale and proj factors are Python floats.  A chain's factor is
    the product of its stages' factors, drawn in stage order.
    """
    if spec.kind == "chain":
        return math.prod(sample_group_element(p, rng, complex_field) for p in spec.parts)
    if spec.kind == "rotation":
        return _turn(int(rng.integers(spec.m)), spec.m)
    if spec.kind == "phase":
        return _turn(float(rng.random()) if complex_field else 0.5 * float(rng.integers(2)))
    if spec.kind == "scale":
        return float(np.exp(rng.standard_normal()))
    magnitude = float(np.exp(rng.standard_normal()))
    if complex_field:
        return magnitude * complex(np.exp(2j * np.pi * rng.random()))
    return float(magnitude * (2.0 * rng.integers(2) - 1.0))


# ---------------------------------------------------------------------------
# Invariant inner kernels via triple rewriting


def transform_triples(spec: Invariance | None, sxx, sxy, syy):
    """Rewrite triple components into the invariance's orbit geometry.

    Works elementwise on arrays; chains fold left to right, each stage
    consuming the triple produced by the previous one.  No invariance
    (``None``) leaves the triple as it is.  Scale and proj divide by
    sxx * syy, which :func:`_triple_field` keeps nonzero, and return the
    scalar diagonals 1.0, which broadcast against ``sxy``.
    """
    if spec is None:
        return sxx, sxy, syy
    if spec.kind == "chain":
        for part in spec.parts:
            sxx, sxy, syy = transform_triples(part, sxx, sxy, syy)
        return sxx, sxy, syy
    if spec.kind == "rotation":
        return sxx**spec.m, sxy**spec.m, syy**spec.m
    if spec.kind == "phase":
        return sxx**2, np.real(sxy * np.conj(sxy)), syy**2
    denom = np.asarray(sxx, dtype=float) * np.asarray(syy, dtype=float)
    if spec.kind == "scale":
        return 1.0, sxy / np.sqrt(denom), 1.0
    return 1.0, np.real(sxy * np.conj(sxy)) / denom, 1.0


def _check_field(spec: Invariance | None, complex_data: bool) -> None:
    # Root-of-unity actions with m >= 3 move real vectors out of R^n.
    if not complex_data and any(p.kind == "rotation" and p.m >= 3 for p in _flatten(spec)):
        raise FieldError("rotation invariance with m >= 3 requires complex data")


def _triple_field(points, spec: Invariance | None):
    # S = P @ P^H and the norms Re diag(S) over the last two axes of a
    # stack of point sets; a zero-norm error names the row within its set.
    points = np.asarray(points)
    points = points.astype(np.promote_types(points.dtype, np.float64), copy=False)
    _check_field(spec, np.iscomplexobj(points))
    # Overflow and NaN are reported as a NumericalError by _rewrite, not warned.
    with np.errstate(over="ignore", invalid="ignore"):
        inner = points @ np.swapaxes(points.conj(), -1, -2)
    norms = np.real(np.diagonal(inner, axis1=-2, axis2=-1))
    if any(p.kind in ("scale", "proj") for p in _flatten(spec)):
        zero = norms == 0.0
        if np.any(zero):
            raise ZeroVectorError(
                f"point {int(np.argmax(zero)) % zero.shape[-1]} has zero norm; "
                f"{format_invariance(spec)} invariance is undefined there"
            )
    return inner, norms


def _rewrite(spec: Invariance | None, sxx, sxy, syy, start: int = 0):
    # transform_triples; a non-finite entry at (..., i, j) names pair (start + i, start + j).
    with np.errstate(over="ignore", invalid="ignore"):
        triple = transform_triples(spec, sxx, sxy, syy)
    finite = np.isfinite(triple[0]) & np.isfinite(triple[1]) & np.isfinite(triple[2])
    if not np.all(finite):
        *_, i, j = np.unravel_index(np.argmin(finite), finite.shape)
        raise NumericalError(
            f"non-finite kernel triple at pair ({start + i}, {start + j}); "
            "the points overflow the invariance's rewrite or are not finite"
        )
    return triple


def triple_tiles(points, spec: Invariance | None):
    """Row tiles of the upper triangle of a 2-D point array's triple field.

    Entry (i, j) is (<x_i,x_i>, <x_i,x_j>, <x_j,x_j>), read from S = X @ X^H
    with the norms taken from Re diag(S), which keeps RBF diagonals
    exactly 1.  Yields ``(start, (sxx, sxy, syy))`` for rows
    start:start+TILE_ROWS and columns start:N, rewritten by
    :func:`transform_triples`; the components broadcast to one shape.
    """
    inner, norms = _triple_field(points, spec)
    for start in range(0, len(inner), TILE_ROWS):
        rows = slice(start, start + TILE_ROWS)
        yield start, _rewrite(
            spec, norms[rows, None], inner[rows, start:], norms[None, start:], start
        )


def _pair_triples(spec: Invariance | None, xs, ys):
    # Rewritten triples of the pairs (xs[k], ys[k]): entry (0, 1) of the field
    # of each [xs[k]; ys[k]], as (n, 1, 1) arrays whose errors name pair (0, 1).
    # Each 2x2 field is the BLAS product of a two-point Gram; a row-wise sum rounds otherwise.
    xs, ys = np.asarray(xs), np.asarray(ys)
    if xs.ndim != 2 or xs.shape != ys.shape or xs.shape[1] < 1:
        raise DimensionError(f"incompatible shapes {xs.shape[1:]} and {ys.shape[1:]}")
    inner, norms = _triple_field(np.stack([xs, ys], axis=1), spec)
    triple = _rewrite(spec, norms[:, :, None], inner, norms[:, None, :])
    return tuple(t[:, 0:1, 1:2] for t in np.broadcast_arrays(*triple))


def kernel_triple(spec: KernelSpec, x, y) -> ScalarTriple:
    """The scalar-product triple the base kernel will consume.

    The one-pair case of the batched ``[x; y]`` triple field.
    """
    sxx, sxy, syy = _pair_triples(spec.invariance, np.asarray(x)[None], np.asarray(y)[None])
    return ScalarTriple(float(sxx.item()), sxy.item(), float(syy.item()))


def invariant_inner(spec: Invariance, x, y):
    """Invariant inner kernel value <q(x), q(y)> without computing q."""
    return kernel_triple(KernelSpec(BaseKernel("linear"), spec), x, y).sxy


def _checked_values(base: BaseKernel, triple, row: int, col: int) -> np.ndarray:
    # Base-kernel values; an error at entry (..., i, j) names pair (row + i, col + j).
    try:
        # Overflow is reported as a NumericalError below, not warned.
        with np.errstate(over="ignore", invalid="ignore"):
            values = base_values(base, *triple)
    except NegativeDistanceError as err:
        *_, i, j = np.unravel_index(err.index, np.broadcast(*triple).shape)
        raise NegativeDistanceError(
            f"kernel evaluation failed for pair ({row + i}, {col + j}): {err}",
            index=err.index,
        ) from err
    finite = np.isfinite(values)
    if not np.all(finite):
        *_, i, j = np.unravel_index(np.argmin(finite), finite.shape)
        raise NumericalError(
            f"non-finite kernel value at pair ({row + i}, {col + j}); "
            "the base kernel overflows on these points"
        )
    return values


def kernel_matrix(points, spec: KernelSpec) -> np.ndarray:
    """Kernel values of every pair of rows of a 2-D point array.

    Entry (i, j) equals eval_kernel(spec, x_i, x_j).  The base kernel
    runs on the row tiles of :func:`triple_tiles`, and the upper triangle
    is mirrored, so the result is exactly symmetric.  A non-finite value
    raises NumericalError naming the pair.
    """
    n = len(points)
    gram = np.zeros((n, n))
    for start, triple in triple_tiles(points, spec.invariance):
        values = _checked_values(spec.base, triple, start, start)
        stop = start + len(values)
        gram[start:stop, start:] = np.triu(values)
        # Rows below this tile are still zero in these columns, so adding
        # the transposed strict upper triangle mirrors it exactly.
        gram[start:, start:stop] += np.triu(values, 1).T
    return gram


def triple_value(base: BaseKernel, triple: ScalarTriple) -> float:
    """Base-kernel value of one triple, such as :func:`kernel_triple` returns.

    Raises NumericalError naming pair (0, 1) when the value is not finite.
    """
    entry = [np.full((1, 1), t) for t in (triple.sxx, triple.sxy, triple.syy)]
    return float(_checked_values(base, entry, 0, 1)[0, 0])


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Evaluate the (optionally invariant) kernel on a pair of points.

    Raises NumericalError naming pair (0, 1) when k(x, y) is not finite;
    k(x, x) and k(y, y) are not evaluated.
    """
    return triple_value(spec.base, kernel_triple(spec, x, y))


# ---------------------------------------------------------------------------
# Explicit quotient features (brute-force reference)


def quotient_map_oracle(spec: Invariance, x) -> np.ndarray:
    """Explicit invariant features of one point.

    This is the slow reference path: the m-fold outer tensor for
    rotation invariance, v v* for phase, x/||x|| for scale and
    x x*/||x||^2 for proj.  Pairing two outputs with the Frobenius
    inner product reproduces :func:`invariant_inner`.
    """
    x = np.asarray(x)
    if spec.kind == "chain":
        raise ValueError("chained invariances have no explicit feature oracle")
    if spec.kind == "rotation":
        if spec.m > 3 or x.size > 8:
            raise OracleSizeError(
                f"outer-tensor oracle limited to m <= 3 and dim <= 8 "
                f"(got m={spec.m}, dim={x.size})"
            )
        return reduce(np.multiply.outer, [x] * spec.m)
    if spec.kind == "phase":
        return np.outer(x, np.conj(x))
    norm_sq = float(np.real(np.vdot(x, x)))
    if norm_sq == 0.0:
        raise ZeroVectorError(f"{spec.kind} quotient is undefined at the origin")
    if spec.kind == "scale":
        return x / np.sqrt(norm_sq)
    return np.outer(x, np.conj(x)) / norm_sq


def frobenius_inner(a: np.ndarray, b: np.ndarray):
    """Hermitian Frobenius pairing sum a_i * conj(b_i) over all entries."""
    value = complex(np.vdot(np.asarray(b).ravel(), np.asarray(a).ravel()))
    if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        return value.real
    return value


# ---------------------------------------------------------------------------
# Randomized invariance testing


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of randomized invariance testing for one kernel spec."""

    passed: bool
    max_deviation: float
    threshold: float
    tolerance: float
    kernel_scale: float
    n_group_samples: int


def check_invariance(
    spec: KernelSpec,
    samples,
    n_group_samples: int = 16,
    seed: int = 0,
    group: Invariance | None = None,
    tolerance: float = 1e-10,
) -> InvarianceReport:
    """Test k(g.x, h.y) == k(x, y) on random pairs and group elements.

    ``group`` defaults to the spec's own invariance; passing a different
    group turns this into a falsifier for kernels that should *not* be
    invariant.  The pass threshold is ``tolerance`` relative to the
    largest kernel magnitude seen, floored at 1.  A kernel value that
    overflows raises NumericalError (see :func:`eval_kernel`).

    Known false failure: a Laplace base with a scale, proj or chained
    invariance can fail on a pair drawn from one orbit, where the square
    root turns a squared-distance round-off near 2 * eps into 1.5e-8.
    """
    points = np.asarray(getattr(samples, "points", samples))
    if len(points) == 0:
        raise ValidationError("samples must be non-empty")
    if n_group_samples < 1:
        raise ValidationError("n_group_samples must be at least 1")
    if group is None:
        group = spec.invariance
    if group is None:
        return InvarianceReport(True, 0.0, tolerance, tolerance, 0.0, 0)
    rng = np.random.default_rng(seed)
    complex_field = np.iscomplexobj(points)

    def draw():
        return sample_group_element(group, rng, complex_field)

    # Each sample draws its pair, then g, then h; all pairs go in one batch.
    picks = [(*rng.integers(len(points), size=2), draw(), draw()) for _ in range(n_group_samples)]
    rows, cols, gs, hs = zip(*picks)
    xs, ys = points[list(rows)], points[list(cols)]
    plain = _checked_values(spec.base, _pair_triples(spec.invariance, xs, ys), 0, 1)
    gxs = apply_group(np.array(gs)[:, None], xs)
    hys = apply_group(np.array(hs)[:, None], ys)
    moved = _checked_values(spec.base, _pair_triples(spec.invariance, gxs, hys), 0, 1)
    max_dev = float(np.max(np.abs(moved - plain)))
    scale = float(np.max(np.abs([plain, moved])))
    threshold = tolerance * max(1.0, scale)
    return InvarianceReport(
        max_dev <= threshold, max_dev, threshold, tolerance, scale, n_group_samples
    )


def median_heuristic_sigma(points, invariance: Invariance | None = None) -> float:
    """Median pairwise distance in the (possibly invariant) feature geometry.

    Distances are read off the triple as sqrt(i(x,x) - 2 Re i(x,y) + i(y,y)),
    so no explicit quotient features are formed.
    """
    pts = np.asarray(getattr(points, "points", points))
    if len(pts) < 2:
        raise ValidationError("median heuristic needs at least two points")
    distances = []
    for _, triple in triple_tiles(pts, invariance):
        d2 = squared_distance(*triple)
        distances.append(np.sqrt(d2[np.triu(np.ones(d2.shape, dtype=bool), k=1)]))
    return max(float(np.median(np.concatenate(distances))), 1e-12)


# ---------------------------------------------------------------------------
# Text grammar (CLI serialization)

_NAMED = {"sign": SIGN, "phase": PHASE, "scale": SCALE, "proj": PROJ}


def format_invariance(spec: Invariance) -> str:
    """Canonical text form: sign, rot:m, phase, scale, proj, chain(a,b)."""
    if spec.kind == "chain":
        return "chain(" + ",".join(format_invariance(p) for p in spec.parts) + ")"
    if spec.kind == "rotation":
        return "sign" if spec.m == 2 else f"rot:{spec.m}"
    return spec.kind


def parse_invariance(text: str) -> Invariance:
    """Parse the grammar accepted by ``--inv`` (case-insensitive)."""
    token = text.strip().lower()
    if not token:
        raise ParseError("empty invariance specification")
    if token in _NAMED:
        return _NAMED[token]
    if token.startswith("rot:"):
        try:
            m = int(token[4:])
        except ValueError:
            raise ParseError(f"invalid rotation order in {text!r}") from None
        if m < 2:
            raise ParseError(f"rotation order must be at least 2, got {m}")
        return rotation(m)
    if token.startswith("chain(") and token.endswith(")"):
        inner = token[len("chain(") : -1]
        parts = []
        depth = 0
        start = 0
        for pos, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise ParseError(f"unbalanced parentheses in {text!r}")
            elif ch == "," and depth == 0:
                parts.append(inner[start:pos])
                start = pos + 1
        if depth != 0:
            raise ParseError(f"unbalanced parentheses in {text!r}")
        parts.append(inner[start:])
        if any(not p.strip() for p in parts):
            raise ParseError(f"empty chain member in {text!r}")
        return chain(*(parse_invariance(p) for p in parts))
    raise ParseError(f"cannot parse invariance {text!r}")
