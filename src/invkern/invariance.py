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
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    FieldError,
    NegativeDistanceError,
    NumericalError,
    ParseError,
    ValidationError,
    ZeroVectorError,
)
from .kernels import FAMILIES, BaseKernel, ScalarTriple, base_values, squared_distance

KINDS = ("rotation", "phase", "scale", "proj", "chain")

# Nesting limit of the --inv text grammar, a leaf counting as one level.
# parse_invariance checks it while scanning, before it recurses, so a text
# of 1200 nested chain( fails with a ParseError, not a RecursionError.
_MAX_CHAIN_DEPTH = 4

# Rows of the triple field rewritten at once.  Bounds the temporaries of
# the rewrite and of the base kernel to TILE_ROWS x N values.
TILE_ROWS = 128

# Values of a scale or proj denominator formed at once: 16 rows of a
# 2048-point tile, so the product sxx * syy stays in cache.
_NORM_PRODUCT_VALUES = 16 * 2048

# Rows of each block of gram_blocks.  A multiple of every tile step, so no
# tile straddles two blocks.  512 rows kept a 3000-point Gram's matvec at the
# dense one's speed, where 256 and 128 rows cost 1.2 and 1.7 times as much
# (README), and a Gram of at most 512 points is one block.
GRAM_BLOCK_ROWS = 4 * TILE_ROWS

# check_invariance's pass threshold, relative to the largest kernel
# magnitude seen, floored at 1.
INVARIANCE_TOLERANCE = 1e-10

# Round-off of a rewritten triple component, relative to the largest one:
# products, a division and a square root (scale, proj) add up to about
# 40 eps.  A Laplace base's square root turns it into sqrt(4 * this).
_TRIPLE_ROUNDING = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class Invariance:
    """Specification of one invariance, or an ordered chain of them.

    Kinds: ``rotation`` (multiplication by m-th roots of unity, m=2 is
    sign invariance), ``phase`` (unit complex factors), ``scale``
    (positive factors), ``proj`` (any nonzero factor), ``chain``.  A
    chain holds its atomic stages in order: nested chains flatten, so
    ``chain(chain(a, b), c) == chain(a, b, c)``.  Every group acts by
    scalar multiplication, so a chain is the quotient by the product of
    its stages' groups.
    """

    kind: str
    m: int = 0
    parts: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown invariance kind {self.kind!r}")
        if isinstance(self.m, bool) or not isinstance(self.m, numbers.Integral):
            raise ValidationError(f"rotation order m must be an integer, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))
        if self.kind == "rotation" and self.m < 2:
            raise ValidationError("rotation order m must be at least 2")
        if self.kind != "rotation" and self.m != 0:
            raise ValidationError(f"{self.kind} invariance takes no rotation order m={self.m}")
        if self.kind != "chain" and self.parts:
            raise ValidationError(f"{self.kind} invariance takes no chain parts")
        if self.kind == "chain":
            parts = tuple(self.parts)
            if not parts:
                raise ValidationError("chain must contain at least one invariance")
            if any(not isinstance(p, Invariance) for p in parts):
                raise ValidationError("chain parts must be Invariance instances")
            object.__setattr__(self, "parts", tuple(s for p in parts for s in _stages(p)))


def _stages(spec: Invariance | None) -> tuple:
    # The atomic stages of an invariance, in order: a chain's parts, else itself.
    if spec is None:
        return ()
    return spec.parts if spec.kind == "chain" else (spec,)


def rotation(m: int) -> Invariance:
    """Invariance under multiplication by the m-th roots of unity."""
    return Invariance("rotation", m=m)


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
    base, reads = spec.base, FAMILIES[spec.base.family]
    text = base.family
    if reads is not None:
        value = getattr(base, reads)
        text += f"({reads}={value:g})" if reads == "sigma" else f"({reads}={value})"
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


def transform_triples(spec: Invariance | None, sxx, sxy, syy, out=None):
    """Rewrite triple components into the invariance's orbit geometry.

    Works elementwise on arrays; chains fold left to right, each stage
    consuming the triple produced by the previous one.  No invariance
    (``None``) leaves the triple as it is.  Scale and proj divide by
    sxx * syy, which :func:`_triple_field` keeps nonzero, and return the
    scalar diagonals 1.0, which broadcast against ``sxy``.  Both rewrite a
    pair of finite norms whose product overflows to NaN, not to 0.0.  They
    form that product a few rows at a time (about 32k values), never in
    the shape of the result, and divide each row chunk by its own: every
    value keeps the bits of one division by the whole product.

    ``out``, if given, receives the rewritten ``sxy`` and may be ``sxy``
    itself, so a Gram tile is rewritten in its own buffer; a real result
    fills the real part of a complex ``out``.  The inputs are only read
    otherwise.
    """
    if out is not None and np.iscomplexobj(out) and not np.iscomplexobj(sxy):
        out = out.real
    if spec is None:
        if out is not None and out is not sxy:
            np.copyto(out, sxy)
            sxy = out
        return sxx, sxy, syy
    if spec.kind == "chain":
        for part in spec.parts:
            sxx, sxy, syy = transform_triples(part, sxx, sxy, syy, out)
        return sxx, sxy, syy
    if spec.kind == "rotation":
        return _power(sxx, spec.m), _power(sxy, spec.m, out), _power(syy, spec.m)
    if spec.kind == "phase":
        return sxx**2, _squared_modulus(sxy, out), syy**2
    sxx, syy = np.asarray(sxx, dtype=float), np.asarray(syy, dtype=float)
    shape = np.broadcast_shapes(sxx.shape, np.shape(sxy), syy.shape)
    if spec.kind == "scale":
        result = np.empty(shape, np.result_type(sxy, float)) if out is None else out
    else:
        result = _squared_modulus(sxy, out)  # out, or a new array of the rewrite's own
        if not isinstance(result, np.ndarray) or result.shape != shape:
            result = np.array(np.broadcast_to(result, shape))  # a scalar or broadcast sxy
    # A pair of finite norms whose product overflows has no rewrite: NaN, not
    # sxy / inf = 0.0.  (A norm that overflows itself fails at its diagonal.)
    # No product exceeds that of the largest norms, so testing it is O(N).
    overflow = not np.isfinite(np.max(sxx) * np.max(syy))
    # The denominator of a few rows at a time, never of the tile's shape; each
    # value is still the product sxx * syy that divides it.
    parts = [np.broadcast_to(v, shape) for v in (sxx, syy, sxy)]
    for rows in _row_chunks(shape):
        a, b, part = (v[rows] for v in parts)
        denom = np.asarray(a * b)
        if overflow:
            denom[np.isinf(denom) & np.isfinite(a) & np.isfinite(b)] = np.nan
        if spec.kind == "scale":
            np.divide(part, np.sqrt(denom, out=denom), out=result[rows])
        else:
            result[rows] /= denom
    return 1.0, result if result.ndim else result[()], 1.0


def _row_chunks(shape) -> list:
    # Index expressions of the first axis of `shape`, about _NORM_PRODUCT_VALUES
    # values each; a 0-d shape is one chunk.
    if not shape:
        return [...]
    rows = max(1, _NORM_PRODUCT_VALUES // max(1, math.prod(shape[1:])))
    return [slice(r, r + rows) for r in range(0, shape[0], rows)]


def _power(value, m: int, out=None):
    # value**m by binary powering: m = 2 is value * value, exactly as ** squares,
    # and m = 3 is value * (value * value).  Products are faster than a complex **.
    # The power goes to out, which may hold value; the squares go there too until
    # the first factor of the power is taken, then to one temporary of their own.
    result = spare = None
    while True:
        if m & 1:
            result = value if result is None else np.multiply(result, value, out=out)
        m >>= 1
        if not m:
            return result
        value = np.multiply(value, value, out=out if result is None else spare)
        if result is not None and out is not None:
            spare = value


def _squared_modulus(sxy, out=None):
    # |sxy|^2, into out (of sxy's dtype) if given.  Complex data keeps the real part
    # of sxy * conj(sxy): numpy fuses that product's multiply-add, so re * re + im * im
    # would round differently.  Real data squares without the conjugate copy.
    if not np.iscomplexobj(sxy):
        return np.multiply(sxy, sxy, out=out)
    # Without out, numpy writes the product over the temporary conjugate.
    product = sxy * np.conj(sxy) if out is None else np.multiply(sxy, np.conj(sxy), out=out)
    return np.real(product)


def _check_field(spec: Invariance | None, complex_data: bool) -> None:
    # Root-of-unity actions with m >= 3 move real vectors out of R^n.
    if not complex_data and any(p.kind == "rotation" and p.m >= 3 for p in _stages(spec)):
        raise FieldError("rotation invariance with m >= 3 requires complex data")


def _triple_field(points, spec: Invariance | None, ids):
    # The points, promoted to at least float64, and their adjoint, for a point
    # array or a stack of point sets; ids, shaped like points without its last
    # axis, name points in errors.
    points = np.asarray(points)
    points = points.astype(np.promote_types(points.dtype, np.float64), copy=False)
    _check_field(spec, np.iscomplexobj(points))
    if any(p.kind in ("scale", "proj") for p in _stages(spec)):
        # A sum of |x|^2 has no negative terms, so it is zero exactly where the
        # diagonal of a product is: the lowest zero-norm point is named here.
        with np.errstate(over="ignore", invalid="ignore"):
            zero = np.real(np.einsum("...i,...i->...", points, points.conj())) == 0.0
        if np.any(zero):
            raise ZeroVectorError(
                f"point {int(ids[zero][0])} has zero norm; "
                f"{format_invariance(spec)} invariance is undefined there"
            )
    return points, np.swapaxes(points.conj(), -1, -2)


def _pair_name(rows, cols, shape, index) -> str:
    # "(i, j)": the ids at flat index `index` of rows and cols broadcast to `shape`.
    return "({}, {})".format(*(int(np.broadcast_to(a, shape).flat[index]) for a in (rows, cols)))


def _rewrite(spec: Invariance | None, sxx, sxy, syy, rows, cols, out=None):
    # transform_triples; errors name pairs by the ids in rows and cols (broadcast).
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        triple = transform_triples(spec, sxx, sxy, syy, out)
    if not all(np.isfinite(t).all() for t in triple):
        finite = np.isfinite(triple[0]) & np.isfinite(triple[1]) & np.isfinite(triple[2])
        pair = _pair_name(rows, cols, finite.shape, np.argmin(finite))
        raise NumericalError(
            f"non-finite kernel triple at pair {pair}; "
            "the points overflow the invariance's rewrite or are not finite"
        )
    return triple


def triple_tiles(points, spec: Invariance | None, blocks=None):
    """Row tiles of the upper triangle of a 2-D point array's triple field.

    Entry (i, j) is (<x_i,x_i>, <x_i,x_j>, <x_j,x_j>).  Each tile forms its
    own product X[rows] @ X[start:]^H, so no N x N temporary is built, and
    its rows' norms are that product's own diagonal, summed as the <x,y>
    beside them: d^2(i, i) = 0 and RBF diagonals stay exactly 1.  Yields
    ``(start, stop, (sxx, sxy, syy))`` for rows start:stop and columns
    start:N, rewritten by :func:`transform_triples`, from the last tile up
    to the first, which read the later columns' norms off the tiles below;
    the components broadcast to one shape, and ``sxy`` (or its real part)
    is the tile's own buffer, which the caller may overwrite.  A scale or
    proj denominator is formed a few rows at a time, never in the tile's
    shape.

    With ``blocks``, the row blocks of a float Gram being filled bottom up
    (block b holds rows b*h to b*h+h and columns b*h to N, h the first
    block's height, a multiple of the tile steps; a square Gram is one
    block), the product and its rewrite go to the blocks' own memory at
    :func:`_gram_tile`, and the next tile is built only when the caller
    asks for it.  A product of another dtype than the Gram's, such as a
    complex one, goes to one reused buffer of a real tile's bytes instead,
    so its tiles have fewer rows.  A point array that is not 2-D numeric
    raises ValidationError.
    """
    points = np.asarray(points)
    if points.ndim != 2 or points.dtype.kind not in "biufc":
        raise ValidationError("points must be a 2-D numeric array (one row per point)")
    n = len(points)
    ids = np.arange(n)
    points, adjoint = _triple_field(points, spec, ids)
    norms = np.empty(n, points.real.dtype)
    step, buffer = TILE_ROWS, None
    if blocks is not None and points.dtype != blocks[0].dtype:
        step = TILE_ROWS * blocks[0].itemsize // points.itemsize
        buffer = np.empty(step * n, points.dtype)
    for start in reversed(range(0, n, step)):
        stop = min(start + step, n)
        out = None if blocks is None else _gram_tile(blocks, start, stop)
        if buffer is not None:
            out = buffer[: out.size].reshape(out.shape)
        yield start, stop, _tile_triple(spec, points, adjoint, ids, norms, start, stop, out)


def _gram_tile(blocks, start, stop):
    # Where the tile of rows start:stop, columns start:N of a Gram filled bottom up
    # is built: contiguously in its row block's first values, the empty rows above
    # it.  Tiles start at multiples of a step that divides the block height and are
    # at most a step high, so one below its block's top starts at least a tile's
    # height into the block and fits; the top one is exactly its own rows.
    height = len(blocks[0])
    block, top = blocks[start // height], start % height
    shape = (stop - start, block.shape[1] - top)
    return block.reshape(-1)[: shape[0] * shape[1]].reshape(shape)


def _tile_triple(spec: Invariance | None, points, adjoint, ids, norms, start, stop, out=None):
    # Rows start:stop, columns start:N of the rewritten triple field of a point array
    # or a stack of point sets; with out, the product and its rewrite both go to out.
    # The rows' norms, the product's real diagonal, go back to it and to norms.
    # Kept out of triple_tiles so that no raw tile outlives its rewrite.
    with np.errstate(over="ignore", invalid="ignore"):
        sxy = np.matmul(points[..., start:stop, :], adjoint[..., start:], out=out)
    diagonal = np.arange(stop - start)
    norms[..., start:stop] = np.real(sxy[..., diagonal, diagonal])
    sxy[..., diagonal, diagonal] = norms[..., start:stop]
    sxx, syy = norms[..., start:stop, None], norms[..., None, start:]
    return _rewrite(spec, sxx, sxy, syy, ids[..., start:stop, None], ids[..., None, start:], out)


def _pair_triples(spec: Invariance | None, xs, ys, rows, cols):
    # Rewritten triples of the pairs (xs[k], ys[k]), named rows[k] and cols[k] in
    # errors: entry (0, 1) of the field of each [xs[k]; ys[k]], as length-n arrays.
    xs, ys = np.asarray(xs), np.asarray(ys)
    if xs.ndim != 2 or xs.shape != ys.shape or xs.shape[1] < 1:
        raise DimensionError(f"incompatible shapes {xs.shape[1:]} and {ys.shape[1:]}")
    ids = np.stack([rows, cols], axis=1)
    points, adjoint = _triple_field(np.stack([xs, ys], axis=1), spec, ids)
    # The whole 2x2 field, one tile of each two-point set, is rewritten, not entry
    # (0, 1) alone: a norm that overflows can rewrite to a finite <x,y> (scale:
    # 1e160 / inf = 0.0), and only the diagonal entries then show it.
    triple = _tile_triple(spec, points, adjoint, ids, np.empty(ids.shape, points.real.dtype), 0, 2)
    return tuple(t[:, 0, 1] for t in np.broadcast_arrays(*triple))


def kernel_triple(spec: KernelSpec, x, y) -> ScalarTriple:
    """The scalar-product triple the base kernel will consume.

    The one-pair case of the batched ``[x; y]`` triple field.
    """
    sxx, sxy, syy = _pair_triples(spec.invariance, [x], [y], [0], [1])
    return ScalarTriple(float(sxx.item()), sxy.item(), float(syy.item()))


def invariant_inner(spec: Invariance, x, y):
    """Invariant inner kernel value <q(x), q(y)> without computing q."""
    return kernel_triple(KernelSpec(BaseKernel("linear"), spec), x, y).sxy


def _checked_values(base: BaseKernel, triple, rows, cols, out=None) -> np.ndarray:
    # Base-kernel values, into out if given; errors name pairs by the ids in rows
    # and cols (broadcast).
    try:
        # Overflow and division by zero are reported as a NumericalError below, not warned.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            values = base_values(base, *triple, out=out)
    except NegativeDistanceError as err:
        pair = _pair_name(rows, cols, np.broadcast(*triple).shape, err.index)
        raise NegativeDistanceError(
            f"kernel evaluation failed for pair {pair}: {err}", index=err.index
        ) from err
    finite = np.isfinite(values)
    if not np.all(finite):
        pair = _pair_name(rows, cols, finite.shape, np.argmin(finite))
        raise NumericalError(
            f"non-finite kernel value at pair {pair}; "
            "the base kernel overflows on these points"
        )
    return values


def _gram_blocks(points, spec: KernelSpec, height: int) -> tuple:
    # The Gram in row blocks of `height` rows, as gram_blocks describes them.  Each
    # tile, from the last one up, is built in its block's own memory by
    # triple_tiles, turned into checked base-kernel values in place, copied to its
    # rows and mirrored into the finished rows of its block below it.
    n = len(points)
    blocks = tuple(np.empty((min(b + height, n) - b, n - b)) for b in range(0, max(n, 1), height))
    for start, stop, triple in triple_tiles(points, spec.invariance, blocks):
        tile = _gram_tile(blocks, start, stop)
        _checked_values(spec.base, triple, *np.ogrid[start:stop, start:n], out=tile)
        square = tile[:, : stop - start]
        np.copyto(square, square.T, where=np.tri(stop - start, k=-1, dtype=bool))
        block, top = blocks[start // height], start % height
        bottom = top + stop - start
        block[top:bottom, top:] = tile
        block[bottom:, top:bottom] = block[top:bottom, bottom : len(block)].T
    return blocks


def kernel_matrix(points, spec: KernelSpec) -> np.ndarray:
    """Kernel values of every pair of rows of a 2-D point array.

    Entry (i, j) agrees with eval_kernel(spec, x_i, x_j) up to rounding:
    both take the norms from the diagonal of the product that gives <x,y>,
    but BLAS may sum a tile's product and a 2x2 one in other orders.  The
    Gram is the one block of :func:`gram_blocks`' builder: each row tile of
    the upper triangle, from the last one up, is built in the Gram's own
    memory by :func:`triple_tiles`, turned into checked base-kernel values
    in place, copied to its rows and mirrored into the finished rows below
    it, so the result is exactly symmetric.  A non-finite value raises
    NumericalError naming the pair: the first failing pair of the lowest
    failing tile.
    """
    return _gram_blocks(points, spec, max(len(points), 1))[0]


def gram_blocks(points, spec: KernelSpec) -> tuple:
    """The Gram of :func:`kernel_matrix` as a tuple of row blocks of its upper part.

    Block b is rows b*512 to b*512+h, columns b*512 to N of that Gram, with
    its own h x h square mirrored and nothing below it, so the blocks hold
    about 0.58 of the Gram's values at N = 3000 and no N x N array exists.
    Every value keeps its bits, and a Gram of at most ``GRAM_BLOCK_ROWS``
    points is one block, the :func:`kernel_matrix` array itself.  This is
    the one form the spectral functions of :mod:`invkern.spectral` read;
    they take an N x N array as one block.
    """
    return _gram_blocks(points, spec, GRAM_BLOCK_ROWS)


def triple_value(base: BaseKernel, triple: ScalarTriple) -> float:
    """Base-kernel value of one triple, such as :func:`kernel_triple` returns.

    Raises NumericalError naming pair (0, 1) when the value is not finite.
    """
    entry = [np.full((1, 1), t) for t in (triple.sxx, triple.sxy, triple.syy)]
    return float(_checked_values(base, entry, 0, 1)[0, 0])


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Evaluate the (optionally invariant) kernel on a pair of points.

    Its triple is a one-tile Gram of [x; y], norms from the 2x2 product's
    diagonal.  Raises NumericalError when k(x, y) is not finite, naming
    pair (0, 1), and also when a rewritten triple of k(x, x) or k(y, y)
    is not, as when a norm overflows, naming (0, 0) or (1, 1); only the
    base values of k(x, x) and k(y, y) are skipped.
    """
    return triple_value(spec.base, kernel_triple(spec, x, y))


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
) -> InvarianceReport:
    """Test k(g.x, h.y) == k(x, y) on random pairs and group elements.

    ``group`` defaults to the spec's own invariance; passing a different
    group turns this into a falsifier for kernels that should *not* be
    invariant.  The pass threshold is ``INVARIANCE_TOLERANCE`` relative to
    the largest kernel magnitude seen, floored at 1.  A Laplace base adds
    sqrt(4 * err) / sigma, err = 64 eps times the largest rewritten triple
    component: the squared distance a + c - 2 Re s is off by up to 4 err,
    and on a pair from one orbit (distance 0) the square root turns that
    into sqrt(4 err), of order 1e-7, not a multiple of eps.  Errors name
    rows of ``samples``; a kernel value that overflows raises
    NumericalError.
    """
    points = np.asarray(getattr(samples, "points", samples))
    if len(points) == 0:
        raise ValidationError("samples must be non-empty")
    if n_group_samples < 1:
        raise ValidationError("n_group_samples must be at least 1")
    if group is None:
        group = spec.invariance
    if group is None:
        return InvarianceReport(True, 0.0, INVARIANCE_TOLERANCE, INVARIANCE_TOLERANCE, 0.0, 0)
    rng = np.random.default_rng(seed)
    complex_field = np.iscomplexobj(points)

    def draw():
        return sample_group_element(group, rng, complex_field)

    # Each sample draws its pair, then g, then h; all pairs go in one batch.
    picks = [(*rng.integers(len(points), size=2), draw(), draw()) for _ in range(n_group_samples)]
    rows, cols, gs, hs = (np.array(column) for column in zip(*picks))
    xs, ys = points[rows], points[cols]
    gxs, hys = apply_group(gs[:, None], xs), apply_group(hs[:, None], ys)
    triples = [_pair_triples(spec.invariance, a, b, rows, cols) for a, b in ((xs, ys), (gxs, hys))]
    plain, moved = (_checked_values(spec.base, triple, rows, cols) for triple in triples)
    max_dev = float(np.max(np.abs(moved - plain)))
    scale = float(np.max(np.abs([plain, moved])))
    threshold = INVARIANCE_TOLERANCE * max(1.0, scale)
    if spec.base.family == "laplace":
        size = max(float(np.max(np.abs(t))) for triple in triples for t in triple)
        threshold += float(np.sqrt(4.0 * _TRIPLE_ROUNDING * size)) / spec.base.sigma
    return InvarianceReport(
        max_dev <= threshold, max_dev, threshold, INVARIANCE_TOLERANCE, scale, n_group_samples
    )


def median_heuristic_sigma(points, invariance: Invariance | None = None) -> float:
    """Median pairwise distance in the (possibly invariant) feature geometry.

    Distances are read off the triple as sqrt(i(x,x) - 2 Re i(x,y) + i(y,y)),
    so no explicit quotient features are formed.  The N(N-1)/2 squared
    distances fill one buffer, tile by tile, and the median is selected by
    partitioning it; sqrt is monotone and correctly rounded, so this equals
    the median of the distances themselves bit for bit.
    """
    pts = np.asarray(getattr(points, "points", points))
    n = len(pts)
    if n < 2:
        raise ValidationError("median heuristic needs at least two points")
    squared = np.empty(n * (n - 1) // 2)
    filled = 0
    for _, _, triple in triple_tiles(pts, invariance):
        d2 = squared_distance(*triple, out=np.real(triple[1]))
        # Row r of a tile starts at the diagonal, so its strict upper part is d2[r, r + 1:].
        strict = d2[np.arange(d2.shape[1]) > np.arange(len(d2))[:, None]]
        squared[filled : filled + strict.size] = strict
        filled += strict.size
        # Freed before the next tile is built, so the buffer stays the only N^2 array.
        del triple, d2, strict
    # The two middle entries, one and the same for an odd count, where (a + a) / 2 is a.
    lower, upper = (len(squared) - 1) // 2, len(squared) // 2
    squared.partition([lower, upper])
    median = (math.sqrt(squared[lower]) + math.sqrt(squared[upper])) / 2.0
    return max(median, 1e-12)


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
                # This chain, `depth` inside it, a leaf; checked before recursing.
                if depth + 2 > _MAX_CHAIN_DEPTH:
                    raise ParseError(f"chain nesting deeper than {_MAX_CHAIN_DEPTH}")
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
