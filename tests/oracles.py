"""Reference implementations the package's batched code is tested against.

The package reads every triple from a batched ``X @ Xᴴ`` field.  The
one-pair formulas here, written straight from the definitions, are what
the hand-formula and isometry tests compare that field against.  The
explicit quotient features pair, under the Frobenius inner product, to
the invariant inner kernels the package computes without them.

This module is the one home of the byte references: the per-row
``gram.csv`` writer for the blocked one, and the per-cell heatmap loop
for the template emitter in ``invkern.figures``.
"""

from functools import reduce

import numpy as np

from invkern import ScalarTriple
from invkern.errors import DimensionError, ZeroVectorError
from invkern.invariance import triple_tiles
from invkern.kernels import base_values, squared_distance
from invkern.spectral import _pairwise_distance


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


def eval_base(spec, triple: ScalarTriple) -> float:
    """Evaluate one base kernel on a scalar-product triple."""
    return float(base_values(spec, triple.sxx, triple.sxy, triple.syy))


def median_distance(points, invariance=None) -> float:
    """Median pairwise distance, from np.median over every distance at once.

    The direct definition the package's median heuristic, which selects
    from a buffer of squared distances, must equal bit for bit.
    """
    distances = []
    for _, _, triple in triple_tiles(np.asarray(points), invariance):
        d2 = squared_distance(*triple)
        distances.append(np.sqrt(d2[np.triu(np.ones(d2.shape, dtype=bool), k=1)]))
    return max(float(np.median(np.concatenate(distances))), 1e-12)


def seed_centers(points, k, rng):
    """k-means++ seeding that recomputes the distances to every chosen centre.

    The reference for the package's seeding, which keeps each point's
    nearest distance and lowers it by the newest centre alone: both draw
    the same random numbers and must choose the same centres.
    """
    n = len(points)
    chosen = [int(rng.integers(n))]
    for _ in range(1, k):
        weights = _pairwise_distance(points, points[chosen]).min(axis=1) ** 2
        total = weights.sum()
        if total <= 0.0:
            chosen.append(int(rng.integers(n)))
        else:
            chosen.append(int(rng.choice(n, p=weights / total)))
    return points[chosen].copy()


def write_gram_csv_rows(values, path) -> None:
    """gram.csv row by row: ``repr`` of every cell, one line per row."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(",".join(map(repr, row.tolist())) + "\n" for row in values)


class OracleSizeError(ValueError):
    """The explicit-feature oracle would exceed its size limits."""


def quotient_map_oracle(spec, x) -> np.ndarray:
    """Explicit invariant features of one point.

    The m-fold outer tensor for rotation invariance, v v* for phase,
    x/||x|| for scale and x x*/||x||^2 for proj.  Pairing two outputs
    with the Frobenius inner product reproduces ``invariant_inner``.
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


def heatmap_oracle(matrix, size=480):
    """The per-cell reference loop that heatmap_svg must match byte for byte."""
    values = np.asarray(matrix, dtype=float)
    n_rows, n_cols = values.shape
    vmin = float(values.min())
    vmax = float(values.max())
    span = vmax - vmin if vmax > vmin else 1.0
    cell_w = size / n_cols
    cell_h = size / n_rows
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    for i in range(n_rows):
        for j in range(n_cols):
            t = (values[i, j] - vmin) / span
            channels = tuple(
                int(round(lo + t * (hi - lo))) for lo, hi in ((255, 8), (255, 48), (255, 107))
            )
            fill = "#{:02x}{:02x}{:02x}".format(*channels)
            parts.append(
                f'<rect class="cell" x="{j * cell_w:.3f}" y="{i * cell_h:.3f}" '
                f'width="{cell_w:.3f}" height="{cell_h:.3f}" fill="{fill}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
