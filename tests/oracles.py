"""Reference implementations the package's batched code is tested against.

The package reads every triple from a batched ``X @ Xᴴ`` field.  The
one-pair formulas here, written straight from the definitions, are what
the hand-formula and isometry tests compare that field against.  The
per-row ``gram.csv`` writer is the byte reference for the blocked one.
"""

import numpy as np

from invkern import ScalarTriple
from invkern.errors import DimensionError
from invkern.invariance import triple_tiles
from invkern.kernels import base_values, squared_distance


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


def write_gram_csv_rows(values, path) -> None:
    """gram.csv row by row: ``repr`` of every cell, one line per row."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(",".join(map(repr, row.tolist())) + "\n" for row in values)
