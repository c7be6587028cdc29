"""Dataset containers, experiment generators, CSV I/O, mixing estimation.

The generators mirror three clustering problems where per-point sign or
scale indeterminacies hide the class structure from plain kernels: the
XOR corner layout, high-dimensional two-class blobs with random sign
flips, and 2-D points scattered along k lines through the origin (the
geometry of sparse mixture coefficients in overcomplete source
separation).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import numbers
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateClusterError, FormatError, ParseError, ValidationError

# Labels must fit the int64 label array.
_LABEL_LIMIT = 2**63


@dataclass
class Dataset:
    """Points (one per row), optional integer labels, generator metadata."""

    points: np.ndarray
    labels: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = points_of(self.points)
        if self.labels is not None:
            self.labels = labels_of(self.labels, len(self.points))

    def __len__(self) -> int:
        return len(self.points)


def points_of(data, min_rows: int = 0, too_few: str | None = None, real: bool = False):
    """The points of a Dataset, or a 2-D bool, int, float or complex array.

    Anything else, or fewer than ``min_rows`` rows (message ``too_few`` if
    given), raises ValidationError.  With ``real``, complex is refused too
    and the points come back as float64.
    """
    try:
        points = np.asarray(data.points if isinstance(data, Dataset) else data)
    except ValueError:  # a ragged nesting of sequences
        points = np.empty(0, object)
    if points.ndim != 2 or points.dtype.kind not in ("biuf" if real else "biufc"):
        of_real = " of real values" if real else ""
        raise ValidationError(f"points must be a 2-D numeric array{of_real} (one row per point)")
    if len(points) < min_rows:
        raise ValidationError(too_few or f"need at least {min_rows} point(s), got {len(points)}")
    return points.astype(float, copy=False) if real else points


def labels_of(labels, n: int | None = None) -> np.ndarray:
    """``n`` nonnegative integers below 2**63 (int or integral float) as int64.

    Any number of them when ``n`` is None.  The rule of :func:`load_csv`'s
    label column; anything else, bools and ragged sequences included,
    raises ValidationError.
    """
    try:
        values = np.asarray(labels)
    except ValueError:  # a ragged nesting of sequences
        values = np.empty((0, 0))
    count = len(values) if n is None and values.ndim == 1 else n
    if not (
        values.shape == (count,) and values.dtype.kind in "iuf"
        and np.all(values >= 0) and np.all(values < _LABEL_LIMIT)
        and (values.dtype.kind != "f" or np.array_equal(values, np.trunc(values)))
    ):
        how_many = "" if n is None else f"{n} "
        raise ValidationError(f"labels must be {how_many}nonnegative integers below 2**63")
    return values.astype(np.int64, copy=False)


def count_of(value, name: str, low: int | None, high: int | None = None) -> int:
    """An integer that is not a bool, in [low, high] (None: unbounded), as an int."""
    # bool is an int subclass, but a flag is not a count.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if (low is not None and value < low) or (high is not None and value > high):
        bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise ValidationError(f"{name} must be {bound}, got {value}")
    return value


def gen_xor(n_per_arm: int, spread: float, seed: int = 0) -> Dataset:
    """Four jittered corner blobs in the XOR layout.

    Class 0 sits on the equal-sign corners (1,1) and (-1,-1), class 1 on
    the opposite-sign corners, so negating any point moves it within its
    own class; only a sign-blind method can recover the labels.
    """
    n_per_arm = count_of(n_per_arm, "n_per_arm", 1)
    seed = count_of(seed, "seed", 0)
    if not spread > 0:
        raise ValidationError("spread must be positive")
    rng = np.random.default_rng(seed)
    corners = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    points = np.repeat(corners, n_per_arm, axis=0)
    points = points + spread * rng.standard_normal(points.shape)
    labels = np.repeat([0, 0, 1, 1], n_per_arm)
    meta = {"name": "xor", "n_per_arm": n_per_arm, "spread": spread, "seed": seed}
    return Dataset(points, labels, meta)


def gen_flipped_blobs(
    n_per_class: int,
    dim: int,
    separation: float = 6.0,
    noise: float = 0.09,
    flip_prob: float = 0.5,
    seed: int = 0,
) -> Dataset:
    """Two orthogonal-prototype blobs with independent per-point sign flips.

    Each class is a Gaussian blob around separation * u_c for a seeded
    orthonormal prototype pair (u_0, u_1); every point is then negated
    with probability ``flip_prob``.  Labels record the blob, never the
    flip, so flips are pure nuisance.
    """
    n_per_class = count_of(n_per_class, "n_per_class", 1)
    dim = count_of(dim, "dim", 2)
    seed = count_of(seed, "seed", 0)
    if not separation > 0:
        raise ValidationError("separation must be positive")
    if not 0.0 <= flip_prob <= 1.0:
        raise ValidationError("flip_prob must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, 2)))
    prototypes = basis.T
    blocks = [
        separation * prototypes[c] + noise * rng.standard_normal((n_per_class, dim))
        for c in range(2)
    ]
    points = np.vstack(blocks)
    flips = rng.random(len(points)) < flip_prob
    points[flips] *= -1.0
    labels = np.repeat([0, 1], n_per_class)
    meta = {
        "name": "flipped_blobs",
        "n_per_class": n_per_class,
        "dim": dim,
        "separation": separation,
        "noise": noise,
        "flip_prob": flip_prob,
        "seed": seed,
    }
    return Dataset(points, labels, meta)


def gen_directions(
    k: int,
    n_points: int,
    noise: float = 0.02,
    seed: int = 0,
):
    """2-D points scattered along k equally spaced lines through the origin.

    Each point is eps * r * d_c + eta with a uniform cluster c, random
    sign eps, lognormal radius r (mu 0, sigma 0.75), and isotropic jitter
    of scale ``noise``.  Returns (dataset, directions): the ground-truth
    unit directions, 10 degrees plus multiples of 180/k degrees,
    sign-canonical (first nonzero coordinate positive).
    """
    k = count_of(k, "k", 2)
    n_points = count_of(n_points, "n_points", k)
    seed = count_of(seed, "seed", 0)
    angle_offset_deg, mu, s = 10.0, 0.0, 0.75
    rng = np.random.default_rng(seed)
    angles = np.radians(angle_offset_deg + 180.0 * np.arange(k) / k)
    directions = np.column_stack([np.cos(angles), np.sin(angles)])
    directions = np.array([canonical_direction(d) for d in directions])
    clusters = rng.integers(k, size=n_points)
    signs = 2.0 * rng.integers(2, size=n_points) - 1.0
    radii = rng.lognormal(mu, s, size=n_points)
    jitter = noise * rng.standard_normal((n_points, 2))
    points = (signs * radii)[:, None] * directions[clusters] + jitter
    meta = {
        "name": "directions",
        "k": k,
        "n_points": n_points,
        "angle_offset_deg": angle_offset_deg,
        "scale_law": ["lognormal", mu, s],
        "noise": noise,
        "seed": seed,
        "directions": directions.tolist(),
    }
    return Dataset(points, clusters, meta), directions


def canonical_direction(v) -> np.ndarray:
    """Unit vector with its first nonzero coordinate positive."""
    v = points_of([v], real=True)[0]
    # An overflowing norm is reported below, not warned.
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValidationError("cannot canonicalize the zero vector")
    if not np.isfinite(norm):
        raise ValidationError(f"cannot canonicalize a vector of non-finite norm {norm}")
    v = v / norm
    for component in v:
        if component != 0.0:
            return -v if component < 0 else v


def parse_cell(text: str, source, line, column) -> float:
    """One finite number from a CSV cell or vector component.

    ``source`` names the input in messages; ``line`` is None for
    single-line input.  Line and column numbers are 1-based.
    """
    where = f"column {column}" if line is None else f"line {line}, column {column}"
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"{source}: non-numeric cell {text!r} at {where}", line=line, column=column
        ) from None
    if not math.isfinite(value):
        raise ParseError(
            f"{source}: non-finite cell {text!r} at {where}", line=line, column=column
        )
    return value


def load_csv(path, has_labels: bool = False) -> Dataset:
    """Load a rectangular numeric CSV as a dataset.

    A header row is assumed only when *every* cell of the first row
    fails to parse as a number.  NaN and infinite cells are rejected.
    With ``has_labels`` the last column holds nonnegative integer
    labels below 2**63.  Line and column numbers in errors are 1-based;
    invalid UTF-8 is a FormatError naming its byte offset.

    numpy parses the file first.  Any file it rejects, or whose values
    break a rule above, goes through the cell loop, which alone reads
    headers, names a bad cell and accepts what only ``float()`` does
    (``1_000``, non-ASCII digits).  Both end in the same string-to-double
    conversion, so a file both accept loads to the same bits.
    """
    data = _load_with_numpy(path, has_labels)
    return data if data is not None else _load_cells(path, has_labels)


def _load_with_numpy(path, has_labels: bool) -> Dataset | None:
    """The dataset ``_load_cells`` gives, or None when numpy cannot tell it."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty file only warns
            # An open handle, not a path: numpy would also fetch URLs,
            # decompress and look for ``path + ".gz"``.
            with open(path, encoding="utf-8") as handle:
                values = np.loadtxt(
                    handle, delimiter=",", comments=None, quotechar='"', ndmin=2
                )
    except (ValueError, Warning):
        return None
    if values.size == 0 or not np.isfinite(values).all():
        return None
    labels = None
    if has_labels:
        if values.shape[1] < 2:
            return None
        # A column slice is strided; Gram bits must not depend on the layout.
        values, labels = np.ascontiguousarray(values[:, :-1]), values[:, -1]
    try:
        return Dataset(values, labels, _csv_meta(path))
    except ValidationError:
        return None  # labels_of refused a label; the cell loop names its line


def _load_cells(path, has_labels: bool) -> Dataset:
    """``load_csv`` cell by cell: headers, and errors naming the bad cell."""
    reader = csv.reader(io.StringIO(_read_utf8(path), newline=""))
    try:
        raw = [(i + 1, row) for i, row in enumerate(reader) if row]
    except csv.Error as err:
        # For one, a cell past the csv module's field limit.  The limit is
        # process-wide state, so it stays as it is.
        line = reader.line_num
        raise FormatError(f"{path}: {err} at line {line}", line=line) from None
    if not raw:
        raise FormatError(f"{path}: empty file", line=1)
    first_line, first_row = raw[0]
    header = None
    if all(not _is_number(cell) for cell in first_row):
        header = [cell.strip() for cell in first_row]
        raw = raw[1:]
        if not raw:
            raise FormatError(f"{path}: no data rows after header", line=first_line)
    width = len(raw[0][1])
    if has_labels and width < 2:
        raise FormatError(f"{path}: need a feature column besides the labels", line=raw[0][0])
    rows = []
    labels = []
    for line, row in raw:
        if len(row) != width:
            raise FormatError(
                f"{path}: row at line {line} has {len(row)} cells, expected {width}",
                line=line,
            )
        values = [parse_cell(cell, path, line, col + 1) for col, cell in enumerate(row)]
        if has_labels:
            label = values[-1]
            if label != int(label) or not 0 <= label < _LABEL_LIMIT:
                raise ParseError(
                    f"{path}: label {row[-1]!r} at line {line} is not a nonnegative "
                    "integer below 2**63",
                    line=line,
                    column=width,
                )
            labels.append(int(label))
            values = values[:-1]
        rows.append(values)
    meta = _csv_meta(path)
    if header is not None:
        meta["header"] = header
    return Dataset(np.array(rows), np.array(labels) if has_labels else None, meta)


def _read_utf8(path) -> str:
    with open(path, "rb") as handle:
        content = handle.read()
    try:
        return content.decode("utf-8")
    except UnicodeDecodeError as err:
        raise FormatError(f"{path}: invalid UTF-8 at byte offset {err.start}") from None


def _csv_meta(path) -> dict:
    return {"name": os.path.splitext(os.path.basename(str(path)))[0], "source": str(path)}


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def save_dataset(data: Dataset, path) -> None:
    """Write points (+ label column) as CSV with a .meta.json sidecar.

    Floats are written as ``repr`` writes them (:func:`write_float_rows`),
    so a reload reproduces them exactly; no cell needs quoting, and rows end
    in CRLF, as csv.writer writes them.
    """
    if np.iscomplexobj(data.points):
        raise ValidationError("CSV export supports real-valued datasets only")
    with open(path, "wb") as handle:
        write_float_rows(handle, data.points, "\r\n", data.labels)
    sidecar = os.path.splitext(str(path))[0] + ".meta.json"
    with open(sidecar, "w", encoding="utf-8") as handle:
        json.dump(data.meta, handle, sort_keys=True, indent=2)
        handle.write("\n")


# Float text: the bytes of ``repr`` for whole arrays of doubles.
#
# ``repr(x)`` is the shortest decimal that reads back as x, and the nearest
# to x among those.  CPython finds it with the bignum arithmetic of ``dtoa``
# (Gay 1990), which is most of its cost; for almost every double the same
# digits follow from fixed-width arithmetic (Ryu: Adams 2018), done here by
# numpy on whole chunks of cells.  Where that pick does not decide, the
# digits are those of ``repr`` itself.
#
# Scale: y = |x| * 10**k lies in [1e16, 1e17).  It is kept as an int64 ``yi``
# plus a double ``f`` in [-0.5, 0.5]: Dekker's exact product of x's mantissa
# and the double-double 10**k of a table built from Python integers, times a
# power of two.  For 0 <= k <= 22 the power is a double and y is exact; for
# other k the table's rounding leaves y, and h below, within 1.3e-14.
#
# Pick: every decimal within half an ulp of x reads back as x.  Scaled alike,
# that interval is y +- h, and holds its ends when x's mantissa is even; the
# digits are those of its integer with the most trailing zeros, the nearest
# to y among those.  A test is decided exactly when y and h are exact, else
# when its sides differ by more than _DELTA = 2**-44, four times the error.
#
# Repr: a power of two's interval is uneven (h / 2 below), so its digits are
# read off ``repr`` once per exponent, which keeps RBF diagonals and
# integer-valued Grams on the pick.  A tie of two nearest candidates, a
# subnormal, a test within _DELTA, NaN and inf have ``repr``'s text spliced
# in: no cell of 10**6 uniform in [0, 1), 0.75% of the nonzero cells of a
# gaussian(0.1) Gram of points on lines (its subnormals), 0.26% of random
# bit patterns, and one in six log-uniform in [1e17, 1e20), whose interval
# ends, integers over 10**-k, often land on an integer; below 1e-4, rare.

_K_MIN, _K_MAX = -310, 345  # 16 - floor(log10 |x|) of every finite double, and a step
_DELTA = 2.0**-44
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
# Cells formatted at once.  They take about 300 bytes each while formatted,
# 2.4 MB in all: 0.47 x the Gram at N = 800.  16384 cells were no faster.
_FLOAT_CHUNK = 8192

# One cell's text record: 13 little-endian uint32 words, of which a mask
# picks the bytes that make the text.  The digits D[1..16] sit at _D1.  Left
# of them, at _D1 - 1, sits D[0] after a right-aligned '0.', '0.0', '0.00'
# or '0.000', or the point after a one-character integer part at _HEAD;
# either way the text up to any exponent is one run of bytes.  An integer
# part of two or more digits is read from its own copy of D[0..15] at _A,
# then the point at _DOT.  The exponent suffix sits right-aligned against the
# separator.  A cell written by ``repr`` has its text at _A, padded with
# zero bytes to _REPR, the longest repr of a double (-2.2250738585072014e-308).
_W = 52
_SIGN, _A, _DOT, _HEAD, _D1, _SEP = 2, 3, 20, 26, 28, 49
_REPR = 24
_LAYOUTS = 22  # positional with exponent -4..15, or two- or three-digit exponent


@functools.cache
def _float_tables() -> dict:
    """Lookup tables of :func:`write_float_rows`, built on its first call."""
    k = np.arange(_K_MIN, _K_MAX + 1)
    hi, lo, exp2, exact = (np.empty(len(k)) for _ in range(4))
    for i, power in enumerate(k.tolist()):
        # 10**power = num / den * 2**e with num / den in [0.5, 1), kept as hi + lo.
        if power >= 0:
            num, den = 10**power, 1 << (10**power).bit_length()
            e = den.bit_length() - 1
        else:
            num, den = 1 << ((10**-power).bit_length() - 1), 10**-power
            e = 1 - (10**-power).bit_length()
        hi[i] = num / den
        hi_num, hi_den = hi[i].as_integer_ratio()
        rest = num * hi_den - hi_num * den
        lo[i], exp2[i], exact[i] = rest / (den * hi_den), e, rest == 0
    split = hi * _SPLIT
    hi_high = split - (split - hi)
    exact = exact.astype(bool)
    n = np.arange(10000, dtype=np.uint16)
    quads = np.empty((10000, 4), np.uint8)
    for place, digit in enumerate((n // 1000, n // 100 % 10, n // 10 % 10, n % 10)):
        quads[:, place] = 48 + digit
    return {
        "hi": hi, "hi_high": hi_high, "hi_low": hi - hi_high, "lo": lo,
        "exp2": exp2.astype(np.int64) + 1023,
        # Plain f +- h is exact when y is and k <= 20: then f and h share a
        # binary grid no finer than 2**-47 and are below 16.
        "approx": ~(exact & (k <= 20)),
        "quads": quads.view(np.uint32).ravel(),
        # (c, p, k) of 2**(e - 1) at e + 1021, from repr once e occurs; c = 0 before
        "powers": np.zeros((3, 2046), np.int64),
        **_exponent_tables(),
        **_layouts(),
    }


def _exponent_tables() -> dict:
    """Per decimal exponent -400..399: the record words it fixes, and its layout."""
    e = np.arange(-400, 400)
    a = np.abs(e)
    positional = (e >= -4) & (e < 16)
    zeros = np.where(positional & (e < 0), -1 - e, -1)  # after '0.'; -1: no '0.'
    # Bytes _DOT.._D1 - 1: the point, '0.' and zeros right-aligned to _HEAD,
    # or the point after a one-character integer part.
    middle = np.zeros((len(e), 8), np.uint8)
    middle[:, 0] = ord(".")
    col = np.arange(_DOT, _DOT + 8)
    middle[(col >= _HEAD - 1 - zeros[:, None]) & (col <= _HEAD) & (zeros[:, None] >= 0)] = ord("0")
    middle[zeros >= 0, _HEAD - 1 - zeros[zeros >= 0] - _DOT + 1] = ord(".")
    middle[zeros < 0, _D1 - 1 - _DOT] = ord(".")
    # 'e-05' or 'e+308' right-aligned in five bytes, then the separator
    sign = np.where(e < 0, ord("-"), ord("+"))
    three = a >= 100
    suffix = np.zeros((len(e), 8), np.uint8)
    suffix[:, 0] = np.where(three, ord("e"), 0)
    suffix[:, 1] = np.where(three, sign, ord("e"))
    suffix[:, 2] = np.where(three, 48 + a // 100, sign)
    suffix[:, 3] = 48 + a // 10 % 10
    suffix[:, 4] = 48 + a % 10
    suffix[:, 5] = ord(",")
    return {
        "middles": middle.view(np.uint32),
        # where D[0] (or a one-character integer part) goes in the last middle word
        "first_at": np.where(zeros >= 0, 24, 16).astype(np.uint32),
        "suffixes": suffix.view(np.uint32),
        "layout": np.where(positional, e + 4, 20 + three) * 17,
        "long": positional & (e >= 1),
    }


def _layouts() -> dict:
    """The record bytes a cell uses per layout and digit count, and how many."""
    layout = np.arange(_LAYOUTS)[:, None, None]
    ndig = np.arange(1, 18)[None, :, None]
    col = np.arange(_W)
    point = layout - 3  # digits before the point; when <= 0, '0.' and -point zeros
    positional = layout < 20
    long = positional & (point >= 2)
    frac_from = np.where(positional, np.maximum(point, 0), 1)
    frac_to = np.where(positional & (point >= 1), np.maximum(ndig, point + 1), ndig)
    suffix = np.where(positional, 0, np.where(layout == 20, 4, 5))
    zero_point = positional & (point <= 0)
    used = (
        (long & (((col >= _A) & (col < _A + point)) | (col == _DOT)))
        | (zero_point & (col >= _HEAD - 1 + point) & (col < _D1 - 1))
        | (~long & ~zero_point & (col == _HEAD))
        | (~long & ~zero_point & (col == _D1 - 1) & (positional | (ndig > 1)))
        | ((col >= _D1 - 1 + frac_from) & (col < _D1 - 1 + frac_to))
        | ((col >= _SEP - suffix) & (col <= _SEP))
    ).reshape(_LAYOUTS * 17, _W)
    return {"used": used, "lengths": used.sum(axis=1)}


def _scale(mx, ex, i, t):
    """yi, f and h for mantissas ``mx`` and table rows ``i``."""
    p = t["hi"].take(i)
    prod = mx * p
    split = mx * _SPLIT
    m_high = split - (split - mx)
    m_low = mx - m_high
    p_high = t["hi_high"].take(i)
    p_low = t["hi_low"].take(i)
    f = ((m_high * p_high - prod) + m_high * p_low + m_low * p_high) + m_low * p_low
    f += mx * t["lo"].take(i)
    scale = ((ex + t["exp2"].take(i)) << 52).view(np.float64)  # 2**(ex + e), exact
    f *= scale
    carry = np.rint(f)
    f -= carry
    prod *= scale
    yi = prod.astype(np.int64)
    yi += carry.astype(np.int64)
    scale *= 2.0**-54  # half an ulp of a normal x is 2**(ex - 54)
    return yi, f, p * scale


def _scaled(a, mx, ex, t):
    """k, y = a * 10**k in [1e16, 1e17) as yi + f, h, and the cells still outside it."""
    i = (16 - _K_MIN - np.floor(np.log10(a))).astype(np.intp)
    yi, f, h = _scale(mx, ex, i, t)
    moved = np.flatnonzero((yi < 10**16) | (yi >= 10**17))
    for _ in range(2):  # log10 may round across a power of ten; one step fixes it
        if not len(moved):
            break
        i[moved] += np.where(yi[moved] < 10**16, 1, -1)
        yi[moved], f[moved], h[moved] = _scale(mx[moved], ex[moved], i[moved], t)
        moved = moved[(yi[moved] < 10**16) | (yi[moved] >= 10**17)]
    return i + _K_MIN, yi, f, h, moved


def _power_of_two(ex: int) -> tuple:
    """(c, p, k) of the normal 2**(ex - 1), read off its ``repr``: p trailing zeros."""
    mantissa, _, exponent = repr(math.ldexp(1.0, ex - 1)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    text = whole + fraction
    digits = text.strip("0")
    p = 17 - len(digits)
    return int(digits) * 10**p, p, 17 - len(whole) + text.find(digits) - int(exponent or 0)


def _digits(a, odd):
    """Shortest round-trip digits of finite positive ``a`` (mantissa parity ``odd``).

    Returns (c, ndig, e10, fallback): a reads back as the first ``ndig`` of
    the 17 digits of c at decimal exponent e10, except where ``fallback``.
    """
    t = _float_tables()
    mx, ex = np.frexp(a)
    k, yi, f, h, stuck = _scaled(a, mx, ex, t)
    # The interval's integers are yi + [bottom, top]; ``up`` and ``down`` are
    # how far its ends lie past top and before bottom.
    up = f + h
    top = np.floor(up)
    up -= top
    top -= (up == 0) & odd
    down = f - h
    bottom = np.ceil(down)
    down = bottom - down
    bottom += (down == 0) & odd
    fallback = t["approx"].take(k - _K_MIN) & (
        (np.abs(up - 0.5) >= 0.5 - _DELTA) | (np.abs(down - 0.5) >= 0.5 - _DELTA))
    # The nearest multiples of 10 and 100, relative to yi.  The interval is
    # symmetric and h < 11.2, so it holds a multiple of 10 (100) if and only
    # if it holds the nearest, and never two multiples of 100.
    u100 = (yi - yi // 100 * 100).astype(float)
    u10 = u100 - np.floor(u100 / 10) * 10
    near10 = 10.0 * (f > 5 - u10) - u10
    near100 = 100.0 * (f > 50 - u100) - u100
    p1 = (near10 >= bottom) & (near10 <= top)
    p2 = (near100 >= bottom) & (near100 <= top)
    c = yi + (p1 * near10 + p2 * (near100 - near10)).astype(np.int64)
    p = p1 + p2.astype(np.int64)  # trailing zeros of c
    hundreds = np.flatnonzero(p2)
    rest = c[hundreds] // 100
    zeros = p[hundreds]
    for step in (8, 4, 2, 1):
        cut = rest // 10**step
        whole = cut * 10**step == rest
        rest[whole] = cut[whole]
        zeros += step * whole
    p[hundreds] = zeros
    # Ties and subnormal x go to repr; a power of two takes repr's digits.
    tie = np.abs(f)
    fallback |= (tie >= 0.5 - _DELTA) | ((tie <= _DELTA) & (u10 == 5)) | (ex < -1021)
    fallback[stuck] = True
    power = np.flatnonzero((mx == 0.5) & (ex >= -1021))
    row = ex[power] + 1021
    known = t["powers"]
    for e in set(row[known[0].take(row) == 0].tolist()):
        known[:, e] = _power_of_two(e - 1021)
    c[power], p[power], k[power] = (column.take(row) for column in known)
    fallback[power] = False
    e10 = 16 - k
    whole = c == 10**17
    c[whole] = 10**16
    p[whole] = 16
    e10 += whole
    return c, 17 - p, e10, fallback


def _records(x, text, used):
    """Fill ``text`` and ``used`` with the records of flat float64 ``x``; return their lengths."""
    t = _float_tables()
    words = text.view(np.uint32)
    a = np.abs(x)
    finite = np.isfinite(a)
    a[~finite | (a == 0)] = 1.0
    c, ndig, e10, fallback = _digits(a, (x.view(np.int64) & 1).astype(bool))
    quads = t["quads"]
    high = c // 10**8
    low = c - high * 10**8
    first = high // 10**8
    high -= first * 10**8
    quad = high // 10**4
    words[:, 7] = quads.take(quad)
    words[:, 8] = quads.take(high - quad * 10**4)
    quad = low // 10**4
    words[:, 9] = quads.take(quad)
    words[:, 10] = quads.take(low - quad * 10**4)
    e10 += 400
    words[:, 5:7] = t["middles"].take(e10, axis=0)
    words[:, 6] |= ((first * (x != 0) + 48).astype(np.uint32)) << t["first_at"].take(e10)
    long = np.flatnonzero(t["long"].take(e10))
    words[long, 0] = ((first[long] + 48).astype(np.uint32) << 24) | (ord("-") << 16)
    words[long, 1:5] = words[long, 7:11]
    words[:, 11:13] = t["suffixes"].take(e10, axis=0)
    layout = t["layout"].take(e10) + ndig - 1
    np.take(t["used"], layout, axis=0, out=used)
    negative = np.signbit(x)
    used[:, _SIGN] = negative
    lengths = t["lengths"].take(layout) + negative
    by_repr = np.flatnonzero(fallback | ~finite)
    if len(by_repr):
        padded = []
        for value in x[by_repr].tolist():
            padded.append(repr(value).ljust(_REPR, "\0"))
        cells = np.frombuffer("".join(padded).encode(), np.uint8).reshape(-1, _REPR)
        mask = cells != 0
        text[by_repr, _A:_A + _REPR] = cells
        used[by_repr, :_SEP] = False
        used[by_repr, _A:_A + _REPR] = mask
        lengths[by_repr] = mask.sum(axis=1) + 1
    return lengths


def write_float_rows(handle, values, newline: str, labels=None) -> None:
    """Write the rows of a 2-D real array as CSV text to the binary ``handle``.

    Each row is written as ``",".join(map(repr, row.tolist()))``, then
    ``",label"`` when ``labels`` (one nonnegative integer per row, as
    :func:`labels_of` reads them) is given, then ``newline``.  The bytes are
    the same for every double; the cells are formatted in chunks by numpy
    arithmetic, with ``repr`` only for the rare cell the notes above name.
    """
    values = points_of(values, real=True)
    rows, cols = values.shape
    if labels is None:
        tails = [newline.encode()] * rows
    else:
        tails = [f",{label}{newline}".encode() for label in labels_of(labels, rows).tolist()]
    if cols == 0:
        handle.write(b"".join(tails))
        return
    step = max(1, _FLOAT_CHUNK // cols)
    text = np.zeros((min(rows, step) * cols, _W), np.uint8)
    text[:, _SIGN] = ord("-")
    used = np.empty(text.shape, bool)
    for start in range(0, rows, step):
        block = values[start:start + step]
        n = block.size
        lengths = _records(block.ravel(), text[:n], used[:n])
        used[cols - 1:n:cols, _SEP] = False
        lengths[cols - 1::cols] -= 1
        cells = memoryview(text[:n][used[:n]])
        ends = np.cumsum(lengths.reshape(len(block), cols).sum(axis=1)).tolist()
        parts = []
        begin = 0
        for end, tail in zip(ends, tails[start:start + len(block)]):
            parts += (cells[begin:end], tail)
            begin = end
        handle.write(b"".join(parts))


def top_norm_select(data, count: int) -> Dataset:
    """Keep the ``count`` largest-norm points, ties to the lower index.

    ``data`` is a Dataset, or points as :func:`points_of` reads them (an
    unlabeled Dataset).  The surviving points keep their original relative
    order.
    """
    data = data if isinstance(data, Dataset) else Dataset(data)
    n = len(data)
    count = count_of(count, "count", 0, n)
    norms = np.linalg.norm(data.points, axis=1)
    ranked = np.lexsort((np.arange(n), -norms))
    chosen = np.sort(ranked[:count])
    labels = data.labels[chosen] if data.labels is not None else None
    meta = {**data.meta, "top_norm_count": count}
    return Dataset(data.points[chosen], labels, meta)


def best_matching(cost) -> np.ndarray:
    """Column matched to each row of a square cost matrix, least total cost.

    The Hungarian method (Kuhn 1955) in its O(n^3) shortest-augmenting-path
    form with dual potentials (Jonker and Volgenant 1987).  Plain numpy:
    importing scipy.optimize would add about 45 MB to every run's RSS.
    """
    cost = np.asarray(cost, dtype=float)
    n = len(cost)
    u = np.zeros(n + 1)  # row potentials; rows are numbered from 1
    v = np.zeros(n + 1)  # column potentials; column 0 roots each search
    row_of = np.zeros(n + 1, dtype=int)  # row matched to each column, 0 if none
    for row in range(1, n + 1):
        row_of[0] = row
        col = 0
        slack = np.full(n + 1, np.inf)
        prev = np.zeros(n + 1, dtype=int)
        used = np.zeros(n + 1, dtype=bool)
        while row_of[col] != 0:
            used[col] = True
            reduced = cost[row_of[col] - 1] - u[row_of[col]] - v[1:]
            closer = ~used[1:] & (reduced < slack[1:])
            slack[1:][closer] = reduced[closer]
            prev[1:][closer] = col
            open_slack = np.where(used, np.inf, slack)
            col = int(np.argmin(open_slack))
            delta = open_slack[col]
            u[row_of[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
        while col:
            row_of[col] = row_of[prev[col]]
            col = prev[col]
    matched = np.empty(n, dtype=int)
    matched[row_of[1:] - 1] = np.arange(n)
    return matched


@dataclass
class MixingEstimate:
    """Per-cluster scatter directions, a sign/scale-blind mixing estimate."""

    directions: np.ndarray
    per_cluster_counts: np.ndarray
    angle_errors_deg: np.ndarray | None = None


def angle_between_lines_deg(u, v) -> float:
    """Angle between the lines spanned by u and v, in [0, 90] degrees."""
    u, v = points_of([u, v], real=True)
    # An overflowing or vanishing norm is reported below, not warned.
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(u) * np.linalg.norm(v)
    if not 0.0 < norms < np.inf:
        raise ValidationError(
            f"a line needs a nonzero direction of finite norm; the norms multiply to {norms}")
    cos = abs(float(u @ v)) / norms
    return math.degrees(math.acos(min(cos, 1.0)))


def estimate_mixing(data, labels, true_directions=None) -> MixingEstimate:
    """Dominant scatter direction of each cluster of 2-D points.

    The direction is the top eigenvector of sum x x', which ignores both
    per-point signs and global positive rescaling; that makes it the
    right centroid for data identified up to sign and scale.  With
    ``true_directions`` given, angle errors (mod 180) are reported under
    the best cluster-to-truth matching.
    """
    points = points_of(data, 1, real=True)
    if points.shape[1] != 2:
        raise ValidationError("mixing estimation expects real 2-D data")
    labels = labels_of(labels, len(points))
    # A label of N or more leaves a cluster below it empty, so it sizes nothing.
    counts = np.bincount(np.minimum(labels, len(points)))
    k = len(counts)
    directions = np.zeros((k, 2))
    for c in range(k):
        if counts[c] < 2:
            raise DegenerateClusterError(f"cluster {c} has {counts[c]} point(s)")
        members = points[labels == c]
        scatter = members.T @ members
        _, vectors = np.linalg.eigh(scatter)
        directions[c] = canonical_direction(vectors[:, -1])
    errors = None
    if true_directions is not None:
        truth = points_of(true_directions, real=True)
        if len(truth) != k:
            raise ValidationError("ground truth must provide one direction per cluster")
        angles = np.array(
            [[angle_between_lines_deg(d, t) for t in truth] for d in directions]
        )
        errors = angles[np.arange(k), best_matching(angles)]
    return MixingEstimate(directions, counts, errors)
