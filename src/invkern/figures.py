"""Dependency-free SVG emitters for scatter plots and Gram heatmaps.

Text output only: every point is one <circle class="pt"> and every
matrix cell one <rect class="cell">, at any matrix size (no pooling), so
tests can count nodes, and identical inputs produce byte-identical files.
The heatmap formats each x and y coordinate once, builds one byte
template of a whole row per width of the y text, and streams the
document into an open binary file in chunks of about 1 MiB of rows:
numpy copies the template into a chunk buffer, writes each cell's y and
six colour digits through one strided view per run of equal-length
cells (no index arrays), and the filled chunk goes straight to the
file.  A row order (labels sorted) is gathered per chunk, never as a
reordered copy of the matrix.  No whole document is ever held:
beyond the matrix itself, peak memory is about two chunks, a few MiB,
whatever the matrix size.  Its Python work is per column and per row
chunk, never per cell.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .data import count_of, labels_of, points_of
from .errors import ValidationError

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
)

_HEAT_LOW = (255, 255, 255)
_HEAT_HIGH = (8, 48, 107)
_HEX = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_CLOSER = '"/>\n'
_CLOSING = b"</svg>\n"

# The scatter plot's side and margin in pixels, and each point's radius.
_SCATTER_SIZE = 480
_SCATTER_MARGIN = 30.0
_POINT_RADIUS = 3.5

# Bytes of row templates filled and written at once (at least one row).  A
# row of N cells takes about 90 N bytes, so a chunk holds 19 rows at 600
# points, where 64 rows took 2.4 times the matrix with their colour
# temporaries (now 0.8 times), and 44 rows at 270 points.
_CHUNK_BYTES = 1 << 20


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def scatter_svg(points, labels=None) -> str:
    """SVG scatter of 2-D points, one circle per point, colored by label."""
    pts = points_of(points, 1, real=True)
    if pts.shape[1] != 2:
        raise ValidationError("scatter_svg expects 2-D points")
    codes = [0] * len(pts) if labels is None else labels_of(labels, len(pts)).tolist()
    lo = pts.min(axis=0)
    span = np.maximum(pts.max(axis=0) - lo, 1e-12)
    size, margin = _SCATTER_SIZE, _SCATTER_MARGIN
    scaled = (pts - lo) / span * (size - 2 * margin)
    xs, ys = (margin + scaled[:, 0]).tolist(), (size - margin - scaled[:, 1]).tolist()
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    for x, y, code in zip(xs, ys, codes):
        parts.append(
            f'<circle class="pt" cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_POINT_RADIUS}" '
            f'fill="{PALETTE[code % len(PALETTE)]}" fill-opacity="0.8"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def heatmap_svg(matrix, file, size: int = 480, order=None) -> None:
    """Write an SVG heatmap to ``file``, one rect per matrix cell.

    ``file`` is an open binary file, as ``open(path, "wb")`` returns, or
    an ``io.BytesIO``; the ASCII bytes go to it about 1 MiB of rows at a
    time, and nothing is returned.  Large values are dark.  A value range
    wider than the largest float is coloured at half scale.  ``order``, a permutation
    of the rows of a square matrix, draws ``matrix[np.ix_(order, order)]``
    without building it: each chunk gathers its own rows.  Raises
    ValidationError for a matrix that :func:`invkern.data.points_of` does
    not read as real, an empty matrix, a non-finite entry, a ``size`` below
    1 or an ``order`` that is no such permutation, before the first byte is
    written.
    """
    values = points_of(matrix, real=True)
    size = count_of(size, "size", 1)
    if values.size == 0:
        raise ValidationError(f"heatmap_svg expects a non-empty matrix, got shape {values.shape}")
    n_rows, n_cols = values.shape
    if order is not None:
        try:
            order = labels_of(order, n_rows)
            permutes = n_rows == n_cols and np.array_equal(np.sort(order), np.arange(n_rows))
        except ValidationError:  # not n_rows nonnegative integers
            permutes = False
        if not permutes:
            raise ValidationError("heatmap_svg expects order to permute a square matrix's rows")
    # min and max propagate nan and reach ±inf when one is present.
    vmin = float(values.min())
    vmax = float(values.max())
    if not (np.isfinite(vmin) and np.isfinite(vmax)):
        raise ValidationError("heatmap_svg expects finite values")
    halve = not np.isfinite(vmax - vmin)
    if halve:
        # Halving is exact for normal values and brings the range below the
        # largest float; at full scale every t would be 0 or nan.  Each
        # chunk's rows are halved as they are coloured.
        vmin, vmax = vmin * 0.5, vmax * 0.5
    span = vmax - vmin if vmax > vmin else 1.0
    cell_w = size / n_cols
    cell_h = size / n_rows
    file.write((
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>\n'
    ).encode("ascii"))
    heads = [f'<rect class="cell" x="{_fmt(j * cell_w)}" y="' for j in range(n_cols)]
    tail = f'" width="{_fmt(cell_w)}" height="{_fmt(cell_h)}" fill="#'
    ys = [_fmt(i * cell_h) for i in range(n_rows)]
    # A cell is its column's head, the row's y, the tail, six hex digits
    # and the closer.  A row template holds every cell with '?' gaps for the
    # y and the digits.  Columns whose heads have one length form a run of
    # cells of one length, so each run's gaps are strided views of a chunk.
    runs, col = [], 0
    for head, group in groupby(len(h) for h in heads):
        n = len(list(group))
        runs.append((col, n, head))
        col += n
    first = 0
    for width, run in groupby(ys, key=len):
        y_text = "".join(run)
        count = len(y_text) // width
        template = _bytes("".join(f"{h}{'?' * width}{tail}??????{_CLOSER}" for h in heads))
        y_bytes = _bytes(y_text).reshape(count, 1, width)
        step = max(1, _CHUNK_BYTES // template.size)
        chunk = np.empty((min(count, step), template.size), dtype=np.uint8)
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            block = chunk[:hi - lo]
            block[:] = template
            if order is None:
                rows = values[first + lo:first + hi]
            else:
                rows = values[np.ix_(order[first + lo:first + hi], order)]
            digits = _hex_colours(rows * 0.5 if halve else rows, vmin, span)
            _fill_gaps(block, runs, len(tail), y_bytes[lo:hi], digits)
            del rows, digits  # freed before the next chunk's colours are made
            file.write(block)
        first += count
    file.write(_CLOSING)


def _fill_gaps(block, runs, tail: int, y, digits) -> None:
    """Write y bytes and colour digits into the gaps of a chunk of row templates.

    ``y`` holds each row's y text, shape (rows, 1, width), and ``digits``
    each cell's six hex digits, shape (rows, N, 6).  ``runs`` lists (first column, columns, head length) of the runs of
    columns with equal heads.  A run's bytes in a row reshape, as a view,
    to (columns, cell length), where every gap is at one offset.
    """
    width, at = y.shape[-1], 0
    for col, n, head in runs:
        size = head + width + tail + 6 + len(_CLOSER)
        cells = block[:, at:at + n * size].reshape(len(block), n, size)
        cells[:, :, head:head + width] = y
        cells[:, :, head + width + tail:head + width + tail + 6] = digits[:, col:col + n]
        at += n * size


def _hex_colours(rows: np.ndarray, vmin: float, span: float) -> np.ndarray:
    """The six lower-case hex digits of each cell's colour, shape rows.shape + (6,)."""
    t = (rows - vmin) / span
    digits = np.empty(rows.shape + (6,), dtype=np.uint8)
    for c, (lo, hi) in enumerate(zip(_HEAT_LOW, _HEAT_HIGH)):
        # np.rint rounds half to even, as Python's round does.
        level = np.rint(lo + t * (hi - lo)).astype(np.intp)
        digits[..., 2 * c] = _HEX[level >> 4]
        digits[..., 2 * c + 1] = _HEX[level & 15]
    return digits


def _bytes(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
