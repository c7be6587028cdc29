"""Dependency-free SVG emitters for scatter plots and Gram heatmaps.

Text output only: every point is one <circle class="pt"> and every
matrix cell one <rect class="cell">, at any matrix size (no pooling), so
tests can count nodes, and identical inputs produce byte-identical files.
The heatmap formats each x and y coordinate once, builds one byte
template of a whole row per width of the y text, and streams the
document into an open binary file in chunks of 64 rows: numpy copies the
template into a chunk buffer, writes each cell's y and six colour digits
by fancy indexing, and the filled chunk goes straight to the file.  No
whole document is ever held: beyond the matrix itself, peak memory is
about two chunks whatever the matrix size.  Its Python work is per
column and per row chunk, never per cell.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

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

# Heatmap rows filled from their template and written at once; bounds the
# chunk buffer and the colour temporaries to this many rows of cells.
_CHUNK_ROWS = 64


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def scatter_svg(points, labels=None) -> str:
    """SVG scatter of 2-D points, one circle per point, colored by label."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValidationError("scatter_svg expects 2-D points")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    size, margin = _SCATTER_SIZE, _SCATTER_MARGIN
    inner = size - 2 * margin

    def to_px(p):
        x = margin + (p[0] - lo[0]) / span[0] * inner
        y = size - margin - (p[1] - lo[1]) / span[1] * inner
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    for i, p in enumerate(pts):
        color = PALETTE[int(labels[i]) % len(PALETTE)] if labels is not None else PALETTE[0]
        x, y = to_px(p)
        parts.append(
            f'<circle class="pt" cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_POINT_RADIUS}" '
            f'fill="{color}" fill-opacity="0.8"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def heatmap_svg(matrix, file, size: int = 480) -> None:
    """Write an SVG heatmap to ``file``, one rect per matrix cell.

    ``file`` is an open binary file, as ``open(path, "wb")`` returns, or
    an ``io.BytesIO``; the ASCII bytes go to it 64 rows at a time, and
    nothing is returned.  Large values are dark.  A value range wider than
    the largest float is coloured at half scale.  Raises ValidationError
    for an empty matrix or a non-finite entry, before the first byte is
    written.
    """
    values = np.asarray(matrix, dtype=float)
    if values.ndim != 2:
        raise ValidationError("heatmap_svg expects a 2-D matrix")
    if values.size == 0:
        raise ValidationError(f"heatmap_svg expects a non-empty matrix, got shape {values.shape}")
    n_rows, n_cols = values.shape
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
    # y and the digits, so cell j's y gap starts after heads 0..j and j
    # cells' worth of the other parts.
    head_ends = np.cumsum([len(h) for h in heads])
    fixed = len(tail) + 6 + len(_CLOSER)
    first = 0
    for width, run in groupby(ys, key=len):
        y_text = "".join(run)
        count = len(y_text) // width
        template = _bytes("".join(f"{h}{'?' * width}{tail}??????{_CLOSER}" for h in heads))
        y_at = head_ends + np.arange(n_cols) * (width + fixed)
        y_cols = y_at[:, None] + np.arange(width)
        hex_cols = (y_at + width + len(tail))[:, None] + np.arange(6)
        y_bytes = _bytes(y_text).reshape(count, 1, width)
        chunk = np.empty((min(count, _CHUNK_ROWS), template.size), dtype=np.uint8)
        for lo in range(0, count, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, count)
            block = chunk[:hi - lo]
            block[:] = template
            block[:, y_cols] = y_bytes[lo:hi]
            rows = values[first + lo:first + hi]
            block[:, hex_cols] = _hex_colours(rows * 0.5 if halve else rows, vmin, span)
            file.write(block)
        first += count
    file.write(_CLOSING)


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
