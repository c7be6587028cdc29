"""Dependency-free SVG emitters for scatter plots and Gram heatmaps.

Text output only: every point is one <circle class="pt"> and every
matrix cell one <rect class="cell">, at any matrix size (no pooling), so
tests can count nodes, and identical inputs produce byte-identical files.
The heatmap computes a row's colours in numpy and emits the row with one
comprehension, so its Python work is per row, not per cell.
"""

from __future__ import annotations

import numpy as np

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
)

_HEAT_LOW = (255, 255, 255)
_HEAT_HIGH = (8, 48, 107)


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def scatter_svg(points, labels=None, size: int = 480, margin: float = 30.0,
                radius: float = 3.5) -> str:
    """SVG scatter of 2-D points, one circle per point, colored by label."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("scatter_svg expects 2-D points")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
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
            f'<circle class="pt" cx="{_fmt(x)}" cy="{_fmt(y)}" r="{radius}" '
            f'fill="{color}" fill-opacity="0.8"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def heatmap_svg(matrix, size: int = 480) -> str:
    """SVG heatmap, one rect per matrix cell, dark cells for large values.

    Raises ValueError for an empty matrix or a non-finite entry.
    """
    values = np.asarray(matrix, dtype=float)
    if values.ndim != 2:
        raise ValueError("heatmap_svg expects a 2-D matrix")
    if values.size == 0:
        raise ValueError(f"heatmap_svg expects a non-empty matrix, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("heatmap_svg expects finite values")
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
    heads = [f'<rect class="cell" x="{_fmt(j * cell_w)}" y="' for j in range(n_cols)]
    tail = f'" width="{_fmt(cell_w)}" height="{_fmt(cell_h)}" fill="#'
    for i, row in enumerate(values):
        t = (row - vmin) / span
        # np.rint rounds half to even, as Python's round does.
        rgb = np.zeros(n_cols, dtype=np.int64)
        for lo, hi in zip(_HEAT_LOW, _HEAT_HIGH):
            rgb = (rgb << 8) | np.rint(lo + t * (hi - lo)).astype(np.int64)
        middle = _fmt(i * cell_h) + tail
        parts.extend([f'{head}{middle}{c:06x}"/>' for head, c in zip(heads, rgb.tolist())])
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
