"""SVG emitter tests: validity, node counts, determinism."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from invkern import KernelSpec, gaussian, kernel_matrix
from invkern.figures import heatmap_svg, scatter_svg
from invkern.invariance import SIGN

SVG_NS = "{http://www.w3.org/2000/svg}"


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


def _halfway_row():
    # For each channel, the t at which lo + t * (hi - lo) lands on k + 0.5,
    # plus 0 and 1 to pin vmin and vmax.
    ts = [0.0, 1.0]
    for lo, hi in ((255, 8), (255, 48), (255, 107)):
        ts.extend((k + 0.5 - lo) / (hi - lo) for k in range(hi, lo))
    return np.array([ts])


@pytest.mark.parametrize("matrix", [
    np.random.default_rng(63).random((12, 12)),
    np.random.default_rng(64).standard_normal((7, 11)),
    np.full((4, 4), 2.5),
    _halfway_row(),
    np.array([[5.0]]),
], ids=["square", "7x11", "constant", "halfway", "1x1"])
def test_heatmap_matches_per_cell_oracle(matrix):
    assert heatmap_svg(matrix) == heatmap_oracle(matrix)


def test_heatmap_of_gram_matches_per_cell_oracle():
    points = np.random.default_rng(65).standard_normal((40, 3))
    gram = kernel_matrix(points, KernelSpec(gaussian(1.0), SIGN))
    assert heatmap_svg(gram, size=300) == heatmap_oracle(gram, size=300)


def test_halfway_row_holds_exact_ties():
    # Exact ties between even and odd neighbours occur, so rounding half to
    # even and rounding half up would write different bytes.
    channel = 255 + _halfway_row()[0] * (8 - 255)
    ties = channel[channel % 1.0 == 0.5]
    assert len(ties) > 100
    assert {int(np.floor(v)) % 2 for v in ties} == {0, 1}


@pytest.mark.parametrize("matrix,message", [
    (np.array([[0.0, np.nan], [1.0, 2.0]]), "finite"),
    (np.array([[0.0, np.inf], [1.0, 2.0]]), "finite"),
    (np.array([[-np.inf]]), "finite"),
    (np.zeros((0, 0)), "non-empty"),
    (np.zeros((0, 3)), "non-empty"),
])
def test_heatmap_rejects_non_finite_or_empty(matrix, message):
    with pytest.raises(ValueError, match=message):
        heatmap_svg(matrix)


def test_scatter_is_valid_xml_with_one_circle_per_point():
    rng = np.random.default_rng(60)
    pts = rng.standard_normal((37, 2))
    labels = rng.integers(3, size=37)
    svg = scatter_svg(pts, labels)
    root = ET.fromstring(svg)
    circles = root.findall(f"{SVG_NS}circle")
    assert len(circles) == 37
    assert all(c.get("class") == "pt" for c in circles)


def test_heatmap_is_valid_xml_with_one_rect_per_cell():
    rng = np.random.default_rng(61)
    matrix = rng.random((9, 9))
    svg = heatmap_svg(matrix)
    root = ET.fromstring(svg)
    cells = [r for r in root.findall(f"{SVG_NS}rect") if r.get("class") == "cell"]
    assert len(cells) == 81


def test_outputs_are_deterministic():
    rng = np.random.default_rng(62)
    pts = rng.standard_normal((10, 2))
    assert scatter_svg(pts) == scatter_svg(pts)
    matrix = rng.random((4, 4))
    assert heatmap_svg(matrix) == heatmap_svg(matrix)


def test_constant_matrix_does_not_divide_by_zero():
    svg = heatmap_svg(np.ones((3, 3)))
    assert svg.count('class="cell"') == 9


def test_scatter_rejects_high_dimensional_points():
    with pytest.raises(ValueError):
        scatter_svg(np.ones((4, 3)))
