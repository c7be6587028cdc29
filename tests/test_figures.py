"""SVG emitter tests: validity, node counts, determinism."""

import io
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import invkern.figures as figures
from invkern import KernelSpec, gaussian, kernel_matrix
from invkern.figures import heatmap_svg, scatter_svg
from invkern.invariance import SIGN
from oracles import heatmap_oracle

SVG_NS = "{http://www.w3.org/2000/svg}"


def heatmap_text(matrix, size=480):
    """The heatmap that heatmap_svg writes, as text."""
    sink = io.BytesIO()
    heatmap_svg(matrix, sink, size=size)
    return sink.getvalue().decode()


def chunk_rows(monkeypatch, matrix, rows, size=480):
    """Make heatmap chunks ``rows`` rows of the matrix's widest row template
    high, as the last row's cells are; ``None`` keeps the default budget."""
    if rows is not None:
        n_cols = np.shape(matrix)[1]
        last_row = heatmap_oracle(matrix, size=size).splitlines(keepends=True)[-1 - n_cols:-1]
        monkeypatch.setattr(figures, "_CHUNK_BYTES", rows * len("".join(last_row)))


class ByteCounter:
    """A binary sink that keeps only the number of bytes written to it."""

    def __init__(self):
        self.written = 0

    def write(self, data):
        size = memoryview(data).nbytes
        self.written += size
        return size


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
    assert heatmap_text(matrix) == heatmap_oracle(matrix)


def _wide_negative():
    rng = np.random.default_rng(70)
    tiny_to_huge = 10.0 ** rng.uniform(-300, 300, (10, 40))
    return -np.concatenate([tiny_to_huge, rng.random((10, 40)) * 1e300])


@pytest.mark.parametrize("matrix,size", [
    (np.random.default_rng(66).random((3, 700)), 480),
    (np.random.default_rng(67).random((700, 3)), 480),
    (np.random.default_rng(68).random((65, 65)), 480),
    (np.random.default_rng(69).random((129, 129)), 480),
    (np.random.default_rng(71).standard_normal((20, 30)), 5000),
    (_wide_negative(), 480),
], ids=["3x700", "700x3", "65x65", "129x129", "size5000", "wide-negative"])
@pytest.mark.parametrize("rows", [None, 64], ids=["1MiB", "64rows"])
def test_heatmap_matches_per_cell_oracle_across_template_edges(monkeypatch, matrix, size, rows):
    # 3x700: the x text grows from 5 to 6 to 7 characters along a row.
    # 700x3: the y width changes at rows 15 and 146, inside 64-row chunks,
    # so runs of one width end in partial chunks.  65 and 129 rows: the run
    # of the widest y text is 51 and 102 rows, below and past a 64-row
    # chunk edge.  size 5000: 8-character coordinates.
    # wide-negative: values from -1e300 to -1e-300.
    chunk_rows(monkeypatch, matrix, rows, size=size)
    assert heatmap_text(matrix, size=size) == heatmap_oracle(matrix, size=size)


def _past_float_max_rows():
    rng = np.random.default_rng(73)
    return (rng.random((130, 3)) * 2.0 - 1.0) * 1.7e308


@pytest.mark.parametrize("matrix", [
    np.array([[1e308, -1e308], [0.0, 5e307]]),
    _past_float_max_rows(),
], ids=["2x2", "130x3"])
@pytest.mark.parametrize("rows", [None, 64], ids=["1MiB", "64rows"])
def test_heatmap_of_a_range_past_the_float_maximum_is_drawn_at_half_scale(
    monkeypatch, matrix, rows
):
    # At full scale vmax - vmin is inf, so every colour would be nan.
    # 130 rows: every 64-row chunk is halved as it is coloured.
    chunk_rows(monkeypatch, matrix * 0.5, rows)
    svg = heatmap_text(matrix)
    assert svg == heatmap_oracle(matrix * 0.5)
    assert 'fill="#08306b"' in svg and 'fill="#ffffff"' in svg


def test_heatmap_peak_memory_is_a_few_chunks():
    # Chunks go straight to the file: the peak is bounded by the chunk's
    # byte budget and its colour temporaries, not by the document.  At 600
    # points that is about 0.8 x the matrix; 64-row chunks took 2.4 x.
    matrix = np.random.default_rng(72).random((600, 600))
    sink = ByteCounter()
    tracemalloc.start()
    try:
        heatmap_svg(matrix, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * figures._CHUNK_BYTES
    assert peak <= 1.5 * matrix.nbytes


def test_heatmap_of_gram_matches_per_cell_oracle():
    points = np.random.default_rng(65).standard_normal((40, 3))
    gram = kernel_matrix(points, KernelSpec(gaussian(1.0), SIGN))
    assert heatmap_text(gram, size=300) == heatmap_oracle(gram, size=300)


def test_halfway_row_holds_exact_ties():
    # Exact ties between even and odd neighbours occur, so rounding half to
    # even and rounding half up would write different bytes.
    channel = 255 + _halfway_row()[0] * (8 - 255)
    ties = channel[channel % 1.0 == 0.5]
    assert len(ties) > 100
    assert {int(np.floor(v)) % 2 for v in ties} == {0, 1}


@pytest.mark.parametrize("rows", [None, 64], ids=["1MiB", "64rows"])
def test_heatmap_in_row_order_matches_reordered_matrix(monkeypatch, rows):
    # 150 rows cover the three widths of the y text, the widest in two
    # 64-row chunks.
    matrix = np.random.default_rng(73).random((150, 150))
    chunk_rows(monkeypatch, matrix, rows)
    order = np.random.default_rng(74).permutation(150)
    sink = io.BytesIO()
    heatmap_svg(matrix, sink, order=order)
    assert sink.getvalue().decode("ascii") == heatmap_oracle(matrix[np.ix_(order, order)])


@pytest.mark.parametrize("matrix,order", [
    (np.zeros((2, 3)), [0, 1]),
    (np.zeros((2, 2)), [0, 0]),
    (np.zeros((2, 2)), [0, 1, 2]),
    (np.zeros((2, 2)), [True, False]),
])
def test_heatmap_rejects_order_that_is_no_permutation(matrix, order):
    sink = ByteCounter()
    with pytest.raises(ValueError, match="permute"):
        heatmap_svg(matrix, sink, order=order)
    assert sink.written == 0


def test_heatmap_reads_an_integral_float_order_as_indices():
    matrix = np.arange(4.0).reshape(2, 2)
    drawn = io.BytesIO()
    heatmap_svg(matrix, drawn, order=[1, 0])
    sink = io.BytesIO()
    heatmap_svg(matrix, sink, order=[1.0, 0.0])
    assert sink.getvalue() == drawn.getvalue()


@pytest.mark.parametrize("matrix,message", [
    (np.array([[0.0, np.nan], [1.0, 2.0]]), "finite"),
    (np.array([[0.0, np.inf], [1.0, 2.0]]), "finite"),
    (np.array([[-np.inf]]), "finite"),
    (np.zeros((0, 0)), "non-empty"),
    (np.zeros((0, 3)), "non-empty"),
])
def test_heatmap_rejects_non_finite_or_empty(matrix, message):
    sink = ByteCounter()
    with pytest.raises(ValueError, match=message):
        heatmap_svg(matrix, sink)
    assert sink.written == 0


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
    svg = heatmap_text(matrix)
    root = ET.fromstring(svg)
    cells = [r for r in root.findall(f"{SVG_NS}rect") if r.get("class") == "cell"]
    assert len(cells) == 81


def test_outputs_are_deterministic():
    rng = np.random.default_rng(62)
    pts = rng.standard_normal((10, 2))
    assert scatter_svg(pts) == scatter_svg(pts)
    matrix = rng.random((4, 4))
    assert heatmap_text(matrix) == heatmap_text(matrix)


def test_constant_matrix_does_not_divide_by_zero():
    svg = heatmap_text(np.ones((3, 3)))
    assert svg.count('class="cell"') == 9


def test_scatter_rejects_high_dimensional_points():
    with pytest.raises(ValueError):
        scatter_svg(np.ones((4, 3)))
