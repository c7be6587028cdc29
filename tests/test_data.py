"""Generator, CSV, and mixing-estimation tests."""

import io
import tempfile
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invkern import (
    PROJ,
    Dataset,
    SIGN,
    KernelSpec,
    angle_between_lines_deg,
    canonical_direction,
    check_invariance,
    cluster_gram,
    clustering_accuracy,
    estimate_mixing,
    eval_kernel,
    gaussian,
    gen_directions,
    gen_flipped_blobs,
    gen_xor,
    invariant_inner,
    keca_embed,
    kernel_matrix,
    kmeans,
    load_csv,
    save_dataset,
    spectral_cluster,
    top_norm_select,
    truncated_eig,
    write_float_rows,
)
from invkern.data import _load_cells, best_matching, count_of, labels_of, points_of
from invkern.errors import DegenerateClusterError, FormatError, ParseError, ValidationError
from invkern.figures import heatmap_svg, scatter_svg


@pytest.mark.parametrize(
    "points",
    [np.ones(3), np.ones((2, 2, 2)), np.array([["a", "b"]])],
    ids=["1-d", "3-d", "strings"],
)
def test_dataset_points_must_be_a_2d_numeric_array(points):
    with pytest.raises(ValidationError, match="2-D numeric array"):
        Dataset(points)


_P = np.random.default_rng(80).standard_normal((20, 3))
_S = np.array([["a", "b"], ["c", "d"]])
_SPEC = KernelSpec(gaussian(1.0), SIGN)
_G = kernel_matrix(_P, _SPEC)

# Malformed calls of public functions, each once a numpy or Python exception,
# a silently accepted input, or a package error with a misleading message.
MALFORMED_CALLS = {
    "check_invariance-strings": lambda: check_invariance(_SPEC, _S),
    "check_invariance-objects": lambda: check_invariance(_SPEC, _P.astype(object)),
    "eval_kernel-strings": lambda: eval_kernel(_SPEC, ["a", "b"], ["c", "d"]),
    "eval_kernel-matrices": lambda: eval_kernel(_SPEC, np.ones((2, 2)), np.ones((2, 2))),
    "kmeans-strings": lambda: kmeans(_S, 1),
    "estimate_mixing-strings": lambda: estimate_mixing(_S, [0, 0]),
    "scatter_svg-strings": lambda: scatter_svg(_S),
    "Dataset-string-labels": lambda: Dataset(_P[:2], ["a", "b"]),
    "Dataset-fractional-labels": lambda: Dataset(_P[:2], [0.5, 1.7]),
    "Dataset-2d-labels": lambda: Dataset(_P[:2], [[0, 1], [1, 0]]),
    "estimate_mixing-negative-label": lambda: estimate_mixing(
        _P[:6, :2], [-1, -1, -1, 0, 0, 0]
    ),
    "scatter_svg-short-labels": lambda: scatter_svg(np.ones((3, 2)), [0]),
    "kmeans-float-k": lambda: kmeans(_P, 2.5),
    "keca_embed-float-axes": lambda: keca_embed(_G, 2.5),
    "truncated_eig-float-axes": lambda: truncated_eig(_G, 2.5),
    "cluster_gram-float-k": lambda: cluster_gram(_G, 2.0),
    "top_norm_select-float-count": lambda: top_norm_select(Dataset(_P), 2.5),
    "check_invariance-float-samples": lambda: check_invariance(_SPEC, _P, n_group_samples=2.5),
    "kmeans-bool-k": lambda: kmeans(_P, True),
    "gen_xor-float-count": lambda: gen_xor(2.5, 0.1),
    "gen_directions-float-k": lambda: gen_directions(2.5, 10),
    "labels_of-ragged": lambda: labels_of([[0], [1, 2]], 2),
    "Dataset-ragged-labels": lambda: Dataset(_P[:2], [[0], [1, 2]]),
    "clustering_accuracy-ragged": lambda: clustering_accuracy([[0], [1, 2]], [0, 1]),
    "angle_between_lines_deg-zero": lambda: angle_between_lines_deg([0, 0], [1, 0]),
    "angle_between_lines_deg-overflow": lambda: angle_between_lines_deg([1e300, 0], [1e300, 0]),
    "top_norm_select-strings": lambda: top_norm_select(_S, 1),
    "write_float_rows-1d": lambda: write_float_rows(io.BytesIO(), np.ones(3), "\n"),
    "write_float_rows-short-labels": lambda: write_float_rows(
        io.BytesIO(), np.ones((3, 2)), "\n", [0, 1]),
    "kmeans-negative-seed": lambda: kmeans(_P, 2, seed=-1),
    "cluster_gram-float-seed": lambda: cluster_gram(_G, 2, seed=1.5),
    "spectral_cluster-string-seed": lambda: spectral_cluster(_P, _SPEC, 2, seed="a"),
    "gen_xor-negative-seed": lambda: gen_xor(2, 0.1, seed=-1),
    "gen_flipped_blobs-float-seed": lambda: gen_flipped_blobs(2, 3, seed=1.5),
    "gen_directions-string-seed": lambda: gen_directions(2, 10, seed="a"),
    "check_invariance-negative-seed": lambda: check_invariance(_SPEC, _P, seed=-1),
}


@pytest.mark.parametrize("call", MALFORMED_CALLS.values(), ids=MALFORMED_CALLS.keys())
def test_malformed_inputs_are_validation_errors(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: canonical_direction(["a", "b"]),
        lambda: canonical_direction(np.eye(2)),
        lambda: angle_between_lines_deg(["a", "b"], [1.0, 0.0]),
        lambda: angle_between_lines_deg([1.0, 0.0], [1.0, 0.0, 0.0]),
        lambda: heatmap_svg(_S, io.BytesIO()),
        lambda: heatmap_svg(_G * 1j, io.BytesIO()),
    ],
    ids=["canonical-strings", "canonical-matrix", "angle-strings", "angle-lengths",
         "heatmap-strings", "heatmap-complex"],
)
def test_vectors_and_matrices_are_read_by_the_point_rule(call):
    with pytest.raises(ValidationError, match="2-D numeric array"):
        call()


@pytest.mark.parametrize("size", [0, 2.5, "480", True])
def test_heatmap_size_is_a_count(size):
    with pytest.raises(ValidationError, match="size must be"):
        heatmap_svg(np.eye(2), io.BytesIO(), size=size)


class TestReaders:
    def test_points_of_reads_a_dataset_and_checks_its_rows(self):
        data = Dataset(_P)
        assert points_of(data) is data.points
        assert points_of(data, real=True).dtype == np.float64
        assert points_of(np.zeros((0, 3))).shape == (0, 3)
        with pytest.raises(ValidationError, match="^too few$"):
            points_of(data, 21, "too few")
        with pytest.raises(ValidationError, match="2-D numeric array"):
            points_of([[1.0, 2.0], [3.0]])  # ragged
        with pytest.raises(ValidationError, match="of real values"):
            points_of(_P * 1j, real=True)

    def test_labels_of_applies_the_csv_label_rule(self):
        for labels in ([0.0, 3.0], [0, 3], np.array([0, 3], np.uint64)):
            read = labels_of(labels, 2)
            assert read.dtype == np.int64 and read.tolist() == [0, int(labels[1])]
        assert labels_of([2**63 - 1], 1).tolist() == [2**63 - 1]
        bad = ([0, -1], [0, 2**63], [0, np.nan], [0, 1.5], [0], [[0, 1]], ["0", "1"], [False, True])
        for labels in bad:
            with pytest.raises(ValidationError, match="2 nonnegative integers below 2"):
                labels_of(labels, 2)

    def test_count_of_reads_integers_that_are_not_bools(self):
        assert count_of(np.int64(3), "k", 1, 3) == 3
        assert type(count_of(np.int64(3), "k", 1)) is int
        assert count_of(-5, "degree", None) == -5
        with pytest.raises(ValidationError, match=r"^k must be in \[1, 3\], got 4$"):
            count_of(4, "k", 1, 3)
        with pytest.raises(ValidationError, match="^k must be at least 2, got 1$"):
            count_of(1, "k", 2)
        for value in (2.0, True, np.bool_(True), "2", None):
            with pytest.raises(ValidationError, match="k must be an integer"):
                count_of(value, "k", 1)

    def test_integral_float_labels_become_integers(self):
        data = Dataset(_P[:3], [1.0, 0.0, 1.0])
        assert data.labels.dtype == np.int64 and data.labels.tolist() == [1, 0, 1]

    def test_mixing_labels_beyond_the_point_count_size_nothing(self):
        # Cluster 1 is empty; the label 2**62 must not size a 2**62-row array.
        with pytest.raises(DegenerateClusterError, match="cluster 1 has 0 point"):
            estimate_mixing(_P[:4, :2], [0, 0, 2**62, 2**62])


class TestGenXor:
    def test_shape_and_labels(self):
        data = gen_xor(50, 0.15, seed=0)
        assert data.points.shape == (200, 2)
        assert np.bincount(data.labels).tolist() == [100, 100]

    def test_tiny_spread_sits_on_corners(self):
        data = gen_xor(2, 1e-9, seed=1)
        snapped = np.sign(np.round(data.points))
        corners = {(1, 1), (-1, -1), (1, -1), (-1, 1)}
        assert {tuple(map(int, p)) for p in snapped} == corners

    def test_class_zero_has_equal_signs(self):
        data = gen_xor(500, 0.2, seed=2)
        class0 = data.points[data.labels == 0]
        freq = np.mean(class0[:, 0] * class0[:, 1] > 0)
        assert freq >= 0.99

    def test_deterministic(self):
        a = gen_xor(10, 0.15, seed=9)
        b = gen_xor(10, 0.15, seed=9)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_negating_all_points_leaves_invariant_gram_distribution(self):
        from invkern import build_gram

        data = gen_xor(15, 0.15, seed=3)
        spec = KernelSpec(gaussian(1.0), SIGN)
        gram = build_gram(data.points, spec)
        gram_neg = build_gram(-data.points, spec)
        np.testing.assert_array_equal(gram, gram_neg)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_xor(0, 0.1)
        with pytest.raises(ValueError):
            gen_xor(5, 0.0)


class TestGenFlippedBlobs:
    def test_reference_scale(self):
        data = gen_flipped_blobs(49, 256, flip_prob=0.5, seed=0)
        assert data.points.shape == (98, 256)
        assert np.bincount(data.labels).tolist() == [49, 49]

    def test_no_flips_gives_plain_blobs(self):
        data = gen_flipped_blobs(20, 8, separation=4.0, noise=0.05, flip_prob=0.0, seed=1)
        for c in range(2):
            block = data.points[data.labels == c]
            center = block.mean(axis=0)
            assert np.linalg.norm(center) == pytest.approx(4.0, rel=0.05)

    def test_sign_invariant_kernel_ignores_flips(self):
        data = gen_flipped_blobs(10, 16, seed=2)
        spec = KernelSpec(gaussian(5.0), SIGN)
        for x in data.points[:5]:
            assert eval_kernel(spec, x, -x) == 1.0

    def test_flip_probability_extremes(self):
        flipped = gen_flipped_blobs(30, 8, flip_prob=1.0, seed=3)
        unflipped = gen_flipped_blobs(30, 8, flip_prob=0.0, seed=3)
        np.testing.assert_array_equal(flipped.points, -unflipped.points)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_flipped_blobs(5, 1)
        with pytest.raises(ValueError):
            gen_flipped_blobs(5, 4, flip_prob=1.5)


class TestGenDirections:
    def test_truth_directions_equally_spaced(self):
        _, directions = gen_directions(6, 30, seed=0)
        angles = np.degrees(np.arctan2(directions[:, 1], directions[:, 0])) % 180.0
        spacing = np.diff(np.sort(angles))
        np.testing.assert_allclose(spacing, np.full(5, 30.0), atol=1e-9)

    def test_directions_unit_and_canonical(self):
        _, directions = gen_directions(5, 20, seed=1)
        np.testing.assert_allclose(np.linalg.norm(directions, axis=1), 1.0, atol=1e-12)
        for d in directions:
            first_nonzero = d[d != 0][0]
            assert first_nonzero > 0

    def test_noiseless_points_sit_on_their_lines(self):
        data, directions = gen_directions(4, 200, noise=0.0, seed=2)
        for point, label in zip(data.points, data.labels):
            d = directions[label]
            cross = abs(point[0] * d[1] - point[1] * d[0])
            assert cross <= 1e-12 * max(1.0, np.linalg.norm(point))

    def test_projective_inner_between_clusters(self):
        data, _ = gen_directions(6, 400, noise=0.0, seed=3)
        by_cluster = [data.points[data.labels == c] for c in range(6)]
        same = invariant_inner(PROJ, by_cluster[0][0], by_cluster[0][1])
        assert same == pytest.approx(1.0, abs=1e-12)
        adjacent = invariant_inner(PROJ, by_cluster[0][0], by_cluster[1][0])
        assert adjacent == pytest.approx(np.cos(np.radians(30.0)) ** 2, abs=1e-12)

    def test_deterministic(self):
        a, da = gen_directions(6, 50, seed=4)
        b, db = gen_directions(6, 50, seed=4)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(da, db)


class TestLoadCsv(object):
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_plain(self, tmp_path):
        data = load_csv(self.write(tmp_path, "1,2\n3,4\n"))
        np.testing.assert_array_equal(data.points, [[1.0, 2.0], [3.0, 4.0]])
        assert data.labels is None

    def test_labeled(self, tmp_path):
        data = load_csv(self.write(tmp_path, "1,2,0\n3,4,1\n"), has_labels=True)
        np.testing.assert_array_equal(data.points, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(data.labels, [0, 1])

    def test_header_detected(self, tmp_path):
        data = load_csv(self.write(tmp_path, "a,b\n1,2\n"))
        np.testing.assert_array_equal(data.points, [[1.0, 2.0]])
        assert data.meta["header"] == ["a", "b"]

    def test_parse_error_position(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_csv(self.write(tmp_path, "1,x\n"))
        assert err.value.line == 1
        assert err.value.column == 2

    def test_ragged_rows(self, tmp_path):
        with pytest.raises(FormatError) as err:
            load_csv(self.write(tmp_path, "1,2\n3\n"))
        assert err.value.line == 2

    def test_nan_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(self.write(tmp_path, "1,nan\n"))

    def test_inf_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(self.write(tmp_path, "1,inf\n"))

    def test_non_integer_label(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(self.write(tmp_path, "1,2,0.5\n"), has_labels=True)

    def test_empty_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_csv(self.write(tmp_path, ""))

    @pytest.mark.parametrize("cell,kind", [
        ("x", "non-numeric"), ("nan", "non-finite"), ("-inf", "non-finite"), ("", "non-numeric"),
        # labels: int64 holds none of these; 2**63 - 1 rounds up to 2**63 as a float
        ("1e20", "label"), ("9223372036854775807", "label"), ("2.5", "label"),
    ])
    def test_bad_cell_deep_in_file(self, tmp_path, cell, kind):
        rows = [["0.5"] * 299 + ["1"] for _ in range(600)]
        column = 300 if kind == "label" else 200
        rows[499][column - 1] = cell
        text = "".join(",".join(row) + "\n" for row in rows)
        with pytest.raises(ParseError) as err:
            load_csv(self.write(tmp_path, text), has_labels=True)
        assert (err.value.line, err.value.column) == (500, column)
        if kind == "label":
            message = f"label {cell!r} at line 500 is not a nonnegative integer below 2**63"
        else:
            message = f"{kind} cell {cell!r} at line 500, column 200"
        assert message in str(err.value)

    def test_invalid_utf8_names_its_byte_offset(self, tmp_path):
        # Past the first 8 KiB, where a decoder fed in chunks would count afresh.
        path = tmp_path / "data.csv"
        path.write_bytes(b"1.5,2.5\n" * 2000 + b"3,\xe9\n")
        with pytest.raises(FormatError, match=r"invalid UTF-8 at byte offset 16002$"):
            load_csv(path)

    def test_first_bad_row_wins(self, tmp_path):
        # An earlier non-finite cell is reported before a later non-numeric one.
        with pytest.raises(ParseError) as err:
            load_csv(self.write(tmp_path, "1,2\n3,inf\nx,5\n"))
        assert (err.value.line, err.value.column) == (2, 2)

    def test_finite_cells_whose_row_sum_overflows(self, tmp_path):
        data = load_csv(self.write(tmp_path, "1e308,1e308,-1e308\n1,2,3\n"))
        np.testing.assert_array_equal(data.points, [[1e308, 1e308, -1e308], [1, 2, 3]])

    def test_cells_parse_as_float_does(self, tmp_path):
        cells = [" 1.5", "2.5 ", "\t-3e2\t", "1_000", "+.5", "1E-3", "7"]
        data = load_csv(self.write(tmp_path, ",".join(cells) + "\n"))
        np.testing.assert_array_equal(data.points, [[float(c) for c in cells]])

    def test_save_matches_per_cell_writer(self, tmp_path):
        import csv

        def reference(data, path):
            with open(path, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                for i, row in enumerate(data.points):
                    cells = [repr(float(v)) for v in row]
                    if data.labels is not None:
                        cells.append(str(int(data.labels[i])))
                    writer.writerow(cells)

        rng = np.random.default_rng(7)
        floats = rng.standard_normal((20, 5)) * 10.0 ** rng.integers(-300, 300, (20, 5))
        floats[0, :3] = [0.0, -0.0, 5e-324]
        for data in (
            Dataset(floats, rng.integers(4, size=20)),
            Dataset(floats),
            Dataset(rng.standard_normal((20, 5)).astype(np.float32)),
            Dataset(np.arange(12).reshape(4, 3), [3, 0, 1, 2]),
        ):
            save_dataset(data, tmp_path / "new.csv")
            reference(data, tmp_path / "ref.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_round_trip(self, tmp_path):
        data = gen_xor(5, 0.15, seed=6)
        path = tmp_path / "xor.csv"
        save_dataset(data, path)
        loaded = load_csv(path, has_labels=True)
        assert np.array_equal(loaded.points, data.points)
        assert np.array_equal(loaded.labels, data.labels)
        sidecar = tmp_path / "xor.meta.json"
        assert sidecar.exists()
        assert '"name": "xor"' in sidecar.read_text()


PLAIN_CELLS = ("0", "1", "-2.5", "0.1", "3e2", "-0.0", "5e-324", "1e308", "7")
# Cells that float() and numpy may read differently, or that neither accepts;
# the labels are not integers, or not below 2**63, except 2**63 - 1024.
ODD_CELLS = (
    " 1.5", "1.5 ", "1_000", '"1"', ' "1"', "", "#c", "nan", "inf", "1e999", "\uff11",
    "1e20", "1.5", "9223372036854775808", "9223372036854774784",
)


@st.composite
def csv_files(draw):
    """CSV text from a cell grammar and file layouts, and whether it is labeled."""
    sometimes = st.sampled_from((False, False, False, True))
    width = draw(st.integers(1, 4))
    labeled = draw(st.booleans())
    plain = st.lists(st.sampled_from(PLAIN_CELLS), min_size=width, max_size=width)
    rows = draw(st.lists(plain, min_size=1, max_size=5))
    if labeled:
        rows = [row + [draw(st.sampled_from(("0", "1", "2")))] for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_CELLS))
    if draw(sometimes):  # a row whose finite cells sum past the float range
        row = draw(st.sampled_from(rows))
        row[:] = ["1e308"] * len(row)
    if draw(sometimes):  # ragged: one row one cell short or long
        row = draw(st.sampled_from(rows))
        row[:] = row[:-1] if draw(st.booleans()) else row + ["1"]
    if draw(sometimes):  # trailing commas, on one row or on all
        for row in rows if draw(st.booleans()) else [draw(st.sampled_from(rows))]:
            row.append("")
    if draw(sometimes):  # a header row, or a first row with one number
        header = draw(st.sampled_from(("a,b,c,d,e", "a,2,c,d,e"))).split(",")
        rows.insert(0, header[: len(rows[0])])
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):  # blank and whitespace-only lines
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", " ", "\t"))))
    newline = draw(st.sampled_from(("\n", "\r", "\r\n")))
    text = newline.join(lines) + draw(st.sampled_from((newline, "")))
    if draw(sometimes):
        text = "\ufeff" + text
    return text, labeled


def load_outcome(load, path, labeled):
    """What a loader gives: the dataset's bits and meta, or its error."""
    try:
        data = load(path, labeled)
    except (FormatError, ParseError) as err:
        return type(err), str(err), err.line, getattr(err, "column", None)
    assert data.points.flags.c_contiguous
    labels = None if data.labels is None else (data.labels.dtype, data.labels.tobytes())
    return data.points.dtype, data.points.shape, data.points.tobytes(), labels, data.meta


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=csv_files())
def test_numpy_parse_agrees_with_cell_loop(case):
    # load_csv tries numpy first; whatever it accepts must be what the cell
    # loop gives, and whatever it rejects must fail as the loop fails.
    text, labeled = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert load_outcome(load_csv, path, labeled) == load_outcome(_load_cells, path, labeled)


class TestTopNormSelect:
    def test_identity_when_count_is_n(self):
        data = gen_xor(5, 0.15, seed=7)
        kept = top_norm_select(data, len(data))
        assert np.array_equal(kept.points, data.points)
        assert np.array_equal(kept.labels, data.labels)

    def test_keeps_largest_norms_in_order(self):
        from invkern import Dataset

        data = Dataset(np.array([[3.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        kept = top_norm_select(data, 2)
        np.testing.assert_array_equal(kept.points, [[3.0, 0.0], [2.0, 0.0]])

    def test_reads_an_array_as_unlabeled_points(self):
        kept = top_norm_select(np.array([[1.0, 0.0], [0.0, 3.0], [2.0, 0.0]]), 2)
        np.testing.assert_array_equal(kept.points, [[0.0, 3.0], [2.0, 0.0]])
        assert kept.labels is None and kept.meta == {"top_norm_count": 2}

    def test_ties_go_to_lower_index(self):
        from invkern import Dataset

        data = Dataset(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]]), np.array([0, 1, 2]))
        kept = top_norm_select(data, 2)
        np.testing.assert_array_equal(kept.labels, [0, 2])

    def test_idempotent(self):
        data, _ = gen_directions(6, 60, seed=8)
        once = top_norm_select(data, 40)
        twice = top_norm_select(once, 40)
        assert np.array_equal(once.points, twice.points)

    def test_selected_dominate_excluded(self):
        for seed in range(5):
            data, _ = gen_directions(6, 100, seed=seed)
            kept = top_norm_select(data, 60)
            kept_norms = np.linalg.norm(kept.points, axis=1)
            all_norms = np.sort(np.linalg.norm(data.points, axis=1))
            assert kept_norms.min() >= all_norms[: 100 - 60].max()


class TestEstimateMixing:
    def test_exact_line_with_mixed_signs(self):
        direction = np.array([np.cos(0.3), np.sin(0.3)])
        radii = np.array([1.0, -2.0, 0.5, -0.25, 3.0])
        points = radii[:, None] * direction
        estimate = estimate_mixing(points, np.zeros(5, dtype=int), [direction])
        np.testing.assert_allclose(estimate.directions[0], direction, atol=1e-12)
        assert estimate.angle_errors_deg[0] <= 1e-9

    def test_dominant_axis(self):
        points = np.array([[1.0, 0.0], [-2.0, 0.0], [3.0, 0.01]])
        estimate = estimate_mixing(points, np.zeros(3, dtype=int))
        assert angle_between_lines_deg(estimate.directions[0], [1.0, 0.0]) <= 1.0

    def test_sign_flips_leave_estimate_unchanged(self):
        rng = np.random.default_rng(50)
        data, dirs = gen_directions(4, 120, seed=9)
        flips = np.where(rng.random(120) < 0.5, -1.0, 1.0)[:, None]
        a = estimate_mixing(data.points, data.labels, dirs)
        b = estimate_mixing(data.points * flips, data.labels, dirs)
        np.testing.assert_array_equal(a.directions, b.directions)

    def test_positive_rescaling_leaves_estimate_unchanged(self):
        data, dirs = gen_directions(4, 120, seed=10)
        a = estimate_mixing(data.points, data.labels, dirs)
        b = estimate_mixing(data.points * 17.0, data.labels, dirs)
        np.testing.assert_allclose(a.directions, b.directions, atol=1e-12)

    def test_small_cluster_rejected(self):
        with pytest.raises(DegenerateClusterError):
            estimate_mixing(np.eye(2), np.array([0, 1]))


class TestBestMatching:
    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(70)
        for n in range(1, 7):
            for _ in range(20):
                cost = rng.integers(0, 4, size=(n, n)).astype(float)  # many ties
                best = min(
                    sum(cost[i, p[i]] for i in range(n)) for p in permutations(range(n))
                )
                matched = best_matching(cost)
                assert sorted(matched) == list(range(n))
                assert cost[np.arange(n), matched].sum() == best

    def test_matches_scipy_beyond_exhaustive_size(self):
        linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
        rng = np.random.default_rng(71)
        for n in (9, 15, 40):
            cost = rng.random((n, n))
            rows, cols = linear_sum_assignment(cost)
            matched = best_matching(cost)
            assert sorted(matched) == list(range(n))
            assert cost[np.arange(n), matched].sum() == pytest.approx(
                cost[rows, cols].sum(), abs=1e-12
            )


class TestCanonicalDirection:
    def test_flips_negative_leading_coordinate(self):
        np.testing.assert_allclose(canonical_direction([-3.0, 4.0]), [0.6, -0.8])

    def test_zero_first_coordinate_uses_next(self):
        np.testing.assert_allclose(canonical_direction([0.0, -2.0]), [0.0, 1.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            canonical_direction([0.0, 0.0])

    @pytest.mark.parametrize("v", [[1e200, 1e200], [np.inf, 1.0], [np.nan, 1.0]])
    def test_non_finite_norm_rejected(self, v):
        # 1e200^2 overflows the norm, which would scale the vector to [0, 0].
        with pytest.raises(ValidationError, match="non-finite norm"):
            canonical_direction(v)

    def test_huge_finite_vector_keeps_its_bits(self):
        v = [-3e150, 4e150]
        np.testing.assert_array_equal(canonical_direction(v), -np.asarray(v) / np.linalg.norm(v))


def repr_rows(values, newline="\n", labels=None) -> bytes:
    """The reference text: ``repr`` of every cell, joined per row."""
    rows = [",".join(map(repr, row)) for row in np.asarray(values, float).tolist()]
    if labels is not None:
        rows = [f"{row},{label}" for row, label in zip(rows, labels)]
    return "".join(row + newline for row in rows).encode()


def float_text(values, newline="\n", labels=None) -> bytes:
    handle = io.BytesIO()
    write_float_rows(handle, values, newline, labels)
    return handle.getvalue()


def shortest_lengths() -> list:
    """Doubles whose shortest repr has 1, 2, ..., 17 significant digits."""
    values = [float("123456789123456"[:n]) / 10 ** (n // 2) for n in range(1, 16)]
    return values + [1 / 3, 0.1 + 0.2]


class TestFloatText:
    def test_matches_repr_on_random_bit_patterns(self):
        # Every exponent, subnormals and both signs: 10**6 doubles.
        bits = np.random.default_rng(28).integers(0, 2**64, 1_050_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)][:1_000_000].reshape(1000, 1000)
        assert float_text(values) == repr_rows(values)

    def test_edges(self):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        edges = [
            0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
            1.7976931348623157e308, 9.999999999999999e-05, 1e-4, 9999999999999998.0, 1e16,
            1e22, 1e23, 1e17, 123456789012345680.0, 0.5, 1.0, 2.0,
        ]
        lengths = shortest_lengths()
        significant = [repr(v).split("e")[0].replace(".", "").strip("0") for v in lengths]
        assert sorted(map(len, significant)) == list(range(1, 18))
        scaled = np.outer(lengths, 10.0 ** np.arange(-323, 290, 7)).ravel()
        for values in (powers, edges, scaled):
            values = np.concatenate([values, np.negative(values)])
            assert float_text(values[:, None]) == repr_rows(values[:, None])
            assert float_text(values[None, :]) == repr_rows(values[None, :])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_matches_repr(self, row):
        assert float_text([row]) == repr_rows([row])

    @pytest.mark.parametrize("kind", ["integers", "subnormals", "ties", "non-finite"])
    def test_matches_repr_where_repr_gives_the_digits(self, kind):
        # Powers of two take the digits of their repr; subnormals, exact ties,
        # NaN and infinities have it spliced in, -2.2250738585072014e-308
        # filling the 24 bytes.  n + 0.25 scales to 10 n + 2.5, halfway
        # between two 17-digit integers, for 2**50 <= n < 2**51, and to
        # 100 n + 25, halfway between two multiples of 10 in its interval,
        # for 2**49 <= n < 10**15.
        rng = np.random.default_rng(29)
        if kind == "integers":
            values = rng.integers(-40, 41, (50, 40)).astype(float)
        elif kind == "subnormals":
            values = rng.integers(1, 2**52, (50, 40), dtype=np.uint64).view(np.float64)
            values[::7, ::3] *= -1
            values[1, 1:4] = [-2.2250738585072014e-308, 1e-310, 5e-324]
        elif kind == "ties":
            values = rng.integers(2**49, 2**51, (50, 40)) + rng.choice([0.25, 0.75], (50, 40))
        else:
            values = rng.standard_normal((50, 40))
            values[rng.random(values.shape) < 0.2] = np.nan
            values[rng.random(values.shape) < 0.1] = np.inf
            values[rng.random(values.shape) < 0.1] = -np.inf
            values[3, 5] = -2.2250738585072014e-308
        assert float_text(values) == repr_rows(values)

    def test_rows_wider_than_a_chunk(self):
        values = np.random.default_rng(5).standard_normal((3, 20000)) * 1e3
        assert float_text(values, "\r\n", [4, 5, 6]) == repr_rows(values, "\r\n", [4, 5, 6])

    def test_labels_newlines_and_cells_repr_writes_itself(self):
        values = np.array([[np.nan, np.inf, -np.inf], [1e23, -0.0, 2.5], [1.0, 1e-7, 3e300]])
        labels = [0, 2**63 - 1, 7]
        assert float_text(values, "\r\n", labels) == repr_rows(values, "\r\n", labels)
        assert float_text(np.zeros((2, 0)), "\n", [1, 2]) == b",1\n,2\n"
        assert float_text(np.zeros((0, 3))) == b""
