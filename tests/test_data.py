"""Generator, CSV, and mixing-estimation tests."""

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
    estimate_mixing,
    eval_kernel,
    gaussian,
    gen_directions,
    gen_flipped_blobs,
    gen_xor,
    invariant_inner,
    load_csv,
    save_dataset,
    top_norm_select,
)
from invkern.data import _load_cells, best_matching
from invkern.errors import DegenerateClusterError, FormatError, ParseError, ValidationError


@pytest.mark.parametrize(
    "points",
    [np.ones(3), np.ones((2, 2, 2)), np.array([["a", "b"]])],
    ids=["1-d", "3-d", "strings"],
)
def test_dataset_points_must_be_a_2d_numeric_array(points):
    with pytest.raises(ValidationError, match="2-D numeric array"):
        Dataset(points)


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
