"""Generator, CSV, and mixing-estimation tests."""

from itertools import permutations

import numpy as np
import pytest

from invkern import (
    PROJ,
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
from invkern.data import best_matching
from invkern.errors import DegenerateClusterError, FormatError, ParseError


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
        gram = build_gram(data.points, spec).values
        gram_neg = build_gram(-data.points, spec).values
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

    def test_scale_law_validation(self):
        with pytest.raises(ValueError):
            gen_directions(6, 50, scale_law=("pareto", 1.0, 1.0))


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
