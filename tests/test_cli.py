"""CLI behavior: values, artifacts, exit codes, determinism."""

import contextlib
import gzip
import io
import json
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invkern import (
    PROJ, SIGN, Dataset, KernelSpec, build_gram, gaussian, gen_directions, gen_xor, keca_embed,
    kmeans, linear, load_csv, save_dataset, sym_eig,
)
from invkern.cli import _write_gram_csv, main
from invkern.errors import DegenerateEmbeddingError
from oracles import heatmap_oracle, write_gram_csv_rows


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_sign_invariant_gaussian_value(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--kernel", "gaussian", "--sigma", "1",
            "--inv", "sign", "--x", "1,0", "--y", "0,1",
        )
        assert code == 0
        first, record = out.strip().split("\n", 1)
        assert first.startswith("0.3678794411714423")
        payload = json.loads(record)
        assert payload["triple"] == {"sxx": 1.0, "sxy": [0.0, 0.0], "syy": 1.0}

    def test_negated_point_gives_one(self, capsys):
        # leading-minus vectors need the --flag=value form
        code, out, _ = run(
            capsys, "eval", "--kernel", "gaussian", "--sigma", "2",
            "--inv", "sign", "--x=1,-2", "--y=-1,2",
        )
        assert code == 0
        assert out.split("\n")[0] == "1"

    def test_rot_order_comes_from_inv(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--kernel", "gaussian", "--sigma", "2",
            "--inv", "rot:2", "--x", "1,0", "--y=-1,0",
        )
        assert code == 0
        assert out.split("\n")[0] == "1"
        for order_flags in ([], ["--m", "2"]):
            code, _, _ = run(
                capsys, "eval", "--kernel", "gaussian", "--sigma", "2",
                "--inv", "rot", *order_flags, "--x", "1,0", "--y", "0,1",
            )
            assert code == 2

    def test_malformed_vector_exits_2(self, capsys):
        code, _, err = run(
            capsys, "eval", "--kernel", "gaussian", "--sigma", "1",
            "--x", "1,,2", "--y", "1,2",
        )
        assert code == 2
        assert "column 2" in err

    def test_base_kernel_overflow_exits_3(self, capsys):
        # (<x,y> + 1)^400 = 201^400 overflows although the triple is finite
        code, out, err = run(
            capsys, "eval", "--kernel", "poly", "--degree", "400",
            "--x", "10,10", "--y", "10,10",
        )
        assert code == 3
        assert out == ""
        assert "pair (0, 1)" in err

    @pytest.mark.parametrize("kernel", [["linear"], ["gaussian", "--sigma", "1"]])
    @pytest.mark.parametrize("inv", ["scale", "chain(scale,sign)"])
    def test_overflowing_norm_exits_3(self, capsys, kernel, inv):
        # |y|^2 = 1e320 overflows; the rewritten <x,y> alone would be a finite 0.0
        code, out, err = run(
            capsys, "eval", "--kernel", *kernel, "--inv", inv, "--x", "1,1", "--y", "1e160,0",
        )
        assert code == 3
        assert out == ""
        assert "pair (1, 1)" in err

    @pytest.mark.parametrize("kernel", [["linear"], ["gaussian", "--sigma", "1"]])
    @pytest.mark.parametrize("inv", ["scale", "chain(scale,sign)"])
    def test_overflowing_norm_product_exits_3(self, capsys, kernel, inv):
        # Both norms are finite, but |x|^2 |y|^2 = 4e400 overflows, and the scale
        # rewrite would print 0.0 for a true value of 1.0.
        code, out, err = run(
            capsys, "eval", "--kernel", *kernel, "--inv", inv,
            "--x", "1e100,0", "--y", "2e100,0",
        )
        assert code == 3
        assert out == ""
        assert "pair (0, 0)" in err

    def test_underflowing_norm_exits_3(self, capsys):
        # |x|^2 = 1e-400 underflows: a zero vector for scale, not a division by zero.
        code, out, err = run(
            capsys, "eval", "--kernel", "linear", "--inv", "scale",
            "--x", "1e-200,0", "--y", "1,0",
        )
        assert (code, out) == (3, "")
        assert "point 0 has zero norm" in err

    def test_input_of_three_rows_exits_2(self, capsys, tmp_path):
        csv_path = tmp_path / "three.csv"
        csv_path.write_text("1,2\n3,4\n5,6\n")
        code, out, err = run(capsys, "eval", "--sigma", "1", "--input", str(csv_path))
        assert code == 2
        assert out == ""
        assert "eval expects exactly 2 rows, got 3" in err

    def test_x_without_y_exits_2(self, capsys):
        code, out, err = run(capsys, "eval", "--sigma", "1", "--x", "1,2")
        assert code == 2
        assert out == ""
        assert "provide --x and --y, or --input with two rows" in err

    def test_non_finite_vector_exits_2(self, capsys):
        code, out, err = run(
            capsys, "eval", "--sigma", "1", "--x", "1,nan", "--y", "3,4",
        )
        assert code == 2
        assert out == ""
        assert "non-finite" in err and "column 2" in err

    @pytest.mark.parametrize("flags, message", [
        (("--sigma", "-1"), "sigma must be positive"),
        (("--kernel", "poly", "--degree", "0"), "degree must be at least 1"),
        (("--sigma", "1", "--inv", "chain(chain(chain(chain(scale,sign),sign),sign),sign)"),
         "nesting deeper"),
        (("--kernel", "gaussian"), "--sigma is required for the gaussian kernel"),
    ])
    def test_invalid_kernel_parameter_exits_2(self, capsys, flags, message):
        code, _, err = run(capsys, "eval", *flags, "--x", "1,2", "--y", "3,4")
        assert code == 2
        assert message in err

    def test_any_chain_evaluates_without_a_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "eval", "--kernel", "linear", "--inv", "chain(sign,proj)",
                "--x", "1,2", "--y", "3,4",
            )
        assert code == 0
        assert float(out.split()[0]) == pytest.approx(121**2 / (25 * 625))
        assert err == ""

    def test_writes_json_record(self, capsys, tmp_path):
        out_dir = tmp_path / "record"
        code, _, _ = run(
            capsys, "eval", "--kernel", "linear", "--x", "1,2", "--y", "3,4",
            "--out", str(out_dir),
        )
        assert code == 0
        payload = json.loads((out_dir / "eval.json").read_text())
        assert payload["value"] == 11.0

    def test_builds_the_triple_field_once(self, capsys, monkeypatch):
        import invkern.invariance as invariance

        calls = []
        original = invariance._triple_field

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(invariance, "_triple_field", counting)
        code, out, _ = run(
            capsys, "eval", "--kernel", "gaussian", "--sigma", "1",
            "--inv", "sign", "--x", "1,0", "--y", "0,1",
        )
        assert code == 0
        assert out.startswith("0.3678794411714423")
        assert len(calls) == 1


class TestGram:
    @pytest.mark.parametrize("command, seed_help", [
        ("gram", "unused; kept for uniformity"),
        ("eval", "unused; kept for uniformity"),
        ("cluster", "random seed (default 0)"),
        ("exp", "random seed (default 0)"),
    ])
    def test_help_says_whether_the_seed_is_used(self, capsys, command, seed_help):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert f"--seed SEED {seed_help}" in " ".join(out.split())

    def test_artifacts_and_roundtrip(self, capsys, tmp_path):
        data = gen_xor(4, 0.1, seed=1)
        csv_path = tmp_path / "pts.csv"
        save_dataset(data, csv_path)
        out_dir = tmp_path / "out"
        code, out, _ = run(
            capsys, "gram", "--input", str(csv_path), "--labeled",
            "--kernel", "gaussian", "--sigma", "1", "--inv", "sign",
            "--out", str(out_dir), "--svg",
        )
        assert code == 0
        assert "psd pass" in out
        gram_rows = [
            [float(cell) for cell in line.split(",")]
            for line in (out_dir / "gram.csv").read_text().strip().split("\n")
        ]
        gram = np.array(gram_rows)
        assert gram.shape == (16, 16)
        assert np.array_equal(gram, gram.T)
        report = json.loads((out_dir / "psd.json").read_text())
        assert report["passed"] is True
        assert (out_dir / "gram.svg").read_text().count('class="cell"') == 256

    def test_gram_csv_exact_roundtrip(self, capsys, tmp_path):
        from invkern import KernelSpec, build_gram, gaussian
        from invkern.invariance import SIGN

        data = gen_xor(3, 0.15, seed=2)
        csv_path = tmp_path / "pts.csv"
        save_dataset(data, csv_path)
        out_dir = tmp_path / "out"
        code, _, _ = run(
            capsys, "gram", "--input", str(csv_path), "--labeled",
            "--kernel", "gaussian", "--sigma", "1.5", "--inv", "sign",
            "--out", str(out_dir),
        )
        assert code == 0
        reread = np.array(
            [
                [float(cell) for cell in line.split(",")]
                for line in (out_dir / "gram.csv").read_text().strip().split("\n")
            ]
        )
        expected = build_gram(data, KernelSpec(gaussian(1.5), SIGN))
        assert np.array_equal(reread, expected)
        # the per-cell writer the streamed one replaces, as a byte reference
        lines = [",".join(repr(float(v)) for v in row) for row in expected]
        assert (out_dir / "gram.csv").read_text() == "\n".join(lines) + "\n"

    def test_overflowing_triple_exits_3(self, capsys, tmp_path):
        # sign invariance squares the triple; 1e200 already overflows <x,x>
        csv_path = tmp_path / "big.csv"
        csv_path.write_text("1e200,1\n2,3\n")
        out_dir = tmp_path / "o"
        code, _, err = run(
            capsys, "gram", "--input", str(csv_path), "--inv", "sign",
            "--sigma", "1", "--out", str(out_dir),
        )
        assert code == 3
        assert "pair (0, 0)" in err
        assert not (out_dir / "psd.json").exists()

    def test_base_kernel_overflow_exits_3(self, capsys, tmp_path):
        # only pair (1, 1) overflows: (200 + 1)^400; the others stay below 3^400
        csv_path = tmp_path / "big.csv"
        csv_path.write_text("0.1,0.1\n10,10\n")
        out_dir = tmp_path / "o"
        code, _, err = run(
            capsys, "gram", "--input", str(csv_path), "--kernel", "poly",
            "--degree", "400", "--out", str(out_dir),
        )
        assert code == 3
        assert "pair (1, 1)" in err
        assert not (out_dir / "gram.csv").exists()

    def test_single_point_exits_2(self, capsys, tmp_path):
        csv_path = tmp_path / "one.csv"
        csv_path.write_text("1,2\n")
        code, _, err = run(
            capsys, "gram", "--input", str(csv_path), "--sigma", "1",
            "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert "at least two points" in err

    def test_single_point_without_sigma_exits_2(self, capsys, tmp_path):
        # The median heuristic, which picks sigma, needs a pair of points.
        csv_path = tmp_path / "one.csv"
        csv_path.write_text("1,2\n")
        out_dir = tmp_path / "o"
        code, out, err = run(capsys, "gram", "--input", str(csv_path), "--out", str(out_dir))
        assert code == 2
        assert out == ""
        assert "median heuristic needs at least two points" in err
        assert not out_dir.exists()

    def test_nested_chain_text_writes_the_flat_chain_bytes(self, capsys, tmp_path):
        csv_path = tmp_path / "pts.csv"
        save_dataset(gen_xor(10, 0.15, seed=4), csv_path)
        outputs = []
        for inv in ("chain(sign,scale,proj)", "chain(chain(sign,scale),proj)"):
            out_dir = tmp_path / inv
            code, out, _ = run(
                capsys, "gram", "--input", str(csv_path), "--labeled", "--inv", inv,
                "--svg", "--out", str(out_dir),
            )
            assert code == 0
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            outputs.append((out, files))
        assert set(outputs[0][1]) == {"gram.csv", "gram.svg", "psd.json"}
        assert outputs[0] == outputs[1]

    def test_missing_input_is_io_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "gram", "--input", str(tmp_path / "nope.csv"),
            "--kernel", "gaussian", "--sigma", "1", "--out", str(tmp_path / "o"),
        )
        assert code == 4

    def test_input_is_read_as_named(self, capsys, tmp_path):
        # A compressed file is neither looked for beside a missing input
        # nor decompressed when named.
        packed = tmp_path / "x.csv.gz"
        packed.write_bytes(gzip.compress(b"1,2\n3,4\n"))
        missing = tmp_path / "x.csv"
        out_dir = str(tmp_path / "o")
        code, _, err = run(capsys, "gram", "--input", str(missing), "--sigma", "1", "--out", out_dir)
        assert code == 4
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
        code, _, err = run(capsys, "gram", "--input", str(packed), "--sigma", "1", "--out", out_dir)
        assert code == 2
        assert err.startswith(f"error: {packed}: invalid UTF-8 at byte offset ")

    @pytest.mark.parametrize("argv", [
        ["gram", "--sigma", "1"],
        ["cluster", "--k", "2", "--sigma", "1"],
        ["eval", "--sigma", "1"],
    ], ids=["gram", "cluster", "eval"])
    def test_invalid_utf8_input_exits_2(self, capsys, tmp_path, argv):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_bytes(b"1,2\n3,\xff\n")
        code, out, err = run(capsys, *argv, "--input", str(csv_path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert err == f"error: {csv_path}: invalid UTF-8 at byte offset 6\n"

    @pytest.mark.parametrize("argv", [
        ["gram", "--sigma", "1"],
        ["cluster", "--k", "2", "--sigma", "1"],
        ["eval", "--sigma", "1"],
    ], ids=["gram", "cluster", "eval"])
    def test_cell_past_the_csv_field_limit_exits_2(self, capsys, tmp_path, argv):
        # numpy reads the long cell as inf, so the file reaches the csv
        # module, whose field limit is 131072 characters.
        csv_path = tmp_path / "long.csv"
        csv_path.write_text("1,2\n1," + "1" * 200000 + "\n")
        code, out, err = run(capsys, *argv, "--input", str(csv_path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {csv_path}: field larger than field limit")
        assert err.endswith(" at line 2\n")
        assert err.count("\n") == 1 and "Traceback" not in err

    # 40 points fit in one 64-row chunk; 132 cross two chunk edges, and
    # their y text grows from 5 to 6 to 7 characters at rows 3 and 28.
    @pytest.mark.parametrize("n_per_arm", [10, 33])
    def test_heatmap_is_the_oracle_of_the_label_ordered_gram(self, capsys, tmp_path, n_per_arm):
        data = gen_xor(n_per_arm, 0.15, seed=3)
        shuffled = np.random.default_rng(5).permutation(len(data))
        csv_path = tmp_path / "pts.csv"
        save_dataset(Dataset(data.points[shuffled], data.labels[shuffled], data.meta), csv_path)
        out_dir = tmp_path / "out"
        code, _, _ = run(
            capsys, "gram", "--input", str(csv_path), "--labeled", "--sigma", "1",
            "--inv", "sign", "--out", str(out_dir), "--svg",
        )
        assert code == 0
        reread = load_csv(csv_path, has_labels=True)
        order = np.argsort(reread.labels, kind="stable")
        gram = build_gram(reread, KernelSpec(gaussian(1.0), SIGN))[np.ix_(order, order)]
        assert (out_dir / "gram.svg").read_text() == heatmap_oracle(gram)


def symmetric_gram(rng, n):
    """A symmetric matrix with -0.0, the smallest subnormal and a 1.0 diagonal."""
    values = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 300, (n, n))
    gram = np.triu(values) + np.triu(values, 1).T
    np.fill_diagonal(gram, 1.0)
    if n > 1:
        gram[0, -1] = gram[-1, 0] = -0.0
        gram[n // 2, n // 3] = gram[n // 3, n // 2] = 5e-324
    return gram


class TestGramCsvWriter:
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 300])
    def test_matches_per_row_writer(self, tmp_path, n):
        # Sizes around the block height cover a partial and a single-row last block.
        gram = symmetric_gram(np.random.default_rng(n), n)
        _write_gram_csv(gram, tmp_path / "blocked.csv")
        write_gram_csv_rows(gram, tmp_path / "rows.csv")
        assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_peak_memory_is_about_one_gram(self, tmp_path):
        # At most N²/4 cells are held, as joined text; keeping a str object
        # per cell for the rows below would peak at about 2.5 x the Gram.
        n = 2000
        gram = build_gram(gen_xor(n // 4, 0.15, seed=0), KernelSpec(gaussian(1.0)))
        tracemalloc.start()
        try:
            _write_gram_csv(gram, tmp_path / "gram.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * gram.nbytes


class TestCluster:
    def test_labeled_run_reports_accuracy(self, capsys, tmp_path):
        data = gen_xor(10, 0.15, seed=0)
        csv_path = tmp_path / "xor.csv"
        save_dataset(data, csv_path)
        out_dir = tmp_path / "out"
        code, _, _ = run(
            capsys, "cluster", "--input", str(csv_path), "--labeled", "--k", "2",
            "--kernel", "gaussian", "--inv", "sign", "--out", str(out_dir), "--svg",
        )
        assert code == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert "accuracy" in metrics
        # below LANCZOS_MIN_N the decomposition is dense and conserves entropy
        assert metrics["eigenpairs"] == 40
        assert abs(metrics["entropy_residual"]) <= 1e-12
        assert metrics["entropy_captured"] == (
            sum(metrics["entropy_selected"]) / metrics["entropy_total"]
        )
        assert 0.0 < metrics["entropy_captured"] <= 1.0 + 1e-12
        labels = (out_dir / "labels.csv").read_text().strip().split("\n")
        assert labels[0] == "index,label"
        assert len(labels) == 41
        assert (out_dir / "scatter.svg").exists()

    def test_unlabeled_omits_accuracy(self, capsys, tmp_path):
        data = gen_xor(6, 0.15, seed=0)
        csv_path = tmp_path / "pts.csv"
        save_dataset(
            type(data)(data.points, None, data.meta), csv_path
        )
        out_dir = tmp_path / "out"
        code, _, _ = run(
            capsys, "cluster", "--input", str(csv_path), "--k", "2",
            "--kernel", "gaussian", "--sigma", "0.5", "--inv", "sign",
            "--out", str(out_dir),
        )
        assert code == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert "accuracy" not in metrics

    def test_zero_entropy_total_exits_degenerate(self, capsys, tmp_path):
        # A linear Gram of points summing to the zero vector sums to zero:
        # every entropy contribution is round-off, so no axis can be chosen.
        csv_path = tmp_path / "centered.csv"
        csv_path.write_text("1,0\n-1,0\n0,1\n0,-1\n2,0\n-2,0\n")
        out_dir = tmp_path / "out"
        code, _, err = run(
            capsys, "cluster", "--input", str(csv_path), "--k", "2",
            "--kernel", "linear", "--out", str(out_dir),
        )
        assert code == 3
        assert "all entropy contributions vanish" in err
        assert not (out_dir / "metrics.json").exists()
        gram = build_gram(load_csv(csv_path), KernelSpec(linear()))
        with pytest.raises(DegenerateEmbeddingError):
            keca_embed(gram, 2)

    def test_k_below_two_is_usage_error(self, capsys, tmp_path):
        data = gen_xor(4, 0.15, seed=0)
        csv_path = tmp_path / "pts.csv"
        save_dataset(data, csv_path)
        code, _, _ = run(
            capsys, "cluster", "--input", str(csv_path), "--k", "1",
            "--kernel", "gaussian", "--sigma", "1", "--out", str(tmp_path / "o"),
        )
        assert code == 2

    def test_duplicate_rows_fill_every_cluster(self, capsys, tmp_path):
        # Two distinct points and k = 4: an empty cluster must not take the
        # only member of another one, so two clusters split each duplicate.
        csv_path = tmp_path / "dup.csv"
        csv_path.write_text("0.36,1.30\n" * 3 + "0.10,-0.53\n" * 3)
        out_dir = tmp_path / "out"
        code, _, _ = run(
            capsys, "cluster", "--input", str(csv_path), "--k", "4", "--sigma", "1",
            "--out", str(out_dir),
        )
        assert code == 0
        labels = (out_dir / "labels.csv").read_text().strip().split("\n")[1:]
        assert sorted({line.split(",")[1] for line in labels}) == ["0", "1", "2", "3"]

    def test_duplicate_rows_converge(self, capsys, tmp_path, monkeypatch):
        # Splitting duplicates moves a point back and forth between
        # near-identical embedding rows, so the labels alternate; that cycle
        # must end each restart.  Ten restarts that all ran to the iteration
        # cap made 10 * (3 + 300) calls.
        import invkern.spectral as spectral

        calls = []
        original = spectral._pairwise_distance

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(spectral, "_pairwise_distance", counting)
        csv_path = tmp_path / "dup.csv"
        csv_path.write_text("0.36,1.30\n" * 3 + "0.10,-0.53\n" * 3)
        out_dir = tmp_path / "out"
        code, _, _ = run(
            capsys, "cluster", "--input", str(csv_path), "--k", "4", "--sigma", "1",
            "--out", str(out_dir),
        )
        assert code == 0
        assert len(calls) <= 100
        labels = (out_dir / "labels.csv").read_text().strip().split("\n")[1:]
        assert sorted({line.split(",")[1] for line in labels}) == ["0", "1", "2", "3"]

    def test_above_the_floor_truncates_with_the_dense_labels(self, capsys, tmp_path):
        data, _ = gen_directions(6, 600, seed=3)
        csv_path = tmp_path / "lines.csv"
        save_dataset(data, csv_path)
        out_dir = tmp_path / "out"
        code, _, _ = run(
            capsys, "cluster", "--input", str(csv_path), "--labeled", "--k", "6",
            "--kernel", "gaussian", "--sigma", "0.1", "--inv", "proj", "--out", str(out_dir),
        )
        assert code == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["eigenpairs"] < 600
        gram = build_gram(data, KernelSpec(gaussian(0.1), PROJ))
        embedding, _ = keca_embed(gram, 6, sym_eig(gram))
        dense_labels, _ = kmeans(embedding, 6, seed=0)
        labels = np.loadtxt(out_dir / "labels.csv", delimiter=",", skiprows=1, dtype=int)[:, 1]
        assert np.array_equal(labels, dense_labels)

    def test_k_above_point_count_is_usage_error(self, capsys, tmp_path):
        csv_path = tmp_path / "three.csv"
        csv_path.write_text("1,2\n3,4\n5,7\n")
        code, _, err = run(
            capsys, "cluster", "--input", str(csv_path), "--k", "5",
            "--kernel", "gaussian", "--sigma", "1", "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert "--k 5 exceeds the point count 3" in err


class TestExperiment:
    def test_unknown_preset_exits_2(self, capsys):
        code, _, _ = run(capsys, "exp", "mystery")
        assert code == 2

    def test_xor_preset_bundle(self, capsys, tmp_path):
        out_dir = tmp_path / "xor"
        code, out, _ = run(capsys, "exp", "xor", "--out", str(out_dir), "--svg")
        assert code == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["invariant"]["accuracy"] == 1.0
        assert metrics["baseline"]["accuracy"] <= 0.8
        assert metrics["accuracy_gap"] > 0
        for name in (
            "dataset.csv", "dataset.meta.json", "labels_invariant.csv",
            "labels_baseline.csv", "heatmap_invariant.svg", "scatter_invariant.svg",
        ):
            assert (out_dir / name).exists(), name

    def test_flutes_stays_dense_below_the_floor(self, capsys, tmp_path):
        code, _, _ = run(capsys, "exp", "flutes", "--out", str(tmp_path / "flutes"))
        assert code == 0
        metrics = json.loads((tmp_path / "flutes" / "metrics.json").read_text())
        assert metrics["invariant"]["eigenpairs"] == metrics["baseline"]["eigenpairs"] == 270

    def test_digits_accepts_user_csv(self, capsys, tmp_path):
        from invkern import gen_flipped_blobs

        data = gen_flipped_blobs(8, 16, seed=5)
        csv_path = tmp_path / "digits.csv"
        save_dataset(data, csv_path)
        out_dir = tmp_path / "digits"
        code, _, _ = run(
            capsys, "exp", "digits", "--input", str(csv_path), "--labeled",
            "--sigma", "4", "--out", str(out_dir),
        )
        assert code == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["n_points"] == 16

    def test_identical_flags_are_byte_identical(self, capsys, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code, _, _ = run(capsys, "exp", "xor", "--seed", "3", "--out", str(d), "--svg")
            assert code == 0
        for name in sorted(p.name for p in dirs[0].iterdir()):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name

    def test_gram_and_cluster_reruns_are_byte_identical(self, capsys, tmp_path):
        data = gen_xor(8, 0.15, seed=2)
        csv_path = tmp_path / "pts.csv"
        save_dataset(data, csv_path)
        for command, extra in (
            ("gram", []),
            ("cluster", ["--k", "2"]),
        ):
            dirs = [tmp_path / f"{command}_a", tmp_path / f"{command}_b"]
            for d in dirs:
                code, _, _ = run(
                    capsys, command, "--input", str(csv_path), "--labeled",
                    "--kernel", "gaussian", "--sigma", "0.5", "--inv", "sign",
                    "--seed", "1", "--out", str(d), "--svg", *extra,
                )
                assert code == 0
            for name in sorted(p.name for p in dirs[0].iterdir()):
                assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


class TestExperimentFlags:
    @pytest.mark.parametrize("name,flags", [
        ("xor", ["--input", "/nonexistent.csv"]),
        ("flutes", ["--labeled"]),
        ("flutes", ["--input", "data.csv", "--labeled"]),
    ])
    def test_digits_only_flags_rejected(self, capsys, tmp_path, name, flags):
        code, out, err = run(capsys, "exp", name, *flags, "--out", str(tmp_path))
        assert code == 2
        assert flags[0] in err and "digits preset only" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("name", ["xor", "digits", "flutes"])
    def test_zero_sigma_exits_2_without_output(self, capsys, tmp_path, name):
        # --sigma 0 is a bandwidth like any other, not a request for the default.
        out_dir = tmp_path / name
        code, out, err = run(capsys, "exp", name, "--sigma", "0", "--out", str(out_dir))
        assert code == 2
        assert out == ""
        assert "sigma must be positive" in err
        assert not out_dir.exists()

    def test_digits_labeled_needs_input(self, capsys, tmp_path):
        code, _, err = run(capsys, "exp", "digits", "--labeled", "--out", str(tmp_path / "d"))
        assert code == 2
        assert "--labeled needs --input" in err
        assert not (tmp_path / "d").exists()


@st.composite
def cli_inputs(draw):
    """Rows of CSV cells and the argv of one command on them (``{csv}`` is the file)."""
    d = draw(st.integers(1, 3))
    cell = st.sampled_from(("1", "-1", "0", "0.5", "2", "1e300"))
    rows = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=2, max_size=5))
    rows += rows[: draw(st.integers(0, 2))]  # duplicate rows
    rows[-1][-1] = draw(st.sampled_from((rows[-1][-1],) * 8 + ("nan", "inf")))
    command = draw(st.sampled_from(("cluster", "gram", "eval")))
    if command == "eval":
        rows = rows[:2]
    argv = [command, "--input", "{csv}", "--kernel",
            draw(st.sampled_from(("gaussian", "laplace", "linear", "poly")))]
    sigma = draw(st.sampled_from((None, "1", "0.05", "1e-170", "inf", "1e200", "5e-324")))
    if sigma is not None or command == "eval":
        argv += ["--sigma", sigma or "1"]
    inv = draw(st.sampled_from((
        None, "sign", "proj", "scale", "chain(scale,sign)", "chain(chain(scale,sign))",
        "chain(" * 5 + "sign" + ")" * 5,
    )))
    if inv is not None:
        argv += ["--inv", inv]
    if command == "cluster":
        argv += ["--k", str(draw(st.integers(2, len(rows))))]
    return rows, argv + ["--seed", str(draw(st.sampled_from((0, 1, 7, -1))))], None


DUPLICATE_ROWS = [["0.36", "1.30"]] * 3 + [["0.10", "-0.53"]] * 3
# Linear Grams whose trace, top eigenvalue or entry sum overflows.
OPPOSITE_HUGE = [["1e154", "0"], ["-1e154", "0"]]
HUGE_EIGENVALUE = [["1e154", "0"], ["1e154", "1"], ["1.1e154", "0"], ["1.2e154", "3"]]
HUGE_SUM = [["5.5e153", "0"], ["5.4e153", "0"], ["5.3e153", "1"], ["5.2e153", "0"]]
DEEP_INV = "chain(" * 1200 + "sign" + ")" * 1200


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=cli_inputs())
@example(case=(DUPLICATE_ROWS, ["eval", "--inv", DEEP_INV, "--x", "1,2", "--y", "3,4"], 2))
@example(case=(DUPLICATE_ROWS, ["cluster", "--input", "{csv}", "--k", "2", "--seed", "-1"], 2))
@example(case=(DUPLICATE_ROWS, ["exp", "xor", "--seed", "-1"], 2))
@example(case=(DUPLICATE_ROWS, ["gram", "--input", "{csv}", "--sigma", "1e200"], 2))
@example(case=(DUPLICATE_ROWS, ["gram", "--input", "{csv}", "--sigma", "1e-170"], 2))
@example(case=(DUPLICATE_ROWS, ["gram", "--input", "{csv}", "--sigma", "inf"], 2))
@example(case=(DUPLICATE_ROWS, ["cluster", "--input", "{csv}", "--k", "4", "--sigma", "1"], 0))
@example(case=(OPPOSITE_HUGE, ["gram", "--input", "{csv}", "--kernel", "linear"], 3))
@example(case=(OPPOSITE_HUGE, ["cluster", "--input", "{csv}", "--kernel", "linear", "--k", "2"], 3))
@example(case=(HUGE_EIGENVALUE, ["cluster", "--input", "{csv}", "--kernel", "linear", "--k", "2"], 3))
@example(case=(HUGE_SUM, ["cluster", "--input", "{csv}", "--kernel", "linear", "--k", "2"], 3))
def test_no_input_gives_a_traceback(case):
    # Every run returns a documented exit code: no exception escapes, nothing warns.
    rows, argv, expected = case
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "in.csv"
        csv_path.write_text("".join(",".join(row) + "\n" for row in rows))
        argv = [str(csv_path) if arg == "{csv}" else arg for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main(argv + ["--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3, 4), stderr.getvalue()
    if expected is not None:
        assert code == expected, stderr.getvalue()
