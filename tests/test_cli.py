"""CLI behavior: values, artifacts, exit codes, determinism."""

import json

import numpy as np
import pytest

from invkern import gen_xor, save_dataset
from invkern.cli import main


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

    def test_bare_rot_takes_order_from_m_flag(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--kernel", "gaussian", "--sigma", "2",
            "--inv", "rot", "--m", "2", "--x", "1,0", "--y=-1,0",
        )
        assert code == 0
        assert out.split("\n")[0] == "1"
        code, _, _ = run(
            capsys, "eval", "--kernel", "gaussian", "--sigma", "2",
            "--inv", "rot", "--x", "1,0", "--y", "0,1",
        )
        assert code == 2

    def test_malformed_vector_exits_2(self, capsys):
        code, _, err = run(
            capsys, "eval", "--kernel", "gaussian", "--sigma", "1",
            "--x", "1,,2", "--y", "1,2",
        )
        assert code == 2
        assert "column 2" in err

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
    ])
    @pytest.mark.filterwarnings("ignore::invkern.ChainCompatibilityWarning")
    def test_invalid_kernel_parameter_exits_2(self, capsys, flags, message):
        code, _, err = run(capsys, "eval", *flags, "--x", "1,2", "--y", "3,4")
        assert code == 2
        assert message in err

    def test_writes_json_record(self, capsys, tmp_path):
        out_dir = tmp_path / "record"
        code, _, _ = run(
            capsys, "eval", "--kernel", "linear", "--x", "1,2", "--y", "3,4",
            "--out", str(out_dir),
        )
        assert code == 0
        payload = json.loads((out_dir / "eval.json").read_text())
        assert payload["value"] == 11.0


class TestGram:
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
        expected = build_gram(data, KernelSpec(gaussian(1.5), SIGN)).values
        assert np.array_equal(reread, expected)

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

    def test_single_point_exits_2(self, capsys, tmp_path):
        csv_path = tmp_path / "one.csv"
        csv_path.write_text("1,2\n")
        code, _, err = run(
            capsys, "gram", "--input", str(csv_path), "--sigma", "1",
            "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert "at least two points" in err

    def test_missing_input_is_io_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "gram", "--input", str(tmp_path / "nope.csv"),
            "--kernel", "gaussian", "--sigma", "1", "--out", str(tmp_path / "o"),
        )
        assert code == 4


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

    def test_k_below_two_is_usage_error(self, capsys, tmp_path):
        data = gen_xor(4, 0.15, seed=0)
        csv_path = tmp_path / "pts.csv"
        save_dataset(data, csv_path)
        code, _, _ = run(
            capsys, "cluster", "--input", str(csv_path), "--k", "1",
            "--kernel", "gaussian", "--sigma", "1", "--out", str(tmp_path / "o"),
        )
        assert code == 2

    def test_k_above_point_count_is_usage_error(self, capsys, tmp_path):
        csv_path = tmp_path / "three.csv"
        csv_path.write_text("1,2\n3,4\n5,7\n")
        code, _, err = run(
            capsys, "cluster", "--input", str(csv_path), "--k", "5",
            "--kernel", "gaussian", "--sigma", "1", "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert "n_axes must be in [1, 3]" in err


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
