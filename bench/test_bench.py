"""The benchmark's own tests: corrupted artifacts count as failed operations,
and the smoke mode finds every named metric and span.

    python3 -m pytest bench/test_bench.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from invkern.cli import main  # noqa: E402


def execute(workload, tmp_path):
    """One pass of a tiny workload, run in this process."""
    datasets, commands, _ = workloads.make(workload, 3, tmp_path / "inputs", smoke=True)
    done = []
    for i, command in enumerate(commands):
        out = tmp_path / f"cmd{i}"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main([*command["argv"], "--out", str(out)])
        done.append({"out": str(out), "rc": rc})
    passes = [{"index": 0, "commands": done}]
    failures, _ = run.check_passes(commands, passes, datasets)
    assert failures == []
    return commands, passes, datasets


def failed_ops(commands, passes, datasets):
    return len(run.check_passes(commands, passes, datasets)[0])


@pytest.mark.parametrize("cell", [(0, 1), (2, 2)])
def test_one_corrupted_gram_entry_is_a_failed_op(tmp_path, cell):
    commands, passes, datasets = execute("gram-highdim", tmp_path)
    path = Path(passes[0]["commands"][0]["out"]) / "gram.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    i, j = cell
    rows[i][j] = repr(float(rows[i][j]) * (1 + 1e-9))
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    assert failed_ops(commands, passes, datasets) == 1


def test_symmetric_gram_corruption_fails_the_oracle(tmp_path):
    commands, passes, datasets = execute("gram-highdim", tmp_path)
    path = Path(passes[0]["commands"][1]["out"]) / "gram.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    rows[0][3] = rows[3][0] = repr(float(rows[0][3]) * (1 + 1e-9))
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    assert failed_ops(commands, passes, datasets) == 1


@pytest.mark.parametrize("workload, name", [
    ("cluster-lowdim", "labels.csv"),
    ("gram-highdim", "labels.csv"),
    ("presets", "labels_invariant.csv"),
])
def test_truncated_labels_file_is_a_failed_op(tmp_path, workload, name):
    commands, passes, datasets = execute(workload, tmp_path)
    index = next(i for i, c in enumerate(commands) if c["check"] != "gram")
    path = Path(passes[0]["commands"][index]["out"]) / name
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    assert failed_ops(commands, passes, datasets) == 1


def test_nonzero_exit_is_a_failed_op(tmp_path):
    commands, passes, datasets = execute("cluster-lowdim", tmp_path)
    passes[0]["commands"][0]["rc"] = 3
    assert failed_ops(commands, passes, datasets) == 1


def test_smoke_reports_every_metric_and_span():
    run.smoke()
