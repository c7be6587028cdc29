"""Checks on the artifacts of one command, against the benchmark's own oracles.

``check(command, out, rc, datasets)`` raises ``VerifyError`` when the command
failed or wrote a wrong artifact, and otherwise returns the invariant-arm
clustering accuracy the command reported (``None`` for ``gram``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

RTOL = 1e-12


class VerifyError(Exception):
    """A command's exit code or artifacts are wrong."""


def oracle_gram(points: np.ndarray, sigma: float, inv: str | None) -> np.ndarray:
    """Closed-form Gaussian Gram from ``X @ X.T``.

    Sign invariance is the Gaussian on outer products xx':
    exp(-(|x|^4 + |y|^4 - 2<x,y>^2) / (2 sigma^2)).
    """
    inner = points @ points.T
    norms = np.diag(inner)
    if inv == "sign":
        inner, norms = inner**2, norms**2
    elif inv is not None:
        raise ValueError(f"no oracle for invariance {inv!r}")
    d2 = np.maximum(norms[:, None] + norms[None, :] - 2.0 * inner, 0.0)
    return np.exp(-d2 / (2.0 * sigma**2))


def accuracy(labels: np.ndarray, truth: np.ndarray) -> float:
    """Best one-to-one label matching rate."""
    size = int(max(labels.max(), truth.max())) + 1
    confusion = np.zeros((size, size), dtype=int)
    np.add.at(confusion, (labels, truth), 1)
    rows, cols = linear_sum_assignment(-confusion)
    return confusion[rows, cols].sum() / len(labels)


def read_labels(path: Path, n: int, k: int) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "index,label":
        raise VerifyError(f"{path}: missing header")
    if len(lines) != n + 1:
        raise VerifyError(f"{path}: {len(lines) - 1} rows, expected {n}")
    table = np.array([line.split(",") for line in lines[1:]], dtype=int)
    if table.shape != (n, 2) or not np.array_equal(table[:, 0], np.arange(n)):
        raise VerifyError(f"{path}: bad index column")
    labels = table[:, 1]
    if labels.min() < 0 or labels.max() >= k:
        raise VerifyError(f"{path}: labels outside [0, {k})")
    return labels


def _metrics(out: Path) -> dict:
    return json.loads((out / "metrics.json").read_text(encoding="utf-8"))


def _same_accuracy(reported, own: float, where: Path) -> float:
    if not isinstance(reported, float) or not math.isclose(reported, own, rel_tol=RTOL):
        raise VerifyError(f"{where}: reported accuracy {reported!r}, labels give {own!r}")
    return own


def check_gram(command: dict, out: Path, datasets: dict) -> None:
    points = datasets[command["input"]].points
    n = len(points)
    gram = np.loadtxt(out / "gram.csv", delimiter=",", ndmin=2)
    if gram.shape != (n, n):
        raise VerifyError(f"{out}/gram.csv: shape {gram.shape}, expected {(n, n)}")
    if not np.array_equal(gram, gram.T):
        raise VerifyError(f"{out}/gram.csv: not exactly symmetric")
    expected = oracle_gram(points, command["sigma"], command["inv"])
    bad = np.abs(gram - expected) > RTOL * np.abs(expected)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise VerifyError(
            f"{out}/gram.csv: entry ({i}, {j}) is {gram[i, j]!r}, oracle {expected[i, j]!r}"
        )
    psd = json.loads((out / "psd.json").read_text(encoding="utf-8"))
    trace = float(np.trace(gram))
    min_eig = float(np.linalg.eigvalsh(gram)[0])
    scale = max(trace, 1.0)
    if (
        psd["n_points"] != n
        or not math.isclose(psd["trace"], trace, rel_tol=RTOL)
        or abs(psd["min_eigenvalue"] - min_eig) > 1e-10 * scale
        or psd["passed"] != (min_eig >= -1e-8 * scale)
    ):
        raise VerifyError(f"{out}/psd.json disagrees with eigvalsh: min eigenvalue {min_eig!r}")


def check_cluster(command: dict, out: Path, datasets: dict) -> float:
    truth = datasets[command["input"]].labels
    labels = read_labels(out / "labels.csv", len(truth), command["k"])
    return _same_accuracy(_metrics(out).get("accuracy"), accuracy(labels, truth), out)


def check_exp(command: dict, out: Path) -> float:
    n, k = command["n"], command["k"]
    metrics = _metrics(out)
    truth = np.loadtxt(out / "dataset.csv", delimiter=",", ndmin=2)[:, -1].astype(int)
    if len(truth) != n:
        raise VerifyError(f"{out}/dataset.csv: {len(truth)} rows, expected {n}")
    labels = read_labels(out / "labels_invariant.csv", n, k)
    read_labels(out / "labels_baseline.csv", n, k)
    for figure in ("heatmap_invariant.svg", "scatter_invariant.svg"):
        if not (out / figure).read_text(encoding="utf-8").endswith("</svg>\n"):
            raise VerifyError(f"{out}/{figure}: incomplete SVG")
    return _same_accuracy(
        metrics["invariant"].get("accuracy"), accuracy(labels, truth), out
    )


def check(command: dict, out: Path, rc: int, datasets: dict) -> float | None:
    """Verify one executed command; see the module docstring."""
    if rc != 0:
        raise VerifyError(f"{' '.join(command['argv'])}: exit code {rc}")
    try:
        if command["check"] == "gram":
            check_gram(command, out, datasets)
            return None
        if command["check"] == "cluster":
            return check_cluster(command, out, datasets)
        return check_exp(command, out)
    except (OSError, ValueError, KeyError, TypeError) as err:
        # unreadable, unparsable or incomplete artifacts
        raise VerifyError(f"{out}: {type(err).__name__}: {err}") from err
