"""Dataset containers, experiment generators, CSV I/O, mixing estimation.

The generators mirror three clustering problems where per-point sign or
scale indeterminacies hide the class structure from plain kernels: the
XOR corner layout, high-dimensional two-class blobs with random sign
flips, and 2-D points scattered along k lines through the origin (the
geometry of sparse mixture coefficients in overcomplete source
separation).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateClusterError, FormatError, ParseError, ValidationError


@dataclass
class Dataset:
    """Points (one per row), optional integer labels, generator metadata."""

    points: np.ndarray
    labels: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.asarray(self.points)
        if self.points.ndim != 2 or self.points.dtype.kind not in "biufc":
            raise ValidationError("points must be a 2-D numeric array (one row per point)")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)
            if len(self.labels) != len(self.points):
                raise ValidationError("labels length must match point count")

    def __len__(self) -> int:
        return len(self.points)


def gen_xor(n_per_arm: int, spread: float, seed: int = 0) -> Dataset:
    """Four jittered corner blobs in the XOR layout.

    Class 0 sits on the equal-sign corners (1,1) and (-1,-1), class 1 on
    the opposite-sign corners, so negating any point moves it within its
    own class; only a sign-blind method can recover the labels.
    """
    if n_per_arm < 1:
        raise ValidationError("n_per_arm must be at least 1")
    if not spread > 0:
        raise ValidationError("spread must be positive")
    rng = np.random.default_rng(seed)
    corners = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    points = np.repeat(corners, n_per_arm, axis=0)
    points = points + spread * rng.standard_normal(points.shape)
    labels = np.repeat([0, 0, 1, 1], n_per_arm)
    meta = {"name": "xor", "n_per_arm": n_per_arm, "spread": spread, "seed": seed}
    return Dataset(points, labels, meta)


def gen_flipped_blobs(
    n_per_class: int,
    dim: int,
    separation: float = 6.0,
    noise: float = 0.09,
    flip_prob: float = 0.5,
    seed: int = 0,
) -> Dataset:
    """Two orthogonal-prototype blobs with independent per-point sign flips.

    Each class is a Gaussian blob around separation * u_c for a seeded
    orthonormal prototype pair (u_0, u_1); every point is then negated
    with probability ``flip_prob``.  Labels record the blob, never the
    flip, so flips are pure nuisance.
    """
    if dim < 2:
        raise ValidationError("dim must be at least 2")
    if not separation > 0:
        raise ValidationError("separation must be positive")
    if not 0.0 <= flip_prob <= 1.0:
        raise ValidationError("flip_prob must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, 2)))
    prototypes = basis.T
    blocks = [
        separation * prototypes[c] + noise * rng.standard_normal((n_per_class, dim))
        for c in range(2)
    ]
    points = np.vstack(blocks)
    flips = rng.random(len(points)) < flip_prob
    points[flips] *= -1.0
    labels = np.repeat([0, 1], n_per_class)
    meta = {
        "name": "flipped_blobs",
        "n_per_class": n_per_class,
        "dim": dim,
        "separation": separation,
        "noise": noise,
        "flip_prob": flip_prob,
        "seed": seed,
    }
    return Dataset(points, labels, meta)


def gen_directions(
    k: int,
    n_points: int,
    noise: float = 0.02,
    seed: int = 0,
):
    """2-D points scattered along k equally spaced lines through the origin.

    Each point is eps * r * d_c + eta with a uniform cluster c, random
    sign eps, lognormal radius r (mu 0, sigma 0.75), and isotropic jitter
    of scale ``noise``.  Returns (dataset, directions): the ground-truth
    unit directions, 10 degrees plus multiples of 180/k degrees,
    sign-canonical (first nonzero coordinate positive).
    """
    if k < 2:
        raise ValidationError("k must be at least 2")
    if n_points < k:
        raise ValidationError("n_points must be at least k")
    angle_offset_deg, mu, s = 10.0, 0.0, 0.75
    rng = np.random.default_rng(seed)
    angles = np.radians(angle_offset_deg + 180.0 * np.arange(k) / k)
    directions = np.column_stack([np.cos(angles), np.sin(angles)])
    directions = np.array([canonical_direction(d) for d in directions])
    clusters = rng.integers(k, size=n_points)
    signs = 2.0 * rng.integers(2, size=n_points) - 1.0
    radii = rng.lognormal(mu, s, size=n_points)
    jitter = noise * rng.standard_normal((n_points, 2))
    points = (signs * radii)[:, None] * directions[clusters] + jitter
    meta = {
        "name": "directions",
        "k": k,
        "n_points": n_points,
        "angle_offset_deg": angle_offset_deg,
        "scale_law": ["lognormal", mu, s],
        "noise": noise,
        "seed": seed,
        "directions": directions.tolist(),
    }
    return Dataset(points, clusters, meta), directions


def canonical_direction(v) -> np.ndarray:
    """Unit vector with its first nonzero coordinate positive."""
    v = np.asarray(v, dtype=float)
    # An overflowing norm is reported below, not warned.
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValidationError("cannot canonicalize the zero vector")
    if not np.isfinite(norm):
        raise ValidationError(f"cannot canonicalize a vector of non-finite norm {norm}")
    v = v / norm
    for component in v:
        if component != 0.0:
            return -v if component < 0 else v


def parse_cell(text: str, source, line, column) -> float:
    """One finite number from a CSV cell or vector component.

    ``source`` names the input in messages; ``line`` is None for
    single-line input.  Line and column numbers are 1-based.
    """
    where = f"column {column}" if line is None else f"line {line}, column {column}"
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"{source}: non-numeric cell {text!r} at {where}", line=line, column=column
        ) from None
    if not math.isfinite(value):
        raise ParseError(
            f"{source}: non-finite cell {text!r} at {where}", line=line, column=column
        )
    return value


# Labels must fit the int64 label array.
_LABEL_LIMIT = 2**63


def load_csv(path, has_labels: bool = False) -> Dataset:
    """Load a rectangular numeric CSV as a dataset.

    A header row is assumed only when *every* cell of the first row
    fails to parse as a number.  NaN and infinite cells are rejected.
    With ``has_labels`` the last column holds nonnegative integer
    labels below 2**63.  Line and column numbers in errors are 1-based;
    invalid UTF-8 is a FormatError naming its byte offset.

    numpy parses the file first.  Any file it rejects, or whose values
    break a rule above, goes through the cell loop, which alone reads
    headers, names a bad cell and accepts what only ``float()`` does
    (``1_000``, non-ASCII digits).  Both end in the same string-to-double
    conversion, so a file both accept loads to the same bits.
    """
    data = _load_with_numpy(path, has_labels)
    return data if data is not None else _load_cells(path, has_labels)


def _load_with_numpy(path, has_labels: bool) -> Dataset | None:
    """The dataset ``_load_cells`` gives, or None when numpy cannot tell it."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty file only warns
            # An open handle, not a path: numpy would also fetch URLs,
            # decompress and look for ``path + ".gz"``.
            with open(path, encoding="utf-8") as handle:
                values = np.loadtxt(
                    handle, delimiter=",", comments=None, quotechar='"', ndmin=2
                )
    except (ValueError, Warning):
        return None
    if values.size == 0 or not np.isfinite(values).all():
        return None
    labels = None
    if has_labels:
        labels = values[:, -1]
        if values.shape[1] < 2 or not (
            np.all(labels >= 0) and np.all(labels < _LABEL_LIMIT)
            and np.array_equal(labels, np.trunc(labels))
        ):
            return None
        # A column slice is strided; Gram bits must not depend on the layout.
        values = np.ascontiguousarray(values[:, :-1])
        labels = labels.astype(np.int64)
    return Dataset(values, labels, _csv_meta(path))


def _load_cells(path, has_labels: bool) -> Dataset:
    """``load_csv`` cell by cell: headers, and errors naming the bad cell."""
    reader = csv.reader(io.StringIO(_read_utf8(path), newline=""))
    try:
        raw = [(i + 1, row) for i, row in enumerate(reader) if row]
    except csv.Error as err:
        # For one, a cell past the csv module's field limit.  The limit is
        # process-wide state, so it stays as it is.
        line = reader.line_num
        raise FormatError(f"{path}: {err} at line {line}", line=line) from None
    if not raw:
        raise FormatError(f"{path}: empty file", line=1)
    first_line, first_row = raw[0]
    header = None
    if all(not _is_number(cell) for cell in first_row):
        header = [cell.strip() for cell in first_row]
        raw = raw[1:]
        if not raw:
            raise FormatError(f"{path}: no data rows after header", line=first_line)
    width = len(raw[0][1])
    if has_labels and width < 2:
        raise FormatError(f"{path}: need a feature column besides the labels", line=raw[0][0])
    rows = []
    labels = []
    for line, row in raw:
        if len(row) != width:
            raise FormatError(
                f"{path}: row at line {line} has {len(row)} cells, expected {width}",
                line=line,
            )
        values = [parse_cell(cell, path, line, col + 1) for col, cell in enumerate(row)]
        if has_labels:
            label = values[-1]
            if label != int(label) or not 0 <= label < _LABEL_LIMIT:
                raise ParseError(
                    f"{path}: label {row[-1]!r} at line {line} is not a nonnegative "
                    "integer below 2**63",
                    line=line,
                    column=width,
                )
            labels.append(int(label))
            values = values[:-1]
        rows.append(values)
    meta = _csv_meta(path)
    if header is not None:
        meta["header"] = header
    return Dataset(np.array(rows), np.array(labels) if has_labels else None, meta)


def _read_utf8(path) -> str:
    with open(path, "rb") as handle:
        content = handle.read()
    try:
        return content.decode("utf-8")
    except UnicodeDecodeError as err:
        raise FormatError(f"{path}: invalid UTF-8 at byte offset {err.start}") from None


def _csv_meta(path) -> dict:
    return {"name": os.path.splitext(os.path.basename(str(path)))[0], "source": str(path)}


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def save_dataset(data: Dataset, path) -> None:
    """Write points (+ label column) as CSV with a .meta.json sidecar.

    Floats are written with repr so a reload reproduces them exactly.
    """
    if np.iscomplexobj(data.points):
        raise ValidationError("CSV export supports real-valued datasets only")
    rows = (map(repr, row.tolist()) for row in data.points.astype(float, copy=False))
    if data.labels is not None:
        rows = ([*cells, str(label)] for cells, label in zip(rows, data.labels.tolist()))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    sidecar = os.path.splitext(str(path))[0] + ".meta.json"
    with open(sidecar, "w", encoding="utf-8") as handle:
        json.dump(data.meta, handle, sort_keys=True, indent=2)
        handle.write("\n")


def top_norm_select(data: Dataset, count: int) -> Dataset:
    """Keep the ``count`` largest-norm points, ties to the lower index.

    The surviving points keep their original relative order.
    """
    n = len(data)
    if not 0 <= count <= n:
        raise ValidationError(f"count must be in [0, {n}], got {count}")
    norms = np.linalg.norm(data.points, axis=1)
    ranked = np.lexsort((np.arange(n), -norms))
    chosen = np.sort(ranked[:count])
    labels = data.labels[chosen] if data.labels is not None else None
    meta = {**data.meta, "top_norm_count": count}
    return Dataset(data.points[chosen], labels, meta)


def best_matching(cost) -> np.ndarray:
    """Column matched to each row of a square cost matrix, least total cost.

    The Hungarian method (Kuhn 1955) in its O(n^3) shortest-augmenting-path
    form with dual potentials (Jonker and Volgenant 1987).  Plain numpy:
    importing scipy.optimize would add about 45 MB to every run's RSS.
    """
    cost = np.asarray(cost, dtype=float)
    n = len(cost)
    u = np.zeros(n + 1)  # row potentials; rows are numbered from 1
    v = np.zeros(n + 1)  # column potentials; column 0 roots each search
    row_of = np.zeros(n + 1, dtype=int)  # row matched to each column, 0 if none
    for row in range(1, n + 1):
        row_of[0] = row
        col = 0
        slack = np.full(n + 1, np.inf)
        prev = np.zeros(n + 1, dtype=int)
        used = np.zeros(n + 1, dtype=bool)
        while row_of[col] != 0:
            used[col] = True
            reduced = cost[row_of[col] - 1] - u[row_of[col]] - v[1:]
            closer = ~used[1:] & (reduced < slack[1:])
            slack[1:][closer] = reduced[closer]
            prev[1:][closer] = col
            open_slack = np.where(used, np.inf, slack)
            col = int(np.argmin(open_slack))
            delta = open_slack[col]
            u[row_of[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
        while col:
            row_of[col] = row_of[prev[col]]
            col = prev[col]
    matched = np.empty(n, dtype=int)
    matched[row_of[1:] - 1] = np.arange(n)
    return matched


@dataclass
class MixingEstimate:
    """Per-cluster scatter directions, a sign/scale-blind mixing estimate."""

    directions: np.ndarray
    per_cluster_counts: np.ndarray
    angle_errors_deg: np.ndarray | None = None


def angle_between_lines_deg(u, v) -> float:
    """Angle between the lines spanned by u and v, in [0, 90] degrees."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    cos = abs(float(u @ v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return math.degrees(math.acos(min(cos, 1.0)))


def estimate_mixing(data, labels, true_directions=None) -> MixingEstimate:
    """Dominant scatter direction of each cluster of 2-D points.

    The direction is the top eigenvector of sum x x', which ignores both
    per-point signs and global positive rescaling; that makes it the
    right centroid for data identified up to sign and scale.  With
    ``true_directions`` given, angle errors (mod 180) are reported under
    the best cluster-to-truth matching.
    """
    points = np.asarray(getattr(data, "points", data), dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValidationError("mixing estimation expects real 2-D data")
    labels = np.asarray(labels, dtype=int)
    k = int(labels.max()) + 1
    directions = np.zeros((k, 2))
    counts = np.zeros(k, dtype=int)
    for c in range(k):
        members = points[labels == c]
        counts[c] = len(members)
        if counts[c] < 2:
            raise DegenerateClusterError(f"cluster {c} has {counts[c]} point(s)")
        scatter = members.T @ members
        _, vectors = np.linalg.eigh(scatter)
        directions[c] = canonical_direction(vectors[:, -1])
    errors = None
    if true_directions is not None:
        truth = np.asarray(true_directions, dtype=float)
        if len(truth) != k:
            raise ValidationError("ground truth must provide one direction per cluster")
        angles = np.array(
            [[angle_between_lines_deg(d, t) for t in truth] for d in directions]
        )
        errors = angles[np.arange(k), best_matching(angles)]
    return MixingEstimate(directions, counts, errors)
