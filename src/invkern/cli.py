"""Command-line front end: eval, gram, cluster, and experiment presets.

Every command honors --seed and writes artifacts whose bytes depend
only on the flags, so reruns are diffable.  Exit codes: 0 success,
2 usage or parse failure, 3 numerical failure (each as the error class's
``exit_code``), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from .data import (
    estimate_mixing,
    gen_directions,
    gen_flipped_blobs,
    gen_xor,
    load_csv,
    parse_cell,
    save_dataset,
    top_norm_select,
)
from .errors import FormatError, InvkernError, ParseError
from .figures import heatmap_svg, scatter_svg
from .invariance import (
    PROJ,
    SIGN,
    KernelSpec,
    format_invariance,
    kernel_label,
    kernel_triple,
    median_heuristic_sigma,
    parse_invariance,
)
from .kernels import BaseKernel, eval_base
from .spectral import build_gram, check_psd, cluster_gram, clustering_accuracy

EXIT_OK = 0
EXIT_IO = 4


def _parse_vector(text: str) -> np.ndarray:
    cells = enumerate(text.split(","), start=1)
    return np.array([parse_cell(cell, f"vector {text!r}", None, col) for col, cell in cells])


def _build_spec(args, points=None) -> KernelSpec:
    """Kernel spec from flags; unspecified RBF sigma falls back to the
    median pairwise distance in the invariant feature geometry when data
    is available."""
    inv_text = args.inv
    if inv_text and getattr(args, "m", None):
        # --m fills in the order of any bare "rot" token
        inv_text = re.sub(r"\brot\b(?!:)", f"rot:{args.m}", inv_text, flags=re.IGNORECASE)
    invariance = parse_invariance(inv_text) if inv_text else None
    family = args.kernel
    if family in ("poly", "polyhom"):
        base = BaseKernel(family, degree=args.degree)
    elif family in ("gaussian", "laplace"):
        sigma = args.sigma
        if sigma is None:
            if points is None:
                raise ParseError(f"--sigma is required for the {family} kernel")
            sigma = median_heuristic_sigma(points, invariance)
        base = BaseKernel(family, sigma=sigma)
    else:
        base = BaseKernel("linear")
    return KernelSpec(base, invariance)


def _json_ready(value):
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return _json_ready(value.tolist())
    return value


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(
        json.dumps(_json_ready(payload), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


def _write_labels(labels, path: Path) -> None:
    lines = ["index,label"]
    lines.extend(f"{i},{int(label)}" for i, label in enumerate(labels))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_gram_csv(values: np.ndarray, path: Path) -> None:
    lines = [",".join(repr(float(v)) for v in row) for row in values]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _triple_record(triple) -> dict:
    return {
        "sxx": float(triple.sxx),
        "sxy": [float(np.real(triple.sxy)), float(np.imag(triple.sxy))],
        "syy": float(triple.syy),
    }


def cmd_eval(args) -> int:
    if args.input:
        data = load_csv(args.input)
        if len(data) != 2:
            raise FormatError(f"{args.input}: eval expects exactly 2 rows, got {len(data)}")
        x, y = data.points
    else:
        if not (args.x and args.y):
            raise ParseError("provide --x and --y, or --input with two rows")
        x = _parse_vector(args.x)
        y = _parse_vector(args.y)
    spec = _build_spec(args)
    triple = kernel_triple(spec, x, y)
    value = eval_base(spec.base, triple)
    record = {
        "command": "eval",
        "kernel": kernel_label(spec),
        "invariance": format_invariance(spec.invariance) if spec.invariance else None,
        "x": [float(v) for v in x],
        "y": [float(v) for v in y],
        "triple": _triple_record(triple),
        "value": value,
    }
    print(f"{value:.17g}")
    print(json.dumps(_json_ready(record), sort_keys=True))
    if args.out:
        _write_json(record, _outdir(args) / "eval.json")
    return EXIT_OK


def cmd_gram(args) -> int:
    data = load_csv(args.input, has_labels=args.labeled)
    spec = _build_spec(args, points=data.points)
    gram = build_gram(data, spec)
    out = _outdir(args)
    _write_gram_csv(gram.values, out / "gram.csv")
    min_eigenvalue, passed = check_psd(gram)
    _write_json(
        {
            "command": "gram",
            "kernel": kernel_label(spec),
            "n_points": gram.point_count,
            "min_eigenvalue": min_eigenvalue,
            "trace": float(np.trace(gram.values)),
            "passed": passed,
        },
        out / "psd.json",
    )
    if args.svg:
        order = (
            np.argsort(data.labels, kind="stable")
            if data.labels is not None
            else np.arange(len(data))
        )
        reordered = gram.values[np.ix_(order, order)]
        (out / "gram.svg").write_text(heatmap_svg(reordered), encoding="utf-8")
    print(f"gram {gram.point_count}x{gram.point_count} min_eig {min_eigenvalue:.3e} "
          f"psd {'pass' if passed else 'FAIL'}")
    return EXIT_OK


def _cluster_metrics(result, spec, data) -> dict:
    metrics = {
        "kernel": kernel_label(spec),
        "n_points": len(result.labels),
        "seed": result.seed,
        "inertia": result.inertia,
        "entropy_total": result.entropy_total,
        "selected_axes": list(result.selected_axes),
        "entropy_selected": [float(result.entropy_contributions[a]) for a in result.selected_axes],
        "degenerate": result.degenerate,
    }
    if spec.base.family in ("gaussian", "laplace"):
        metrics["sigma"] = spec.base.sigma
    if data.labels is not None:
        metrics["accuracy"] = clustering_accuracy(result.labels, data.labels)
    return metrics


def cmd_cluster(args) -> int:
    if args.k < 2:
        raise ParseError("--k must be at least 2")
    data = load_csv(args.input, has_labels=args.labeled)
    spec = _build_spec(args, points=data.points)
    gram = build_gram(data, spec)
    result = cluster_gram(gram, args.k, seed=args.seed)
    out = _outdir(args)
    _write_labels(result.labels, out / "labels.csv")
    metrics = {"command": "cluster", "k": args.k}
    metrics.update(_cluster_metrics(result, spec, data))
    _write_json(metrics, out / "metrics.json")
    if args.svg:
        points = data.points if data.points.shape[1] == 2 else result.embedding[:, :2]
        (out / "scatter.svg").write_text(
            scatter_svg(points, result.labels), encoding="utf-8"
        )
    accuracy = metrics.get("accuracy")
    suffix = f" accuracy {accuracy:.4f}" if accuracy is not None else ""
    print(f"cluster k={args.k} inertia {result.inertia:.6g}{suffix}")
    return EXIT_OK


# Preset bandwidth: a quarter of the median pairwise distance in the
# kernel's own feature geometry.  Between-cluster affinities must stay
# negligible against within-cluster ones for the entropy ranking to keep
# one axis per cluster on balanced data; the plain median is too wide.
_MEDIAN_CALIBRATION = 0.25


def preset_bandwidth(points, invariance) -> float:
    """The bandwidth rule the experiment presets use when --sigma is absent."""
    return _MEDIAN_CALIBRATION * median_heuristic_sigma(points, invariance)


def _experiment_setup(args):
    """Dataset plus matched invariant/baseline kernel specs for a preset."""
    seed = args.seed
    if args.name == "xor":
        data = gen_xor(50, 0.15, seed=seed)
        sigma_inv = args.sigma or preset_bandwidth(data.points, SIGN)
        sigma_base = args.sigma or preset_bandwidth(data.points, None)
        spec_inv = KernelSpec(BaseKernel("gaussian", sigma=sigma_inv), SIGN)
        spec_base = KernelSpec(BaseKernel("gaussian", sigma=sigma_base))
        return data, spec_inv, spec_base, 2, None
    if args.name == "digits":
        if args.input:
            data = load_csv(args.input, has_labels=args.labeled)
        else:
            data = gen_flipped_blobs(49, 256, flip_prob=0.5, seed=seed)
        sigma = args.sigma or 22.0
        spec_inv = KernelSpec(BaseKernel("gaussian", sigma=sigma), SIGN)
        spec_base = KernelSpec(BaseKernel("gaussian", sigma=sigma))
        return data, spec_inv, spec_base, 2, None
    raw, directions = gen_directions(6, 400, seed=seed)
    data = top_norm_select(raw, 270)
    sigma = args.sigma or 0.1
    spec_inv = KernelSpec(BaseKernel("gaussian", sigma=sigma), PROJ)
    spec_base = KernelSpec(BaseKernel("gaussian", sigma=sigma))
    return data, spec_inv, spec_base, 6, directions


def cmd_experiment(args) -> int:
    data, spec_inv, spec_base, k, directions = _experiment_setup(args)
    out = _outdir(args)
    save_dataset(data, out / "dataset.csv")

    gram_inv = build_gram(data, spec_inv)
    result_inv = cluster_gram(gram_inv, k, seed=args.seed)
    gram_base = build_gram(data, spec_base)
    result_base = cluster_gram(gram_base, k, seed=args.seed)

    metrics = {
        "command": "experiment",
        "experiment": args.name,
        "seed": args.seed,
        "k": k,
        "n_points": len(data),
        "invariant": _cluster_metrics(result_inv, spec_inv, data),
        "baseline": _cluster_metrics(result_base, spec_base, data),
    }
    inv_acc = metrics["invariant"].get("accuracy")
    base_acc = metrics["baseline"].get("accuracy")
    if inv_acc is not None and base_acc is not None:
        metrics["accuracy_gap"] = inv_acc - base_acc
    if directions is not None:
        estimate = estimate_mixing(data, result_inv.labels, true_directions=directions)
        metrics["mixing"] = {
            "directions": estimate.directions.tolist(),
            "per_cluster_counts": estimate.per_cluster_counts.tolist(),
            "angle_errors_deg": estimate.angle_errors_deg.tolist(),
            "max_angle_error_deg": float(estimate.angle_errors_deg.max()),
        }
    _write_json(metrics, out / "metrics.json")
    _write_labels(result_inv.labels, out / "labels_invariant.csv")
    _write_labels(result_base.labels, out / "labels_baseline.csv")

    if args.svg:
        order = np.argsort(result_inv.labels, kind="stable")
        reordered = gram_inv.values[np.ix_(order, order)]
        (out / "heatmap_invariant.svg").write_text(heatmap_svg(reordered), encoding="utf-8")
        points = data.points if data.points.shape[1] == 2 else result_inv.embedding[:, :2]
        (out / "scatter_invariant.svg").write_text(
            scatter_svg(points, result_inv.labels), encoding="utf-8"
        )

    if inv_acc is not None and base_acc is not None:
        print(f"experiment {args.name}: invariant accuracy {inv_acc:.4f}, "
              f"baseline accuracy {base_acc:.4f}, gap {inv_acc - base_acc:+.4f}")
    else:
        print(f"experiment {args.name}: done (no ground-truth labels)")
    return EXIT_OK


def _add_kernel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel",
        choices=("linear", "gaussian", "laplace", "poly", "polyhom"),
        default="gaussian",
        help="base kernel family (default: gaussian)",
    )
    parser.add_argument("--sigma", type=float, default=None, help="RBF bandwidth")
    parser.add_argument("--degree", type=int, default=2, help="polynomial degree")
    parser.add_argument(
        "--inv",
        default=None,
        help="invariance: sign, rot:m, phase, scale, proj, chain(a,b)",
    )
    parser.add_argument(
        "--m", type=int, default=None,
        help="rotation order for a bare 'rot' in --inv",
    )


def _add_io_flags(parser: argparse.ArgumentParser, input_required: bool) -> None:
    parser.add_argument("--input", required=input_required, help="input dataset CSV")
    parser.add_argument(
        "--labeled", action="store_true",
        help="treat the last CSV column as integer labels",
    )
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument("--svg", action="store_true", help="also write SVG figures")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invkern",
        description="group-invariant kernels, their verification, and spectral clustering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one kernel value")
    _add_kernel_flags(p_eval)
    p_eval.add_argument("--x", help="first point, e.g. 1,0")
    p_eval.add_argument("--y", help="second point, e.g. 0,1")
    p_eval.add_argument("--input", default=None, help="2-row CSV instead of --x/--y")
    p_eval.add_argument("--out", default=None, help="optional output directory")
    p_eval.add_argument("--seed", type=int, default=0, help="unused; kept for uniformity")
    p_eval.set_defaults(func=cmd_eval)

    p_gram = sub.add_parser("gram", help="Gram matrix, PSD report, heatmap")
    _add_kernel_flags(p_gram)
    _add_io_flags(p_gram, input_required=True)
    p_gram.set_defaults(func=cmd_gram)

    p_cluster = sub.add_parser("cluster", help="spectral clustering of a CSV dataset")
    _add_kernel_flags(p_cluster)
    _add_io_flags(p_cluster, input_required=True)
    p_cluster.add_argument("--k", type=int, required=True, help="number of clusters")
    p_cluster.set_defaults(func=cmd_cluster)

    p_exp = sub.add_parser("exp", help="run a preset experiment with its baseline")
    p_exp.add_argument("name", choices=("xor", "digits", "flutes"), help="preset name")
    p_exp.add_argument("--sigma", type=float, default=None, help="override bandwidth")
    _add_io_flags(p_exp, input_required=False)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvkernError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
