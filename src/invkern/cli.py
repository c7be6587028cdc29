"""Command-line front end: eval, gram, cluster, and experiment presets.

Every command writes artifacts whose bytes depend only on the flags,
so reruns are diffable; ``cluster`` and ``exp`` use --seed, while
``eval`` and ``gram`` draw nothing at random and ignore it.  Exit code 0
is success; ``main`` takes every other code from
:func:`invkern.errors.exit_code`, and argparse exits 2 on a bad flag.
"""

from __future__ import annotations

import argparse
import json
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
    write_float_rows,
)
from .errors import FormatError, InvkernError, ParseError, exit_code
from .figures import heatmap_svg, scatter_svg
from .invariance import (
    PROJ,
    SIGN,
    KernelSpec,
    format_invariance,
    gram_blocks,
    kernel_label,
    kernel_triple,
    median_heuristic_sigma,
    parse_invariance,
    triple_value,
)
from .kernels import FAMILIES, BaseKernel
from .spectral import build_gram, check_psd, cluster_gram, clustering_accuracy

def _parse_vector(text: str) -> np.ndarray:
    cells = enumerate(text.split(","), start=1)
    return np.array([parse_cell(cell, f"vector {text!r}", None, col) for col, cell in cells])


def _build_spec(args, points=None) -> KernelSpec:
    """Kernel spec from flags.  An RBF family takes --sigma, or without it
    the median pairwise distance in the invariant feature geometry, which
    needs data."""
    invariance = parse_invariance(args.inv) if args.inv else None
    family, sigma = args.kernel, args.sigma
    if FAMILIES[family] != "sigma":
        return KernelSpec(BaseKernel(family, degree=args.degree), invariance)
    if sigma is None:
        if points is None:
            raise ParseError(f"--sigma is required for the {family} kernel")
        sigma = median_heuristic_sigma(points, invariance)
    return KernelSpec(BaseKernel(family, sigma=sigma), invariance)


def _write_json(payload: dict, path: Path) -> None:
    # np.float64 is a float; numpy booleans, integers and arrays are not.
    text = json.dumps(payload, sort_keys=True, indent=2, default=lambda v: v.tolist())
    path.write_text(text + "\n", encoding="utf-8")


def _write_labels(labels, path: Path) -> None:
    lines = ["index,label"]
    lines.extend(f"{i},{int(label)}" for i, label in enumerate(labels))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_gram_csv(values: np.ndarray, path: Path) -> None:
    """Write a Gram as CSV text, ``repr`` per cell, so every float round-trips."""
    with open(path, "wb") as handle:
        write_float_rows(handle, values, "\n")


def _write_heatmap(gram: np.ndarray, labels, path: Path) -> None:
    order = None if labels is None else np.argsort(labels, kind="stable")
    with open(path, "wb") as handle:
        heatmap_svg(gram, handle, order=order)


def _write_scatter(points: np.ndarray, result, path: Path) -> None:
    shown = points if points.shape[1] == 2 else result.embedding[:, :2]
    path.write_text(scatter_svg(shown, result.labels), encoding="utf-8")


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


def cmd_eval(args) -> None:
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
    value = triple_value(spec.base, triple)
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
    print(json.dumps(record, sort_keys=True))
    if args.out:
        _write_json(record, _outdir(args) / "eval.json")


def cmd_gram(args) -> None:
    data = load_csv(args.input, has_labels=args.labeled)
    spec = _build_spec(args, points=data.points)
    gram = build_gram(data, spec)
    psd = check_psd(gram)
    out = _outdir(args)
    _write_gram_csv(gram, out / "gram.csv")
    _write_json(
        {
            "command": "gram",
            "kernel": kernel_label(spec),
            "n_points": len(gram),
            "min_eigenvalue": psd.min_eigenvalue,
            "trace": psd.trace,
            "passed": psd.passed,
        },
        out / "psd.json",
    )
    if args.svg:
        _write_heatmap(gram, data.labels, out / "gram.svg")
    print(f"gram {len(gram)}x{len(gram)} min_eig {psd.min_eigenvalue:.3e} "
          f"psd {'pass' if psd.passed else 'FAIL'}")


def _cluster_metrics(result, spec, data) -> dict:
    selected = [float(result.entropy_contributions[a]) for a in result.selected_axes]
    total = result.entropy_total
    metrics = {
        "kernel": kernel_label(spec),
        "n_points": len(result.labels),
        "seed": result.seed,
        "inertia": result.inertia,
        "entropy_total": result.entropy_total,
        "eigenpairs": len(result.entropy_contributions),
        "entropy_residual": result.entropy_total - float(np.sum(result.entropy_contributions)),
        "selected_axes": list(result.selected_axes),
        "entropy_selected": selected,
        # Undefined (null) when the Gram sums to exactly zero, as a linear
        # kernel does on points whose sum is the zero vector.
        "entropy_captured": sum(selected) / total if total != 0.0 else None,
    }
    if FAMILIES[spec.base.family] == "sigma":
        metrics["sigma"] = spec.base.sigma
    if data.labels is not None:
        metrics["accuracy"] = clustering_accuracy(result.labels, data.labels)
    return metrics


def cmd_cluster(args) -> None:
    if args.k < 2:
        raise ParseError("--k must be at least 2")
    data = load_csv(args.input, has_labels=args.labeled)
    if args.k > len(data):
        raise ParseError(f"--k {args.k} exceeds the point count {len(data)} of {args.input}")
    spec = _build_spec(args, points=data.points)
    # Row blocks of the Gram's upper part: no N x N array on the truncated path.
    result = cluster_gram(gram_blocks(data.points, spec), args.k, seed=args.seed)
    out = _outdir(args)
    _write_labels(result.labels, out / "labels.csv")
    metrics = {"command": "cluster", "k": args.k}
    metrics.update(_cluster_metrics(result, spec, data))
    _write_json(metrics, out / "metrics.json")
    if args.svg:
        _write_scatter(data.points, result, out / "scatter.svg")
    accuracy = metrics.get("accuracy")
    suffix = f" accuracy {accuracy:.4f}" if accuracy is not None else ""
    print(f"cluster k={args.k} inertia {result.inertia:.6g}{suffix}")


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
    if args.name != "digits" and (args.input or args.labeled):
        flag = "--input" if args.input else "--labeled"
        raise ParseError(f"{flag} applies to the digits preset only, not {args.name}")
    if args.labeled and not args.input:
        raise ParseError("--labeled needs --input: the generated digits data has its own labels")
    # Each preset names its data, its invariance, the default bandwidth of
    # each arm (invariant, then baseline) and its k.
    directions = None
    if args.name == "xor":
        data = gen_xor(50, 0.15, seed=args.seed)
        invariance, k = SIGN, 2
        defaults = [preset_bandwidth(data.points, arm) for arm in (SIGN, None)]
    elif args.name == "digits":
        if args.input:
            data = load_csv(args.input, has_labels=args.labeled)
        else:
            data = gen_flipped_blobs(49, 256, flip_prob=0.5, seed=args.seed)
        invariance, k, defaults = SIGN, 2, [22.0, 22.0]
    else:
        raw, directions = gen_directions(6, 400, seed=args.seed)
        data = top_norm_select(raw, 270)
        invariance, k, defaults = PROJ, 6, [0.1, 0.1]
    # One rule for both arms: --sigma when given, else the preset's defaults.
    sigmas = defaults if args.sigma is None else [args.sigma, args.sigma]
    spec_inv, spec_base = (
        KernelSpec(BaseKernel("gaussian", sigma=sigma), arm)
        for arm, sigma in zip((invariance, None), sigmas)
    )
    return data, spec_inv, spec_base, k, directions


def cmd_experiment(args) -> None:
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
    labeled = data.labels is not None
    if labeled:
        inv_acc, base_acc = (metrics[arm]["accuracy"] for arm in ("invariant", "baseline"))
        metrics["accuracy_gap"] = inv_acc - base_acc
    if directions is not None:
        estimate = estimate_mixing(data, result_inv.labels, true_directions=directions)
        metrics["mixing"] = {
            "directions": estimate.directions,
            "per_cluster_counts": estimate.per_cluster_counts,
            "angle_errors_deg": estimate.angle_errors_deg,
            "max_angle_error_deg": estimate.angle_errors_deg.max(),
        }
    _write_json(metrics, out / "metrics.json")
    _write_labels(result_inv.labels, out / "labels_invariant.csv")
    _write_labels(result_base.labels, out / "labels_baseline.csv")

    if args.svg:
        _write_heatmap(gram_inv, result_inv.labels, out / "heatmap_invariant.svg")
        _write_scatter(data.points, result_inv, out / "scatter_invariant.svg")

    if labeled:
        print(f"experiment {args.name}: invariant accuracy {inv_acc:.4f}, "
              f"baseline accuracy {base_acc:.4f}, gap {inv_acc - base_acc:+.4f}")
    else:
        print(f"experiment {args.name}: done (no ground-truth labels)")


def _seed(text: str) -> int:
    # numpy rejects negative seeds; argparse reports either error as a usage error.
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {text}")
    return int(text)


def _add_kernel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel",
        choices=tuple(FAMILIES),
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


def _add_seed_flag(parser: argparse.ArgumentParser, used: bool) -> None:
    help_text = "random seed (default 0)" if used else "unused; kept for uniformity"
    parser.add_argument("--seed", type=_seed, default=0, help=help_text)


def _add_io_flags(parser: argparse.ArgumentParser, input_required: bool, seed_used: bool) -> None:
    parser.add_argument("--input", required=input_required, help="input dataset CSV")
    parser.add_argument(
        "--labeled", action="store_true",
        help="treat the last CSV column as integer labels",
    )
    parser.add_argument("--out", default="out", help="output directory")
    _add_seed_flag(parser, seed_used)
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
    _add_seed_flag(p_eval, used=False)
    p_eval.set_defaults(func=cmd_eval)

    p_gram = sub.add_parser("gram", help="Gram matrix, PSD report, heatmap")
    _add_kernel_flags(p_gram)
    _add_io_flags(p_gram, input_required=True, seed_used=False)
    p_gram.set_defaults(func=cmd_gram)

    p_cluster = sub.add_parser("cluster", help="spectral clustering of a CSV dataset")
    _add_kernel_flags(p_cluster)
    _add_io_flags(p_cluster, input_required=True, seed_used=True)
    p_cluster.add_argument("--k", type=int, required=True, help="number of clusters")
    p_cluster.set_defaults(func=cmd_cluster)

    p_exp = sub.add_parser("exp", help="run a preset experiment with its baseline")
    p_exp.add_argument("name", choices=("xor", "digits", "flutes"), help="preset name")
    p_exp.add_argument("--sigma", type=float, default=None, help="override bandwidth")
    _add_io_flags(p_exp, input_required=False, seed_used=True)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except (InvkernError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
