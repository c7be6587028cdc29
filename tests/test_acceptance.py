"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

from time import perf_counter

import numpy as np

from invkern import (
    PHASE,
    PROJ,
    SCALE,
    SIGN,
    KernelSpec,
    build_gram,
    chain,
    check_invariance,
    check_psd,
    cluster_gram,
    clustering_accuracy,
    estimate_mixing,
    eval_kernel,
    gaussian,
    gen_directions,
    gen_flipped_blobs,
    gen_xor,
    invariant_inner,
    laplace,
    linear,
    poly,
    polyhom,
    renyi_entropy,
    rotation,
    top_norm_select,
)
from invkern.cli import main, preset_bandwidth
from oracles import frobenius_inner, quotient_map_oracle

# Grams produced while running criteria 7-9, re-checked by criterion 10.
_EXPERIMENT_GRAMS = {}


def _report(num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" {detail}" if detail else ""
    print(f"[criterion {num:02d}] {name}: {status} ({elapsed:.2f}s){tail}")


def _complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_criterion_01_sign_invariant_gaussian_equals_outer_product_form():
    start = perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for sigma in (0.5, 1.0, 22.0):
        spec = KernelSpec(gaussian(sigma), SIGN)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            explicit = np.exp(
                -np.sum((np.outer(x, x) - np.outer(y, y)) ** 2) / (2.0 * sigma**2)
            )
            worst = max(worst, abs(eval_kernel(spec, x, y) - explicit))
    elapsed = perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(1, "sign-invariant Gaussian matrix form", ok, elapsed, f"max dev {worst:.2e}")
    assert worst <= 1e-10
    assert elapsed < 1.0


def _norm(v):
    return float(np.sqrt(np.real(np.vdot(v, v))))


def _closed_forms(inv_name, base_name):
    """Hand-written closed forms, independent of the triple machinery."""

    def inner(x, y):
        return complex(np.vdot(y, x))

    def rbf(arg):
        return float(np.exp(arg))

    if inv_name in ("rot2", "rot3"):
        m = 2 if inv_name == "rot2" else 3

        def k(x, y):
            s = inner(x, y) ** m
            if base_name == "linear":
                return float(np.real(s))
            if base_name == "poly":
                return (float(np.real(s)) + 1.0) ** 2
            return rbf(
                -(_norm(x) ** (2 * m) + _norm(y) ** (2 * m) - (s + np.conj(s)).real)
                / 2.0
            )

        return k
    if inv_name == "phase":

        def k(x, y):
            s = abs(inner(x, y)) ** 2
            if base_name == "linear":
                return s
            if base_name == "poly":
                return (s + 1.0) ** 2
            return rbf(-(_norm(x) ** 4 + _norm(y) ** 4 - 2.0 * s) / 2.0)

        return k
    if inv_name == "scale":

        def k(x, y):
            s = inner(x, y).real / (_norm(x) * _norm(y))
            if base_name == "linear":
                return s
            if base_name == "poly":
                return (s + 1.0) ** 2
            return rbf(s - 1.0)

        return k

    def k(x, y):
        s = abs(inner(x, y)) ** 2 / (_norm(x) ** 2 * _norm(y) ** 2)
        if base_name == "linear":
            return s
        if base_name == "poly":
            return (s + 1.0) ** 2
        return rbf(s - 1.0)

    return k


def test_criterion_02_closed_form_catalog():
    start = perf_counter()
    rng = np.random.default_rng(101)
    cases = {
        "rot2": (SIGN, False),
        "rot3": (rotation(3), True),
        "phase": (PHASE, True),
        "scale": (SCALE, False),
        "proj": (PROJ, True),
    }
    bases = {"linear": linear(), "poly": poly(2), "gaussian": gaussian(1.0)}
    worst = 0.0
    for inv_name, (inv, needs_complex) in cases.items():
        for base_name, base in bases.items():
            oracle = _closed_forms(inv_name, base_name)
            spec = KernelSpec(base, inv)
            for _ in range(100):
                n = int(rng.integers(2, 6))
                if needs_complex:
                    x, y = _complex(rng, n), _complex(rng, n)
                else:
                    x, y = rng.standard_normal(n), rng.standard_normal(n)
                got = eval_kernel(spec, x, y)
                want = oracle(x, y)
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    elapsed = perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 2.0
    _report(2, "closed-form catalog", ok, elapsed, f"max rel dev {worst:.2e}")
    assert worst <= 1e-12
    assert elapsed < 2.0


def test_criterion_03_group_invariance_and_negative_control():
    start = perf_counter()
    rng = np.random.default_rng(102)
    real = rng.standard_normal((50, 4))
    cplx = _complex(rng, (50, 4))
    combos = [
        (SIGN, real), (rotation(3), cplx), (PHASE, cplx),
        (SCALE, real), (PROJ, real), (PROJ, cplx),
        (chain(SCALE, SIGN), real), (chain(SIGN, SCALE), real),
    ]
    bases = [linear(), gaussian(1.3), laplace(1.1), poly(2), polyhom(2)]
    failures = []
    for inv, pts in combos:
        for base in bases:
            report = check_invariance(KernelSpec(base, inv), pts, 16, seed=7)
            if not report.passed:
                failures.append((inv.kind, base.family, report.max_deviation))
    control = check_invariance(
        KernelSpec(gaussian(1.0)), real, 16, seed=7, group=SIGN
    )
    if control.passed:
        failures.append(("control", "gaussian", control.max_deviation))
    elapsed = perf_counter() - start
    ok = not failures and elapsed < 5.0
    _report(3, "G-invariance with falsifying control", ok, elapsed)
    assert not failures, failures
    assert elapsed < 5.0


def test_criterion_04_positive_semidefiniteness():
    start = perf_counter()
    rng = np.random.default_rng(103)
    real = 0.7 * rng.standard_normal((60, 8))
    cplx = _complex(rng, (60, 8), scale=0.5)
    combos = [
        (SIGN, real), (rotation(3), cplx), (PHASE, cplx),
        (SCALE, real), (PROJ, real), (chain(SCALE, SIGN), real),
    ]
    bases = [linear(), gaussian(2.0), laplace(2.0), poly(2), polyhom(2)]
    failures = []
    for inv, pts in combos:
        for base in bases:
            gram = build_gram(pts, KernelSpec(base, inv))
            psd = check_psd(gram)
            if not psd.passed:
                failures.append((inv.kind, base.family, psd.min_eigenvalue))
    elapsed = perf_counter() - start
    ok = not failures and elapsed < 10.0
    _report(4, "Gram positive semidefiniteness", ok, elapsed)
    assert not failures, failures
    assert elapsed < 10.0


def test_criterion_05_explicit_feature_oracles():
    start = perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    for m in (2, 3):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            x, y = _complex(rng, n), _complex(rng, n)
            explicit = frobenius_inner(
                quotient_map_oracle(rotation(m), x), quotient_map_oracle(rotation(m), y)
            )
            trick = invariant_inner(rotation(m), x, y)
            worst = max(worst, abs(trick - explicit) / (1.0 + abs(trick)))
    for _ in range(100):
        n = int(rng.integers(2, 7))
        x, y = _complex(rng, n), _complex(rng, n)
        explicit = frobenius_inner(
            quotient_map_oracle(PHASE, x), quotient_map_oracle(PHASE, y)
        )
        trick = invariant_inner(PHASE, x, y)
        worst = max(worst, abs(trick - explicit) / (1.0 + abs(trick)))
    elapsed = perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 2.0
    _report(5, "trick equals explicit quotient features", ok, elapsed, f"max rel dev {worst:.2e}")
    assert worst <= 1e-9
    assert elapsed < 2.0


def test_criterion_06_chain_commutativity():
    start = perf_counter()
    rng = np.random.default_rng(105)
    specs = [
        KernelSpec(gaussian(1.0), chain(SCALE, SIGN)),
        KernelSpec(gaussian(1.0), chain(SIGN, SCALE)),
        KernelSpec(gaussian(1.0), PROJ),
    ]
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        values = [eval_kernel(s, x, y) for s in specs]
        worst = max(worst, max(values) - min(values))
    elapsed = perf_counter() - start
    ok = worst <= 1e-12
    _report(6, "chain order does not matter", ok, elapsed, f"max spread {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_07_xor_experiment():
    start = perf_counter()
    data = gen_xor(50, 0.15, seed=0)
    sigma_inv = preset_bandwidth(data.points, SIGN)
    sigma_base = preset_bandwidth(data.points, None)
    spec_inv = KernelSpec(gaussian(sigma_inv), SIGN)
    spec_base = KernelSpec(gaussian(sigma_base))
    gram_inv = build_gram(data, spec_inv)
    gram_base = build_gram(data, spec_base)
    _EXPERIMENT_GRAMS["xor_invariant"] = gram_inv
    _EXPERIMENT_GRAMS["xor_baseline"] = gram_base
    acc_inv = clustering_accuracy(cluster_gram(gram_inv, 2, seed=0).labels, data.labels)
    acc_base = clustering_accuracy(cluster_gram(gram_base, 2, seed=0).labels, data.labels)
    elapsed = perf_counter() - start
    ok = acc_inv == 1.0 and acc_base <= 0.80 and elapsed < 5.0
    _report(7, "XOR experiment", ok, elapsed, f"invariant {acc_inv:.3f} baseline {acc_base:.3f}")
    assert acc_inv == 1.0
    assert acc_base <= 0.80
    assert elapsed < 5.0


def test_criterion_08_flipped_digits_surrogate():
    start = perf_counter()
    acc_inv, acc_base = [], []
    for seed in range(10):
        data = gen_flipped_blobs(49, 256, flip_prob=0.5, seed=seed)
        spec_inv = KernelSpec(gaussian(22.0), SIGN)
        spec_base = KernelSpec(gaussian(22.0))
        gram_inv = build_gram(data, spec_inv)
        gram_base = build_gram(data, spec_base)
        _EXPERIMENT_GRAMS[f"digits_invariant_{seed}"] = gram_inv
        _EXPERIMENT_GRAMS[f"digits_baseline_{seed}"] = gram_base
        acc_inv.append(
            clustering_accuracy(cluster_gram(gram_inv, 2, seed=seed).labels, data.labels)
        )
        acc_base.append(
            clustering_accuracy(cluster_gram(gram_base, 2, seed=seed).labels, data.labels)
        )
    mean_inv = float(np.mean(acc_inv))
    mean_base = float(np.mean(acc_base))
    elapsed = perf_counter() - start
    ok = mean_inv >= 0.98 and mean_base <= 0.75 and elapsed < 30.0
    _report(8, "sign-flipped digits surrogate", ok, elapsed,
            f"invariant mean {mean_inv:.3f} baseline mean {mean_base:.3f}")
    assert mean_inv >= 0.98
    assert mean_base <= 0.75
    assert elapsed < 30.0


def test_criterion_09_flutes_surrogate():
    start = perf_counter()
    raw, directions = gen_directions(6, 400, seed=0)
    data = top_norm_select(raw, 270)
    spec = KernelSpec(gaussian(0.1), PROJ)
    gram = build_gram(data, spec)
    _EXPERIMENT_GRAMS["flutes_invariant"] = gram
    result = cluster_gram(gram, 6, seed=0)
    accuracy = clustering_accuracy(result.labels, data.labels)

    labels = data.labels
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(len(labels), dtype=bool)
    within = float(gram[same & off_diag].mean())
    between = float(gram[~same].mean())

    estimate = estimate_mixing(data, result.labels, true_directions=directions)
    max_err = float(estimate.angle_errors_deg.max())
    elapsed = perf_counter() - start
    ok = (
        accuracy >= 0.95
        and within >= 3.0 * between
        and max_err <= 2.0
        and elapsed < 60.0
    )
    _report(9, "flutes overcomplete-separation surrogate", ok, elapsed,
            f"acc {accuracy:.3f} block ratio {within / max(between, 1e-300):.1e} "
            f"max angle err {max_err:.3f} deg")
    assert accuracy >= 0.95
    assert within >= 3.0 * between
    assert max_err <= 2.0
    assert elapsed < 60.0


def test_criterion_10_entropy_conservation():
    start = perf_counter()
    if not _EXPERIMENT_GRAMS:
        # isolated run: rebuild the seed-0 experiment Grams
        xor = gen_xor(50, 0.15, seed=0)
        _EXPERIMENT_GRAMS["xor_invariant"] = build_gram(
            xor, KernelSpec(gaussian(preset_bandwidth(xor.points, SIGN)), SIGN)
        )
        digits = gen_flipped_blobs(49, 256, flip_prob=0.5, seed=0)
        _EXPERIMENT_GRAMS["digits_invariant_0"] = build_gram(
            digits, KernelSpec(gaussian(22.0), SIGN)
        )
        flutes = top_norm_select(gen_directions(6, 400, seed=0)[0], 270)
        _EXPERIMENT_GRAMS["flutes_invariant"] = build_gram(
            flutes, KernelSpec(gaussian(0.1), PROJ)
        )
    worst = 0.0
    for name, gram in _EXPERIMENT_GRAMS.items():
        total, contributions = renyi_entropy(gram)
        worst = max(worst, abs(contributions.sum() - total))
    elapsed = perf_counter() - start
    ok = worst <= 1e-9
    _report(10, "entropy decomposition conservation", ok, elapsed,
            f"{len(_EXPERIMENT_GRAMS)} grams, max dev {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_11_gram_invariance_under_per_point_corruption():
    start = perf_counter()
    rng = np.random.default_rng(106)
    data = gen_flipped_blobs(30, 16, flip_prob=0.0, seed=11)
    flips = np.where(rng.random(len(data)) < 0.5, -1.0, 1.0)[:, None]
    spec = KernelSpec(gaussian(3.0), SIGN)
    gram_clean = build_gram(data.points, spec)
    gram_flipped = build_gram(data.points * flips, spec)
    entry_dev = float(np.max(np.abs(gram_clean - gram_flipped)))
    labels_clean = cluster_gram(gram_clean, 2, seed=4).labels
    labels_flipped = cluster_gram(gram_flipped, 2, seed=4).labels
    identical = bool(np.array_equal(labels_clean, labels_flipped))
    elapsed = perf_counter() - start
    ok = entry_dev <= 1e-10 and identical
    _report(11, "per-point sign corruption is invisible", ok, elapsed,
            f"entry dev {entry_dev:.2e}")
    assert entry_dev <= 1e-10
    assert identical


def test_criterion_12_cli_experiment_determinism(tmp_path, capsys):
    start = perf_counter()
    mismatches = []
    for name in ("xor", "digits", "flutes"):
        dirs = []
        for attempt in ("a", "b"):
            out_dir = tmp_path / f"{name}_{attempt}"
            code = main(["exp", name, "--seed", "1", "--out", str(out_dir), "--svg"])
            assert code == 0
            dirs.append(out_dir)
        files = sorted(p.name for p in dirs[0].iterdir())
        if files != sorted(p.name for p in dirs[1].iterdir()):
            mismatches.append((name, "file sets differ"))
            continue
        for fname in files:
            if (dirs[0] / fname).read_bytes() != (dirs[1] / fname).read_bytes():
                mismatches.append((name, fname))
    capsys.readouterr()
    elapsed = perf_counter() - start
    ok = not mismatches
    with capsys.disabled():
        _report(12, "CLI artifacts are byte-identical on rerun", ok, elapsed)
    assert not mismatches, mismatches
