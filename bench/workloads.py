"""The benchmark's workloads: inputs made from the seed, and the commands run on them.

Each workload puts one layer in front (see README.md for why):

- ``gram-highdim``: Gram assembly at d=256 (invariant and plain arm), plus
  one clustering of the same points so the workload has an accuracy;
- ``cluster-lowdim``: the dense eigendecomposition at N=3000, d=2;
- ``presets``: the three bundled experiments with SVG output, where the
  artifact writers dominate at small N.

A command is a dict: ``argv`` (without ``--out``, which the worker adds per
pass), ``check`` (which verifier applies) and what that verifier needs.
"""

from __future__ import annotations

from pathlib import Path

from invkern.data import gen_directions, gen_flipped_blobs, save_dataset

NAMES = ("gram-highdim", "cluster-lowdim", "presets")

HIGHDIM_SIGMA = 22.0
# The clustering needs between-class affinities negligible against
# within-class ones: at sigma 22 they are exp(-3) ~ 0.05, and on these two
# balanced classes the entropy ranking then keeps the class-splitting axis
# by chance (accuracy 0.5 or 1.0 depending on the seed). At sigma 10 the
# invariant arm scores 1.0 on every seed tried and the plain kernel ~0.5.
HIGHDIM_CLUSTER_SIGMA = 10.0
LOWDIM_SIGMA = 0.1

# Point count and cluster count of each CLI preset, as `invkern exp` defines them.
PRESETS = {"xor": (200, 2), "digits": (98, 2), "flutes": (270, 6)}


def _write(data, path: Path) -> str:
    save_dataset(data, path)
    return str(path)


def make(name: str, seed: int, inputs: Path, smoke: bool = False):
    """Generate the workload's inputs under ``inputs``.

    Returns ``(datasets, commands, probe)``: the generated datasets by input
    path, the command list, and the dataset and kernel that the traced run's
    layer probes time (``probe["input"]`` is one of the dataset paths).
    """
    inputs.mkdir(parents=True, exist_ok=True)
    seed_flag = ["--seed", str(seed)]
    if name == "gram-highdim":
        data = gen_flipped_blobs(*((8, 16) if smoke else (400, 256)), seed=seed)
        path = _write(data, inputs / "highdim.csv")
        kernel = ["--labeled", "--kernel", "gaussian", "--sigma"]
        gram = {"check": "gram", "input": path, "sigma": HIGHDIM_SIGMA}
        commands = [
            {"argv": ["gram", "--input", path, *kernel, repr(HIGHDIM_SIGMA), "--inv", "sign",
                      *seed_flag],
             **gram, "inv": "sign"},
            {"argv": ["gram", "--input", path, *kernel, repr(HIGHDIM_SIGMA), *seed_flag],
             **gram, "inv": None},
            {"argv": ["cluster", "--input", path, *kernel, repr(HIGHDIM_CLUSTER_SIGMA),
                      "--inv", "sign", "--k", "2", *seed_flag],
             "check": "cluster", "input": path, "k": 2},
        ]
        probe = {"input": path, "inv": "sign", "sigma": HIGHDIM_SIGMA}
        return {path: data}, commands, probe
    if name == "cluster-lowdim":
        data, _ = gen_directions(6, 60 if smoke else 3000, seed=seed)
        path = _write(data, inputs / "lowdim.csv")
        commands = [
            {"argv": ["cluster", "--input", path, "--labeled", "--k", "6",
                      "--kernel", "gaussian", "--sigma", repr(LOWDIM_SIGMA),
                      "--inv", "proj", *seed_flag],
             "check": "cluster", "input": path, "k": 6},
        ]
        probe = {"input": path, "inv": "proj", "sigma": LOWDIM_SIGMA}
        return {path: data}, commands, probe
    if name == "presets":
        # The presets generate their own data from --seed; the probe set has
        # the flutes preset's shape (270 points along 6 lines, d=2).
        data, _ = gen_directions(6, PRESETS["flutes"][0], seed=seed)
        path = _write(data, inputs / "probe.csv")
        commands = [
            {"argv": ["exp", preset, "--svg", *seed_flag],
             "check": "exp", "n": n, "k": k}
            for preset, (n, k) in PRESETS.items()
        ]
        probe = {"input": path, "inv": "proj", "sigma": LOWDIM_SIGMA}
        return {path: data}, commands, probe
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
