"""Run a workload's commands in this process and report timings as JSON.

Usage: python3 worker.py PLAN.json RESULT.json

The plan (written by run.py) holds the command lines, the pass directory
root, the measuring time, whether to trace, and the probe input. The worker
is one client in a closed loop: it calls ``invkern.cli.main(argv)`` for one
command at a time. It makes one untimed warm-up pass, then timed passes
until the measuring time is spent; between them it times the requested
number of cold starts of ``import invkern.cli``. With tracing, untraced and traced passes
alternate, so their difference is the tracing overhead; the traced run also
times the layer probes. Only program work runs here, so this process's peak
RSS is the program's.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from invkern import cli, spectral
from invkern.data import load_csv
from invkern.invariance import KernelSpec, parse_invariance, transform_triples
from invkern.kernels import BaseKernel, base_values

from spans import Tracer

PROBE_REPEATS = 3


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is one."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")) + sorted(libs.glob("libopenblas*.so")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def cold_start() -> float:
    """Wall time of a fresh interpreter that imports invkern.cli. No timeout:
    waiting with one polls in steps of up to 50 ms, which would quantize it."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import invkern.cli"], check=True)
    return time.perf_counter() - start


def _bytes_under(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_pass(index: int, commands: list, root: Path, tracer: Tracer | None, warmup: bool) -> dict:
    records = []
    for i, argv in enumerate(commands):
        out = root / f"pass{index}" / f"cmd{i}"
        full = [*argv, "--out", str(out)]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            if tracer is None:
                start = time.perf_counter()
                rc = cli.main(full)
                wall = time.perf_counter() - start
            else:
                tracer.request = i
                with tracer.span(f"cli.{argv[0]}") as root_span:
                    rc = cli.main(full)
                wall = root_span.end - root_span.start
        records.append({"out": str(out), "rc": rc, "wall_s": wall, "bytes": _bytes_under(out)})
    return {"index": index, "warmup": warmup, "traced": tracer is not None, "commands": records}


def _median_time(fn, *args) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probes(probe: dict) -> dict:
    """Time the triple rewrite and the base kernel on the probe set's
    upper-triangle triple arrays, and an invariant against a plain Gram."""
    points = load_csv(probe["input"], has_labels=True).points
    invariance = parse_invariance(probe["inv"])
    base = BaseKernel("gaussian", sigma=probe["sigma"])
    inner = points @ points.T
    norms = np.diag(inner).copy()
    rows, cols = np.triu_indices(len(points))
    triple = (norms[rows], inner[rows, cols], norms[cols])
    rewritten = transform_triples(invariance, *triple)
    invariant = _median_time(spectral.build_gram, points, KernelSpec(base, invariance))
    plain = _median_time(spectral.build_gram, points, KernelSpec(base))
    return {
        "invariance.transform_triples.s": _median_time(transform_triples, invariance, *triple),
        "kernels.base_values.s": _median_time(base_values, base, *rewritten),
        "spectral.build_gram.inv_over_plain": invariant / plain,
    }


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    commands, root = plan["commands"], Path(plan["passes"])
    tracer = Tracer() if plan["trace"] else None
    passes = [run_pass(0, commands, root, None, warmup=True)]
    seconds, starts = plan["seconds"], plan["setup_starts"]
    setup = []
    start = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - start - sum(setup)

    # at least one timed pass, however short the measuring time
    while len(passes) == 1 or elapsed() < seconds:
        passes.append(run_pass(len(passes), commands, root, None, warmup=False))
        if tracer is not None:
            tracer.install({"cli": cli, "spectral": spectral})
            try:
                passes.append(run_pass(len(passes), commands, root, tracer, warmup=False))
            finally:
                tracer.uninstall()
            passes[-1]["spans"] = tracer.export()
            tracer.spans.clear()
        # Cold starts go between passes, spread evenly over the measuring
        # time: on a shared machine speed can switch between levels every
        # few seconds, and starts made back to back would see only one.
        due = starts * min(elapsed() / seconds, 1.0) if seconds > 0 else starts
        while len(setup) < due:
            setup.append(cold_start())
    while len(setup) < starts:
        setup.append(cold_start())
    result = {
        "passes": passes,
        "setup_s": setup,
        "probes": probes(plan["probe"]) if tracer is not None else None,
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "blas_threads": blas_threads(),
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
