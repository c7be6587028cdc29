"""Benchmark of the invkern CLI: one workload, one seed, one run.

    python3 bench/run.py --workload gram-highdim --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Run from the root of a source checkout: the program is imported from
``src/``. The run generates the workload's inputs from the seed, runs the
workload's commands in a worker process (worker.py), which with
``--trace 0`` also times cold starts of ``import invkern.cli``, verifies
every command's artifacts (verify.py) and prints a detail record, then as
the last line
``{"correct", "attempted", "failed", "metrics"}`` with the ``end_to_end``
metrics of BENCHMARK.json (``--trace 0``) or its ``per_layer`` metrics
(``--trace 1``). ``--smoke`` runs every workload at tiny sizes in both modes
and fails unless every named metric and span appears and spans nest.
README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_STARTS = 20
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed command)."""


def summary(values: list) -> dict:
    """Sample count, median, quartiles and extremes."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(blas_threads) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
    }


def child_env() -> dict:
    """Environment of every process the run starts: the checkout's package
    first on the path, and no more BLAS threads than usable cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = str(len(os.sched_getaffinity(0)))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    return env


def run_worker(plan: dict, work: Path, env: dict) -> dict:
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path)],
        env=env, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchError(f"worker exited with code {done.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_passes(commands: list, passes: list, datasets: dict):
    """Verify every executed command. Returns the failure messages and, by
    pass index, the mean accuracy of the pass's verified clusterings."""
    import verify

    failures = []
    accuracies = {}
    for record in passes:
        found = []
        for command, done in zip(commands, record["commands"]):
            try:
                value = verify.check(command, Path(done["out"]), done["rc"], datasets)
            except verify.VerifyError as err:
                failures.append(str(err))
                continue
            if value is not None:
                found.append(value)
        if found:
            accuracies[record["index"]] = statistics.fmean(found)
    return failures, accuracies


def measure(workload: str, seed: int, seconds: float | None, trace: bool,
            smoke: bool = False):
    """One run. Returns (result line, detail record, spans of the traced passes).
    ``seconds`` defaults to ``run_seconds`` of BENCHMARK.json."""
    import workloads
    from spans import layer_metrics

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if seconds is None:
        seconds = spec["run_seconds"]
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        datasets, commands, probe = workloads.make(workload, seed, work / "inputs", smoke)
        env = child_env()
        plan = {"commands": [c["argv"] for c in commands], "passes": str(work / "passes"),
                "seconds": seconds, "trace": trace, "probe": probe,
                "setup_starts": 0 if trace else (3 if smoke else SETUP_STARTS)}
        result = run_worker(plan, work, env)
        failures, accuracies = check_passes(commands, result["passes"], datasets)
        attempted = sum(len(r["commands"]) for r in result["passes"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    timed = [r for r in result["passes"] if not r["warmup"]]
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    wall = [sum(c["wall_s"] for c in r["commands"]) for r in plain]
    # per command, its times over the untraced timed passes
    command_walls = [[r["commands"][i]["wall_s"] for r in plain] for i in range(len(commands))]
    if trace:
        per_pass = []
        for r in traced:
            layers = layer_metrics(r["spans"])
            layers["cli.bytes_written"] = sum(c["bytes"] for c in r["commands"])
            per_pass.append(layers)
        values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        values.update(result["probes"])
        traced_wall = [sum(c["wall_s"] for c in r["commands"]) for r in traced]
        values["trace.overhead_frac"] = (
            statistics.median(traced_wall) / statistics.median(wall) - 1.0
        )
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": sum(statistics.median(w) for w in command_walls),
            "setup_s": statistics.median(result["setup_s"]),
            "peak_rss_mb": result["max_rss_mb"],
            # 0 when no pass produced a verified accuracy; the failures show it
            "accuracy": statistics.median(
                [accuracies[r["index"]] for r in plain if r["index"] in accuracies] or [0.0]
            ),
            "ops_ok_frac": (attempted - len(failures)) / attempted,
        }
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        raise BenchError(f"metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json")

    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(result["blas_threads"]),
        "ops_total": attempted,
        "ops_failed_frac": len(failures) / attempted,
        "failures": failures[:10],
        "wall_s": summary(wall),
        "commands": [
            {"argv": c["argv"], "wall_s": summary(w)} for c, w in zip(commands, command_walls)
        ],
    }
    if result["setup_s"]:
        detail["setup_s"] = summary(result["setup_s"])
    return line, detail, [r["spans"] for r in traced]


def smoke() -> None:
    """Every workload at tiny sizes in both modes; raises BenchError on any gap."""
    import workloads
    from spans import SPAN_NAMES, nesting_errors

    seen = set()
    for workload in workloads.NAMES:
        for trace in (False, True):
            line, detail, spans = measure(workload, 0, 0, trace, smoke=True)
            if not line["correct"]:
                raise BenchError(f"{workload}: failed commands: {detail['failures']}")
            for pass_spans in spans:
                errors = nesting_errors(pass_spans)
                if errors:
                    raise BenchError(f"{workload}: {errors[:3]}")
                seen.update(s["name"] for s in pass_spans)
            print(f"smoke {workload} trace={int(trace)}: {len(line['metrics'])} metrics",
                  flush=True)
    missing = set(SPAN_NAMES) - seen
    if missing:
        raise BenchError(f"spans never recorded: {sorted(missing)}")
    print(f"smoke ok: {len(seen)} span names")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload, both modes; checks names and nesting")
    args = parser.parse_args(argv)
    if not (SRC / "invkern" / "__init__.py").is_file():
        print(f"error: no invkern package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.smoke:
            smoke()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        line, detail, _ = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ValueError, subprocess.SubprocessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
