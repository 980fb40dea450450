"""Benchmark of the shiftstereo package: three closed-loop workloads.

    python3 perfbench/run.py --workload infer-full --seed 1 --seconds 20 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end
metrics with no instrumentation; ``--trace 1`` measures the per-layer
metrics from a separate, instrumented run. The metric names and units are
those listed in BENCHMARK.json. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric with its unit and the
environment. Work files go to ``.perfbench_work/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MAX_BLAS_THREADS = 2


def pin_blas_threads() -> tuple[int, int]:
    """Cap BLAS worker threads at min(MAX_BLAS_THREADS, nproc) before numpy
    loads; returns (threads, nproc)."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    threads = min(MAX_BLAS_THREADS, nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads, nproc


def load_package() -> dict:
    """Put the checkout's ``src/`` first on the path; returns BENCHMARK.json."""
    if not (SRC / "shiftstereo" / "__init__.py").is_file():
        raise FileNotFoundError(f"no shiftstereo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def remove_workdir(workdir: Path) -> None:
    """Delete ``workdir`` and, once no other run uses it, ``WORK`` too."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # absent, or another run's files are still in it
        pass


def environment(threads: int, nproc: int) -> dict:
    import numpy as np

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {"blas_threads": threads, "nproc": nproc, "numpy": np.__version__,
            "openblas": openblas, "python": sys.version.split()[0]}


def select(outcome, entries) -> dict:
    """The metrics BENCHMARK.json lists, in its units; raises on a mismatch."""
    chosen = {}
    for entry in entries:
        value, unit = outcome.metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: measured in {unit}, "
                             f"BENCHMARK.json says {entry['unit']}")
        if not math.isfinite(value):
            outcome.problems.append(f"{entry['name']} is not finite")
            value = 0.0
        chosen[entry["name"]] = {"value": value, "unit": unit}
    return chosen


def print_report(outcome) -> None:
    """Every measured metric with its unit, the op counts and any failures."""
    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(f"  {'ops_attempted':<36} {outcome.attempted:>14d} count")
    print(f"  {'ops_failed':<36} {outcome.failed:>14d} count")
    for problem in outcome.problems:
        print(f"failure: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads, nproc = pin_blas_threads()
    try:
        bench = load_package()
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import workloads

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    entries = bench["per_layer" if args.trace else "end_to_end"]
    workdir = WORK / f"{spec.name}-{os.getpid()}"
    try:
        outcome = workloads.run(spec, args.seed, args.seconds, bool(args.trace),
                                str(workdir), [e["name"] for e in entries])
    finally:
        remove_workdir(workdir)
    metrics = select(outcome, entries)

    print(f"workload={spec.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env: " + json.dumps(environment(threads, nproc), sort_keys=True))
    print_report(outcome)
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
