"""Self-test of the benchmark: every workload at minimal size, in seconds.

    python3 perfbench/selftest.py

Checks that
- each workload, untraced and traced, fails no op and yields every metric
  BENCHMARK.json names, in its unit (the untraced metrics are printed);
- every per-layer metric is non-zero on at least one workload, and every
  conv layer the traced runs saw has its own metric;
- the traced run puts every wrapped module attribute back;
- a corrupted float64 reference is counted in ``failed``, not passed;
- run.py exits non-zero, printing no result, where the sources are absent.
Exits 0 when all hold and 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

import run

SECONDS = 0.3


def _attributes(pkg) -> dict:
    return {(m, k): v for m in ("cli", "datasets", "model", "ops", "tensor", "training")
            for k, v in vars(getattr(pkg, m)).items()}


def _bare_checkout_fails(work) -> list[str]:
    """run.py beside BENCHMARK.json but without src/ must refuse to run."""
    with tempfile.TemporaryDirectory(dir=work) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "infer-tiny", "--seed", "0", "--seconds", "1"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    run.pin_blas_threads()
    bench = run.load_package()
    import shiftstereo
    import workloads

    errors: list[str] = []
    per_layer = [e["name"] for e in bench["per_layer"]]
    seen_nonzero: set[str] = set()
    conv_layers: set[str] = set()
    before = _attributes(shiftstereo)
    work = run.WORK / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for name, spec in workloads.MINIMAL.items():
            for trace in (False, True):
                entries = bench["per_layer" if trace else "end_to_end"]
                with tempfile.TemporaryDirectory(dir=work) as d:
                    outcome = workloads.run(spec, 3, SECONDS, trace, d,
                                            [e["name"] for e in entries])
                label = f"{name} trace={int(trace)}"
                try:
                    metrics = run.select(outcome, entries)
                except (KeyError, ValueError) as e:
                    errors.append(f"{label}: metric {e}")
                    continue
                if not outcome.correct or outcome.attempted < 1:
                    errors.append(f"{label}: attempted {outcome.attempted}, failed "
                                  f"{outcome.failed}, problems {outcome.problems}")
                if trace:
                    seen_nonzero |= {k for k, v in metrics.items() if v["value"] != 0}
                    conv_layers |= outcome.conv_layers
                print(f"ok: {label}: {outcome.attempted} ops, "
                      f"{len(metrics)} metrics", flush=True)
                if not trace:
                    run.print_report(outcome)
            with tempfile.TemporaryDirectory(dir=work) as d:
                outcome = workloads.run(spec, 3, SECONDS, False, d, [], corrupt=True)
            if outcome.attempted < 1 or outcome.failed != outcome.attempted:
                errors.append(f"{name}: corrupted reference gave {outcome.failed} failed "
                              f"of {outcome.attempted}")
            else:
                print(f"ok: {name}: corrupted reference fails all "
                      f"{outcome.attempted} ops", flush=True)
        errors += [f"per-layer metric {n} is 0 on every workload"
                   for n in per_layer if n not in seen_nonzero]
        errors += [f"conv layer {layer} has no metric" for layer in sorted(conv_layers)
                   if f"conv.{layer}.fwd_ms" not in per_layer]
        after = _attributes(shiftstereo)
        errors += [f"{m}.{k} not restored" for (m, k), v in before.items()
                   if after.get((m, k)) is not v]
        errors += _bare_checkout_fails(work)
    finally:
        run.remove_workdir(work)
    for error in errors:
        print(f"FAIL: {error}")
    print("selftest: " + ("failed" if errors else "all checks passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
