#!/usr/bin/env python3
"""Benchmark of textopt's search loop, run from the root of a source checkout.

    python3 benchmark/run.py --workload optimize-cold --seed 0 --seconds 20 --trace 0

Imports textopt from ``src/`` of the checkout, generates the workload's
inputs from ``--seed``, sets up, and runs whole rounds of identical searches
until ``--seconds`` have passed (at least two rounds, so every run also
checks that a search repeats exactly).  Then it checks the program's outputs
against the benchmark's own computations.  The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` trials, and the
metrics named in BENCHMARK.json, the end-to-end ones with ``--trace 0`` and
the per-layer ones with ``--trace 1``.  It exits with 1 when a check fails and
with 2 when textopt is not there to import.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, install, layer_self_times, per_layer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

# Importing textopt happens once per process, so its time is the median over
# fresh interpreters, each timing nothing but the import.
IMPORT_PROBES = 5
_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import textopt, textopt.cli
print(time.perf_counter() - start)
"""


def import_seconds() -> float:
    probe = [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")]
    return statistics.median(
        float(subprocess.run(probe, capture_output=True, text=True, check=True).stdout)
        for _ in range(IMPORT_PROBES)
    )


def phase(workload, seconds: float, min_rounds: int, tracer: Tracer | None) -> list:
    """Whole rounds until ``seconds`` have passed and at least ``min_rounds`` ran."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        mark = len(tracer.spans) if tracer else 0
        r = workload.round(tracer)
        if tracer is not None:
            r.covered_s = tracer.root_time(mark)
        rounds.append(r)
    return rounds


def per_search_median(rounds, field: str) -> float:
    """Sum over a round's searches of each search's median time over the rounds."""
    return sum(statistics.median(times) for times in zip(*(getattr(r, field) for r in rounds)))


def search_counts(rounds) -> tuple[float, float]:
    """Mean per search of trials after start-up in an already-tried cell, and of distinct cells."""
    searches = rounds[0].cells
    repeats = [sum(1 for t, cell in enumerate(cells) if t >= 10 and cell in cells[:t]) for cells in searches]
    return statistics.fmean(repeats), statistics.fmean(len(set(cells)) for cells in searches)


def measure(name: str, seed: int, seconds: float, traced: bool, workdir: Path) -> tuple[dict, dict]:
    workload = WORKLOADS[name]()
    workload.generate(seed, workdir)
    import_s = import_seconds()
    import textopt
    import textopt.cli  # noqa: F401

    if not Path(textopt.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"textopt imported from {textopt.__file__}, not from {ROOT / 'src'}")

    tracer = Tracer() if traced else None
    if tracer:
        install(tracer)
    setup_times = []
    for _ in range(workload.setups):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    if tracer:
        tracer.restore()

    plain = phase(workload, seconds / 2 if traced else seconds, 1 if traced else workload.min_rounds, None)
    traced_rounds = []
    if tracer:
        install(tracer)
        traced_rounds = phase(workload, seconds / 2, 1, tracer)
        tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds = plain + traced_rounds
    checked = workload.check(rounds)

    run_s = per_search_median(plain, "searches")
    summary = {
        "attempted": sum(r.trials for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "failures": checked.failures,
    }
    if not traced:
        setups = setup_times or [r.setup_s for r in plain]
        return summary, {
            "setup_s": import_s + statistics.median(setups),
            "run_s": run_s,
            "trials_per_s": plain[0].trials / per_search_median(plain, "loops"),
            "peak_rss_mb": peak_rss_mb,
            "best_objective": checked.best_objective,
            "test_accuracy": checked.test_accuracy,
        }

    n = len(traced_rounds)
    traced_run_s = per_search_median(traced_rounds, "searches")
    metrics = per_layer(tracer, n, workload.setups or n)
    metrics["tpe.repeat_cells"], metrics["tpe.distinct_cells"] = search_counts(rounds)
    metrics["cli.finish_s"] = statistics.fmean(r.finish_s for r in traced_rounds)
    metrics["trace.run_s"] = traced_run_s
    metrics["trace.uncovered_s"] = statistics.fmean(r.run_s - r.covered_s for r in traced_rounds)
    metrics["trace.overhead_s"] = traced_run_s - run_s
    layers = layer_self_times(tracer, n)
    print(f"{name}: self time per round by layer, traced, {n} round(s)")
    for layer, seconds_ in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} {seconds_:10.4f} s")
    print(f"  {'uncovered':<10} {metrics['trace.uncovered_s']:10.4f} s")
    total = sum(layers.values()) + metrics["trace.uncovered_s"]
    print(f"  {'sum':<10} {total:10.4f} s  (mean traced run_s "
          f"{statistics.fmean(r.run_s for r in traced_rounds):.4f} s)")
    print(f"  tracing overhead {metrics['trace.overhead_s']:.4f} s per round "
          f"(traced run_s {traced_run_s:.4f} s - untraced run_s {run_s:.4f} s)")
    return summary, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "textopt" / "__init__.py").is_file():
        print(f"no textopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One BLAS thread: with a second one, every CPU another process takes stalls
    # the solver's vector operations at OpenBLAS's thread barrier, and on an
    # idle 2-CPU machine one thread ran optimize-cold's trials 5-10% faster.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        summary, values = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    for failure in summary["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not summary["failures"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
