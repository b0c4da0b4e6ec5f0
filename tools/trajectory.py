#!/usr/bin/env python3
"""Benchmark checkouts of this repository and record each as BENCH_<commit>.json.

    python3 tools/trajectory.py --workload optimize-cold --seeds 1 2 3 --out .

Runs each checkout's own, unchanged ``benchmark/run.py`` with ``--trace 0``
for every workload and seed.  With more than one ``--checkout`` (a parent
and a change, say), the runs of one seed form a set, and the order within a
set alternates from one seed to the next.  Each checkout's file holds the
machine (CPUs this process may use; Python, numpy and scipy versions), the
commit, the benchmark's git tree, every run's output, and per workload each
end-to-end metric's median and quartiles over the seeds.  A checkout must
have no uncommitted change under ``src/``, ``benchmark/`` or
``BENCHMARK.json``, so that its commit names what ran.  Exits with 1 when a
run's checks fail or it reports failed trials.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEASURED = ("src", "benchmark", "BENCHMARK.json")


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run's JSON line: correct, attempted, failed and the end-to-end metrics."""
    command = [sys.executable, "benchmark/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return {"seed": seed, **json.loads(lines[-1])}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(runs: list[dict]) -> dict:
    """Median and quartiles over the runs of each metric, with its unit."""
    return {
        name: {"unit": metric["unit"], **quartiles([run["metrics"][name]["value"] for run in runs])}
        for name, metric in runs[0]["metrics"].items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, action="append",
                        help="a git checkout to benchmark; repeatable (default: this repository)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=ROOT, help="directory for the BENCH files")
    args = parser.parse_args()
    checkouts = [path.resolve() for path in args.checkout or [ROOT]]

    results = {}
    for checkout in checkouts:
        if git(checkout, "status", "--porcelain", "--", *MEASURED):
            parser.error(f"{checkout} has uncommitted changes under {', '.join(MEASURED)}")
        results[checkout] = {
            "commit": git(checkout, "rev-parse", "HEAD"),
            "machine": {
                "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": version("numpy"),
                "scipy": version("scipy"),
            },
            "benchmark": {"tree": git(checkout, "rev-parse", "HEAD:benchmark"),
                          "seconds": args.seconds, "trace": 0},
            "workloads": {},
        }

    ok = True
    for workload in args.workload:
        runs = {checkout: [] for checkout in checkouts}
        for i, seed in enumerate(args.seeds):
            for checkout in checkouts if i % 2 == 0 else checkouts[::-1]:
                run = bench(checkout, workload, seed, args.seconds)
                runs[checkout].append(run)
                ok = ok and run["correct"] and not run["failed"]
                values = {name: metric["value"] for name, metric in run["metrics"].items()}
                print(f"{results[checkout]['commit'][:7]} {workload} seed {seed}: {json.dumps(values)}",
                      flush=True)
        for checkout in checkouts:
            results[checkout]["workloads"][workload] = {
                "seeds": args.seeds,
                "metrics": summary(runs[checkout]),
                "runs": runs[checkout],
            }

    args.out.mkdir(parents=True, exist_ok=True)
    for result in results.values():
        path = args.out / f"BENCH_{result['commit']}.json"
        path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
