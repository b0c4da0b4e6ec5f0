"""The pairwise summary that tools/trajectory.py prints for two or more checkouts."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "trajectory.py"
spec = importlib.util.spec_from_file_location("trajectory", PATH)
trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trajectory)


def runs(seeds, **metrics):
    """Hand-made run dicts: one per seed, each metric's value taken from its list."""
    return [
        {"seed": seed, "metrics": {name: {"value": values[i]} for name, values in metrics.items()}}
        for i, seed in enumerate(seeds)
    ]


BETTER = {"run_s": "lower", "best_objective": "higher"}


def test_medians_quartile_distance_and_pairs_won():
    seeds = [1, 2, 3, 4, 5]
    base = runs(seeds, run_s=[1.0, 2.0, 3.0, 4.0, 5.0], best_objective=[0.5] * 5)
    change = runs(seeds, run_s=[0.5, 2.5, 2.0, 4.0, 3.0], best_objective=[0.5, 0.6, 0.4, 0.5, 0.7])
    lines = trajectory.pairwise([("parent", base), ("change", change)], BETTER)
    assert lines == [
        # Lower is better: the change wins seeds 1, 3 and 5, loses seed 2, ties seed 4.
        "run_s (lower is better): change 2.5 against parent 3 (-16.7%), "
        "parent quartile distance 2; pairs won: change 3, parent 1",
        # Higher is better: the change wins seeds 2 and 5, loses seed 3.
        "best_objective (higher is better): change 0.5 against parent 0.5 (+0.0%), "
        "parent quartile distance 0; pairs won: change 2, parent 1",
    ]


def test_every_later_checkout_against_the_first():
    seeds = [7, 8]
    base = runs(seeds, run_s=[2.0, 2.0], best_objective=[0.5, 0.5])
    faster = runs(seeds, run_s=[1.0, 1.0], best_objective=[0.5, 0.5])
    slower = runs(seeds, run_s=[4.0, 4.0], best_objective=[0.5, 0.5])
    lines = trajectory.pairwise([("a", base), ("b", faster), ("c", slower)], BETTER)
    assert [line.split(":")[0] for line in lines] == [
        "run_s (lower is better)",
        "run_s (lower is better)",
        "best_objective (higher is better)",
        "best_objective (higher is better)",
    ]
    assert lines[0].endswith("pairs won: b 2, a 0") and "(-50.0%)" in lines[0]
    assert lines[1].endswith("pairs won: c 0, a 2") and "(+100.0%)" in lines[1]


def test_pairs_must_share_seeds():
    base = runs([1, 2], run_s=[1.0, 1.0], best_objective=[0.5, 0.5])
    other = runs([2, 1], run_s=[1.0, 1.0], best_objective=[0.5, 0.5])
    with pytest.raises(ValueError, match="different seeds"):
        trajectory.pairwise([("a", base), ("b", other)], BETTER)
