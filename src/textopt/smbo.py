"""Sequential model-based optimization loop: suggest, evaluate, record."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .space import Assignment, ConfigSpace
from .tpe import TpeParams, TrialRecord, suggest

log = logging.getLogger(__name__)

# Evaluates an assignment to an objective value; must be deterministic for a
# fixed assignment (and any seed the objective closes over).
Objective = Callable[[Assignment], float]

# Called after each trial with (trial index, record, incumbent, wall seconds).
TrialHook = Callable[[int, TrialRecord, "TrialRecord | None", float], None]


@dataclass
class RunState:
    """History and incumbent bookkeeping for one optimization run."""

    history: list[TrialRecord] = field(default_factory=list)
    incumbent: TrialRecord | None = None
    budget: int = 0
    seed: int = 0


def run(
    space: ConfigSpace,
    objective: Objective,
    n_trials: int,
    params: TpeParams | None = None,
    on_trial: TrialHook | None = None,
) -> RunState:
    """Execute exactly n_trials suggest/evaluate cycles and return the final state.

    A trial whose objective raises is recorded with y = nan, excluded from
    surrogate fitting, and the run continues.  Suggestions draw from one
    generator seeded with ``params.seed``, so identical inputs and seed give
    an identical trial history.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    params = params or TpeParams()
    rng = np.random.default_rng(params.seed)
    state = RunState(budget=n_trials, seed=params.seed)
    for t in range(1, n_trials + 1):
        assignment = suggest(space, state.history, params, rng)
        start = time.perf_counter()
        try:
            y = float(objective(assignment))
        except Exception:
            log.warning("trial %d failed; recording sentinel and continuing", t, exc_info=True)
            y = math.nan
        elapsed = time.perf_counter() - start
        record = TrialRecord(assignment, y)
        state.history.append(record)
        if math.isfinite(y) and (state.incumbent is None or y > state.incumbent.y):
            state.incumbent = record
        if on_trial is not None:
            on_trial(t, record, state.incumbent, elapsed)
    return state


def best_so_far_curve(state: RunState) -> list[tuple[int, float]]:
    """Running maximum of objective values; failed trials carry the previous best."""
    if not state.history:
        raise ValueError("empty history")
    curve: list[tuple[int, float]] = []
    best = math.nan
    for t, record in enumerate(state.history, start=1):
        if math.isfinite(record.y) and not (best >= record.y):
            best = record.y
        curve.append((t, best))
    return curve
