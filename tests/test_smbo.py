"""Optimization loop bookkeeping: budgets, incumbents, curves, failure policy."""

from __future__ import annotations

import math

import numpy as np
import pytest

from textopt.smbo import RunState, best_so_far_curve, run
from textopt.space import text_rep_space
from textopt.tpe import TpeParams, TrialRecord


class TestRun:
    def test_constant_objective(self):
        state = run(text_rep_space(), lambda a: 0.7, n_trials=5, params=TpeParams(seed=0))
        assert [r.y for r in state.history] == [0.7] * 5
        assert state.incumbent is not None
        assert state.incumbent.y == 0.7

    def test_finds_single_categorical_bit(self):
        space = text_rep_space()
        objective = lambda a: 1.0 if a["weighting"] == "binary" else 0.0
        hits = 0
        for seed in range(20):
            state = run(space, objective, n_trials=30, params=TpeParams(seed=seed))
            hits += state.incumbent.y == 1.0
        assert hits / 20 >= 0.95

    def test_every_trial_recorded(self):
        state = run(text_rep_space(), lambda a: a["strength"], n_trials=12, params=TpeParams(seed=1))
        assert len(state.history) == 12

    def test_deterministic_history(self):
        space = text_rep_space()
        objective = lambda a: a["tolerance"] * 1000.0
        first = run(space, objective, n_trials=15, params=TpeParams(seed=3))
        second = run(space, objective, n_trials=15, params=TpeParams(seed=3))
        assert first.history == second.history
        assert first.incumbent == second.incumbent

    def test_failed_trials_recorded_and_skipped(self):
        space = text_rep_space()

        def objective(assignment):
            if assignment["regularizer"] == "l1":
                raise RuntimeError("synthetic crash")
            return assignment["strength"] / 1e5

        state = run(space, objective, n_trials=25, params=TpeParams(seed=4))
        assert len(state.history) == 25
        failed = [r for r in state.history if math.isnan(r.y)]
        assert failed, "expected at least one failed trial with this seed range"
        assert state.incumbent is not None
        assert math.isfinite(state.incumbent.y)

    def test_incumbent_is_running_max(self):
        state = run(text_rep_space(), lambda a: a["strength"], n_trials=20, params=TpeParams(seed=5))
        finite = [r.y for r in state.history if math.isfinite(r.y)]
        assert state.incumbent.y == max(finite)

    def test_incumbent_reproducible_by_reevaluation(self):
        objective = lambda a: round(a["tolerance"] * 123.0, 6)
        state = run(text_rep_space(), objective, n_trials=10, params=TpeParams(seed=6))
        assert objective(state.incumbent.assignment) == state.incumbent.y

    def test_trial_hook_sees_every_trial(self):
        seen = []
        run(
            text_rep_space(),
            lambda a: 0.5,
            n_trials=7,
            params=TpeParams(seed=7),
            on_trial=lambda t, rec, inc, secs: seen.append((t, rec.y, secs >= 0.0)),
        )
        assert [t for t, _, _ in seen] == list(range(1, 8))
        assert all(ok for _, _, ok in seen)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="n_trials"):
            run(text_rep_space(), lambda a: 0.0, n_trials=0)


class TestBestSoFarCurve:
    def state_from(self, ys):
        state = RunState()
        state.history = [TrialRecord({}, y) for y in ys]
        finite = [y for y in ys if math.isfinite(y)]
        if finite:
            best = max(finite)
            state.incumbent = next(r for r in state.history if r.y == best)
        return state

    def test_running_max(self):
        assert best_so_far_curve(self.state_from([0.6, 0.5, 0.8])) == [
            (1, 0.6),
            (2, 0.6),
            (3, 0.8),
        ]

    def test_nondecreasing_for_random_sequences(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            ys = list(rng.random(int(rng.integers(1, 30))))
            curve = best_so_far_curve(self.state_from(ys))
            values = [v for _, v in curve]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_last_value_equals_incumbent(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            ys = list(rng.random(int(rng.integers(1, 30))))
            state = self.state_from(ys)
            assert best_so_far_curve(state)[-1][1] == state.incumbent.y

    def test_failed_trials_carry_previous_best(self):
        curve = best_so_far_curve(self.state_from([0.4, math.nan, 0.3]))
        assert curve == [(1, 0.4), (2, 0.4), (3, 0.4)]

    def test_leading_failures_have_no_best(self):
        curve = best_so_far_curve(self.state_from([math.nan, 0.3]))
        assert math.isnan(curve[0][1])
        assert curve[1][1] == 0.3

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            best_so_far_curve(RunState())
