"""Surrogate densities, history splitting, and expected-improvement scoring."""

from __future__ import annotations

import hashlib
import math
import re
from typing import NamedTuple

import numpy as np
import pytest

from textopt import smbo
from textopt.space import (
    Categorical,
    Condition,
    ConfigSpace,
    Continuous,
    IntRange,
    ParamNode,
    define_space,
    enumerate_assignments,
    sample_prior,
    text_rep_space,
    validate_assignment,
)
from textopt.tpe import (
    MAX_REJECTION_DRAWS,
    DegenerateDensityError,
    ParzenCategorical,
    ParzenContinuous,
    TpeParams,
    TrialRecord,
    ei_score,
    fit_categorical,
    fit_continuous,
    fit_node_models,
    suggest,
    _densities,
    _draw,
    _trial_codes,
    _y_star,
)

WEIGHT_DOMAIN = Categorical(("tf", "tf-idf", "binary"))


def records(ys):
    return [TrialRecord({"y_only": i}, y) for i, y in enumerate(ys)]


class Split(NamedTuple):
    below: tuple[TrialRecord, ...]
    above: tuple[TrialRecord, ...]
    y_star: float


def split_history(history, gamma) -> Split:
    """The history as ``suggest`` splits it: the trials below ``_y_star``, the rest, and y*."""
    ordered = sorted(history, key=lambda r: r.y)
    y_star = _y_star(np.array([r.y for r in ordered]), gamma)
    below = tuple(r for r in ordered if r.y < y_star)
    return Split(below, tuple(ordered[len(below) :]), y_star)


def reference_split(history, gamma) -> Split:
    """The split rule written out on sorted trials, independently of ``_y_star``.

    The n = floor(gamma * t) lowest trials (at least one, once t >= 2) go
    below with every trial tied with the n-th lowest; when those ties would
    leave nothing above, only the trials under the (n+1)-th lowest go below.
    """
    ordered = sorted(history, key=lambda r: r.y)
    t = len(ordered)
    n_below = max(1, math.floor(gamma * t)) if t >= 2 else 0
    if n_below and ordered[n_below - 1].y < ordered[-1].y:
        below = tuple(r for r in ordered if r.y <= ordered[n_below - 1].y)
    else:
        below = tuple(r for r in ordered[:n_below] if r.y < ordered[n_below].y)
    above = tuple(ordered[len(below) :])
    return Split(below, above, above[0].y)


def encoded(space, *assignments):
    """The assignments' code rows, one matrix row each, as the space's encoder gives them."""
    return np.array([space.encode(a) for a in assignments], dtype=float)


def fit_models(space, trials, smoothing):
    """The node models fitted to the trials' code rows."""
    return fit_node_models(space, _trial_codes(space, trials), smoothing)


def path_density(space, models, assignment):
    """The assignment's path density under ``models``, through the space's encoder."""
    return float(_densities(space, [models], encoded(space, assignment))[0, 0])


class TestSplitHistory:
    def test_seven_trials(self):
        split = split_history(records([0.5, 0.55, 0.58, 0.6, 0.62, 0.65, 0.7]), 0.15)
        assert [r.y for r in split.below] == [0.5]
        assert split.y_star == 0.55
        assert len(split.above) == 6

    def test_single_trial(self):
        split = split_history(records([0.8]), 0.15)
        assert split.below == ()
        assert [r.y for r in split.above] == [0.8]
        assert split.y_star == 0.8

    def test_hundred_distinct(self):
        ys = list(np.random.default_rng(0).permutation(np.linspace(0.1, 0.9, 100)))
        split = split_history(records(ys), 0.15)
        assert len(split.below) == 15  # floor(0.15 * 100)
        assert len(split.above) == 85

    def test_ties_at_threshold_go_above(self):
        split = split_history(records([0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]), 0.15)
        assert split.below == ()
        assert len(split.above) == 7
        assert split.y_star == 0.5

    def test_ties_at_lowest_value_all_go_below(self):
        # floor(0.15 * 10) = 1, but three trials share the lowest value.
        split = split_history(records([0.3, 0.5, 0.3, 0.6, 0.7, 0.3, 0.8, 0.9, 0.75, 0.65]), 0.15)
        assert [r.y for r in split.below] == [0.3, 0.3, 0.3]
        assert split.y_star == 0.5
        assert len(split.above) == 7

    def test_partition_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            ys = list(rng.random(int(rng.integers(1, 40))))
            split = split_history(records(ys), 0.15)
            assert len(split.below) + len(split.above) == len(ys)
            assert all(r.y < split.y_star for r in split.below)
            assert all(r.y >= split.y_star for r in split.above)
            assert min(r.y for r in split.above) == split.y_star
            if split.below:
                assert max(r.y for r in split.below) < split.y_star

    def test_matches_reference_split(self):
        rng = np.random.default_rng(6)
        for gamma in (0.15, 0.5, 0.85):
            for _ in range(200):
                # Values from a few levels, so that most histories have ties.
                ys = list(rng.integers(0, int(rng.integers(1, 6)), size=int(rng.integers(1, 40))) / 4)
                split, reference = split_history(records(ys), gamma), reference_split(records(ys), gamma)
                assert split.y_star == reference.y_star
                assert split.below == reference.below and split.above == reference.above

    def test_empty_history_gives_a_prior_sample(self):
        # suggest never splits an empty history: with no start-up trials it samples the prior.
        space = text_rep_space()
        rngs = np.random.default_rng(3), np.random.default_rng(3)
        assert suggest(space, [], TpeParams(n_startup=0), rngs[0]) == sample_prior(space, rngs[1])


class TestFitCategorical:
    def test_count_plus_smoothing(self):
        model = fit_categorical(["tf", "tf", "binary"], WEIGHT_DOMAIN, smoothing=1.0)
        np.testing.assert_allclose(model.weights, [3 / 6, 1 / 6, 2 / 6])

    def test_no_observations_is_uniform(self):
        model = fit_categorical([], WEIGHT_DOMAIN, smoothing=1.0)
        np.testing.assert_allclose(model.weights, [1 / 3, 1 / 3, 1 / 3])

    def test_smoothing_keeps_full_support(self):
        domain = Categorical(("x", "y"))
        model = fit_categorical(["x"] * 10**6, domain, smoothing=1.0)
        assert model.weights[domain.code("y")] > 0.0

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            obs = [WEIGHT_DOMAIN.choices[i] for i in rng.integers(3, size=rng.integers(0, 60))]
            model = fit_categorical(obs, WEIGHT_DOMAIN, smoothing=float(rng.uniform(0.1, 3)))
            assert abs(float(model.weights.sum()) - 1.0) <= 1e-12

    def test_out_of_domain_observation(self):
        with pytest.raises(ValueError, match="outside domain"):
            fit_categorical(["nope"], WEIGHT_DOMAIN, smoothing=1.0)

    @pytest.mark.parametrize("smoothing", [1e-12, 1e-6, 1.0, 1e6])
    def test_sample_matches_generator_choice(self, smoothing):
        # Same values and same generator state as rng.choice(k, p=weights),
        # including weights pushed to 1e-14 and to near-uniform by smoothing.
        rng = np.random.default_rng(31)
        for k in (1, 2, 3, 5, 11):
            domain = Categorical(tuple(range(k)))
            space = define_space([ParamNode("c", domain)])
            for _ in range(20):
                obs = list(rng.integers(k, size=int(rng.integers(0, 300))))
                model = fit_categorical([int(o) for o in obs], domain, smoothing)
                seed = int(rng.integers(2**31))
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                drawn = [_draw(space, {"c": model}, ours)[0]["c"] for _ in range(25)]
                expected = [int(theirs.choice(k, p=model.weights)) for _ in range(25)]
                assert drawn == expected
                assert ours.bit_generator.state == theirs.bit_generator.state

    def test_int_range_fitted_on_itself_as_a_categorical_of_its_integers(self):
        ints = IntRange(2, 6)
        domains = (ints, Categorical(ints.choices))
        spaces = [define_space([ParamNode("k", domain)]) for domain in domains]
        rng = np.random.default_rng(3)
        history = [
            TrialRecord({"k": int(rng.integers(2, 7))}, float(rng.random())) for _ in range(15)
        ]
        models = [fit_models(space, history, smoothing=1.0)["k"] for space in spaces]
        assert models[0].domain is ints
        assert models[0].weights.tolist() == models[1].weights.tolist()
        weights = fit_categorical([2, 2, 5], ints, 1.0).weights.tolist()
        assert weights == [3 / 8, 1 / 8, 1 / 8, 2 / 8, 1 / 8]
        draws = []
        for space, model in zip(spaces, models):
            rng = np.random.default_rng(9)
            drawn = [_draw(space, {"k": model}, rng)[0]["k"] for _ in range(40)]
            params = TpeParams(n_startup=5, n_candidates=8)
            draws.append((drawn, [suggest(space, history, params, rng) for _ in range(5)]))
        assert draws[0] == draws[1]
        assert all(type(k) is int for k in draws[0][0])


def simpson_integral(model: ParzenContinuous, n_points: int = 10_001) -> float:
    from scipy.integrate import simpson

    xs = np.linspace(model.lo, model.hi, n_points)
    ys = np.asarray(model.pdf(xs))
    return float(simpson(ys, x=xs))


class TestFitContinuous:
    UNIT = Continuous(0.0, 1.0)

    def test_neighbor_width_rule(self):
        model = fit_continuous([0.2, 0.5], self.UNIT)
        np.testing.assert_allclose(model.centers, [0.2, 0.5, 0.5])
        # 0.2: max(0.2 to lower bound, 0.3 to 0.5); 0.5: max(0.3, 0.5 to upper bound).
        np.testing.assert_allclose(model.widths, [0.3, 0.5, 1.0])

    def test_empty_observations_prior_only(self):
        model = fit_continuous([], self.UNIT)
        np.testing.assert_allclose(model.centers, [0.5])
        np.testing.assert_allclose(model.widths, [1.0])

    def test_width_clipping_for_coincident_points(self):
        model = fit_continuous([0.4, 0.4, 0.4], self.UNIT)
        assert np.all(model.widths >= 1e-3)

    def test_normalization_by_quadrature(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            obs = rng.uniform(0.0, 1.0, size=int(rng.integers(0, 25)))
            model = fit_continuous(list(obs), self.UNIT)
            assert abs(simpson_integral(model) - 1.0) <= 1e-3

    def test_out_of_bounds_observation(self):
        with pytest.raises(ValueError, match="outside bounds"):
            fit_continuous([1.5], self.UNIT)

    def test_pdf_zero_outside_bounds(self):
        model = fit_continuous([0.5], self.UNIT)
        assert model.pdf(-0.1) == 0.0
        assert model.pdf(1.1) == 0.0

    def test_pdf_array_matches_scalar(self):
        model = fit_continuous([0.2, 0.5, 0.9], self.UNIT)
        xs = np.linspace(-0.1, 1.1, 23)
        np.testing.assert_allclose(model.pdf(xs), [model.pdf(float(x)) for x in xs])

    def test_log_scale_bounds(self):
        domain = Continuous(1e-5, 1e5, "log10")
        model = fit_continuous([domain.to_internal(1.0)], domain)
        assert (model.lo, model.hi) == (-5.0, 5.0)
        assert abs(simpson_integral(model) - 1.0) <= 1e-3

    def test_sample_in_bounds(self):
        space = define_space([ParamNode("x", self.UNIT)])
        model = fit_continuous([0.05, 0.5, 0.95], self.UNIT)
        rng = np.random.default_rng(22)
        draws = [_draw(space, {"x": model}, rng) for _ in range(500)]
        assert all(0.0 <= a["x"] <= 1.0 and 0.0 <= row[0] <= 1.0 for a, row in draws)

    @pytest.mark.parametrize("out_of_bounds, clipped", [(7.0, 1.0), (-7.0, 0.0)])
    def test_sample_rejection_loop_is_capped(self, out_of_bounds, clipped):
        class AlwaysOutOfBounds:
            normal_calls = 0

            def random(self):
                pytest.fail("a continuous draw took a uniform draw")

            def integers(self, n):
                return 0

            def normal(self, loc, scale):
                self.normal_calls += 1
                return out_of_bounds

        rng = AlwaysOutOfBounds()
        space = define_space([ParamNode("x", self.UNIT)])
        model = fit_continuous([0.5], self.UNIT)
        assert _draw(space, {"x": model}, rng) == ({"x": clipped}, [clipped])
        assert rng.normal_calls == MAX_REJECTION_DRAWS


class TestPathDensity:
    def test_independent_nodes_multiply(self):
        space = define_space(
            [ParamNode("a", Categorical(("x", "y"))), ParamNode("b", Categorical(("p", "q")))]
        )
        trials = [TrialRecord({"a": "x", "b": "p"}, 0.5)]
        models = fit_models(space, trials, smoothing=1.0)
        a = {"a": "x", "b": "p"}
        assert path_density(space, models, a) == pytest.approx(
            models["a"].weights[0] * models["b"].weights[0]
        )

    def test_inactive_nodes_excluded(self):
        space = define_space(
            [
                ParamNode("a", Categorical(("x", "y"))),
                ParamNode("b", Categorical(("p", "q")), Condition("a", ("x",))),
            ]
        )
        models = fit_models(space, [], smoothing=1.0)
        # With a=y the child is inactive, so only the root factor remains.
        assert path_density(space, models, {"a": "y"}) == pytest.approx(models["a"].weights[1])

    def test_density_ignores_inactive_model_changes(self):
        space = define_space(
            [
                ParamNode("a", Categorical(("x", "y"))),
                ParamNode("b", Categorical(("p", "q")), Condition("a", ("x",))),
            ]
        )
        base = fit_models(space, [], smoothing=1.0)
        skewed = dict(base)
        skewed["b"] = fit_categorical(["p"] * 50, Categorical(("p", "q")), smoothing=0.01)
        assignment = {"a": "y"}
        assert path_density(space, base, assignment) == path_density(space, skewed, assignment)

    def test_missing_model_for_active_node(self):
        space = define_space([ParamNode("a", Categorical(("x",)))])
        with pytest.raises(ValueError, match="missing model"):
            path_density(space, {}, {"a": "x"})

    def test_continuous_evaluated_in_log_coordinates(self):
        domain = Continuous(1e-5, 1e5, "log10")
        space = define_space([ParamNode("s", domain)])
        trials = [TrialRecord({"s": 1.0}, 0.5)]
        models = fit_models(space, trials, smoothing=1.0)
        expected = models["s"].pdf(domain.to_internal(10.0))
        assert path_density(space, models, {"s": 10.0}) == pytest.approx(expected)


class TestEiScore:
    def test_direct_substitution(self):
        assert ei_score(0.2, 0.4, 0.15) == pytest.approx(1.0 / 0.575, rel=1e-12)
        assert ei_score(0.2, 0.4, 0.15) == pytest.approx(1.7391, abs=1e-4)

    def test_zero_below_density_is_maximal(self):
        assert ei_score(0.0, 0.4, 0.15) == pytest.approx(1.0 / 0.15)

    def test_strictly_decreasing_in_ratio(self):
        ratios = np.linspace(0.0, 10.0, 100)
        scores = [ei_score(r, 1.0, 0.15) for r in ratios]
        assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_degenerate_above_density(self):
        with pytest.raises(DegenerateDensityError):
            ei_score(0.1, 0.0, 0.15)

    def test_argmax_invariant_to_positive_scaling(self):
        rng = np.random.default_rng(2)
        below = rng.uniform(0.01, 1.0, size=30)
        above = rng.uniform(0.01, 1.0, size=30)
        base = [ei_score(b, a, 0.15) for b, a in zip(below, above)]
        scaled = [ei_score(3.7 * b, 0.21 * a, 0.15) for b, a in zip(below, above)]
        assert int(np.argmax(base)) == int(np.argmax(scaled))


class TestSampleCandidate:
    def test_concentrated_categorical(self):
        space = define_space([ParamNode("weighting", WEIGHT_DOMAIN)])
        trials = [TrialRecord({"weighting": "binary"}, 0.9)] * 40
        models = fit_models(space, trials, smoothing=1e-6)
        rng = np.random.default_rng(0)
        draws = [_draw(space, models, rng)[0]["weighting"] for _ in range(200)]
        assert draws.count("binary") == 200

    def test_empty_population_gives_valid_prior_style_samples(self):
        space = define_space(
            [
                ParamNode("a", Categorical(("x", "y"))),
                ParamNode("s", Continuous(1e-5, 1e5, "log10")),
            ]
        )
        models = fit_models(space, [], smoothing=1.0)
        np.testing.assert_allclose(models["a"].weights, [0.5, 0.5])
        rng = np.random.default_rng(4)
        for _ in range(100):
            candidate = _draw(space, models, rng)[0]
            assert validate_assignment(space, candidate) == []

    def test_empirical_frequencies_match_weights(self):
        space = define_space([ParamNode("w", WEIGHT_DOMAIN)])
        trials = [
            TrialRecord({"w": "tf"}, 0.5),
            TrialRecord({"w": "tf"}, 0.5),
            TrialRecord({"w": "binary"}, 0.5),
        ]
        models = fit_models(space, trials, smoothing=1.0)
        rng = np.random.default_rng(9)
        n = 100_000
        draws = [_draw(space, models, rng)[0]["w"] for _ in range(n)]
        for choice, weight in zip(WEIGHT_DOMAIN.choices, models["w"].weights):
            assert abs(draws.count(choice) / n - weight) < 0.01

    def test_respects_activation(self):
        space = define_space(
            [
                ParamNode("a", Categorical(("x", "y"))),
                ParamNode("b", Categorical(("p", "q")), Condition("a", ("x",))),
            ]
        )
        models = fit_models(space, [], smoothing=1.0)
        rng = np.random.default_rng(8)
        for _ in range(100):
            candidate = _draw(space, models, rng)[0]
            assert ("b" in candidate) == (candidate["a"] == "x")


def oracle_suggest(space, history, gamma, smoothing):
    """Independent expected-improvement argmax over a fully discrete space.

    Reimplements the count-smoothing densities and the relevant-path product
    directly from per-node counts, without using the fitted estimators.
    """
    ordered = sorted(history, key=lambda r: r.y)
    n_below = max(1, math.floor(gamma * len(ordered))) if len(ordered) >= 2 else 0
    ys = [r.y for r in ordered]
    if n_below and ys[n_below - 1] < ys[-1]:
        y_star = min(y for y in ys if y > ys[n_below - 1])
    else:
        y_star = ys[n_below]
    below = [r for r in ordered if r.y < y_star]
    above = [r for r in ordered if r.y >= y_star]

    def population_density(assignment, population):
        density = 1.0
        for node in space.nodes:
            if node.name not in assignment:
                continue
            choices = node.domain.choices
            active = [r for r in population if node.name in r.assignment]
            counts = {c: 0 for c in choices}
            for r in active:
                counts[r.assignment[node.name]] += 1
            total = sum(counts.values()) + smoothing * len(choices)
            density *= (smoothing + counts[assignment[node.name]]) / total
        return density

    best, best_score = None, -math.inf
    for assignment in enumerate_assignments(space):
        p_below = population_density(assignment, below)
        p_above = population_density(assignment, above)
        score = 1.0 / (gamma + (p_below / p_above) * (1.0 - gamma))
        if score > best_score:
            best, best_score = assignment, score
    return best


def discrete_space() -> ConfigSpace:
    return define_space(
        [
            ParamNode("a", Categorical(("x", "y"))),
            ParamNode("b", IntRange(1, 5)),
            ParamNode("c", Categorical(("p", "q", "r")), Condition("a", ("x",))),
        ]
    )


def synthetic_history(space, n, seed):
    rng = np.random.default_rng(seed)
    history = []
    for _ in range(n):
        a = sample_prior(space, rng)
        y = 0.3 * (a["a"] == "x") + 0.1 * a["b"] / 5 + 0.2 * (a.get("c") == "q")
        history.append(TrialRecord(a, y + float(rng.normal(0, 0.05))))
    return history


class TestSuggest:
    def test_startup_phase_uses_prior(self):
        space = text_space = discrete_space()
        params = TpeParams(seed=0)
        suggestion = suggest(space, [], params, np.random.default_rng(0))
        assert validate_assignment(text_space, suggestion) == []

    def test_matches_startup_prior_sample(self):
        space = discrete_space()
        params = TpeParams(n_startup=10)
        history = synthetic_history(space, 3, seed=1)
        assert suggest(space, history, params, np.random.default_rng(42)) == sample_prior(
            space, np.random.default_rng(42)
        )

    def test_deterministic_given_seed(self):
        space = discrete_space()
        params = TpeParams(n_startup=5)
        history = synthetic_history(space, 20, seed=2)
        first = suggest(space, history, params, np.random.default_rng(17))
        second = suggest(space, history, params, np.random.default_rng(17))
        assert first == second

    def test_suggestions_always_valid(self):
        space = discrete_space()
        params = TpeParams(n_startup=5)
        for seed in range(30):
            history = synthetic_history(space, int(np.random.default_rng(seed).integers(1, 30)), seed)
            suggestion = suggest(space, history, params, np.random.default_rng(seed))
            assert validate_assignment(space, suggestion) == []

    def test_prefers_above_population_value(self):
        # All above trials carry g=1, all below trials carry g=3.
        space = define_space(
            [ParamNode("g", Categorical((1, 3))), ParamNode("h", Categorical(("u", "v")))]
        )
        history = [TrialRecord({"g": 3, "h": "u"}, 0.1) for _ in range(3)]
        history += [TrialRecord({"g": 1, "h": "u"}, 0.9) for _ in range(17)]
        params = TpeParams(n_startup=0, smoothing=1e-3)
        suggestion = suggest(
            space,
            history,
            params,
            np.random.default_rng(0),
            candidates=enumerate_assignments(space),
        )
        assert suggestion["g"] == 1
        assert suggestion == oracle_suggest(space, history, params.gamma, params.smoothing)

    def test_table_space_concentrates_on_above_n_min(self):
        from textopt.space import text_rep_space

        space = text_rep_space()
        rng = np.random.default_rng(3)
        history = []
        for i in range(24):
            a = sample_prior(space, rng)
            a["n_min"] = 3 if i < 4 else 1
            for key in [k for k in a if k.startswith("n_span")]:
                del a[key]
            a[f"n_span|n_min={a['n_min']}"] = 0
            history.append(TrialRecord(a, 0.2 if a["n_min"] == 3 else 0.9))
        params = TpeParams(n_startup=0, smoothing=1e-3)
        suggestion = suggest(space, history, params, np.random.default_rng(1))
        assert suggestion["n_min"] == 1

    def test_empty_candidate_list_rejected(self):
        space = discrete_space()
        history = synthetic_history(space, 20, seed=7)
        for n_startup in (0, 30):
            with pytest.raises(ValueError, match="empty"):
                suggest(
                    space, history, TpeParams(n_startup=n_startup), np.random.default_rng(0),
                    candidates=[],
                )

    def test_enumeration_mode_matches_oracle(self):
        space = discrete_space()
        assert len(enumerate_assignments(space)) == 20
        params = TpeParams(n_startup=0, smoothing=1.0)
        for seed in (3, 4, 5, 6):
            history = synthetic_history(space, 20, seed)
            suggestion = suggest(
                space,
                history,
                params,
                np.random.default_rng(seed),
                candidates=enumerate_assignments(space),
            )
            assert suggestion == oracle_suggest(space, history, params.gamma, params.smoothing)


def value_equal(a, b):
    """Equality that keeps bools, numpy bools included, distinct from ints (True is not 1 here)."""
    return a == b and isinstance(a, (bool, np.bool_)) == isinstance(b, (bool, np.bool_))


def scalar_active(node, present):
    """Reference activation: a root, or a child whose parent is present with an activating value."""
    cond = node.condition
    return cond is None or (
        cond.parent in present and any(value_equal(present[cond.parent], v) for v in cond.values)
    )


def scalar_path_density(space, models, assignment):
    """Reference: one scalar density factor per active node, multiplied in node order."""
    density = 1.0
    active = {}
    for node in space.nodes:
        if not scalar_active(node, active):
            continue
        value = active[node.name] = assignment[node.name]
        if isinstance(node.domain, Continuous):
            density *= models[node.name].pdf(node.domain.to_internal(value))
        else:
            index = next(i for i, c in enumerate(node.domain.choices) if value_equal(c, value))
            density *= models[node.name].weights[index]
    return density


def scalar_score(p_below, p_above, gamma):
    return 1.0 / (gamma + (p_below / p_above) * (1.0 - gamma))


def scalar_fit(space, trials, smoothing):
    """Reference fit from the trials' values: each choice's count is a scan for equal values."""
    models = {}
    for node in space.nodes:
        obs = [r.assignment[node.name] for r in trials if node.name in r.assignment]
        if isinstance(node.domain, Continuous):
            internal = [node.domain.to_internal(v) for v in obs]
            models[node.name] = fit_continuous(internal, node.domain)
        else:
            choices = node.domain.choices
            counts = np.array([sum(value_equal(o, c) for o in obs) for c in choices], dtype=float)
            weights = counts + smoothing
            weights /= weights.sum()
            models[node.name] = ParzenCategorical(Categorical(choices), weights)
    return models


def rejection_sample(model, rng):
    """Reference continuous draw: one component, then normal draws until one lands in bounds.

    After ``MAX_REJECTION_DRAWS`` out-of-bounds draws the last one is clipped
    into [lo, hi].
    """
    i = int(rng.integers(model.centers.size))
    for _ in range(MAX_REJECTION_DRAWS):
        x = float(rng.normal(model.centers[i], model.widths[i]))
        if model.lo <= x <= model.hi:
            return x
    return min(max(x, model.lo), model.hi)


def scalar_suggest(space, history, params, rng):
    """Reference suggest: candidates drawn and scored one at a time, strict '>' argmax.

    Categorical draws go through rng.choice(k, p=weights) directly, and
    continuous draws through ``rejection_sample``.
    """
    usable = [r for r in history if math.isfinite(r.y)]
    if len(usable) < params.n_startup or not usable:
        return sample_prior(space, rng)
    split = reference_split(usable, params.gamma)
    below = scalar_fit(space, split.below, params.smoothing)
    above = scalar_fit(space, split.above, params.smoothing)
    candidates = []
    for _ in range(params.n_candidates):
        cand = {}
        for node in space.nodes:
            if not scalar_active(node, cand):
                continue
            model = above[node.name]
            if isinstance(node.domain, Continuous):
                cand[node.name] = node.domain.from_internal(rejection_sample(model, rng))
            else:
                k = len(model.weights)
                cand[node.name] = model.domain.choices[int(rng.choice(k, p=model.weights))]
        candidates.append(cand)
    best, best_score = None, -math.inf
    for cand in candidates:
        p_above = scalar_path_density(space, above, cand)
        if p_above <= 0.0:
            return sample_prior(space, rng)
        score = scalar_score(scalar_path_density(space, below, cand), p_above, params.gamma)
        if score > best_score:
            best, best_score = cand, score
    return best


def mixed_space() -> ConfigSpace:
    """Integer, bool/int and conditional continuous nodes, none of which text_rep_space has."""
    return define_space(
        [
            ParamNode("k", IntRange(1, 6)),
            ParamNode("flag", Categorical((True, False, 1, 0))),
            ParamNode("x", Continuous(-2.0, 3.0)),
            ParamNode("s", Continuous(0.01, 100.0, "log10"), Condition("flag", (True, 1))),
            ParamNode("z", IntRange(0, 3), Condition("k", (2, 3))),
            ParamNode("u", Continuous(0.0, 1.0), Condition("z", (0,))),
        ]
    )


def cheap_objective(assignment):
    """Deterministic score that rewards one discrete cell and one continuous point."""
    a = assignment
    if "n_min" in a:
        cell = (a["n_min"] == 2) + (a["weighting"] == "tf-idf") + (a["regularizer"] == "l1")
        return 0.1 * cell - 0.01 * (math.log10(a["strength"]) - 1.0) ** 2 - 0.02 * (
            math.log10(a["tolerance"]) + 4.0
        ) ** 2
    if "t" in a:
        return 0.3 * (a.get("c") == "b") + 0.1 * a.get("k", 0) - abs(a["x"] - 0.7)
    return (
        -abs(a["x"] - 1.0)
        + 0.1 * a["k"]
        + (0.3 if a["flag"] is True else 0.0)
        - 0.05 * abs(math.log10(a.get("s", 1.0)))
        + 0.2 * a.get("u", 0.0)
    )


SPACES = {
    "text_rep": text_rep_space,
    "mixed": mixed_space,
}


class TestBatchScoring:
    @pytest.mark.parametrize("space_name", sorted(SPACES))
    def test_batch_scores_equal_scalar_scores(self, space_name):
        space = SPACES[space_name]()
        rng = np.random.default_rng(41)
        for _ in range(15):
            history = [
                TrialRecord(sample_prior(space, rng), float(rng.random()))
                for _ in range(int(rng.integers(2, 80)))
            ]
            split = reference_split(history, 0.85)
            below = fit_models(space, split.below, 1.0)
            above = fit_models(space, split.above, 1.0)
            for models, trials in ((below, split.below), (above, split.above)):
                reference = scalar_fit(space, trials, 1.0)
                for name, model in models.items():
                    if isinstance(model, ParzenContinuous):
                        assert model.centers.tolist() == reference[name].centers.tolist()
                        assert model.widths.tolist() == reference[name].widths.tolist()
                    else:
                        assert model.weights.tolist() == reference[name].weights.tolist()
            candidates = [_draw(space, above, rng)[0] for _ in range(64)]
            codes = encoded(space, *candidates)
            batch = ei_score(*_densities(space, [below, above], codes), 0.85).tolist()
            one_at_a_time = [
                ei_score(path_density(space, below, c), path_density(space, above, c), 0.85)
                for c in candidates
            ]
            reference = [
                scalar_score(
                    scalar_path_density(space, below, c), scalar_path_density(space, above, c), 0.85
                )
                for c in candidates
            ]
            assert batch == one_at_a_time == reference

    def test_first_of_tied_maxima_wins(self):
        space = define_space([ParamNode("g", Categorical((1, 3)))])
        history = [TrialRecord({"g": 3}, 0.1) for _ in range(3)]
        history += [TrialRecord({"g": 1}, 0.9) for _ in range(17)]
        params = TpeParams(n_startup=0)
        candidates = [{"g": 3}, {"g": 1}, {"g": 3}, {"g": 1}, {"g": 1}]
        rng = np.random.default_rng(0)
        assert suggest(space, history, params, rng, candidates=candidates) is candidates[1]
        same = [{"g": 3} for _ in range(4)]
        assert suggest(space, history, params, rng, candidates=same) is same[0]

    @pytest.mark.parametrize("space_name", sorted(SPACES))
    def test_run_history_matches_scalar_reference(self, space_name, monkeypatch):
        space = SPACES[space_name]()
        params = TpeParams(seed=3)
        runs = []
        for suggest_fn in (suggest, scalar_suggest):
            states = []

            def recording(space, history, params, rng, suggest_fn=suggest_fn, states=states):
                suggestion = suggest_fn(space, history, params, rng)
                states.append(rng.bit_generator.state)
                return suggestion

            monkeypatch.setattr(smbo, "suggest", recording)
            state = smbo.run(space, cheap_objective, 60, params)
            runs.append(([(r.assignment, r.y) for r in state.history], states))
        (batch, batch_states), (reference, reference_states) = runs
        assert batch == reference
        # The generator ends every suggest in the same state as the reference's.
        assert len(batch_states) == 60
        assert batch_states == reference_states

    @pytest.mark.parametrize("space_name", sorted(SPACES))
    def test_fitted_models_equal_checked_constructions(self, space_name):
        # The fitters build their models without the constructors' checks.
        # The checking constructors, given the reference fit's weights or
        # components, must build the same bytes.
        space = SPACES[space_name]()
        rng = np.random.default_rng(17)
        for _ in range(15):
            history = [
                TrialRecord(sample_prior(space, rng), float(rng.random()))
                for _ in range(int(rng.integers(0, 80)))
            ]
            reference = scalar_fit(space, history, 1.0)
            for name, model in fit_models(space, history, 1.0).items():
                expected = reference[name]
                if isinstance(model, ParzenContinuous):
                    checked = ParzenContinuous(
                        expected.centers.copy(), expected.widths.copy(), expected.lo, expected.hi
                    )
                    assert (model.lo, model.hi) == (checked.lo, checked.hi)
                    fields = ("centers", "widths", "_mass")
                else:
                    checked = ParzenCategorical(model.domain, expected.weights)
                    fields = ("weights", "_cdf")
                for field in fields:
                    ours, theirs = getattr(model, field), getattr(checked, field)
                    assert type(ours) is type(theirs)
                    assert np.asarray(ours).tobytes() == np.asarray(theirs).tobytes()

    @pytest.mark.parametrize("space_name", sorted(SPACES))
    def test_drawn_rows_equal_encoded_draws(self, space_name):
        # Drawn candidates are scored on the rows emitted while drawing, which
        # must be, bit for bit, the rows their assignments encode to.
        space = SPACES[space_name]()
        rng = np.random.default_rng(13)
        history = [TrialRecord(sample_prior(space, rng), float(rng.random())) for _ in range(30)]
        models = fit_models(space, history, smoothing=1.0)
        for _ in range(200):
            assignment, row = _draw(space, models, rng)
            np.testing.assert_array_equal(row, space.encode(assignment))

    @pytest.mark.parametrize(
        "space_name, candidate, node",
        [
            ("mixed", {"k": 2, "flag": False, "x": 7.0, "z": 1}, "x"),
            ("mixed", {"k": 2, "flag": False, "x": 0.0, "z": 4}, "z"),
            ("mixed", {"k": 2, "flag": "yes", "x": 0.0, "z": 1}, "flag"),
            ("text_rep", {"n_min": 1, "n_span|n_min=1": 3}, "n_span|n_min=1"),
            ("mixed", {"k": 2.0, "flag": False, "x": 0.0, "z": 1}, "k"),
        ],
    )
    def test_out_of_domain_candidate_names_node(self, space_name, candidate, node):
        space = SPACES[space_name]()
        rng = np.random.default_rng(5)
        history = [TrialRecord(sample_prior(space, rng), float(rng.random())) for _ in range(20)]
        with pytest.raises(ValueError, match=f"of node '{re.escape(node)}' outside domain"):
            candidates = [sample_prior(space, rng), candidate]
            suggest(space, history, TpeParams(), rng, candidates=candidates)

    def test_record_encoded_under_each_space(self, monkeypatch):
        record = TrialRecord({"a": "y", "b": 2}, 0.5)
        first = define_space(
            [ParamNode("a", Categorical(("x", "y"))), ParamNode("b", IntRange(1, 3))]
        )
        second = define_space(
            [ParamNode("b", IntRange(2, 4)), ParamNode("a", Categorical(("z", "y", "x")))]
        )
        for space in (first, second, first):
            models = fit_models(space, [record], smoothing=1.0)
            for node in space.nodes:
                expected = fit_categorical([record.assignment[node.name]], node.domain, 1.0)
                assert models[node.name].weights.tolist() == expected.weights.tolist()
        # A trial is encoded once per space it is fitted under in turn.
        calls = []
        original = ConfigSpace.encode
        monkeypatch.setattr(
            ConfigSpace, "encode", lambda self, a: calls.append((self, a)) or original(self, a)
        )
        fit_models(first, [record], smoothing=1.0)
        assert calls == []
        fit_models(second, [record], smoothing=1.0)
        assert calls == [(second, record.assignment)]

    def test_pdf_calls_per_suggest_do_not_grow_with_candidates(self, monkeypatch):
        space = text_rep_space()
        n_continuous = sum(isinstance(n.domain, Continuous) for n in space.nodes)
        rng = np.random.default_rng(12)
        history = [TrialRecord(sample_prior(space, rng), float(rng.random())) for _ in range(40)]
        original = ParzenContinuous.pdf
        calls = []

        def counting_pdf(self, x):
            calls.append(np.size(x))
            return original(self, x)

        monkeypatch.setattr(ParzenContinuous, "pdf", counting_pdf)
        counts = {}
        for n_candidates in (1, 8, 64, 256):
            calls.clear()
            suggest(space, history, TpeParams(n_candidates=n_candidates), np.random.default_rng(0))
            counts[n_candidates] = len(calls)
        assert len(set(counts.values())) == 1
        assert 0 < counts[64] <= 2 * n_continuous


# sha256 over (sorted assignment items, y) of every trial of the searches in
# test_run_histories_match_pinned_digest.  A change that moves it changes
# trial histories: a behaviour change, to be reported with the new digest.
HISTORY_DIGEST = "0afa46eff722c0a67331aa02c57164eabd66ec91b8d5c1f025d9fd17b6b54c0d"


def test_run_histories_match_pinned_digest():
    digest = hashlib.sha256()
    for make_space, seed, n_trials in (
        (text_rep_space, 0, 300),
        (text_rep_space, 1, 300),
        (mixed_space, 0, 200),
    ):
        state = smbo.run(make_space(), cheap_objective, n_trials, TpeParams(seed=seed))
        for record in state.history:
            digest.update(repr((sorted(record.assignment.items()), record.y)).encode())
    assert digest.hexdigest() == HISTORY_DIGEST


class TestTpeParams:
    def test_defaults(self):
        params = TpeParams()
        assert params.gamma == 0.85
        assert params.n_candidates == 64
        assert params.n_startup == 10
        assert params.smoothing == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 0.0},
            {"gamma": 1.0},
            {"n_candidates": 0},
            {"n_startup": -1},
            {"smoothing": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TpeParams(**kwargs)
