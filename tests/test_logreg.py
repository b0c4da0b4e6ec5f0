"""Objective/gradient correctness, solver behavior, and prediction rules."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest
import scipy.optimize

from textopt.logreg import (
    Model,
    TrainConfig,
    evaluate_accuracy,
    objective_and_gradient,
    predict,
    train,
)
from textopt.textrep import (
    RepresentationConfig,
    SparseVector,
    build_vocabulary,
    vectorize_corpus,
)


def sv(pairs: dict[int, float], dim: int) -> SparseVector:
    indices = np.asarray(sorted(pairs), dtype=np.int64)
    values = np.asarray([float(pairs[i]) for i in sorted(pairs)], dtype=np.float64)
    return SparseVector(indices, values, dim)


def random_instance(rng: np.random.Generator, max_dim: int = 20, max_classes: int = 4):
    dim = int(rng.integers(2, max_dim + 1))
    k = int(rng.integers(2, max_classes + 1))
    labels = tuple(f"c{i}" for i in range(k))
    n = int(rng.integers(3, 12))
    data = []
    for _ in range(n):
        nnz = int(rng.integers(1, dim + 1))
        idx = rng.choice(dim, size=nnz, replace=False)
        data.append(
            (sv({int(i): float(v) for i, v in zip(idx, rng.normal(size=nnz))}, dim),
             labels[int(rng.integers(k))])
        )
    return data, dim, labels


def finite_difference(fun, weights: np.ndarray, step: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(weights)
    for i in np.ndindex(weights.shape):
        bumped = weights.copy()
        bumped[i] += step
        hi = fun(bumped)
        bumped[i] -= 2 * step
        lo = fun(bumped)
        grad[i] = (hi - lo) / (2 * step)
    return grad


class TestObjectiveAndGradient:
    def test_zero_weights_symmetric_loss(self):
        x = sv({0: 1.0, 2: 0.5}, 3)
        config = TrainConfig("l2", strength=2.0, tolerance=1e-4)
        labels = ("a", "b")
        weights = np.zeros((2, 4))
        value, gradient = objective_and_gradient(weights, [(x, "a")], config, labels)
        assert value == pytest.approx(2.0 * math.log(2))
        # Softmax is symmetric at zero, so the true-class rows pull with -C/2 * x.
        np.testing.assert_allclose(gradient[0], [-1.0, 0.0, -0.5, -1.0])
        np.testing.assert_allclose(gradient[1], [1.0, 0.0, 0.5, 1.0])

    def test_gradient_matches_finite_differences_l2(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            data, dim, labels = random_instance(rng)
            config = TrainConfig("l2", strength=float(rng.uniform(0.1, 10)), tolerance=1e-4)
            weights = rng.normal(scale=0.5, size=(len(labels), dim + 1))
            _, analytic = objective_and_gradient(weights, data, config, labels)
            numeric = finite_difference(
                lambda w: objective_and_gradient(w, data, config, labels)[0], weights
            )
            scale = max(1.0, float(np.max(np.abs(numeric))))
            assert float(np.max(np.abs(analytic - numeric))) / scale <= 1e-5

    def test_gradient_matches_finite_differences_l1_smooth_part(self):
        # The l1 gradient covers the smooth part only; differentiate the
        # objective minus an independently computed penalty term.
        rng = np.random.default_rng(1)
        config_template = dict(tolerance=1e-4)
        for _ in range(10):
            data, dim, labels = random_instance(rng)
            config = TrainConfig("l1", strength=float(rng.uniform(0.1, 10)), **config_template)

            def smooth(w):
                value, _ = objective_and_gradient(w, data, config, labels)
                return value - float(np.sum(np.abs(w[:, :dim])))

            weights = rng.normal(scale=0.5, size=(len(labels), dim + 1))
            _, analytic = objective_and_gradient(weights, data, config, labels)
            numeric = finite_difference(smooth, weights)
            scale = max(1.0, float(np.max(np.abs(numeric))))
            assert float(np.max(np.abs(analytic - numeric))) / scale <= 1e-5

    def test_doubling_strength_doubles_loss_term(self):
        rng = np.random.default_rng(2)
        data, dim, labels = random_instance(rng)
        weights = rng.normal(size=(len(labels), dim + 1))
        coef = weights[:, :dim]
        value1, _ = objective_and_gradient(
            weights, data, TrainConfig("l2", 1.0, 1e-4), labels
        )
        value2, _ = objective_and_gradient(
            weights, data, TrainConfig("l2", 2.0, 1e-4), labels
        )
        penalty = 0.5 * float(np.sum(coef * coef))
        assert value2 - penalty == pytest.approx(2.0 * (value1 - penalty), rel=1e-12)

    def test_convexity_midpoint(self):
        rng = np.random.default_rng(3)
        for penalty in ("l1", "l2"):
            config = TrainConfig(penalty, strength=1.5, tolerance=1e-4)
            for _ in range(20):
                data, dim, labels = random_instance(rng)
                w1 = rng.normal(size=(len(labels), dim + 1))
                w2 = rng.normal(size=(len(labels), dim + 1))
                f = lambda w: objective_and_gradient(w, data, config, labels)[0]
                assert f(0.5 * (w1 + w2)) <= 0.5 * (f(w1) + f(w2)) + 1e-9

    def test_dimension_mismatch_rejected(self):
        config = TrainConfig("l2", 1.0, 1e-4)
        with pytest.raises(ValueError, match="dimension"):
            objective_and_gradient(np.zeros((2, 4)), [(sv({0: 1.0}, 5), "a")], config, ("a", "b"))

    def test_strength_applies_to_penalty_flag(self):
        rng = np.random.default_rng(4)
        data, dim, labels = random_instance(rng)
        weights = rng.normal(size=(len(labels), dim + 1))
        coef = weights[:, :dim]
        loss_side, _ = objective_and_gradient(
            weights, data, TrainConfig("l2", 1.0, 1e-4), labels
        )
        penalty_side, _ = objective_and_gradient(
            weights, data, TrainConfig("l2", 3.0, 1e-4, strength_applies_to="penalty"), labels
        )
        base_loss = loss_side - 0.5 * float(np.sum(coef * coef))
        assert penalty_side == pytest.approx(base_loss + 3.0 * 0.5 * float(np.sum(coef * coef)))


SEPARABLE = [
    (lambda: sv({0: 1.0}, 2), "A"),
    (lambda: sv({1: 1.0}, 2), "B"),
]


def separable_data():
    return [(make(), label) for make, label in SEPARABLE]


class TestTrain:
    def test_separable_data_fit_perfectly(self):
        config = TrainConfig("l2", strength=100.0, tolerance=1e-5)
        model = train(separable_data(), config, dim=2, labels=("A", "B"))
        assert evaluate_accuracy(model, separable_data()) == 1.0

    def test_l1_with_tiny_strength_returns_zero_coefficients(self):
        # At w=0 the loss gradient magnitude is far below the l1 threshold, so
        # zero is optimal for every penalized coordinate.
        config = TrainConfig("l1", strength=1e-5, tolerance=1e-5)
        model = train(separable_data(), config, dim=2, labels=("A", "B"))
        assert float(np.max(np.abs(model.coef))) == 0.0

    def test_descent_from_zero(self):
        rng = np.random.default_rng(5)
        for penalty in ("l1", "l2"):
            data, dim, labels = random_instance(rng)
            config = TrainConfig(penalty, strength=2.0, tolerance=1e-4)
            model = train(data, config, dim, labels)
            weights = np.concatenate([model.coef, model.intercept[:, None]], axis=1)
            final, _ = objective_and_gradient(weights, data, config, labels)
            at_zero, _ = objective_and_gradient(np.zeros_like(weights), data, config, labels)
            assert final <= at_zero + 1e-12

    def test_tighter_tolerance_not_worse(self):
        rng = np.random.default_rng(6)
        data, dim, labels = random_instance(rng)
        values = {}
        for tolerance in (1e-3, 1e-5):
            config = TrainConfig("l2", strength=5.0, tolerance=tolerance)
            model = train(data, config, dim, labels)
            weights = np.concatenate([model.coef, model.intercept[:, None]], axis=1)
            values[tolerance], _ = objective_and_gradient(weights, data, config, labels)
        assert values[1e-5] <= values[1e-3] + 1e-8

    def test_bitwise_deterministic(self):
        rng_data = np.random.default_rng(7)
        data, dim, labels = random_instance(rng_data)
        for penalty in ("l1", "l2"):
            config = TrainConfig(penalty, strength=3.0, tolerance=1e-5)
            first = train(data, config, dim, labels)
            second = train(data, config, dim, labels)
            assert np.array_equal(first.coef, second.coef)
            assert np.array_equal(first.intercept, second.intercept)

    @pytest.mark.parametrize("penalty", ["l1", "l2"])
    def test_empty_vocabulary_gives_intercept_only_model(self, penalty):
        # Trigrams over two-token documents: the vocabulary and every vector are empty.
        texts, labels = ["red apple", "green apple", "blue sky"], ["A", "A", "B"]
        config = RepresentationConfig(3, 3, "tf", False)
        vocab = build_vocabulary(texts, config)
        assert vocab.size == 0
        data = list(zip(vectorize_corpus(texts, vocab, config), labels))
        model = train(data, TrainConfig(penalty, 10.0, 1e-6), dim=0, labels=("A", "B"))
        assert model.converged
        assert model.coef.shape == (2, 0)
        # The intercepts fit the label frequencies: softmax(intercept) = (2/3, 1/3).
        assert model.intercept[0] - model.intercept[1] == pytest.approx(math.log(2), rel=1e-4)
        assert evaluate_accuracy(model, data) == pytest.approx(2 / 3)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train([], TrainConfig("l2", 1.0, 1e-4), dim=2, labels=("A",))

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            train([(sv({0: 1.0}, 1), "C")], TrainConfig("l2", 1.0, 1e-4), 1, ("A", "B"))


def stopping_residual(model, data, dim, labels, config) -> float:
    """Infinity norm of the l1 pseudo-gradient at the fit over its stopping bound."""
    weights = np.concatenate([model.coef, model.intercept[:, None]], axis=1)
    _, smooth = objective_and_gradient(weights, data, config, labels)
    _, smooth0 = objective_and_gradient(np.zeros_like(weights), data, config, labels)
    lam = config.penalty_weight
    pseudo = smooth.copy()
    for idx in np.ndindex(model.coef.shape):
        w, g = model.coef[idx], smooth[idx]
        if w != 0.0:
            pseudo[idx] = g + lam * math.copysign(1.0, w)
        elif abs(g) > lam:
            pseudo[idx] = g - math.copysign(lam, g)
        else:
            pseudo[idx] = 0.0
    return float(np.max(np.abs(pseudo))) / (config.tolerance * float(np.max(np.abs(smooth0))))


def split_l1_objective(data, dim, labels, config) -> float:
    """Optimal l1 objective from an independent U - V split under L-BFGS-B."""
    k = len(labels)
    block = k * dim
    lam = config.penalty_weight

    def fun(z):
        u, v, b = z[:block], z[block : 2 * block], z[2 * block :]
        weights = np.concatenate([(u - v).reshape(k, dim), b[:, None]], axis=1)
        value, grad = objective_and_gradient(weights, data, config, labels)
        value += lam * float(np.sum(u) + np.sum(v) - np.sum(np.abs(u - v)))
        g = grad[:, :dim].ravel()
        return value, np.concatenate([g + lam, -g + lam, grad[:, dim]])

    result = scipy.optimize.minimize(
        fun,
        np.zeros(2 * block + k),
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, None)] * (2 * block) + [(None, None)] * k,
        options={"maxiter": 20000, "maxfun": 10**6, "ftol": 0.0, "gtol": 1e-12},
    )
    return float(result.fun)


class TestTrainL1:
    @pytest.mark.parametrize("strength_applies_to", ["loss", "penalty"])
    def test_converged_fit_meets_stop_rule(self, strength_applies_to):
        rng = np.random.default_rng(11)
        for _ in range(10):
            data, dim, labels = random_instance(rng)
            strength = float(10 ** rng.uniform(-1, 2))
            tolerance = float(10 ** rng.uniform(-6, -3))
            config = TrainConfig("l1", strength, tolerance, strength_applies_to=strength_applies_to)
            model = train(data, config, dim, labels)
            assert model.converged
            # Exact zeros are the solver's job; recomputation may differ in the last bits.
            assert stopping_residual(model, data, dim, labels, config) <= 1.0 + 1e-9

    def test_tight_tolerance_matches_split_reference(self):
        rng = np.random.default_rng(12)
        for strength in (0.5, 5.0, 50.0):
            data, dim, labels = random_instance(rng)
            config = TrainConfig("l1", strength, 1e-8)
            model = train(data, config, dim, labels)
            weights = np.concatenate([model.coef, model.intercept[:, None]], axis=1)
            value, _ = objective_and_gradient(weights, data, config, labels)
            assert value == pytest.approx(split_l1_objective(data, dim, labels, config), rel=1e-6)

    def test_iteration_cap_reports_nonconvergence(self, caplog):
        rng = np.random.default_rng(13)
        data, dim, labels = random_instance(rng)
        config = TrainConfig("l1", 5.0, 1e-6, max_iterations=1)
        with caplog.at_level(logging.WARNING, logger="textopt.logreg"):
            model = train(data, config, dim, labels)
        assert not model.converged
        assert "iteration cap" in caplog.text


class TestPredict:
    def model(self, coef, intercept=None, labels=("A", "B")):
        coef = np.asarray(coef, dtype=float)
        if intercept is None:
            intercept = np.zeros(coef.shape[0])
        return Model(labels, coef, np.asarray(intercept, dtype=float))

    def test_argmax_of_scores(self):
        model = self.model([[1.0, 0.0], [0.0, 1.0]])
        assert predict(model, sv({0: 1.0}, 2)) == "A"
        assert predict(model, sv({1: 1.0}, 2)) == "B"

    def test_tie_breaks_to_first_label(self):
        model = self.model([[0.0, 0.0], [0.0, 0.0]])
        assert predict(model, sv({0: 1.0}, 2)) == "A"

    def test_constant_shift_leaves_predictions_unchanged(self):
        rng = np.random.default_rng(8)
        coef = rng.normal(size=(3, 4))
        shift = rng.normal(size=4)
        base = self.model(coef, labels=("A", "B", "C"))
        shifted = self.model(coef + shift, labels=("A", "B", "C"))
        for _ in range(50):
            nnz = int(rng.integers(1, 5))
            idx = rng.choice(4, size=nnz, replace=False)
            vec = sv({int(i): float(v) for i, v in zip(idx, rng.normal(size=nnz))}, 4)
            assert predict(base, vec) == predict(shifted, vec)


class TestEvaluateAccuracy:
    def test_perfect_model(self):
        config = TrainConfig("l2", strength=100.0, tolerance=1e-5)
        model = train(separable_data(), config, dim=2, labels=("A", "B"))
        dataset = separable_data() * 5
        assert evaluate_accuracy(model, dataset) == 1.0

    def test_constant_prediction_on_balanced_set(self):
        model = Model(("A", "B"), np.zeros((2, 2)), np.asarray([1.0, 0.0]))
        dataset = [(sv({0: 1.0}, 2), "A"), (sv({0: 1.0}, 2), "B")] * 3
        assert evaluate_accuracy(model, dataset) == 0.5

    def test_matches_naive_recount(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            data, dim, labels = random_instance(rng)
            config = TrainConfig("l2", strength=1.0, tolerance=1e-4)
            model = train(data, config, dim, labels)
            recount = sum(1 for vec, label in data if predict(model, vec) == label)
            assert evaluate_accuracy(model, data) == pytest.approx(recount / len(data))

    def test_empty_dataset_rejected(self):
        model = Model(("A",), np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValueError, match="empty"):
            evaluate_accuracy(model, [])


class TestModelSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        data, dim, labels = random_instance(rng)
        model = train(data, TrainConfig("l2", 2.0, 1e-4), dim, labels)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = Model.load(path)
        assert loaded.labels == model.labels
        assert np.array_equal(loaded.coef, model.coef)
        assert np.array_equal(loaded.intercept, model.intercept)
        assert loaded.converged == model.converged


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"penalty": "elastic", "strength": 1.0, "tolerance": 1e-4},
            {"penalty": "l2", "strength": 1e-6, "tolerance": 1e-4},
            {"penalty": "l2", "strength": 1e6, "tolerance": 1e-4},
            {"penalty": "l2", "strength": 1.0, "tolerance": 0.0},
            {"penalty": "l2", "strength": 1.0, "tolerance": 1.0},
            {"penalty": "l2", "strength": 1.0, "tolerance": 1e-4, "max_iterations": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)
