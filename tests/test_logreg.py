"""Objective/gradient correctness, solver behavior, and prediction rules."""

from __future__ import annotations

import hashlib
import logging
import math
import re
from collections import deque

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
import scipy.special

from textopt import logreg
from textopt.logreg import (
    LabeledRows,
    Model,
    TrainConfig,
    _logsumexp_classes,
    evaluate_accuracy,
    objective_and_gradient,
    predict,
    train,
)
from textopt.textrep import Featurizer, RepresentationConfig, build_vocabulary, vectorize_corpus


def csr(entries: list[dict[int, float]], dim: int) -> scipy.sparse.csr_matrix:
    """CSR matrix of ``dim`` columns whose row i holds ``entries[i]`` (column: value)."""
    indptr = np.cumsum([0] + [len(row) for row in entries])
    indices = np.asarray([i for row in entries for i in sorted(row)], dtype=np.int64)
    values = np.asarray([float(row[i]) for row in entries for i in sorted(row)], dtype=np.float64)
    return scipy.sparse.csr_matrix((values, indices, indptr), shape=(len(entries), dim))


def labeled(entries: list[dict[int, float]], labels: list[str], dim: int) -> LabeledRows:
    return LabeledRows(csr(entries, dim), list(labels))


def random_instance(rng: np.random.Generator, max_dim: int = 20, max_classes: int = 4):
    dim = int(rng.integers(2, max_dim + 1))
    k = int(rng.integers(2, max_classes + 1))
    labels = tuple(f"c{i}" for i in range(k))
    n = int(rng.integers(3, 12))
    entries, row_labels = [], []
    for _ in range(n):
        nnz = int(rng.integers(1, dim + 1))
        idx = rng.choice(dim, size=nnz, replace=False)
        entries.append({int(i): float(v) for i, v in zip(idx, rng.normal(size=nnz))})
        row_labels.append(labels[int(rng.integers(k))])
    return labeled(entries, row_labels, dim), dim, labels


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
        data = labeled([{0: 1.0, 2: 0.5}], ["a"], 3)
        config = TrainConfig("l2", strength=2.0, tolerance=1e-4)
        labels = ("a", "b")
        weights = np.zeros((2, 4))
        value, gradient = objective_and_gradient(weights, data, config, labels)
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

    @pytest.mark.parametrize("penalty", ["l1", "l2"])
    def test_binary_objective_equals_full_objective_on_its_subspace(self, penalty):
        # Two-class solves run on w1 = -w0, b1 = -b0 in coordinates
        # (u, c) = sqrt(2) * (w0, b0).  At W = [[u, c], [-u, -c]] / sqrt(2)
        # the full objective's value is the two-class objective's, and its
        # gradient maps to (G[0] - G[1]) / sqrt(2).  Weights up to about 300
        # saturate softplus and expit.
        def close(ours, theirs):
            return np.all(np.abs(ours - theirs) <= 1e-10 * np.maximum(1.0, np.abs(theirs)))

        root2 = math.sqrt(2.0)
        rng = np.random.default_rng(37)
        for _ in range(200):
            data, dim, labels = random_instance(rng, max_classes=2)
            config = TrainConfig(penalty, strength=float(10 ** rng.uniform(-3, 3)), tolerance=1e-4)
            z = rng.normal(scale=10 ** rng.uniform(-1, 2.5), size=dim + 1)
            sign = np.where(logreg._label_indices(data, labels) == 0, -root2, root2)
            value, gradient = logreg._binary_objective(
                z, data.x, data.x.T.tocsr(), sign, config, np.full(dim, root2)
            )
            weights = np.array([z, -z]) / root2
            full_value, full_gradient = objective_and_gradient(weights, data, config, labels)
            assert close(value, full_value)
            assert close(gradient(), (full_gradient[0] - full_gradient[1]) / root2)

    def test_dimension_mismatch_rejected(self):
        config = TrainConfig("l2", 1.0, 1e-4)
        data = labeled([{0: 1.0}], ["a"], 5)
        with pytest.raises(ValueError, match="dimension"):
            objective_and_gradient(np.zeros((2, 4)), data, config, ("a", "b"))


def separable_data(copies: int = 1) -> LabeledRows:
    return labeled([{0: 1.0}, {1: 1.0}] * copies, ["A", "B"] * copies, 2)


class TestTrain:
    def test_separable_data_fit_perfectly(self):
        config = TrainConfig("l2", strength=100.0, tolerance=1e-5)
        model = train(separable_data(), config, labels=("A", "B"))
        assert evaluate_accuracy(model, separable_data()) == 1.0

    def test_l1_with_tiny_strength_returns_zero_coefficients(self):
        # At w=0 the loss gradient magnitude is far below the l1 threshold, so
        # zero is optimal for every penalized coordinate.
        config = TrainConfig("l1", strength=1e-5, tolerance=1e-5)
        model = train(separable_data(), config, labels=("A", "B"))
        assert float(np.max(np.abs(model.coef))) == 0.0

    def test_descent_from_zero(self):
        rng = np.random.default_rng(5)
        for penalty in ("l1", "l2"):
            data, dim, labels = random_instance(rng)
            config = TrainConfig(penalty, strength=2.0, tolerance=1e-4)
            model = train(data, config, labels)
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
            model = train(data, config, labels)
            weights = np.concatenate([model.coef, model.intercept[:, None]], axis=1)
            values[tolerance], _ = objective_and_gradient(weights, data, config, labels)
        assert values[1e-5] <= values[1e-3] + 1e-8

    def test_bitwise_deterministic(self):
        rng_data = np.random.default_rng(7)
        data, dim, labels = random_instance(rng_data)
        for penalty in ("l1", "l2"):
            config = TrainConfig(penalty, strength=3.0, tolerance=1e-5)
            first = train(data, config, labels)
            second = train(data, config, labels)
            assert np.array_equal(first.coef, second.coef)
            assert np.array_equal(first.intercept, second.intercept)

    @pytest.mark.parametrize("penalty", ["l1", "l2"])
    def test_empty_vocabulary_gives_intercept_only_model(self, penalty):
        # Trigrams over two-token documents: the vocabulary and every vector are empty.
        texts, labels = ["red apple", "green apple", "blue sky"], ["A", "A", "B"]
        config = RepresentationConfig(3, 3, "tf", False)
        featurizer = Featurizer(texts)
        vocab = build_vocabulary(featurizer.train, config)
        assert vocab.size == 0
        data = LabeledRows(vectorize_corpus(featurizer.train, vocab, config).matrix, labels)
        model = train(data, TrainConfig(penalty, 10.0, 1e-6), labels=("A", "B"))
        assert model.converged
        assert model.coef.shape == (2, 0)
        # The intercepts fit the label frequencies: softmax(intercept) = (2/3, 1/3).
        assert model.intercept[0] - model.intercept[1] == pytest.approx(math.log(2), rel=1e-4)
        assert evaluate_accuracy(model, data) == pytest.approx(2 / 3)

    @pytest.mark.parametrize("penalty", ["l1", "l2"])
    def test_single_label_gives_zero_model(self, penalty):
        # With one class the loss is 0 at any weights, so its gradient at zero
        # is 0 and the solver stops before its first step.
        data = labeled([{0: 1.0}, {1: 2.0}], ["A", "A"], 2)
        model = train(data, TrainConfig(penalty, 10.0, 1e-6), labels=("A",))
        assert model.converged
        assert not model.coef.any() and not model.intercept.any()

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(labeled([], [], 2), TrainConfig("l2", 1.0, 1e-4), labels=("A",))

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            train(labeled([{0: 1.0}], ["C"], 1), TrainConfig("l2", 1.0, 1e-4), ("A", "B"))


def stopping_residual(model, data, dim, labels, config) -> float:
    """Infinity norm of the gradient (l1: pseudo-gradient) at the fit over its stopping bound."""
    weights = np.concatenate([model.coef, model.intercept[:, None]], axis=1)
    _, smooth = objective_and_gradient(weights, data, config, labels)
    _, smooth0 = objective_and_gradient(np.zeros_like(weights), data, config, labels)
    lam = 1.0  # the penalty's weight: strength scales the loss
    pseudo = smooth.copy()
    if config.penalty == "l1":
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
    lam = 1.0  # the penalty's weight: strength scales the loss

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


def lbfgsb_l2_objective(data, dim, labels, config) -> float:
    """Optimal l2 objective from scipy's L-BFGS-B."""
    k = len(labels)

    def fun(z):
        value, grad = objective_and_gradient(z.reshape(k, dim + 1), data, config, labels)
        return value, grad.ravel()

    result = scipy.optimize.minimize(
        fun,
        np.zeros(k * (dim + 1)),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 20000, "maxfun": 10**6, "ftol": 0.0, "gtol": 1e-12},
    )
    return float(result.fun)


class TestLogsumexpRows:
    def _rows(self):
        rng = np.random.default_rng(5)
        yield rng.normal(scale=30.0, size=(400, 2))
        yield rng.normal(size=(50, 7))
        yield rng.normal(size=(20, 1))  # one column
        tied = rng.integers(-3, 4, size=(200, 4)).astype(float)  # many tied maxima
        tied[:, 1] = tied[:, 0]
        yield tied
        yield np.array([[700.0, -700.0, 700.0], [-700.0, -700.0, -700.0], [700.0, 699.5, 0.0]])
        yield np.array([[0.0, -np.inf], [-np.inf, -np.inf], [np.inf, 1.0], [np.nan, 0.0]])
        # Past 8 classes numpy sums a row in pairwise blocks, not left to right.
        many = rng.normal(scale=5.0, size=(300, 20))
        many[::3, 7] = many[::3, 2]  # tied maxima among many classes
        yield many

    def test_bitwise_equal_to_scipy(self):
        for scores in self._rows():
            with np.errstate(invalid="ignore"):
                expected = scipy.special.logsumexp(scores, axis=1)
            assert _logsumexp_classes(np.ascontiguousarray(scores.T)).tobytes() == expected.tobytes()


class TestTrainL1:
    """Stop rule, optimum and iteration cap of the solver; TestTrainL2 runs them for l2."""

    penalty = "l1"
    strengths = (0.5, 5.0, 50.0)  # of the tight-tolerance comparison
    reference = staticmethod(split_l1_objective)

    def test_converged_fit_meets_stop_rule(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            data, dim, labels = random_instance(rng)
            strength = float(10 ** rng.uniform(-1, 2))
            tolerance = float(10 ** rng.uniform(-6, -3))
            config = TrainConfig(self.penalty, strength, tolerance)
            model = train(data, config, labels)
            assert model.converged
            # Exact zeros are the solver's job; recomputation may differ in the last bits.
            assert stopping_residual(model, data, dim, labels, config) <= 1.0 + 1e-9

    def test_tight_tolerance_matches_split_reference(self):
        rng = np.random.default_rng(12)
        for strength in self.strengths:
            data, dim, labels = random_instance(rng)
            config = TrainConfig(self.penalty, strength, 1e-8)
            model = train(data, config, labels)
            weights = np.concatenate([model.coef, model.intercept[:, None]], axis=1)
            value, _ = objective_and_gradient(weights, data, config, labels)
            assert value == pytest.approx(self.reference(data, dim, labels, config), rel=1e-6)

    def test_iteration_cap_reports_nonconvergence(self, caplog):
        rng = np.random.default_rng(13)
        data, dim, labels = random_instance(rng)
        config = TrainConfig(self.penalty, 5.0, 1e-6, max_iterations=1)
        with caplog.at_level(logging.WARNING, logger="textopt.logreg"):
            model = train(data, config, labels)
        assert not model.converged
        assert "iteration cap" in caplog.text


class TestTrainL2(TestTrainL1):
    """The same checks for l2, against scipy's L-BFGS-B on the same objective."""

    penalty = "l2"
    strengths = (1e-3, 1.0, 1e3)
    reference = staticmethod(lbfgsb_l2_objective)


def sparse_instance(
    rng: np.random.Generator, n_docs: int = 40, dim: int = 300, k: int = 3, density: float = 0.03
):
    """A wide sparse problem: nonnegative CSR features, labels from a planted sparse model."""
    mask = rng.random((n_docs, dim)) < density
    x = scipy.sparse.csr_matrix(np.where(mask, rng.exponential(size=(n_docs, dim)), 0.0))
    planted = rng.normal(scale=3.0, size=(dim, k)) * (rng.random(dim) < 0.1)[:, None]
    labels = tuple(f"c{i}" for i in range(k))
    y = np.argmax(x @ planted + rng.gumbel(size=(n_docs, k)), axis=1)
    return LabeledRows(x, [labels[i] for i in y]), dim, labels


def distinct_columns(rows: LabeledRows) -> tuple[LabeledRows, int]:
    """``rows`` keeping the first of each set of identical columns, and its column count.

    The solver trains on such columns as given, without merging any.
    """
    _, first = np.unique(rows.x.toarray().T, axis=0, return_index=True)
    keep = np.sort(first)
    rows = LabeledRows(rows.x[:, keep], rows.labels)
    assert logreg._merge_identical_columns(rows.x)[0] is rows.x
    return rows, keep.size


def full_vector_owlqn(rows: LabeledRows, config: TrainConfig, labels):
    """Weights (k, F + 1), objective and converged flag of OWL-QN over all coordinates.

    The l1 loop as the solver ran it before it moved to working sets and
    merged identical columns: the two-loop recursion over full-length (s, y)
    pairs, the sign filter, orthant projection and Armijo test over every
    coordinate of the unreduced problem.  For l2 it is plain L-BFGS.  The
    weights are the (k, F + 1) matrix flattened row by row, so the coordinates
    are ordered differently from the solver's.
    """
    k, dim = len(labels), rows.x.shape[1]
    l1 = config.penalty == "l1"
    lam = 1.0  # the penalty's weight: strength scales the loss
    penalized = np.zeros((k, dim + 1), dtype=bool)
    penalized[:, :dim] = True
    penalized = penalized.ravel()

    def evaluate(w):
        value, grad = objective_and_gradient(w.reshape(k, dim + 1), rows, config, labels)
        return value, grad.ravel()

    def pseudo_gradient(w, g):
        if not l1:
            return g
        shrunk = g - np.clip(g, -lam, lam)
        return np.where(penalized, np.where(w != 0.0, g + lam * np.sign(w), shrunk), g)

    w = np.zeros(k * (dim + 1))
    value, g = evaluate(w)
    gtol = config.tolerance * float(np.max(np.abs(g)))
    pg = pseudo_gradient(w, g)
    pairs = deque(maxlen=10)
    for _ in range(config.max_iterations):
        if float(np.max(np.abs(pg))) <= gtol:
            break
        q = -pg
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * float(s @ q))
            q = q - alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            q = q * (float(s @ y) / float(y @ y))
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            q = q + (alpha - rho * float(y @ q)) * s
        d = np.where(q * pg < 0.0, q, 0.0) if l1 else q
        orthant = np.where(w != 0.0, np.sign(w), np.sign(-pg))
        step = 1.0 if pairs else 1.0 / float(np.linalg.norm(d))
        for _ in range(40):
            w_new = w + step * d
            if l1:
                w_new[penalized & (np.sign(w_new) != orthant)] = 0.0
            value_new, g_new = evaluate(w_new)
            if value_new <= value + 1e-4 * float(pg @ (w_new - w)):
                break
            step *= 0.5
        else:
            break
        s = w_new - w
        y = np.where(s != 0.0, g_new - g, 0.0) if l1 else g_new - g
        if float(s @ y) > 0.0:
            pairs.append((s, y, 1.0 / float(s @ y)))
        w, g, value = w_new, g_new, value_new
        pg = pseudo_gradient(w, g)
    return w.reshape(k, dim + 1), value, float(np.max(np.abs(pg))) <= gtol


def train_recording_pairs(monkeypatch, rows, config, labels):
    """Fit, and return the model with the stored (support, s, y, rho) pairs of every iteration."""
    seen = []
    inner = logreg._two_loop

    def spy(q, pairs):
        seen.append(list(pairs))
        return inner(q, pairs)

    monkeypatch.setattr(logreg, "_two_loop", spy)
    return train(rows, config, labels), seen


def check_against_full_vector(rows, dim, labels, config) -> Model:
    """Fit, check the fit and its first iterates against ``full_vector_owlqn``, and return it."""
    model = train(rows, config, labels)
    _, reference, reference_converged = full_vector_owlqn(rows, config, labels)
    assert model.converged == reference_converged
    if model.converged:
        assert stopping_residual(model, rows, dim, labels, config) <= 1.0 + 1e-9
    weights = np.concatenate([model.coef, model.intercept[:, None]], axis=1)
    value, _ = objective_and_gradient(weights, rows, config, labels)
    assert value == pytest.approx(reference, rel=1e-6)
    # In exact arithmetic the iterates are the same; early on, before
    # rounding differences grow, they agree to near machine precision.
    early = TrainConfig(config.penalty, config.strength, config.tolerance, max_iterations=8)
    model_early = train(rows, early, labels)
    weights = np.concatenate([model_early.coef, model_early.intercept[:, None]], axis=1)
    expected, _, _ = full_vector_owlqn(rows, early, labels)
    np.testing.assert_allclose(weights, expected, rtol=1e-9, atol=1e-12)
    return model


class TestWorkingSet:
    """The solver against the full-vector loop, and where its l1 pairs live.

    Two-class problems check the solve on the subspace w1 = -w0, b1 = -b0
    against the full softmax.
    """

    @pytest.mark.parametrize("seed", [24, 30])
    def test_matches_full_vector_owlqn(self, seed):
        rng = np.random.default_rng(seed)
        for k in (3, 2):
            for strength in (0.5, 3.0, 30.0, 300.0):
                rows, dim, labels = sparse_instance(rng, k=k)
                config = TrainConfig("l1", strength, 1e-8)
                model = check_against_full_vector(rows, dim, labels, config)
                # A two-class instance at C = 300 can be separable enough that
                # neither loop meets the stop rule within 1000 iterations.
                assert model.converged or (k == 2 and strength == 300.0)

    @pytest.mark.parametrize("seed", [24, 30])
    def test_l2_matches_full_vector_lbfgs(self, seed):
        rng = np.random.default_rng(seed)
        for k in (3, 2):
            for strength in (0.05, 0.5, 3.0, 30.0):
                rows, dim, labels = sparse_instance(rng, k=k)
                config = TrainConfig("l2", strength, 1e-8)
                assert check_against_full_vector(rows, dim, labels, config).converged

    def test_sparse_fit_stores_pairs_on_moved_coordinates(self, monkeypatch):
        rng = np.random.default_rng(23)
        rows, dim, labels = sparse_instance(rng, n_docs=100, density=0.05)
        rows, dim = distinct_columns(rows)
        model, seen = train_recording_pairs(monkeypatch, rows, TrainConfig("l1", 1.0, 1e-8), labels)
        assert model.converged and len(seen) > 20
        n_coords = len(labels) * (dim + 1)
        pairs = {id(pair): pair for iteration in seen for pair in iteration}.values()
        assert len(pairs) > 20
        for support, s, y, _ in pairs:
            assert isinstance(support, np.ndarray)
            assert s.size == y.size == support.size == np.count_nonzero(s) < n_coords / 2
            assert np.all(np.diff(support) > 0) and support[-1] < n_coords

    def test_dense_support_fit_runs_on_full_vectors(self, monkeypatch):
        rng = np.random.default_rng(24)
        rows, dim, labels = sparse_instance(rng, n_docs=400, dim=20, density=0.5)
        rows, dim = distinct_columns(rows)
        config = TrainConfig("l1", 1e4, 1e-6)
        model, seen = train_recording_pairs(monkeypatch, rows, config, labels)
        assert model.converged and np.count_nonzero(model.coef) > 0.9 * model.coef.size
        pairs = list({id(pair): pair for iteration in seen for pair in iteration}.values())
        full = [pair for pair in pairs if isinstance(pair[0], slice)]
        assert len(pairs) > 20 and len(full) > 0.9 * len(pairs)
        # The few steps that moved under half of the coordinates keep their pairs on those.
        n_coords = len(labels) * (dim + 1)
        for support, s, _, _ in pairs:
            assert isinstance(support, slice) or np.count_nonzero(s) == s.size < n_coords / 2
        weights = np.concatenate([model.coef, model.intercept[:, None]], axis=1)
        value, _ = objective_and_gradient(weights, rows, config, labels)
        assert value == pytest.approx(full_vector_owlqn(rows, config, labels)[1], rel=1e-6)


def planted_copies_instance(rng: np.random.Generator, n_docs: int = 40, k: int = 3):
    """A sparse problem whose columns come in sets of 1, 2, 5 and 40 copies.

    One more column is all zero.  Returns the rows, the column count, the
    labels and the set of each column.
    """
    sizes = [1] * 12 + [2] * 4 + [5] * 3 + [40, 1]
    base = np.zeros((n_docs, len(sizes)))
    for j in range(len(sizes) - 1):  # the last set is the all-zero column
        docs = rng.choice(n_docs, size=int(rng.integers(1, 6)), replace=False)
        base[docs, j] = rng.exponential(size=docs.size)
    copy_of = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    x = scipy.sparse.csr_matrix(base[:, copy_of])
    labels = tuple(f"c{i}" for i in range(k))
    planted = rng.normal(scale=3.0, size=(len(sizes), k))
    y = np.argmax(base @ planted + rng.gumbel(size=(n_docs, k)), axis=1)
    return LabeledRows(x, [labels[i] for i in y]), x.shape[1], labels, copy_of


def check_against_unreduced(rows, dim, labels, copy_of, config) -> Model:
    """Fit with merged columns, check it against the unreduced reference loop, and return it."""
    model = train(rows, config, labels)
    _, reference, reference_converged = full_vector_owlqn(rows, config, labels)
    assert model.converged == reference_converged
    weights = np.concatenate([model.coef, model.intercept[:, None]], axis=1)
    value, _ = objective_and_gradient(weights, rows, config, labels)
    assert value == pytest.approx(reference, rel=1e-9)
    if model.converged:
        assert stopping_residual(model, rows, dim, labels, config) <= 1.0 + 1e-9
    bits = model.coef.view(np.int64)
    for copies in np.unique(copy_of):
        members = bits[:, copy_of == copies]
        assert (members == members[:, :1]).all()
    # In exact arithmetic the iterates are the unreduced problem's; early on
    # they agree to near machine precision.
    early = TrainConfig(config.penalty, config.strength, config.tolerance, max_iterations=8)
    model_early = train(rows, early, labels)
    weights = np.concatenate([model_early.coef, model_early.intercept[:, None]], axis=1)
    expected, _, _ = full_vector_owlqn(rows, early, labels)
    np.testing.assert_allclose(weights, expected, rtol=1e-9, atol=1e-12)
    return model


class TestMergedColumns:
    """Training merges identical columns and solves the smaller problem the full one reduces to."""

    @pytest.mark.parametrize("penalty", ["l1", "l2"])
    def test_matches_unreduced_reference(self, penalty):
        rng = np.random.default_rng(41)
        # Two classes solve on one coefficient row, where merged and two-class factors compose.
        for k in (3, 2):
            for strength in (0.5, 5.0, 50.0):
                rows, dim, labels, copy_of = planted_copies_instance(rng, k=k)
                merged, column_of, root = logreg._merge_identical_columns(rows.x)
                # The merged columns are the planted sets, in the order of their first members.
                _, first, inverse = np.unique(copy_of, return_index=True, return_inverse=True)
                expected = np.argsort(np.argsort(first))[inverse]
                assert np.array_equal(column_of, expected)
                assert np.array_equal(root, np.sqrt(np.bincount(expected)))
                assert merged.shape == (len(rows), first.size)
                config = TrainConfig(penalty, strength, 1e-8)
                assert check_against_unreduced(rows, dim, labels, copy_of, config).converged

    def test_colliding_columns_merge_only_on_equal_rows_and_values(self, monkeypatch):
        # Every column hashes alike, so each is compared with column 0.
        monkeypatch.setattr(logreg, "_column_hash", lambda xc: np.zeros(xc.shape[1], np.int64))
        dense = np.array(
            [
                [1.0, 1.0, 0.0, 1.0],
                [2.0, 3.0, 2.0, 2.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        # Column 1 has column 0's rows with one value changed, column 2 its
        # values on other rows; only column 3, a copy, merges.
        merged, column_of, root = logreg._merge_identical_columns(scipy.sparse.csr_matrix(dense))
        assert column_of.tolist() == [0, 1, 2, 0]
        assert root.tolist() == [math.sqrt(2.0), 1.0, 1.0]
        assert np.array_equal(merged.toarray(), dense[:, :3] * root)

    def test_given_groups_train_the_same_model(self):
        rows, _, labels, copy_of = planted_copies_instance(np.random.default_rng(44))
        grouped = LabeledRows(rows.x, rows.labels, copy_of)
        for penalty in ("l1", "l2"):
            config = TrainConfig(penalty, 5.0, 1e-8)
            found, given = train(rows, config, labels), train(grouped, config, labels)
            assert found.coef.tobytes() == given.coef.tobytes()
            assert found.intercept.tobytes() == given.intercept.tobytes()

    @pytest.mark.parametrize("penalty", ["l1", "l2"])
    @pytest.mark.parametrize("collide", ["constant", "nonzero count"])
    def test_hash_collisions_merge_only_identical_columns(self, monkeypatch, penalty, collide):
        rows, dim, labels, copy_of = planted_copies_instance(np.random.default_rng(42))
        config = TrainConfig(penalty, 5.0, 1e-8)
        fit = check_against_unreduced(rows, dim, labels, copy_of, config)
        if collide == "constant":
            monkeypatch.setattr(logreg, "_column_hash", lambda xc: np.zeros(xc.shape[1], np.int64))
        else:
            monkeypatch.setattr(logreg, "_column_hash", lambda xc: np.diff(xc.indptr))
        merged, column_of, root = logreg._merge_identical_columns(rows.x)
        dense = rows.x.toarray()
        for column in range(merged.shape[1]):
            members = np.flatnonzero(column_of == column)
            assert root[column] == math.sqrt(members.size)
            assert (dense[:, members] == dense[:, members[:1]]).all()
        collided = check_against_unreduced(rows, dim, labels, copy_of, config)
        assert collided.converged == fit.converged
        # Both fits solve the same problem to the same stop rule.
        values = [
            objective_and_gradient(
                np.concatenate([m.coef, m.intercept[:, None]], axis=1), rows, config, labels
            )[0]
            for m in (fit, collided)
        ]
        assert values[0] == pytest.approx(values[1], rel=1e-9)


# sha256 over (coef, intercept, converged) of the fits below, on problems
# whose columns are all distinct, pinned before training merged identical
# columns: such problems train exactly as before.  Bitwise on the numpy and
# scipy build CI installs, as the l2 digest below.
# Pinned on an x86-64 CPU with AVX-512 (numpy dispatch finds X86_V4, AVX512_ICL and
# AVX512_SPR).  With those loops off it fails; to see it:
#   NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" PYTHONPATH=src \
#     python -m pytest tests/test_logreg.py -k test_distinct_column_fits_match_pinned_digest
DISTINCT_FIT_DIGEST = "f197e1098025fc1f686a2ec4bc11ee9ef310c26f332fc7d5af7b5297c2e87b5e"


def test_distinct_column_fits_match_pinned_digest():
    digest = hashlib.sha256()
    rng = np.random.default_rng(43)
    for strength in (0.1, 3.0, 100.0):
        for rows, _, labels in (sparse_instance(rng), random_instance(rng)):
            rows, _ = distinct_columns(rows)
            for penalty in ("l1", "l2"):
                model = train(rows, TrainConfig(penalty, strength, 1e-6), labels)
                digest.update(model.coef.tobytes() + model.intercept.tobytes())
                digest.update(bytes([model.converged]))
    assert digest.hexdigest() == DISTINCT_FIT_DIGEST


# sha256 over (coef, intercept, converged) of the l2 fits below, pinned when
# l2 fits last changed.  The fits are bitwise reproducible on one numpy and
# scipy build (the versions CI installs); another BLAS may sum dot products in
# another order.  A deliberate change of l2 fits updates it and says so: it
# moved when two-class problems began to solve as one weight vector.
# Pinned on an x86-64 CPU with AVX-512 (numpy dispatch finds X86_V4, AVX512_ICL and
# AVX512_SPR).  With those loops off it fails; to see it:
#   NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" PYTHONPATH=src \
#     python -m pytest tests/test_logreg.py -k test_l2_fits_match_pinned_digest
L2_FIT_DIGEST = "d59cb40af5d28d456313c0cec84db38d2aaaf5dc7c4897925b900a736515d24f"


def test_l2_fits_match_pinned_digest():
    digest = hashlib.sha256()
    rng = np.random.default_rng(31)
    for strength in (1e-3, 0.1, 1.0, 30.0, 1e3):
        for rows, dim, labels in (sparse_instance(rng), random_instance(rng)):
            config = TrainConfig("l2", strength, 1e-6)
            model = train(rows, config, labels)
            digest.update(model.coef.tobytes() + model.intercept.tobytes())
            digest.update(bytes([model.converged]))
    assert digest.hexdigest() == L2_FIT_DIGEST


class TestPredict:
    def model(self, coef, intercept=None, labels=("A", "B")):
        coef = np.asarray(coef, dtype=float)
        if intercept is None:
            intercept = np.zeros(coef.shape[0])
        return Model(labels, coef, np.asarray(intercept, dtype=float))

    def test_argmax_of_scores(self):
        model = self.model([[1.0, 0.0], [0.0, 1.0]])
        assert predict(model, csr([{0: 1.0}, {1: 1.0}], 2)) == ["A", "B"]

    def test_tie_breaks_to_first_label(self):
        model = self.model([[0.0, 0.0], [0.0, 0.0]])
        assert predict(model, csr([{0: 1.0}], 2)) == ["A"]

    def test_constant_shift_leaves_predictions_unchanged(self):
        rng = np.random.default_rng(8)
        coef = rng.normal(size=(3, 4))
        shift = rng.normal(size=4)
        base = self.model(coef, labels=("A", "B", "C"))
        shifted = self.model(coef + shift, labels=("A", "B", "C"))
        for _ in range(50):
            nnz = int(rng.integers(1, 5))
            idx = rng.choice(4, size=nnz, replace=False)
            vec = csr([{int(i): float(v) for i, v in zip(idx, rng.normal(size=nnz))}], 4)
            assert predict(base, vec) == predict(shifted, vec)


class TestEvaluateAccuracy:
    def test_perfect_model(self):
        config = TrainConfig("l2", strength=100.0, tolerance=1e-5)
        model = train(separable_data(), config, labels=("A", "B"))
        dataset = separable_data(copies=5)
        assert evaluate_accuracy(model, dataset) == 1.0

    def test_constant_prediction_on_balanced_set(self):
        model = Model(("A", "B"), np.zeros((2, 2)), np.asarray([1.0, 0.0]))
        dataset = labeled([{0: 1.0}] * 6, ["A", "B"] * 3, 2)
        assert evaluate_accuracy(model, dataset) == 0.5

    def test_matches_naive_recount(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            data, dim, labels = random_instance(rng)
            config = TrainConfig("l2", strength=1.0, tolerance=1e-4)
            model = train(data, config, labels)
            recount = sum(
                1 for row, label in enumerate(data.labels) if predict(model, data.x[row]) == [label]
            )
            assert evaluate_accuracy(model, data) == pytest.approx(recount / len(data))

    def test_empty_dataset_rejected(self):
        model = Model(("A",), np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValueError, match="empty"):
            evaluate_accuracy(model, labeled([], [], 2))


class TestLabeledRows:
    @pytest.mark.parametrize("n_labels", [0, 1, 2, 5, 7])
    def test_label_count_must_match_row_count(self, n_labels):
        x = csr([{0: 1.0}] * 6, 2)
        with pytest.raises(ValueError, match=f"^6 matrix rows but {n_labels} labels$"):
            LabeledRows(x, ["A"] * n_labels)

    @pytest.mark.parametrize(
        "x", [np.ones((2, 2)), scipy.sparse.csc_matrix(np.ones((2, 2))), scipy.sparse.coo_matrix(np.ones((2, 2)))]
    )
    def test_matrix_must_be_csr(self, x):
        with pytest.raises(TypeError, match="expected a CSR matrix"):
            LabeledRows(x, ["A", "B"])

    @pytest.mark.parametrize("n_groups", [0, 1, 3])
    def test_groups_must_label_every_column(self, n_groups):
        x = csr([{0: 1.0}] * 2, 2)
        with pytest.raises(ValueError, match=f"^2 matrix columns but {n_groups} groups$"):
            LabeledRows(x, ["A", "B"], np.zeros(n_groups, dtype=np.int64))


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
        # The message names the rejected value: the one that differs from a valid config.
        valid = {"penalty": "l2", "strength": 1.0, "tolerance": 1e-4}
        (bad,) = [value for key, value in kwargs.items() if valid.get(key) != value]
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            TrainConfig(**kwargs)


# sha256 over (coef, intercept, converged) of l1 and l2 fits with 20 classes,
# where numpy's sum over a row of classes runs in pairwise blocks.  Pinned
# before the solver kept its scores class by class, which had to reproduce it.
# Bitwise on one CPU class, as the digests above: it fails with numpy's AVX-512
# loops switched off (see the README's "Determinism").
# Pinned on an x86-64 CPU with AVX-512 (numpy dispatch finds X86_V4, AVX512_ICL and
# AVX512_SPR).  With those loops off it fails; to see it:
#   NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" PYTHONPATH=src \
#     python -m pytest tests/test_logreg.py -k test_many_class_fits_match_pinned_digest
MANY_CLASS_FIT_DIGEST = "65df678519e6e8753ff83360d3a9f86174d85c64ae7ca01940d2920acec5b361"


def test_many_class_fits_match_pinned_digest():
    digest = hashlib.sha256()
    rng = np.random.default_rng(47)
    for strength in (0.3, 10.0):
        rows, _, labels = sparse_instance(rng, n_docs=160, dim=120, k=20, density=0.06)
        for penalty in ("l1", "l2"):
            model = train(rows, TrainConfig(penalty, strength, 1e-5), labels)
            digest.update(model.coef.tobytes() + model.intercept.tobytes())
            digest.update(bytes([model.converged]))
    assert digest.hexdigest() == MANY_CLASS_FIT_DIGEST
