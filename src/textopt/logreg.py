"""Multinomial logistic regression with l1 or squared-l2 penalty.

The training objective is penalty(W) + C * sum of per-example negative
log-softmax losses, where C is the strength hyperparameter (a flag flips the
convention so strength scales the penalty instead).  An always-on intercept
per class is appended and excluded from the penalty.  Optimization starts
from zero weights, uses scipy's L-BFGS-B for l2 and OWL-QN (orthant-wise
L-BFGS, Andrew & Gao 2007) for l1, and stops when the infinity norm of the
gradient (for l1, the pseudo-gradient) falls below tolerance times the
smooth-loss gradient norm at zero, so runs are deterministic.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.optimize
import scipy.sparse
from scipy.special import logsumexp

from .textrep import SparseVector

log = logging.getLogger(__name__)

PENALTIES = ("l1", "l2")

# OWL-QN settings: L-BFGS correction pairs (L-BFGS-B's default), step
# halvings before a line search gives up (down to 2**-40 of the first step),
# and the Armijo sufficient-decrease constant.
_HISTORY = 10
_MAX_BACKTRACKS = 40
_ARMIJO = 1e-4

LabeledVector = tuple[SparseVector, str]


@dataclass(frozen=True)
class TrainConfig:
    penalty: str
    strength: float
    tolerance: float
    max_iterations: int = 1000
    strength_applies_to: str = "loss"  # or "penalty"

    def __post_init__(self) -> None:
        if self.penalty not in PENALTIES:
            raise ValueError(f"unknown penalty {self.penalty!r}, expected one of {PENALTIES}")
        if not 1e-5 <= self.strength <= 1e5:
            raise ValueError(f"strength must be in [1e-5, 1e5], got {self.strength}")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError(f"tolerance must be in (0, 1), got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be positive, got {self.max_iterations}")
        if self.strength_applies_to not in ("loss", "penalty"):
            raise ValueError(f"strength_applies_to must be 'loss' or 'penalty'")

    @property
    def loss_weight(self) -> float:
        return self.strength if self.strength_applies_to == "loss" else 1.0

    @property
    def penalty_weight(self) -> float:
        return 1.0 if self.strength_applies_to == "loss" else self.strength


@dataclass
class Model:
    """Per-class weight vectors realizing argmax-of-linear-scores classification."""

    labels: tuple[str, ...]
    coef: np.ndarray  # (n_classes, n_features)
    intercept: np.ndarray  # (n_classes,)
    converged: bool = True

    def save(self, path: str | Path) -> None:
        """Write labels, feature count, and per-class weight arrays as an .npz file."""
        with open(path, "wb") as fh:
            np.savez(
                fh,
                labels=np.asarray(self.labels, dtype=str),
                coef=self.coef,
                intercept=self.intercept,
                converged=np.asarray([self.converged]),
            )

    @classmethod
    def load(cls, path: str | Path) -> "Model":
        with np.load(path, allow_pickle=False) as data:
            return cls(
                labels=tuple(str(x) for x in data["labels"]),
                coef=data["coef"],
                intercept=data["intercept"],
                converged=bool(data["converged"][0]),
            )


def _stack(data: Sequence[LabeledVector], dim: int) -> scipy.sparse.csr_matrix:
    indptr = np.zeros(len(data) + 1, dtype=np.int64)
    for row, (vec, _) in enumerate(data):
        indptr[row + 1] = indptr[row] + vec.indices.size
    indices = np.concatenate([vec.indices for vec, _ in data]) if data else np.empty(0, np.int64)
    values = np.concatenate([vec.values for vec, _ in data]) if data else np.empty(0)
    return scipy.sparse.csr_matrix((values, indices, indptr), shape=(len(data), dim))


def _label_indices(data: Sequence[LabeledVector], labels: Sequence[str]) -> np.ndarray:
    positions = {label: i for i, label in enumerate(labels)}
    try:
        return np.asarray([positions[label] for _, label in data], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"label {exc} not in label set {tuple(labels)}") from exc


def _smooth_loss_grad(
    coef: np.ndarray,
    intercept: np.ndarray,
    x: scipy.sparse.csr_matrix,
    y_idx: np.ndarray,
    loss_weight: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted negative log-softmax loss with gradients for coef and intercept."""
    scores = x @ coef.T + intercept
    lse = logsumexp(scores, axis=1)
    loss = loss_weight * float(np.sum(lse - scores[np.arange(len(y_idx)), y_idx]))
    delta = np.exp(scores - lse[:, None])
    delta[np.arange(len(y_idx)), y_idx] -= 1.0
    grad_coef = loss_weight * np.asarray((x.T @ delta).T)
    grad_intercept = loss_weight * delta.sum(axis=0)
    return loss, grad_coef, grad_intercept


def objective_and_gradient(
    weights: np.ndarray,
    data: Sequence[LabeledVector],
    config: TrainConfig,
    labels: Sequence[str],
) -> tuple[float, np.ndarray]:
    """Training objective and gradient at ``weights`` of shape (n_classes, N + 1).

    The last column of ``weights`` is the unpenalized intercept.  For the l1
    penalty the returned gradient covers the smooth part only; subgradient
    handling belongs to the solver.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[0] != len(labels):
        raise ValueError(f"expected weights of shape ({len(labels)}, N + 1)")
    dim = weights.shape[1] - 1
    for vec, _ in data:
        if vec.dim != dim:
            raise ValueError(f"vector dimension {vec.dim} != weight dimension {dim}")
    x = _stack(data, dim)
    y_idx = _label_indices(data, labels)
    coef, intercept = weights[:, :dim], weights[:, dim]
    loss, grad_coef, grad_intercept = _smooth_loss_grad(
        coef, intercept, x, y_idx, config.loss_weight
    )
    if config.penalty == "l2":
        value = loss + config.penalty_weight * 0.5 * float(np.sum(coef * coef))
        grad_coef = grad_coef + config.penalty_weight * coef
    else:
        value = loss + config.penalty_weight * float(np.sum(np.abs(coef)))
    if not np.isfinite(value):
        raise FloatingPointError("non-finite objective value")
    gradient = np.concatenate([grad_coef, grad_intercept[:, None]], axis=1)
    return value, gradient


def _solve_l2(
    x: scipy.sparse.csr_matrix, y_idx: np.ndarray, k: int, config: TrainConfig
) -> tuple[np.ndarray, np.ndarray, bool]:
    n_features = x.shape[1]

    def fun(flat: np.ndarray) -> tuple[float, np.ndarray]:
        w = flat.reshape(k, n_features + 1)
        coef, intercept = w[:, :n_features], w[:, n_features]
        loss, g_coef, g_int = _smooth_loss_grad(coef, intercept, x, y_idx, config.loss_weight)
        value = loss + config.penalty_weight * 0.5 * float(np.sum(coef * coef))
        g_coef = g_coef + config.penalty_weight * coef
        return value, np.concatenate([g_coef, g_int[:, None]], axis=1).ravel()

    x0 = np.zeros(k * (n_features + 1))
    _, g0 = fun(x0)
    g0_norm = float(np.max(np.abs(g0)))
    if g0_norm == 0.0:
        return np.zeros((k, n_features)), np.zeros(k), True
    result = scipy.optimize.minimize(
        fun,
        x0,
        jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": config.max_iterations,
            "maxfun": 10**8,
            "ftol": 0.0,
            "gtol": config.tolerance * g0_norm,
        },
    )
    w = result.x.reshape(k, n_features + 1)
    return w[:, :n_features], w[:, n_features], bool(result.status == 0)


def _two_loop(v: np.ndarray, pairs: deque[tuple[np.ndarray, np.ndarray, float]]) -> np.ndarray:
    """L-BFGS inverse-Hessian approximation times ``v`` from (s, y, 1 / s.y) pairs."""
    q = v.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    if pairs:
        s, y, _ = pairs[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return q


def _solve_l1(
    x: scipy.sparse.csr_matrix, y_idx: np.ndarray, k: int, config: TrainConfig
) -> tuple[np.ndarray, np.ndarray, bool]:
    # OWL-QN (Andrew & Gao, ICML 2007): L-BFGS over the smooth loss, steered by
    # the l1 pseudo-gradient and held to one orthant per line search.  The
    # variables are the k*F coefficients followed by the k unpenalized
    # intercepts; coefficients at zero move only where the loss gradient
    # outweighs the penalty, so they stay exactly zero otherwise.
    n_features = x.shape[1]
    block = k * n_features
    lam = config.penalty_weight

    def evaluate(z: np.ndarray) -> tuple[float, np.ndarray]:
        """Objective value and smooth-loss gradient."""
        coef = z[:block].reshape(k, n_features)
        loss, g_coef, g_int = _smooth_loss_grad(coef, z[block:], x, y_idx, config.loss_weight)
        value = loss + lam * float(np.sum(np.abs(z[:block])))
        return value, np.concatenate([g_coef.ravel(), g_int])

    def pseudo_gradient(z: np.ndarray, g: np.ndarray) -> np.ndarray:
        w, g_w = z[:block], g[:block]
        pg = g.copy()
        pg[:block] = np.where(w != 0.0, g_w + lam * np.sign(w), g_w - np.clip(g_w, -lam, lam))
        return pg

    z = np.zeros(block + k)
    value, g = evaluate(z)
    gtol = config.tolerance * float(np.max(np.abs(g)))
    pg = pseudo_gradient(z, g)
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=_HISTORY)
    for _ in range(config.max_iterations):
        if float(np.max(np.abs(pg))) <= gtol:
            break
        d = _two_loop(-pg, pairs)
        d[d * pg >= 0.0] = 0.0  # keep only components that agree in sign with -pg
        # Orthant of this step: the sign of each nonzero coefficient, else the
        # sign it would take moving along -pg.
        orthant = np.where(z[:block] != 0.0, np.sign(z[:block]), np.sign(-pg[:block]))
        step = 1.0 if pairs else 1.0 / float(np.linalg.norm(d))
        for _ in range(_MAX_BACKTRACKS):
            z_new = z + step * d
            w_new = z_new[:block]
            w_new[np.sign(w_new) != orthant] = 0.0
            value_new, g_new = evaluate(z_new)
            if value_new <= value + _ARMIJO * float(pg @ (z_new - z)):
                break
            step *= 0.5
        else:
            break  # the objective cannot be decreased along d
        # Coordinates the step left in place (pinned at zero) carry only cross
        # terms; dropping them makes (s, y) a secant pair of the Hessian block
        # of the coordinates that moved, and keeps the initial scaling
        # s.y / y.y from collapsing when most coefficients stay at zero.
        s = z_new - z
        y = np.where(s != 0.0, g_new - g, 0.0)
        sy = float(s @ y)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
        z, g, value = z_new, g_new, value_new
        pg = pseudo_gradient(z, g)
    converged = float(np.max(np.abs(pg))) <= gtol
    return z[:block].reshape(k, n_features), z[block:], converged


def train(
    data: Sequence[LabeledVector],
    config: TrainConfig,
    dim: int,
    labels: Sequence[str],
) -> Model:
    """Fit the model from zero initialization; deterministic for fixed inputs."""
    if not data:
        raise ValueError("empty training data")
    labels = tuple(labels)
    x = _stack(data, dim)
    y_idx = _label_indices(data, labels)
    solver = _solve_l2 if config.penalty == "l2" else _solve_l1
    coef, intercept, converged = solver(x, y_idx, len(labels), config)
    if not converged:
        log.warning("solver hit the iteration cap before reaching tolerance")
    return Model(labels, coef, intercept, converged)


def _scores(model: Model, x: scipy.sparse.csr_matrix) -> np.ndarray:
    return x @ model.coef.T + model.intercept


def predict(model: Model, vec: SparseVector) -> str:
    """Label with the highest linear score; ties break toward the earlier label."""
    if vec.dim != model.coef.shape[1]:
        raise ValueError(f"vector dimension {vec.dim} != model dimension {model.coef.shape[1]}")
    scores = model.coef[:, vec.indices] @ vec.values + model.intercept
    return model.labels[int(np.argmax(scores))]


def evaluate_accuracy(model: Model, dataset: Sequence[LabeledVector]) -> float:
    """Fraction of correct predictions over the dataset."""
    if not dataset:
        raise ValueError("empty evaluation dataset")
    x = _stack(dataset, model.coef.shape[1])
    predicted = np.argmax(_scores(model, x), axis=1)
    actual = _label_indices_lenient(dataset, model.labels)
    return float(np.mean(predicted == actual))


def _label_indices_lenient(dataset: Sequence[LabeledVector], labels: tuple[str, ...]) -> np.ndarray:
    # Labels unseen at training time can never be predicted; map them to -1.
    positions = {label: i for i, label in enumerate(labels)}
    return np.asarray([positions.get(label, -1) for _, label in dataset], dtype=np.int64)
