"""Multinomial logistic regression with l1 or squared-l2 penalty.

The training objective is penalty(W) + C * sum of per-example negative
log-softmax losses, where C is the strength hyperparameter (a flag flips the
convention so strength scales the penalty instead).  An always-on intercept
per class is appended and excluded from the penalty.  The examples are the
rows of a CSR matrix with one label each (``LabeledRows``).  Optimization
starts from zero weights and runs one numpy quasi-Newton loop: L-BFGS for l2,
and for l1 its orthant-wise form OWL-QN (Andrew & Gao 2007).  It stops when
the infinity norm of the gradient (for l1, the pseudo-gradient) falls below
tolerance times the smooth-loss gradient norm at zero, so runs are
deterministic.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse
import scipy.special

log = logging.getLogger(__name__)

PENALTIES = ("l1", "l2")

# Quasi-Newton settings: L-BFGS correction pairs, step halvings before a line
# search gives up (down to 2**-40 of the first step), and the Armijo
# sufficient-decrease constant.
_HISTORY = 10
_MAX_BACKTRACKS = 40
_ARMIJO = 1e-4


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
            raise ValueError(
                f"strength_applies_to must be 'loss' or 'penalty', got {self.strength_applies_to!r}"
            )

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
        """Write labels, coefficient matrix, intercepts and the converged flag as an .npz file."""
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


@dataclass(frozen=True, eq=False)
class LabeledRows:
    """Labeled examples as one CSR matrix: row i of ``x`` carries ``labels[i]``."""

    x: scipy.sparse.csr_matrix
    labels: Sequence[str]

    def __len__(self) -> int:
        return self.x.shape[0]


def _label_indices(data: LabeledRows, labels: Sequence[str]) -> np.ndarray:
    positions = {label: i for i, label in enumerate(labels)}
    try:
        return np.asarray([positions[label] for label in data.labels], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"label {exc} not in label set {tuple(labels)}") from exc


def _logsumexp_rows(scores: np.ndarray) -> np.ndarray:
    """``scipy.special.logsumexp(scores, axis=1)``, bit for bit, without its overhead.

    The steps are scipy 1.17's for real input: the row maximum and the count m
    of entries equal to it are taken out of the sum of shifted exponentials.
    Rows whose result is not finite go to scipy itself.
    """
    top = scores.max(axis=1, keepdims=True)
    is_top = scores == top
    m = is_top.sum(axis=1, keepdims=True, dtype=scores.dtype)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.exp(np.where(is_top, -np.inf, scores - top)).sum(axis=1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + top)[:, 0]
    bad = ~np.isfinite(out)
    if bad.any():
        out[bad] = scipy.special.logsumexp(scores[bad], axis=1)
    return out


def _objective(
    z: np.ndarray,
    x: scipy.sparse.csr_matrix,
    x_t: scipy.sparse.csr_matrix,
    y_idx: np.ndarray,
    config: TrainConfig,
    grad: np.ndarray,
) -> float:
    """Penalized objective at ``z``; its gradient is written into ``grad``.

    ``z`` holds the k x F coefficients row by row, then the k intercepts, and
    ``x_t`` is ``x.T`` as a CSR matrix.  For the l1 penalty the coef gradient
    is the smooth loss's only.
    """
    n_features = x.shape[1]
    k = z.size // (n_features + 1)
    block = k * n_features
    coef = z[:block].reshape(k, n_features)
    scores = x @ coef.T + z[block:]
    lse = _logsumexp_rows(scores)
    rows = np.arange(len(y_idx))
    loss = config.loss_weight * float(np.sum(lse - scores[rows, y_idx]))
    delta = np.exp(scores - lse[:, None])
    delta[rows, y_idx] -= 1.0
    grad_coef = grad[:block].reshape(coef.shape)
    np.multiply((x_t @ delta).T, config.loss_weight, out=grad_coef)
    grad[block:] = config.loss_weight * delta.sum(axis=0)
    if config.penalty == "l2":
        grad_coef += config.penalty_weight * coef
        return loss + config.penalty_weight * 0.5 * float(np.sum(coef * coef))
    return loss + config.penalty_weight * float(np.sum(np.abs(coef)))


def objective_and_gradient(
    weights: np.ndarray,
    rows: LabeledRows,
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
    if rows.x.shape[1] != dim:
        raise ValueError(f"feature dimension {rows.x.shape[1]} != weight dimension {dim}")
    z = np.concatenate([weights[:, :dim].ravel(), weights[:, dim]])
    grad = np.empty_like(z)
    value = _objective(z, rows.x, rows.x.T.tocsr(), _label_indices(rows, labels), config, grad)
    if not np.isfinite(value):
        raise FloatingPointError("non-finite objective value")
    block = len(labels) * dim
    gradient = np.concatenate([grad[:block].reshape(len(labels), dim), grad[block:, None]], axis=1)
    return value, gradient


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


def _solve(
    x: scipy.sparse.csr_matrix, y_idx: np.ndarray, k: int, config: TrainConfig
) -> tuple[np.ndarray, np.ndarray, bool]:
    # L-BFGS over the k*F coefficients followed by the k unpenalized
    # intercepts.  For l1 it is OWL-QN (Andrew & Gao, ICML 2007): the smooth
    # loss's L-BFGS, steered by the l1 pseudo-gradient and held to one orthant
    # per line search; coefficients at zero move only where the loss gradient
    # outweighs the penalty, so they stay exactly zero otherwise.  With no l1
    # term the pseudo-gradient is the gradient and every orthant step below
    # is skipped, which leaves plain L-BFGS.
    n_features = x.shape[1]
    block = k * n_features
    l1 = config.penalty == "l1"
    lam = config.penalty_weight
    x_t = x.T.tocsr()

    def evaluate(z: np.ndarray) -> tuple[float, np.ndarray]:
        """Objective value and gradient (for l1, of the smooth loss)."""
        g = np.empty_like(z)
        return _objective(z, x, x_t, y_idx, config, g), g

    def pseudo_gradient(z: np.ndarray, g: np.ndarray) -> np.ndarray:
        if not l1:
            return g
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
        if l1:
            d[d * pg >= 0.0] = 0.0  # keep only components that agree in sign with -pg
            # Orthant of this step: the sign of each nonzero coefficient, else
            # the sign it would take moving along -pg.
            orthant = np.where(z[:block] != 0.0, np.sign(z[:block]), np.sign(-pg[:block]))
        step = 1.0 if pairs else 1.0 / float(np.linalg.norm(d))
        for _ in range(_MAX_BACKTRACKS):
            z_new = z + step * d
            if l1:
                w_new = z_new[:block]
                w_new[np.sign(w_new) != orthant] = 0.0
            value_new, g_new = evaluate(z_new)
            if value_new <= value + _ARMIJO * float(pg @ (z_new - z)):
                break
            step *= 0.5
        else:
            break  # the objective cannot be decreased along d
        s = z_new - z
        y = g_new - g
        if l1:
            # Coordinates the step left in place (pinned at zero) carry only
            # cross terms; dropping them makes (s, y) a secant pair of the
            # Hessian block of the coordinates that moved, and keeps the
            # initial scaling s.y / y.y from collapsing when most
            # coefficients stay at zero.
            y = np.where(s != 0.0, y, 0.0)
        sy = float(s @ y)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
        z, g, value = z_new, g_new, value_new
        pg = pseudo_gradient(z, g)
    converged = float(np.max(np.abs(pg))) <= gtol
    return z[:block].reshape(k, n_features), z[block:], converged


def train(rows: LabeledRows, config: TrainConfig, labels: Sequence[str]) -> Model:
    """Fit the model from zero initialization; deterministic for fixed inputs.

    The feature dimension is the column count of ``rows.x``.
    """
    if not rows:
        raise ValueError("empty training data")
    labels = tuple(labels)
    y_idx = _label_indices(rows, labels)
    coef, intercept, converged = _solve(rows.x, y_idx, len(labels), config)
    if not converged:
        log.warning("solver hit the iteration cap before reaching tolerance")
    return Model(labels, coef, intercept, converged)


def predict(model: Model, x: scipy.sparse.csr_matrix) -> list[str]:
    """Label with the highest linear score per row of ``x``; ties break toward the earlier label."""
    if x.shape[1] != model.coef.shape[1]:
        raise ValueError(f"feature dimension {x.shape[1]} != model dimension {model.coef.shape[1]}")
    return [model.labels[i] for i in np.argmax(x @ model.coef.T + model.intercept, axis=1)]


def evaluate_accuracy(model: Model, rows: LabeledRows) -> float:
    """Fraction of correct predictions over the rows.

    A label unseen at training time is never predicted, so its rows count as wrong.
    """
    if not rows:
        raise ValueError("empty evaluation dataset")
    return float(np.mean([p == label for p, label in zip(predict(model, rows.x), rows.labels)]))
