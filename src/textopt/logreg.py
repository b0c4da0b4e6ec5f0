"""Multinomial logistic regression with l1 or squared-l2 penalty.

The training objective is penalty(W) + C * sum of per-example negative
log-softmax losses, where C is the strength hyperparameter.  An always-on intercept
per class is appended and excluded from the penalty.  The examples are the
rows of a CSR matrix with one label each (``LabeledRows``).  Optimization
starts from zero weights and runs one numpy quasi-Newton loop: L-BFGS for l2,
and for l1 its orthant-wise form OWL-QN (Andrew & Gao 2007), whose direction
and (s, y) history live on the working set of coordinates that can move.  It
stops when the infinity norm of the gradient (for l1, the pseudo-gradient)
falls below tolerance times the smooth-loss gradient norm at zero, so runs are
deterministic.

Training columns that are exact copies of each other (an n-gram that occurs
in one training document, say, copies every other such n-gram of that
document) are merged first: a set of m identical columns becomes one column
scaled by sqrt(m), whose l1 penalty weighs sqrt(m) and whose l2 penalty is
unchanged.  Every inner product, norm and sign the solver uses is then the
full problem's, so the iterates are the ones the full problem would take, up
to rounding; the stop rule is measured in the full problem's units, and each
member of a merged set gets the merged coefficient over sqrt(m).
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

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
# A direction or pair whose support is at least this share of all coordinates
# runs on full vectors through a slice: index arrays would cost more than they skip.
_DENSE = 0.5
_ALL = slice(None)
# A stored pair: its support (sorted indices, or _ALL), s and y there, 1 / s.y.
_Pair = tuple[np.ndarray | slice, np.ndarray, np.ndarray, float]
# Seed of the random projections that hash training columns.
_HASH_SEED = 0


@dataclass(frozen=True)
class TrainConfig:
    penalty: str
    strength: float
    tolerance: float
    max_iterations: int = 1000

    def __post_init__(self) -> None:
        if self.penalty not in PENALTIES:
            raise ValueError(f"unknown penalty {self.penalty!r}, expected one of {PENALTIES}")
        if not 1e-5 <= self.strength <= 1e5:
            raise ValueError(f"strength must be in [1e-5, 1e5], got {self.strength}")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError(f"tolerance must be in (0, 1), got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be positive, got {self.max_iterations}")


@dataclass
class Model:
    """Per-class weight vectors realizing argmax-of-linear-scores classification."""

    labels: tuple[str, ...]
    coef: np.ndarray  # (n_classes, n_features)
    intercept: np.ndarray  # (n_classes,)
    converged: bool = True


@dataclass(frozen=True, eq=False)
class LabeledRows:
    """Labeled examples as one CSR matrix: row i of ``x`` carries ``labels[i]``."""

    x: scipy.sparse.csr_matrix
    labels: Sequence[str]

    def __post_init__(self) -> None:
        if not scipy.sparse.issparse(self.x) or self.x.format != "csr":
            raise TypeError(f"expected a CSR matrix, got {type(self.x).__name__}")
        if len(self.labels) != self.x.shape[0]:
            raise ValueError(f"{self.x.shape[0]} matrix rows but {len(self.labels)} labels")

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
    root: np.ndarray,
) -> tuple[float, Callable[[], np.ndarray]]:
    """Penalized objective at ``z``, and a function that returns its gradient there.

    ``z`` holds the k x F coefficients row by row, then the k intercepts, and
    ``x_t`` is ``x.T`` as a CSR matrix.  Column j's l1 penalty weighs
    ``root[j]``: sqrt(m) on a column that merges m identical ones, else 1.
    The gradient reuses the value's scores and log-sum-exp, so a line search
    pays for it only at the point it accepts; for the l1 penalty its coef part
    is the smooth loss's only.  Each class is scored with its own
    matrix-vector product: the same bits as ``x @ coef.T``, without copying
    the coefficients into F order.
    """
    n_features = x.shape[1]
    k = z.size // (n_features + 1)
    block = k * n_features
    coef = z[:block].reshape(k, n_features)
    scores = np.empty((x.shape[0], k))
    for c in range(k):
        scores[:, c] = x @ coef[c]
    scores += z[block:]
    lse = _logsumexp_rows(scores)
    rows = np.arange(len(y_idx))
    loss = config.strength * float(np.sum(lse - scores[rows, y_idx]))

    def gradient() -> np.ndarray:
        delta = np.exp(scores - lse[:, None])
        delta[rows, y_idx] -= 1.0
        grad = np.empty_like(z)
        grad_coef = grad[:block].reshape(coef.shape)
        for c, column in enumerate(np.ascontiguousarray(delta.T)):
            np.multiply(x_t @ column, config.strength, out=grad_coef[c])
        grad[block:] = config.strength * delta.sum(axis=0)
        if config.penalty == "l2":
            grad_coef += coef
        return grad

    if config.penalty == "l2":
        return loss + 0.5 * float(np.sum(coef * coef)), gradient
    return loss + float(np.sum(np.abs(coef) * root)), gradient


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
    y_idx = _label_indices(rows, labels)
    value, gradient_at_z = _objective(z, rows.x, rows.x.T.tocsr(), y_idx, config, np.ones(dim))
    if not np.isfinite(value):
        raise FloatingPointError("non-finite objective value")
    grad = gradient_at_z()
    block = len(labels) * dim
    gradient = np.concatenate([grad[:block].reshape(len(labels), dim), grad[block:, None]], axis=1)
    return value, gradient


def _two_loop(q: np.ndarray, pairs: deque[_Pair]) -> np.ndarray:
    """L-BFGS inverse-Hessian approximation times ``q``, in place; each pair acts on its support."""
    alphas = []
    for support, s, y, rho in reversed(pairs):
        alpha = rho * float(s @ q[support])
        q[support] -= alpha * y
        alphas.append(alpha)
    if pairs:
        _, s, y, _ = pairs[-1]
        q *= float(s @ y) / float(y @ y)
    for (support, s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q[support] += (alpha - rho * float(y @ q[support])) * s
    return q


def _column_hash(xc: scipy.sparse.csc_matrix) -> np.ndarray:
    """A 64-bit key per column of ``xc``: a fixed-seed random projection, plus the nonzero count.

    Each column's entries are summed in row order, so identical columns get
    identical keys.
    """
    projection = np.random.default_rng(_HASH_SEED).standard_normal(xc.shape[0])
    return (xc.T @ projection).view(np.int64) + np.diff(xc.indptr)


def _merge_identical_columns(
    x: scipy.sparse.csr_matrix,
) -> tuple[scipy.sparse.csr_matrix, np.ndarray, np.ndarray]:
    """``x`` with each set of m identical columns merged into one column times sqrt(m).

    Returns the merged matrix, the merged column of each column of ``x``, and
    sqrt(m) per merged column.  Merged columns keep the order of their first
    members.  Columns are sorted on their hash, and every column is checked
    against the first of its run of equal keys with one sparse comparison;
    one that differs from it in any entry stays on its own.  With no copies,
    ``x`` itself is returned.
    """
    n_features = x.shape[1]
    xc = x.tocsc()
    xc.sort_indices()
    keys = _column_hash(xc)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new_run = np.ones(n_features, dtype=bool)
    new_run[1:] = keys[1:] != keys[:-1]
    # The sort is stable, so a run's first member is its lowest-numbered column.
    first = order[np.flatnonzero(new_run)[np.cumsum(new_run) - 1]]
    members, firsts = order[~new_run], first[~new_run]
    same = (xc[:, members] != xc[:, firsts]).count_nonzero(axis=0) == 0
    representative = np.arange(n_features)
    representative[members[same]] = firsts[same]
    is_kept = representative == np.arange(n_features)
    if is_kept.all():
        return x, np.arange(n_features), np.ones(n_features)
    column_of = (np.cumsum(is_kept) - 1)[representative]
    root = np.sqrt(np.bincount(column_of).astype(np.float64))
    merged = x[:, np.flatnonzero(is_kept)].astype(np.float64, copy=False)
    merged.data *= root[merged.indices]
    return merged, column_of, root


def _solve(
    x: scipy.sparse.csr_matrix, y_idx: np.ndarray, k: int, config: TrainConfig, root: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool]:
    # L-BFGS over the k*F coefficients followed by the k unpenalized
    # intercepts.  For l1 it is OWL-QN (Andrew & Gao, ICML 2007): the smooth
    # loss's L-BFGS, steered by the l1 pseudo-gradient and held to one orthant
    # per line search; coefficients at zero move only where the loss gradient
    # outweighs the penalty, so they stay exactly zero otherwise.  With no l1
    # term the pseudo-gradient is the gradient and every orthant step below
    # is skipped, which leaves plain L-BFGS.
    #
    # For l1 the direction lives on a working set, the nonzero pseudo-gradient
    # plus the stored pairs' supports, and the steps after the sign filter
    # touch only its support; gradient and stop test stay full-length.  When
    # that support is most coordinates, and always for l2, they run on full vectors.
    #
    # Column j of x merges m = root[j]**2 identical training columns (see
    # _merge_identical_columns), so its coefficient is sqrt(m) times each
    # member's, and its gradient and pseudo-gradient are sqrt(m) times each
    # member's.  The stop test divides them by root to measure the full
    # problem's infinity norm.
    n_features = x.shape[1]
    block = k * n_features
    l1 = config.penalty == "l1"
    x_t = x.T.tocsr()

    def pseudo_gradient(z: np.ndarray, g: np.ndarray) -> np.ndarray:
        if not l1:
            return g
        w, g_w = z[:block].reshape(k, n_features), g[:block].reshape(k, n_features)
        pg = g.copy()
        # The penalty's weight is root: sqrt(m) on a column that merges m
        # identical ones, else 1 (strength scales the loss).
        pg[:block] = np.where(
            w != 0.0, g_w + np.sign(w) * root, g_w - np.clip(g_w, -root, root)
        ).ravel()
        return pg

    def full_norm(v: np.ndarray) -> float:
        """Infinity norm, over the full problem's coordinates, of ``v`` at merged ones."""
        size = np.abs(v)
        size[:block].reshape(k, n_features)[:] /= root
        return float(np.max(size))

    z = np.zeros(block + k)
    value, gradient = _objective(z, x, x_t, y_idx, config, root)
    g = gradient()
    gtol = config.tolerance * full_norm(g)
    pg = pseudo_gradient(z, g)
    pairs: deque[_Pair] = deque(maxlen=_HISTORY)
    for _ in range(config.max_iterations):
        if full_norm(pg) <= gtol:
            break
        d = _two_loop(-pg, pairs)
        at: np.ndarray | slice = _ALL
        if l1:
            d[d * pg >= 0.0] = 0.0  # keep only components that agree in sign with -pg
            if np.count_nonzero(d) < _DENSE * d.size:
                at = np.flatnonzero(d)
                d = d[at]
        z_at, pg_at = z[at], pg[at]
        if l1:
            # Orthant of this step: the sign of each nonzero coefficient, else
            # the sign it would take moving along -pg.
            n_coef = block if at is _ALL else int(np.searchsorted(at, block))
            w_at = z_at[:n_coef]
            orthant = np.where(w_at != 0.0, np.sign(w_at), np.sign(-pg_at[:n_coef]))
        step = 1.0 if pairs else 1.0 / float(np.linalg.norm(d))
        for _ in range(_MAX_BACKTRACKS):
            z_new_at = z_at + step * d
            if l1:
                w_new = z_new_at[:n_coef]
                w_new[np.sign(w_new) != orthant] = 0.0
            if at is _ALL:
                z_new = z_new_at
            else:
                z_new = z.copy()
                z_new[at] = z_new_at
            value_new, gradient = _objective(z_new, x, x_t, y_idx, config, root)
            if value_new <= value + _ARMIJO * float(pg_at @ (z_new_at - z_at)):
                break
            step *= 0.5
        else:
            break  # the objective cannot be decreased along d
        g_new = gradient()
        s = z_new_at - z_at
        del d, z_at, pg_at  # free early: as views, z_at and pg_at would keep the old z and pg alive
        # For l1, coordinates the step left in place (pinned at zero) carry
        # only cross terms; dropping them makes (s, y) a secant pair of the
        # Hessian block of the coordinates that moved, and keeps the initial
        # scaling s.y / y.y from collapsing when most coefficients stay at
        # zero.  The pair is stored on those coordinates alone unless they
        # are most of them.
        if l1 and (at is not _ALL or np.count_nonzero(s) < _DENSE * s.size):
            moved = np.flatnonzero(s)
            at, s = moved if at is _ALL else at[moved], s[moved]
        y = g_new[at] - g[at]
        if l1 and at is _ALL:
            y = np.where(s != 0.0, y, 0.0)
        sy = float(s @ y)
        if sy > 0.0:
            pairs.append((at, s, y, 1.0 / sy))
        z, g, value = z_new, g_new, value_new
        pg = pseudo_gradient(z, g)
    converged = full_norm(pg) <= gtol
    return z[:block].reshape(k, n_features), z[block:], converged


def train(rows: LabeledRows, config: TrainConfig, labels: Sequence[str]) -> Model:
    """Fit the model from zero initialization; deterministic for fixed inputs.

    The feature dimension is the column count of ``rows.x``.  Identical
    columns of ``rows.x`` get identical coefficients.
    """
    if not rows:
        raise ValueError("empty training data")
    labels = tuple(labels)
    y_idx = _label_indices(rows, labels)
    x, column_of, root = _merge_identical_columns(rows.x)
    coef, intercept, converged = _solve(x, y_idx, len(labels), config, root)
    coef = (coef / root)[:, column_of]
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
