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

A two-class problem is solved as one weight vector.  From zero weights the
full problem's iterates stay on the subspace w1 = -w0, b1 = -b0: the softmax
gradient sums to zero over the classes, and for two classes the l1
pseudo-gradient, sign filter and orthant projection are antisymmetric too.
The solver runs on that subspace in orthonormal coordinates u = sqrt(2) * w0
and c = sqrt(2) * b0, where the loss is C * sum softplus(-+sqrt(2) (x.u + c))
(minus for the first class), the l2 penalty is still |u|^2 / 2 and the l1
penalty weighs sqrt(2) per unit of |u|.  Inner products and norms are the
full problem's, so the iterates are the ones it would take, up to rounding,
with one sparse product per value or gradient and vectors of half the length.
"""

from __future__ import annotations

import logging
import math
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
_SQRT2 = math.sqrt(2.0)


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
    """Labeled examples as one CSR matrix: row i of ``x`` carries ``labels[i]``.

    ``groups``, when given, labels each column of ``x`` with a non-negative
    integer so that two columns share a label exactly when they are
    identical; ``train`` then merges columns by it instead of finding the
    identical ones itself.
    """

    x: scipy.sparse.csr_matrix
    labels: Sequence[str]
    groups: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not scipy.sparse.issparse(self.x) or self.x.format != "csr":
            raise TypeError(f"expected a CSR matrix, got {type(self.x).__name__}")
        if len(self.labels) != self.x.shape[0]:
            raise ValueError(f"{self.x.shape[0]} matrix rows but {len(self.labels)} labels")
        if self.groups is not None and len(self.groups) != self.x.shape[1]:
            raise ValueError(f"{self.x.shape[1]} matrix columns but {len(self.groups)} groups")

    def __len__(self) -> int:
        return self.x.shape[0]


def _label_indices(data: LabeledRows, labels: Sequence[str]) -> np.ndarray:
    positions = {label: i for i, label in enumerate(labels)}
    try:
        return np.asarray([positions[label] for label in data.labels], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"label {exc} not in label set {tuple(labels)}") from exc


def _logsumexp_classes(scores: np.ndarray) -> np.ndarray:
    """``scipy.special.logsumexp(scores.T, axis=1)`` of class-major (k, n) scores, bit for bit.

    The steps are scipy 1.17's for real input, without its overhead: the
    maximum over classes and the count m of classes equal to it are taken out
    of the sum of shifted exponentials.  (scipy divides the sum by m only
    where it is not zero; zero over m is the same zero.)  The maximum and the
    count are exact in any order, so they run over axis 0.  The sum is not:
    numpy sums a contiguous row of fewer than 8 entries left to right, as a
    sum over axis 0 does, but a longer one in pairwise blocks, so with 8
    classes or more the exponentials are summed over an (n, k) copy, in
    scipy's order.  When any maximum is not finite, scipy computes the whole
    result.
    """
    top = scores.max(axis=0)
    if not np.isfinite(top).all():
        return scipy.special.logsumexp(np.ascontiguousarray(scores.T), axis=1)
    is_top = scores == top
    m = is_top.sum(axis=0, dtype=scores.dtype)
    shifted = np.exp(np.where(is_top, -np.inf, scores - top))
    s = shifted.sum(axis=0) if len(scores) < 8 else np.ascontiguousarray(shifted.T).sum(axis=1)
    return np.log1p(s / m) + np.log(m) + top


def _flat_labels(y_idx: np.ndarray) -> np.ndarray:
    """Position of each example's true class in class-major (k, n) scores, flattened."""
    return y_idx * len(y_idx) + np.arange(len(y_idx))


def _objective(
    z: np.ndarray,
    x: scipy.sparse.csr_matrix,
    x_t: scipy.sparse.csr_matrix,
    y_flat: np.ndarray,
    config: TrainConfig,
    root: np.ndarray,
) -> tuple[float, Callable[[], np.ndarray]]:
    """Penalized objective at ``z``, and a function that returns its gradient there.

    ``z`` holds the k x F coefficients row by row, then the k intercepts, and
    ``x_t`` is ``x.T`` as a CSR matrix.  ``y_flat`` is ``_flat_labels`` of
    the examples' class indices.  Column j's l1 penalty weighs ``root[j]``:
    sqrt(m) on a column that merges m identical ones, else 1.  The gradient
    reuses the value's scores and log-sum-exp, so a line search pays for it
    only at the point it accepts; for the l1 penalty its coef part is the
    smooth loss's only.

    Scores are class-major: row c is ``x @ coef[c]``, the same bits as column
    c of ``x @ coef.T`` without copying the coefficients into F order, and
    row c of the gradient's residuals is multiplied by ``x_t`` as it lies.
    Sums keep the order of example-major (n, k) scores: the log-sum-exp's
    over classes (see ``_logsumexp_classes``), and the intercept gradient's
    over examples, which is taken on an (n, k) copy.
    """
    n_features = x.shape[1]
    k = z.size // (n_features + 1)
    block = k * n_features
    coef = z[:block].reshape(k, n_features)
    scores = np.empty((k, x.shape[0]))
    for c in range(k):
        scores[c] = x @ coef[c]
    scores += z[block:, None]
    lse = _logsumexp_classes(scores)
    loss = config.strength * float(np.sum(lse - scores.reshape(-1)[y_flat]))

    def gradient() -> np.ndarray:
        delta = np.exp(scores - lse)
        delta.reshape(-1)[y_flat] -= 1.0
        grad = np.empty_like(z)
        grad_coef = grad[:block].reshape(coef.shape)
        for c in range(k):
            np.multiply(x_t @ delta[c], config.strength, out=grad_coef[c])
        grad[block:] = config.strength * np.ascontiguousarray(delta.T).sum(axis=0)
        if config.penalty == "l2":
            grad_coef += coef
        return grad

    if config.penalty == "l2":
        return loss + 0.5 * float(np.sum(coef * coef)), gradient
    return loss + float(np.sum(np.abs(coef) * root)), gradient


def _binary_objective(
    z: np.ndarray,
    x: scipy.sparse.csr_matrix,
    x_t: scipy.sparse.csr_matrix,
    sign: np.ndarray,
    config: TrainConfig,
    weight: np.ndarray,
) -> tuple[float, Callable[[], np.ndarray]]:
    """``_objective`` of a two-class problem on its subspace w1 = -w0, b1 = -b0.

    ``z`` holds u = sqrt(2) * w0 over the F columns, then c = sqrt(2) * b0.
    The loss is C * sum softplus(sign * (x @ u + c)), where ``sign`` is
    -sqrt(2) on examples of the first class and sqrt(2) on the others.  The
    gradient's residuals are expit of the same margins with the sign of
    ``sign``, and C * sqrt(2) scales their products: at zero they are the
    full problem's +-1/2, so an exact zero there (the intercept's, on
    balanced classes) stays exact.  Column j's l1 penalty weighs
    ``weight[j]``, sqrt(2) times the full problem's; the l2 penalty is
    |u|^2 / 2.
    """
    n_features = x.shape[1]
    u = z[:n_features]
    margins = x @ u
    margins += z[n_features]
    margins *= sign
    loss = config.strength * float(np.logaddexp(0.0, margins).sum())

    def gradient() -> np.ndarray:
        residuals = np.copysign(scipy.special.expit(margins), sign)
        scale = config.strength * _SQRT2
        grad = np.empty_like(z)
        np.multiply(x_t @ residuals, scale, out=grad[:n_features])
        grad[n_features] = scale * float(residuals.sum())
        if config.penalty == "l2":
            grad[:n_features] += u
        return grad

    if config.penalty == "l2":
        return loss + 0.5 * float(u @ u), gradient
    return loss + float(np.abs(u) @ weight), gradient


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
    y_flat = _flat_labels(_label_indices(rows, labels))
    value, gradient_at_z = _objective(z, rows.x, rows.x.T.tocsr(), y_flat, config, np.ones(dim))
    if not np.isfinite(value):
        raise FloatingPointError("non-finite objective value")
    grad = gradient_at_z()
    block = len(labels) * dim
    gradient = np.concatenate([grad[:block].reshape(len(labels), dim), grad[block:, None]], axis=1)
    return value, gradient


def _two_loop(q: np.ndarray, pairs: deque[_Pair]) -> np.ndarray:
    """L-BFGS inverse-Hessian approximation times ``q``, in place; each pair acts on its support.

    Pairs on all coordinates scale their s or y into one buffer, so they make
    no temporaries.  The buffer is made per call: kept for a whole solve, it
    would add a full-length vector to the solver's peak memory.
    """
    buffer = np.empty_like(q)
    alphas = []
    for support, s, y, rho in reversed(pairs):
        if support is _ALL:
            alpha = rho * float(s @ q)
            q -= np.multiply(y, alpha, out=buffer)
        else:
            alpha = rho * float(s @ q[support])
            q[support] -= alpha * y
        alphas.append(alpha)
    if pairs:
        _, s, y, _ = pairs[-1]
        q *= float(s @ y) / float(y @ y)
    for (support, s, y, rho), alpha in zip(pairs, reversed(alphas)):
        if support is _ALL:
            q += np.multiply(s, alpha - rho * float(y @ q), out=buffer)
        else:
            q[support] += (alpha - rho * float(y @ q[support])) * s
    return q


def _column_hash(xc: scipy.sparse.csc_matrix) -> np.ndarray:
    """A 64-bit key per column of ``xc``: a fixed-seed random projection, plus the nonzero count.

    Each column's entries are summed in row order, so identical columns get
    identical keys.
    """
    projection = np.random.default_rng(_HASH_SEED).standard_normal(xc.shape[0])
    return (xc.T @ projection).view(np.int64) + np.diff(xc.indptr)


def identical_columns(x: scipy.sparse.csr_matrix) -> np.ndarray:
    """Per column of ``x``, the lowest-numbered column identical to it: itself if there is none.

    Columns are sorted on their hash, and every column is checked against the
    first of its run of equal keys with one sparse comparison; one that
    differs from it in any entry stays on its own.
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
    return representative


def _merge_identical_columns(
    x: scipy.sparse.csr_matrix, groups: np.ndarray | None = None
) -> tuple[scipy.sparse.csr_matrix, np.ndarray, np.ndarray]:
    """``x`` with each set of m identical columns merged into one column times sqrt(m).

    ``groups`` labels each column with a non-negative integer so that exactly
    the identical ones share a label; without it, ``identical_columns`` finds
    them.  Returns the merged matrix, the merged column of each column of
    ``x``, and sqrt(m) per merged column.  Merged columns keep the order of
    their first members.  With no copies, ``x`` itself is returned.
    """
    n_features = x.shape[1]
    if groups is None:
        groups = identical_columns(x)
    # The lowest-numbered column of each group represents it.
    first = np.full(int(groups.max(initial=0)) + 1, n_features)
    np.minimum.at(first, groups, np.arange(n_features))
    representative = first[groups]
    is_kept = representative == np.arange(n_features)
    if is_kept.all():
        return x, np.arange(n_features), np.ones(n_features)
    # Each column's merged column, in the smallest unsigned type: it is held
    # while the solver runs.
    position = np.cumsum(is_kept) - 1
    column_of = position.astype(np.min_scalar_type(position[-1]))[representative]
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
    #
    # With two classes the loop runs on one row of coefficients and one
    # intercept, u = sqrt(2) * w0 and c = sqrt(2) * b0 (see the module
    # docstring): only the objective differs, and the l1 weight is sqrt(2) *
    # root.  Each coordinate's gradient is sqrt(2) times the full problem's
    # largest one there, and so is the gradient's at zero, so the stop test
    # decides as the full problem's.
    n_features = x.shape[1]
    l1 = config.penalty == "l1"
    x_t = x.T.tocsr()
    if k == 2:
        rows, weight = 1, _SQRT2 * root
        sign = np.where(y_idx == 0, -_SQRT2, _SQRT2)

        def objective(z: np.ndarray) -> tuple[float, Callable[[], np.ndarray]]:
            return _binary_objective(z, x, x_t, sign, config, weight)

    else:
        rows, weight = k, root
        y_flat = _flat_labels(y_idx)

        def objective(z: np.ndarray) -> tuple[float, Callable[[], np.ndarray]]:
            return _objective(z, x, x_t, y_flat, config, root)

    block = rows * n_features

    def pseudo_gradient(z: np.ndarray, g: np.ndarray) -> np.ndarray:
        if not l1:
            return g
        w, g_w = z[:block].reshape(rows, n_features), g[:block].reshape(rows, n_features)
        pg = g.copy()
        # The penalty's weight: sqrt(m) on a column that merges m identical
        # ones, else 1 (strength scales the loss), times sqrt(2) for two classes.
        pg[:block] = np.where(
            w != 0.0, g_w + np.sign(w) * weight, g_w - np.clip(g_w, -weight, weight)
        ).ravel()
        return pg

    def full_norm(v: np.ndarray) -> float:
        """Infinity norm, over the full problem's coordinates, of ``v`` at merged ones."""
        size = np.abs(v)
        size[:block].reshape(rows, n_features)[:] /= root
        return float(np.max(size))

    z = np.zeros(block + rows)
    value, gradient = objective(z)
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
                # The trial point differs from z only at `at`: write it into
                # z, whose old entries there are z_at.
                z_new = z
                z_new[at] = z_new_at
            value_new, gradient = objective(z_new)
            if value_new <= value + _ARMIJO * float(pg_at @ (z_new_at - z_at)):
                break
            step *= 0.5
        else:
            if at is not _ALL:
                z[at] = z_at
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
    coef, intercept = z[:block].reshape(rows, n_features), z[block:]
    if rows < k:  # back from the two-class coordinates to both classes' rows
        coef, intercept = coef / _SQRT2, intercept / _SQRT2
        coef, intercept = np.vstack([coef, -coef]), np.concatenate([intercept, -intercept])
    return coef, intercept, converged


def train(rows: LabeledRows, config: TrainConfig, labels: Sequence[str]) -> Model:
    """Fit the model from zero initialization; deterministic for fixed inputs.

    The feature dimension is the column count of ``rows.x``.  Identical
    columns of ``rows.x`` (those ``rows.groups`` labels alike, when given)
    get identical coefficients.
    """
    if not rows:
        raise ValueError("empty training data")
    labels = tuple(labels)
    y_idx = _label_indices(rows, labels)
    x, column_of, root = _merge_identical_columns(rows.x, rows.groups)
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
