"""Tree-structured Parzen estimator surrogate and expected-improvement scoring.

Trial history is split at a quantile threshold y*; per-node densities are
fitted separately to the below and above populations (reweighted categorical
for discrete nodes, truncated Gaussian mixtures for continuous ones), and the
next candidate maximizes a score inversely proportional to the density ratio.

Fitting, drawing and scoring all run on the space's code rows (see
``space.ConfigSpace.encode``).  A trial is encoded once and keeps its row for
the space it was encoded under; drawn candidates follow the space's
activation rule and emit their rows as they are drawn, and explicit
candidates go through the space's encoder.  Candidates are scored together,
one node at a time; discrete draws take the same generator steps as
``Generator.choice(k, p=weights)``.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.special import ndtr

from .space import (
    Assignment,
    Categorical,
    ConfigSpace,
    Continuous,
    IntRange,
    Value,
    sample_prior,
)

log = logging.getLogger(__name__)

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Rejection draws per continuous sample.  A component's center lies in bounds
# and its width is at most the range, so a draw lands in bounds with
# probability at least Phi(1) - 1/2 (about 0.34) and the cap is never reached
# in practice; it only keeps the loop bounded.
MAX_REJECTION_DRAWS = 1000

# Widths of continuous kernels are confined to this fraction band of the range.
MIN_WIDTH_FRACTION = 1e-3


class DegenerateDensityError(ValueError):
    """Above-split density vanished; the caller must fall back to a prior sample."""


@dataclass(frozen=True)
class TrialRecord:
    """One evaluated trial: a concrete assignment and its objective value."""

    assignment: Assignment
    y: float
    # (space, code row) of the last space the assignment was encoded under.
    _codes: tuple[ConfigSpace, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )


@dataclass(frozen=True)
class TpeParams:
    """Surrogate settings.

    gamma is the fraction of trials split off below the threshold y*: with
    the default 0.85 the worst 85% of trials form the below population and
    candidates are drawn from the densities of the best 15% above it.
    """

    gamma: float = 0.85
    n_candidates: int = 64
    n_startup: int = 10
    smoothing: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.n_candidates < 1:
            raise ValueError(f"n_candidates must be positive, got {self.n_candidates}")
        if self.n_startup < 0:
            raise ValueError(f"n_startup must be nonnegative, got {self.n_startup}")
        if self.smoothing <= 0.0:
            raise ValueError(f"smoothing must be positive, got {self.smoothing}")


@dataclass(frozen=True)
class HistorySplit:
    """Trial history partitioned at y*: below has y < y*, above has y >= y*."""

    below: tuple[TrialRecord, ...]
    above: tuple[TrialRecord, ...]
    y_star: float

    def __post_init__(self) -> None:
        if not self.above:
            raise ValueError("above population must be nonempty")


def split_history(history: Sequence[TrialRecord], gamma: float) -> HistorySplit:
    """Partition history at the gamma quantile of objective values.

    The n = floor(gamma * t) lowest trials (at least one, once t >= 2) form
    the below population, together with every trial tied with the n-th lowest
    value; y* is the smallest objective value of the rest.  When those ties
    would leave nothing above, only trials strictly below the (n+1)-th lowest
    value go below, and ties at y* land above, so the above population stays
    nonempty.
    """
    if not history:
        raise ValueError("cannot split empty history")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    ordered = sorted(history, key=lambda r: r.y)
    t = len(ordered)
    n_below = max(1, math.floor(gamma * t)) if t >= 2 else 0
    if n_below and ordered[n_below - 1].y < ordered[-1].y:
        below = tuple(r for r in ordered if r.y <= ordered[n_below - 1].y)
    else:
        below = tuple(r for r in ordered[:n_below] if r.y < ordered[n_below].y)
    above = tuple(ordered[len(below) :])
    return HistorySplit(below, above, above[0].y)


@dataclass(frozen=True)
class ParzenCategorical:
    """Reweighted categorical distribution: weight(c) proportional to smoothing + count(c)."""

    domain: Categorical | IntRange
    weights: np.ndarray
    _cdf: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.shape != (len(self.domain.choices),):
            raise ValueError("one weight per choice required")
        if np.any(w <= 0.0):
            raise ValueError("weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        cdf = w.cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "_cdf", cdf.tolist())

    def sample_index(self, rng: np.random.Generator) -> int:
        """Index of one draw, with the same value and generator steps as ``rng.choice(k, p=weights)``.

        The last cdf entry is exactly 1, so the index stays below k;
        ``bisect_right`` finds the index ``searchsorted(side="right")`` would.
        """
        return bisect_right(self._cdf, rng.random())


def fit_categorical(
    observations: Sequence[Value], domain: Categorical | IntRange, smoothing: float
) -> ParzenCategorical:
    indices = [domain.code(obs) for obs in observations]
    if None in indices:
        obs = observations[indices.index(None)]
        raise ValueError(f"observation {obs!r} outside domain {domain.choices}")
    return _smoothed_counts(np.array(indices, dtype=np.intp), domain, smoothing)


def _smoothed_counts(
    indices: np.ndarray, domain: Categorical | IntRange, smoothing: float
) -> ParzenCategorical:
    """The categorical with weight(c) proportional to smoothing + the count of c in ``indices``."""
    if smoothing <= 0.0:
        raise ValueError(f"smoothing must be positive, got {smoothing}")
    counts = np.bincount(indices, minlength=len(domain.choices))
    weights = counts + smoothing
    weights /= weights.sum()
    return ParzenCategorical(domain, weights)


@dataclass(frozen=True)
class ParzenContinuous:
    """Equal-weight mixture of Gaussians truncated to [lo, hi] (estimation coordinates).

    The final component is the prior pseudo-component: centered at the
    midpoint with width equal to the full range, guaranteeing support
    everywhere in the interval.
    """

    centers: np.ndarray
    widths: np.ndarray
    lo: float
    hi: float
    _mass: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        centers = np.asarray(self.centers, dtype=float)
        widths = np.asarray(self.widths, dtype=float)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "widths", widths)
        if centers.shape != widths.shape or centers.ndim != 1 or centers.size == 0:
            raise ValueError("centers and widths must be matching nonempty 1-d arrays")
        if self.lo >= self.hi:
            raise ValueError(f"invalid bounds [{self.lo}, {self.hi}]")
        if np.any(widths <= 0.0):
            raise ValueError("widths must be positive")
        if np.any(centers < self.lo) or np.any(centers > self.hi):
            raise ValueError("centers must lie within bounds")
        # In-bounds probability mass of each untruncated component.
        mass = ndtr((self.hi - centers) / widths) - ndtr((self.lo - centers) / widths)
        object.__setattr__(self, "_mass", mass)

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Mixture density at x; accepts scalars or arrays, zero outside bounds."""
        xs = np.asarray(x, dtype=float)
        z = (xs[..., None] - self.centers) / self.widths
        kernels = np.exp(-0.5 * z * z) / (self.widths * _SQRT_2PI)
        density = np.mean(kernels / self._mass, axis=-1)
        density = np.where((xs < self.lo) | (xs > self.hi), 0.0, density)
        return float(density) if np.ndim(x) == 0 else density

    def sample(self, rng: np.random.Generator) -> float:
        """One draw from the truncated mixture, by rejection.

        After ``MAX_REJECTION_DRAWS`` out-of-bounds draws the last one is
        clipped into [lo, hi].
        """
        i = int(rng.integers(self.centers.size))
        for _ in range(MAX_REJECTION_DRAWS):
            x = float(rng.normal(self.centers[i], self.widths[i]))
            if self.lo <= x <= self.hi:
                return x
        return min(max(x, self.lo), self.hi)


def fit_continuous(observations: Sequence[float], domain: Continuous) -> ParzenContinuous:
    """Fit a truncated-Gaussian mixture to observations in estimation coordinates.

    Each observed center gets a width equal to the larger of its distances to
    the neighboring centers, with the domain bounds acting as virtual
    outermost neighbors; widths are clipped to [1e-3 * range, range].  A
    prior pseudo-component (midpoint, full range) is always appended.
    """
    lo, hi = domain.internal_bounds
    span = hi - lo
    obs = np.sort(np.asarray(observations, dtype=float))
    if obs.size:
        slack = 1e-9 * span
        if obs[0] < lo - slack or obs[-1] > hi + slack:
            raise ValueError(f"observations outside bounds [{lo}, {hi}]")
        obs = np.clip(obs, lo, hi)
        left = np.concatenate(([lo], obs[:-1]))
        right = np.concatenate((obs[1:], [hi]))
        widths = np.maximum(obs - left, right - obs)
    else:
        widths = np.empty(0)
    centers = np.append(obs, 0.5 * (lo + hi))
    widths = np.append(widths, span)
    widths = np.clip(widths, MIN_WIDTH_FRACTION * span, span)
    return ParzenContinuous(centers, widths, lo, hi)


ParzenModel = ParzenCategorical | ParzenContinuous
NodeModels = Mapping[str, ParzenModel]


def _stack(space: ConfigSpace, rows: Sequence[Sequence[float]]) -> np.ndarray:
    """Code rows as the rows of one matrix."""
    return np.array(rows, dtype=float).reshape(len(rows), len(space.nodes))


def _trial_codes(space: ConfigSpace, trials: Sequence[TrialRecord]) -> np.ndarray:
    """Code rows of trials, encoding a trial only when its row is for another space."""
    rows = []
    for record in trials:
        memo = record._codes
        if memo is None or memo[0] is not space:
            memo = (space, np.array(space.encode(record.assignment)))
            object.__setattr__(record, "_codes", memo)
        rows.append(memo[1])
    return _stack(space, rows)


def fit_node_models(
    space: ConfigSpace, trials: Sequence[TrialRecord], smoothing: float
) -> dict[str, ParzenModel]:
    """One density per node from the active entries of its column of the trials' code rows."""
    models: dict[str, ParzenModel] = {}
    for node, column in zip(space.nodes, _trial_codes(space, trials).T):
        column = column[~np.isnan(column)]
        if isinstance(node.domain, Continuous):
            models[node.name] = fit_continuous(column, node.domain)
        else:
            indices = column.astype(np.intp)
            models[node.name] = _smoothed_counts(indices, node.domain, smoothing)
    return models


def _draw(
    space: ConfigSpace, models: NodeModels, rng: np.random.Generator
) -> tuple[Assignment, list[float]]:
    """One assignment drawn root to leaf from ``models``, with its code row."""
    assignment: Assignment = {}
    codes = [math.nan] * len(space.nodes)
    for j, node in enumerate(space.nodes):
        if not space.active(j, codes):
            continue
        model = models[node.name]
        domain = node.domain
        if isinstance(domain, Continuous):
            value: Value = domain.from_internal(model.sample(rng))  # type: ignore[arg-type]
            # The code of the value as assigned, which encoding it would give,
            # not the draw that from_internal rounded and clipped.
            codes[j] = domain.to_internal(value)
        else:
            i = model.sample_index(rng)  # type: ignore[union-attr]
            value = domain.choices[i]
            codes[j] = i
        assignment[node.name] = value
    return assignment, codes


def _densities(
    space: ConfigSpace, populations: Sequence[NodeModels], codes: np.ndarray
) -> np.ndarray:
    """Path density of every code row under each population's models, one row per population.

    Only active nodes contribute a factor, continuous ones in estimation
    coordinates.  Each population's densities for a node are evaluated for
    all rows where it is active at once and multiplied in, so every row's
    factors are multiplied in node order.
    """
    density = np.ones((len(populations), len(codes)))
    for node, column in zip(space.nodes, codes.T):
        rows = np.flatnonzero(~np.isnan(column))
        if rows.size == 0:
            continue
        continuous = isinstance(node.domain, Continuous)
        x = column[rows] if continuous else column[rows].astype(np.intp)
        for row, models in zip(density, populations):
            model = models.get(node.name)
            if model is None:
                raise ValueError(f"missing model for active node '{node.name}'")
            if continuous:
                row[rows] *= model.pdf(x)  # type: ignore[union-attr]
            else:
                row[rows] *= model.weights[x]  # type: ignore[union-attr]
    return density


def ei_score(
    p_below: float | np.ndarray, p_above: float | np.ndarray, gamma: float
) -> float | np.ndarray:
    """Score proportional to expected improvement: 1 / (gamma + (p_below/p_above) * (1 - gamma)).

    Accepts scalars or arrays (scored elementwise).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    below = np.asarray(p_below, dtype=float)
    above = np.asarray(p_above, dtype=float)
    if np.any(below < 0.0):
        raise ValueError(f"p_below must be nonnegative, got {below.min()}")
    if np.any(above <= 0.0):
        raise DegenerateDensityError(f"p_above must be positive, got {above.min()}")
    score = 1.0 / (gamma + (below / above) * (1.0 - gamma))
    return float(score) if score.ndim == 0 else score


def suggest(
    space: ConfigSpace,
    history: Sequence[TrialRecord],
    params: TpeParams,
    rng: np.random.Generator,
    candidates: Sequence[Assignment] | None = None,
) -> Assignment:
    """Propose the next assignment to evaluate.

    Before n_startup usable trials exist this is a prior sample.  Afterwards
    the history is split at the gamma quantile, per-node densities are fitted
    to both populations, n_candidates draws are taken from the above-split
    densities, and the draw with the highest expected-improvement score wins.
    An explicit candidate list replaces sampling (used to run the scorer over
    a full enumeration of a discrete space); it must be nonempty.  Ties go to
    the first candidate with the highest score.
    """
    if candidates is not None and len(candidates) == 0:
        raise ValueError("explicit candidate list is empty")
    usable = [r for r in history if math.isfinite(r.y)]
    if len(usable) < params.n_startup or not usable:
        return sample_prior(space, rng)
    split = split_history(usable, params.gamma)
    below_models = fit_node_models(space, split.below, params.smoothing)
    above_models = fit_node_models(space, split.above, params.smoothing)
    if candidates is None:
        drawn = [_draw(space, above_models, rng) for _ in range(params.n_candidates)]
        candidates = [assignment for assignment, _ in drawn]
        codes = _stack(space, [row for _, row in drawn])
    else:
        codes = _stack(space, [space.encode(c) for c in candidates])
    try:
        p_below, p_above = _densities(space, (below_models, above_models), codes)
        scores = ei_score(p_below, p_above, params.gamma)
    except DegenerateDensityError:
        log.warning("degenerate above-split density; substituting a prior sample")
        return sample_prior(space, rng)
    return candidates[int(np.argmax(scores))]
