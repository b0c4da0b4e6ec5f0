"""Tree-structured Parzen estimator surrogate and expected-improvement scoring.

Trial history is split at a quantile threshold y*; per-node densities are
fitted separately to the below and above populations (reweighted categorical
for discrete nodes, truncated Gaussian mixtures for continuous ones), and the
next candidate maximizes a score inversely proportional to the density ratio.

Fitting, drawing and scoring all run on the space's code rows (see
``space.ConfigSpace.encode``).  A trial is encoded once and keeps its row for
the space it was encoded under, and each suggest fits both populations from
one matrix of the history's rows.  Drawn candidates follow the space's
activation rule and emit their rows as they are drawn, all of them in one
pass over a plan of plain Python values made from the above-split models;
explicit candidates go through the space's encoder.  Candidates are scored
together, one node at a time; discrete draws take the same generator steps
as ``Generator.choice(k, p=weights)``.

A density's constructor only derives its draw table (a categorical's
cumulative weights) or its normalizers (a mixture's in-bounds masses) from
its fields.  The fitters check their observations and smoothing and build
the fields valid: positive weights summing to 1, or centers inside the
bounds with positive widths.
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


def _y_star(ys: np.ndarray, gamma: float) -> float:
    """The threshold y* that splits trials with objective values ``ys``, sorted ascending.

    The n = floor(gamma * t) lowest of the t trials (at least one, once
    t >= 2) fall below y*, together with every trial tied with the n-th
    lowest value, and y* is the smallest value of the rest.  When those ties
    would leave nothing above, y* is the (n+1)-th lowest value and its ties
    stay above it, so some trial always has y >= y*.
    """
    t = len(ys)
    n_below = max(1, math.floor(gamma * t)) if t >= 2 else 0
    if n_below and ys[n_below - 1] < ys[-1]:
        return float(ys[np.searchsorted(ys, ys[n_below - 1], side="right")])
    return float(ys[n_below])


@dataclass(frozen=True)
class ParzenCategorical:
    """Reweighted categorical distribution: weight(c) proportional to smoothing + count(c)."""

    weights: np.ndarray
    # Cumulative weights scaled so the last entry is exactly 1.  A draw is
    # bisect_right(cdf, rng.random()): the index searchsorted(side="right")
    # would find, so it takes the same value and generator steps as
    # rng.choice(k, p=weights) and stays below k.
    _cdf: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cdf = self.weights.cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "_cdf", cdf.tolist())


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
    """The categorical with weight(c) proportional to smoothing + the count of c in ``indices``.

    Positive smoothing makes every weight positive, and the weights sum to 1.
    """
    if smoothing <= 0.0:
        raise ValueError(f"smoothing must be positive, got {smoothing}")
    counts = np.bincount(indices, minlength=len(domain.choices))
    weights = counts + smoothing
    weights /= weights.sum()
    return ParzenCategorical(weights)


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
        # In-bounds probability mass of each untruncated component.
        upper = ndtr((self.hi - self.centers) / self.widths)
        object.__setattr__(self, "_mass", upper - ndtr((self.lo - self.centers) / self.widths))

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Mixture density at x; accepts scalars or arrays, zero outside bounds."""
        xs = np.asarray(x, dtype=float)
        z = (xs[..., None] - self.centers) / self.widths
        kernels = np.exp(-0.5 * z * z) / (self.widths * _SQRT_2PI)
        density = np.mean(kernels / self._mass, axis=-1)
        density = np.where((xs < self.lo) | (xs > self.hi), 0.0, density)
        return float(density) if np.ndim(x) == 0 else density


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
    space: ConfigSpace, codes: np.ndarray, smoothing: float
) -> dict[str, ParzenModel]:
    """One density per node from the active entries of its column of the code rows ``codes``.

    Both fits ignore the order of the rows.
    """
    models: dict[str, ParzenModel] = {}
    for node, column in zip(space.nodes, codes.T):
        column = column[~np.isnan(column)]
        if isinstance(node.domain, Continuous):
            models[node.name] = fit_continuous(column, node.domain)
        else:
            indices = column.astype(np.intp)
            models[node.name] = _smoothed_counts(indices, node.domain, smoothing)
    return models


def _draws(
    space: ConfigSpace, models: NodeModels, n: int, rng: np.random.Generator
) -> tuple[list[Assignment], list[list[float]]]:
    """``n`` assignments drawn root to leaf from ``models``, with their code rows.

    A plan made once holds, per node, its parent link and its model as plain
    Python values: a discrete node's cdf and choices, a continuous node's
    centers, widths and bounds.  Each candidate then takes the generator
    calls that drawing it alone would, in the same order: one ``random()``
    per discrete node, and per continuous node one ``integers(components)``
    and ``normal(center, width)`` until a draw lands in bounds.  After
    ``MAX_REJECTION_DRAWS`` out-of-bounds draws the last one is clipped.
    """
    plan = []
    for j, (node, link) in enumerate(zip(space.nodes, space._links)):
        domain = node.domain
        if isinstance(domain, Continuous):
            mixture: ParzenContinuous = models[node.name]  # type: ignore[assignment]
            sampler = (
                mixture.centers.tolist(), mixture.widths.tolist(),
                mixture.lo, mixture.hi, domain.lo, domain.hi, domain.scale == "log10",
            )
            plan.append((j, node.name, link, None, sampler))
        else:
            categorical: ParzenCategorical = models[node.name]  # type: ignore[assignment]
            plan.append((j, node.name, link, categorical._cdf, domain.choices))
    random, integers, normal = rng.random, rng.integers, rng.normal
    assignments: list[Assignment] = []
    rows: list[list[float]] = []
    for _ in range(n):
        assignment: Assignment = {}
        codes = [math.nan] * len(plan)
        for j, name, link, cdf, data in plan:
            if link is not None and codes[link[0]] not in link[1]:
                continue
            if cdf is not None:
                i = bisect_right(cdf, random())
                assignment[name] = data[i]
                codes[j] = i
                continue
            centers, widths, lo, hi, value_lo, value_hi, log10 = data
            k = int(integers(len(centers)))
            for _ in range(MAX_REJECTION_DRAWS):
                x = normal(centers[k], widths[k])
                if lo <= x <= hi:
                    break
            else:
                x = min(max(x, lo), hi)
            # Continuous.from_internal, then the code of the value as assigned,
            # which encoding it would give, not the draw it rounded and clipped.
            value = min(max(10.0**x if log10 else x, value_lo), value_hi)
            assignment[name] = value
            codes[j] = math.log10(value) if log10 else value
        assignments.append(assignment)
        rows.append(codes)
    return assignments, rows


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
    # The split is the trials below y* and the rest, so each population's
    # rows are taken from one matrix of the usable trials' rows.
    ys = np.array([r.y for r in usable])
    below = ys < _y_star(np.sort(ys), params.gamma)
    history_codes = _trial_codes(space, usable)
    below_models = fit_node_models(space, history_codes[below], params.smoothing)
    above_models = fit_node_models(space, history_codes[~below], params.smoothing)
    if candidates is None:
        candidates, rows = _draws(space, above_models, params.n_candidates, rng)
        codes = _stack(space, rows)
    else:
        codes = _stack(space, [space.encode(c) for c in candidates])
    try:
        p_below, p_above = _densities(space, (below_models, above_models), codes)
        scores = ei_score(p_below, p_above, params.gamma)
    except DegenerateDensityError:
        log.warning("degenerate above-split density; substituting a prior sample")
        return sample_prior(space, rng)
    return candidates[int(np.argmax(scores))]
