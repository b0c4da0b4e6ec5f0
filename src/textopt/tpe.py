"""Tree-structured Parzen estimator surrogate and expected-improvement scoring.

Trial history is split at a quantile threshold y*; per-node densities are
fitted separately to the below and above populations (reweighted categorical
for discrete nodes, truncated Gaussian mixtures for continuous ones), and the
next candidate maximizes a score inversely proportional to the density ratio.
Candidates are scored together, one node at a time; discrete draws take the
same generator steps as ``Generator.choice(k, p=weights)``.
"""

from __future__ import annotations

import logging
import math
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
    _condition_met,
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

    domain: Categorical
    weights: np.ndarray
    smoothing: float
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_cdf", cdf)

    def prob(self, value: Value) -> float:
        idx = self.domain.index_of(value)
        if idx is None:
            raise ValueError(f"value {value!r} outside domain")
        return float(self.weights[idx])

    def sample(self, rng: np.random.Generator) -> Value:
        """One draw, taking the same value and generator steps as ``rng.choice(k, p=weights)``."""
        return self.domain.choices[int(self._cdf.searchsorted(rng.random(), side="right"))]


def fit_categorical(
    observations: Sequence[Value], domain: Categorical, smoothing: float
) -> ParzenCategorical:
    if smoothing <= 0.0:
        raise ValueError(f"smoothing must be positive, got {smoothing}")
    indices = [domain.index_of(obs) for obs in observations]
    if None in indices:
        obs = observations[indices.index(None)]
        raise ValueError(f"observation {obs!r} outside domain {domain.choices}")
    counts = np.bincount(np.array(indices, dtype=np.intp), minlength=len(domain.choices))
    weights = counts + smoothing
    weights /= weights.sum()
    return ParzenCategorical(domain, weights, smoothing)


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
    obs = np.sort(np.asarray([float(v) for v in observations], dtype=float))
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


def fit_node_models(
    space: ConfigSpace, trials: Sequence[TrialRecord], smoothing: float
) -> dict[str, ParzenModel]:
    """Fit one density per node from the trials where that node was active."""
    models: dict[str, ParzenModel] = {}
    for node in space.nodes:
        obs = [r.assignment[node.name] for r in trials if node.name in r.assignment]
        if isinstance(node.domain, Continuous):
            internal = [node.domain.to_internal(v) for v in obs]
            models[node.name] = fit_continuous(internal, node.domain)
        else:
            models[node.name] = fit_categorical(obs, _symbols(node.domain), smoothing)
    return models


def _symbols(domain: Categorical | IntRange) -> Categorical:
    """The domain whose choice indices discrete densities are fitted over."""
    return domain.as_categorical if isinstance(domain, IntRange) else domain


def path_densities(
    space: ConfigSpace, populations: Sequence[NodeModels], candidates: Sequence[Assignment]
) -> np.ndarray:
    """Path density of every candidate under each population's models.

    Returns an array of shape (len(populations), len(candidates)).  Nodes are
    visited once each, in space order: a root is active in every candidate, a
    child where its parent is active and takes one of its activating values
    (the rule of ``active_nodes``).  Each population's densities for a node
    are evaluated for all candidates where it is active at once and multiplied
    in, so every candidate's factors are multiplied in node order.
    """
    density = np.ones((len(populations), len(candidates)))
    rows_of: dict[str, list[int]] = {}
    for node in space.nodes:
        cond = node.condition
        if cond is None:
            rows = list(range(len(candidates)))
        else:
            parent_rows = rows_of.get(cond.parent, ())
            rows = [i for i in parent_rows if cond.satisfied_by(candidates[i][cond.parent])]
        rows_of[node.name] = rows
        if not rows:
            continue
        values = [candidates[i][node.name] for i in rows]
        domain = node.domain
        if isinstance(domain, Continuous):
            coords = np.array([domain.to_internal(v) for v in values])  # type: ignore[arg-type]
        else:
            indices = [_symbols(domain).index_of(v) for v in values]
            if None in indices:
                bad = values[indices.index(None)]
                raise ValueError(f"value {bad!r} of node '{node.name}' outside domain")
            coords = np.array(indices, dtype=np.intp)
        for row, models in zip(density, populations):
            model = models.get(node.name)
            if model is None:
                raise ValueError(f"missing model for active node '{node.name}'")
            if isinstance(domain, Continuous):
                row[rows] *= model.pdf(coords)  # type: ignore[union-attr]
            else:
                row[rows] *= model.weights[coords]  # type: ignore[union-attr]
    return density


def path_density(space: ConfigSpace, models: NodeModels, assignment: Assignment) -> float:
    """Product of per-node densities over the active nodes only.

    Continuous nodes are evaluated in estimation coordinates; inactive nodes
    contribute no factor.
    """
    return float(path_densities(space, [models], [assignment])[0, 0])


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


def sample_candidate(
    space: ConfigSpace, above_models: NodeModels, rng: np.random.Generator
) -> Assignment:
    """Draw one assignment from the above-population densities, root to leaf."""
    assignment: Assignment = {}
    for node in space.nodes:
        if not _condition_met(node.condition, assignment):
            continue
        model = above_models[node.name]
        if isinstance(node.domain, Continuous):
            assignment[node.name] = node.domain.from_internal(model.sample(rng))  # type: ignore[union-attr]
        else:
            assignment[node.name] = model.sample(rng)  # type: ignore[union-attr]
    return assignment


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
        candidates = [
            sample_candidate(space, above_models, rng) for _ in range(params.n_candidates)
        ]
    try:
        p_below, p_above = path_densities(space, (below_models, above_models), candidates)
        scores = ei_score(p_below, p_above, params.gamma)
    except DegenerateDensityError:
        log.warning("degenerate above-split density; substituting a prior sample")
        return sample_prior(space, rng)
    return candidates[int(np.argmax(scores))]
