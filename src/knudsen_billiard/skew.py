"""Deterministic skew representation of the random angle map.

The random map is represented by a single deterministic transformation

    S(y, x) = (phi_k(y, x), tau_k(x))   on the slab J_k,

where J_k = {(y, x) : cum_(k-1)(x) <= y < cum_k(x)} stacks the branch
probabilities over the unit y-interval and phi_k(y, x) = (y - cum_(k-1)(x)) / p_k(x)
rescales the chosen slab back to [0, 1).  Statistics of the second coordinate
under Lebesgue y reproduce the Markov kernel exactly; cylinder sets of branch
words are intervals on each fibre, with length equal to the product of branch
probabilities along the orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iterproduct

import numpy as np

from . import rng
from .core_map import BRANCHES, MapParams, _pick, _step, prob_all, tau
from .measures import AtomicMeasure, evolve, in_interval

Y_TOL = 1e-12  # tolerated float escape of y from [0, 1)

_BELOW_ONE = math.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class SkewPoint:
    """A point (y, x) in [0, 1) x [0, pi]."""

    y: float
    x: float

    def __post_init__(self):
        if not 0.0 <= self.y < 1.0:
            raise ValueError(f"y must lie in [0, 1), got {self.y!r}")
        if not 0.0 <= self.x <= math.pi:
            raise ValueError(f"x must lie in [0, pi], got {self.x!r}")


@dataclass(frozen=True)
class CylinderWord:
    """Branch word (i_1, ..., i_n); i_n is the branch applied first."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) == 0:
            raise ValueError("cylinder word must be nonempty")
        if any(i not in BRANCHES for i in self.indices):
            raise ValueError(f"word entries must be branch indices 1..4: {self.indices}")
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class FiberInterval:
    """Half-open subinterval [lo, hi) of [0, 1); empty when lo == hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi <= 1.0 + Y_TOL):
            raise AssertionError(f"not an interval in [0, 1]: [{self.lo}, {self.hi})")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def is_empty(self) -> bool:
        return self.hi <= self.lo


_EMPTY = FiberInterval(0.0, 0.0)


def _clamp_y(y):
    y = np.asarray(y, dtype=float)
    if np.any(y >= 1.0 + Y_TOL) or np.any(y < -Y_TOL):
        raise AssertionError("phi pushed y outside [0, 1) beyond float noise")
    return np.clip(y, 0.0, _BELOW_ONE)


def skew_step_many(
    y: np.ndarray, x: np.ndarray, params: MapParams
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised application of S to arrays of (y, x) points."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    k, x2, P, cum = _step(x, y, params)
    # phi_k(y, x) = (y - cum_(k-1)(x)) / p_k(x), with cum_0 = 0
    below = _pick(np.stack((np.zeros_like(y),) + cum), k)
    y2 = _clamp_y((y - below) / _pick(P, k))
    return y2, x2


def skew_step(p: SkewPoint, params: MapParams) -> SkewPoint:
    """One application of S to a single point."""
    y2, x2 = skew_step_many(np.array([p.y]), np.array([p.x]), params)
    return SkewPoint(y=float(y2[0]), x=float(x2[0]))


def cylinder_fiber(x: float, w: CylinderWord, params: MapParams) -> FiberInterval:
    """The fibre slice {y : (y, x) in the cylinder of word w}, as an interval.

    For a single letter this is the cumulative-probability slab of that branch
    at x.  Longer words pull the shorter word's fibre at tau_(i_n)(x) back
    through the affine slab map, which keeps intervals intervals.  Any branch
    of zero probability along the word empties the fibre.
    """
    i = w.indices[-1]
    P = prob_all(float(x), params)
    p = float(P[i - 1])
    if p == 0.0:
        return _EMPTY
    lo = float(P[: i - 1].sum())
    if len(w) == 1:
        return FiberInterval(lo, lo + p)
    inner = cylinder_fiber(
        min(max(tau(i, float(x), params), 0.0), math.pi),
        CylinderWord(w.indices[:-1]),
        params,
    )
    if inner.is_empty:
        return _EMPTY
    return FiberInterval(lo + p * inner.lo, lo + p * inner.hi)


def fiber_measure(x: float, w: CylinderWord, params: MapParams) -> float:
    """Product of branch probabilities along the orbit of word w started at x."""
    acc = 1.0
    cur = float(x)
    for i in reversed(w.indices):
        acc *= float(prob_all(cur, params)[i - 1])
        if acc == 0.0:
            return 0.0
        cur = min(max(tau(i, cur, params), 0.0), math.pi)
    return acc


def enumerate_fibers(x: float, max_len: int, params: MapParams):
    """Yield (word, FiberInterval, probability product) for every word up to max_len.

    Exhaustive over all 4 + 4**2 + ... + 4**max_len words, including the empty
    ones.  The interval arithmetic is shared along the orbit tree, so this is
    the cheap way to sweep thousands of words per base point.
    """

    def _dead(prefix, depth):
        # all extensions of a zero-probability branch are empty
        for ext in range(1, depth + 1):
            for tail in _iterproduct(BRANCHES, repeat=ext):
                yield tail + prefix, _EMPTY, 0.0

    def _walk(cur, chain, off, scale, depth):
        P = prob_all(cur, params)
        cum_lo = 0.0
        for i in BRANCHES:
            p = float(P[i - 1])
            word = tuple(reversed(chain + (i,)))
            if p == 0.0:
                yield word, _EMPTY, 0.0
                if depth > 1:
                    yield from _dead(word, depth - 1)
            else:
                lo = off + scale * cum_lo
                hi = off + scale * (cum_lo + p)
                yield word, FiberInterval(lo, hi), scale * p
                if depth > 1:
                    nxt = min(max(tau(i, cur, params), 0.0), math.pi)
                    yield from _walk(nxt, chain + (i,), lo, scale * p, depth - 1)
            cum_lo += p

    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    yield from _walk(float(x), (), 0.0, 1.0, max_len)


@dataclass(frozen=True)
class Theorem1Result:
    """Exact vs Monte Carlo mass of an interval after n skew steps."""

    exact: float
    estimate: float
    stderr: float

    def within(self, sigmas: float = 4.0) -> bool:
        return abs(self.exact - self.estimate) <= sigmas * self.stderr


def theorem1_check(
    nu: AtomicMeasure,
    A: tuple[float, float],
    n: int,
    samples: int,
    seed: int,
    params: MapParams,
) -> Theorem1Result:
    """Check that fibre-averaged skew statistics reproduce kernel iteration.

    `exact` is nu_n(A) from the deterministic atomic push-forward; `estimate`
    averages the indicator of A over the second coordinate of S^n applied to
    (y, x) with y ~ Uniform[0, 1) and x ~ nu.  The reported standard error is
    the Laplace-smoothed binomial one, so it stays positive at 0 or full hits.
    """
    if n < 0 or samples < 1:
        raise ValueError("need n >= 0 and samples >= 1")
    lo, hi = float(A[0]), float(A[1])
    if hi <= lo:
        return Theorem1Result(0.0, 0.0, 0.0)

    exact = evolve(nu, n, params)[-1].measure_of(lo, hi)

    y = rng.uniforms(seed, 0, samples)
    u = rng.uniforms(seed, 1, samples)
    cum_w = np.cumsum(nu.weights)
    x = nu.thetas[np.minimum(np.searchsorted(cum_w, u, side="right"), len(nu) - 1)]
    for _ in range(n):
        y, x = skew_step_many(y, x, params)
    hits = int(np.count_nonzero(in_interval(x, lo, hi)))
    estimate = hits / samples
    smoothed = (hits + 1.0) / (samples + 2.0)
    stderr = math.sqrt(smoothed * (1.0 - smoothed) / samples)
    return Theorem1Result(exact=exact, estimate=estimate, stderr=stderr)
