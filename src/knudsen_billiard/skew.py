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
from .core_map import BRANCHES, MapParams, _pick, _step, prob_all, tau_all
from .measures import AtomicMeasure, evolve, in_interval

Y_TOL = 1e-12  # tolerated float escape of y from [0, 1)

_BELOW_ONE = math.nextafter(1.0, 0.0)


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


def _slabs(cur: np.ndarray, off: np.ndarray, scale: np.ndarray, params: MapParams):
    """One level of the fibre walk: (P, lo, hi), each of shape (4, N).

    Entry j of cur, off and scale is an orbit point and the offset and length
    of its word's fibre; row k - 1 of lo and hi bounds the fibre of that word
    with branch k prepended.  Slab bottoms 0, p_1, p_1 + p_2, (p_1 + p_2) + p_3
    are summed left to right.
    """
    P = prob_all(cur, params)
    cum = np.zeros_like(P)
    for k in (1, 2, 3):
        cum[k] = cum[k - 1] + P[k - 1]
    return P, off + scale * cum, off + scale * (cum + P)


def _word_fiber(x: float, w: CylinderWord, params: MapParams):
    """(FiberInterval, probability product) of one word, by the slab step of enumerate_fibers."""
    letters = w.indices[::-1]
    cur, off, scale = np.array([float(x)]), np.zeros(1), np.ones(1)
    for n, i in enumerate(letters, 1):
        P, lo, hi = _slabs(cur, off, scale, params)
        if P[i - 1, 0] == 0.0:
            return _EMPTY, 0.0
        off, scale = lo[i - 1], scale * P[i - 1]
        if n < len(letters):
            cur = np.clip(tau_all(cur, params)[i - 1], 0.0, math.pi)
    return FiberInterval(float(off[0]), float(hi[i - 1, 0])), float(scale[0])


def cylinder_fiber(x: float, w: CylinderWord, params: MapParams) -> FiberInterval:
    """The fibre slice {y : (y, x) in the cylinder of word w}, as an interval.

    For a single letter this is the cumulative-probability slab of that branch
    at x; each further letter places its slab inside the fibre found so far,
    which keeps intervals intervals.  Any branch of zero probability along
    the word empties the fibre.  Bit-identical to the word's entry in
    enumerate_fibers.
    """
    return _word_fiber(x, w, params)[0]


def fiber_measure(x: float, w: CylinderWord, params: MapParams) -> float:
    """Product of branch probabilities along the orbit of word w started at x."""
    return _word_fiber(x, w, params)[1]


def enumerate_fibers(x: float, max_len: int, params: MapParams):
    """Yield (word, FiberInterval, probability product) for every word up to max_len.

    Exhaustive over all 4 + 4**2 + ... + 4**max_len words, including the empty
    ones, grouped by length: all words of length 1, then all of length 2, and
    so on, each length in lexicographic order.  The orbit tree is walked one
    level at a time, with one prob_all and one tau_all call on all of a
    level's points, so this is the cheap way to sweep thousands of words per
    base point.  A word is empty, with product 0, once any branch probability
    along its orbit is 0.  A whole length is held at once, so memory grows as
    4**max_len: a process sweeping one base point peaks at 30 MB RSS at
    max_len 6 and 72 MB at max_len 9.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    # one entry per word of the previous length, in the order yielded
    cur, off, scale = np.array([float(x)]), np.zeros(1), np.ones(1)
    dead = np.zeros(1, dtype=bool)
    for n in range(1, max_len + 1):
        # row k - 1 prepends branch k to every shorter word, so ravel() keeps each
        # length in lexicographic order
        P, lo, hi = _slabs(cur, off, scale, params)
        lo, hi = lo.ravel(), hi.ravel()
        scale = (scale * P).ravel()
        dead = (dead | (P == 0.0)).ravel()
        for word, a, b, m, gone in zip(_iterproduct(BRANCHES, repeat=n), lo.tolist(),
                                       hi.tolist(), scale.tolist(), dead.tolist()):
            yield (word, _EMPTY, 0.0) if gone else (word, FiberInterval(a, b), m)
        if n < max_len:
            cur = np.clip(tau_all(cur, params), 0.0, math.pi).ravel()
            off = lo


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
