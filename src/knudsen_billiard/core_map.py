"""Four-branch random map on outgoing angles of the triangular billiard cell.

A particle that leaves the open side of the cell with angle theta (measured
against the horizontal, in [0, pi]) re-enters at a uniformly random position
and exits again with one of four possible angles

    tau_1(theta) = theta + 2*alpha        tau_2(theta) = -theta + 2*pi - 4*alpha
    tau_3(theta) = theta - 2*alpha        tau_4(theta) = -theta + 4*alpha

taken with position-dependent probabilities p_1..p_4(theta).  The probability
table is piecewise in theta over seven half-open regions cut at
alpha, 2*alpha, 3*alpha, pi-3*alpha, pi-2*alpha, pi-alpha, built from

    u_a(theta) = (1 + tan(a) * cot(theta)) / 2,   a in {alpha, 2*alpha}.

Each p_k is therefore affine in cot(theta) on each region, so the table is
held as data: a region index r in 0..6 and a 4x7 pair of coefficient arrays,
p_k(theta) = A[k, r] + B[k, r] * cot(theta).

This module provides the branch maps, the probability partition, one-row
transition kernels, one sampling step shared by ensembles and the skew map, and
the reflection symmetry theta -> pi - theta together with its index
conjugation.  Everything is a pure function; theta arguments may be scalars
or numpy arrays.  The cell angle alpha must lie in (0, pi/6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BRANCHES = (1, 2, 3, 4)

# float noise tolerated below zero in the probability table before we
# declare the implementation broken
PROB_FLOOR = -1e-12

# tolerance on the partition of unity in a kernel row
PARTITION_TOL = 1e-12

_CONJUGATE = {1: 3, 2: 4, 3: 1, 4: 2}


@dataclass(frozen=True)
class MapParams:
    """Cell angle alpha plus the probability coefficient table of hot loops."""

    alpha: float
    _A: np.ndarray = field(init=False, repr=False, compare=False)
    _B: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = self.alpha
        if not 0.0 < a < math.pi / 6.0:
            raise ValueError(f"alpha must lie strictly inside (0, pi/6), got {a!r}")
        ta, t2a, c2a = math.tan(a), math.tan(2.0 * a), math.cos(2.0 * a)
        # column r: u_a(+-theta) = 1/2 +- h*cot, 2*c2a*u_2a(+-theta) = c2a +- s*cot
        h, s = 0.5 * ta, c2a * t2a
        A = np.array([[1.0, 0.5, 0.5,       0.5, c2a,       0.0, 0.0],
                      [0.0, 0.0, 0.0,       0.0, 0.5 - c2a, 0.5, 0.0],
                      [0.0, 0.0, c2a,       0.5, 0.5,       0.5, 1.0],
                      [0.0, 0.5, 0.5 - c2a, 0.0, 0.0,       0.0, 0.0]])
        B = np.array([[0.0, h,   h,         h,   s,         0.0, 0.0],
                      [0.0, 0.0, 0.0,       0.0, h - s,     h,   0.0],
                      [0.0, 0.0, -s,        -h,  -h,        -h,  0.0],
                      [0.0, -h,  s - h,     0.0, 0.0,       0.0, 0.0]])
        A.flags.writeable = B.flags.writeable = False
        object.__setattr__(self, "_A", A)
        object.__setattr__(self, "_B", B)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Interior region boundaries of the probability table, in order."""
        a, pi = self.alpha, math.pi
        return (a, 2 * a, 3 * a, pi - 3 * a, pi - 2 * a, pi - a)


def _as_theta(theta, tol: float = 1e-9) -> np.ndarray:
    t = np.asarray(theta, dtype=float)
    if not np.all((t >= -tol) & (t <= math.pi + tol)):
        raise ValueError("theta must be finite and lie in [0, pi]")
    return t


def _match(out: np.ndarray, like) -> float | np.ndarray:
    return float(out) if np.isscalar(like) or np.ndim(like) == 0 else out


def tau(k: int, theta, params: MapParams):
    """Exit-angle image of branch k; may leave [0, pi] where its probability is 0."""
    if k not in BRANCHES:
        raise ValueError(f"branch index must be 1..4, got {k!r}")
    return _match(tau_all(theta, params)[int(k) - 1], theta)


def tau_all(theta, params: MapParams) -> np.ndarray:
    """Images of all four branches, stacked along axis 0 (shape (4,) + theta.shape)."""
    t = _as_theta(theta)
    a = params.alpha
    T = np.empty((4,) + t.shape)  # row by row: four images are never held twice
    T[0] = t + 2 * a
    T[1] = -t + 2 * math.pi - 4 * a
    T[2] = t - 2 * a
    T[3] = -t + 4 * a
    return T


def u_alpha(theta, a: float):
    """The slope weight u_a(theta) = (1 + tan(a)*cot(theta)) / 2.

    Computed through cot = cos/sin so theta = pi/2 needs no special case.
    Undefined at theta in {0, pi}.
    """
    t = np.asarray(theta, dtype=float)
    if not np.all((t > 0.0) & (t < math.pi)):
        raise ValueError("u_alpha requires finite theta strictly inside (0, pi)")
    out = 0.5 * (1.0 + math.tan(a) * np.cos(t) / np.sin(t))
    return _match(out, theta)


def prob_all(theta, params: MapParams) -> np.ndarray:
    """All four branch probabilities at theta, stacked along axis 0.

    The region index r is the number of breakpoints <= theta, so a breakpoint
    belongs to the region on its right, and P[k] = A[k, r] + B[k, r] * cot(theta).
    Values in [PROB_FLOOR, 0) are clamped to 0; anything more negative raises,
    since the table is non-negative by construction.
    """
    t = np.atleast_1d(_as_theta(theta))
    cuts = params.breakpoints
    # = searchsorted(cuts, t, side="right"), at a fraction of its cost
    r = np.zeros(t.shape, np.int8)
    for c in cuts:
        r += t >= c
    r = r.astype(np.intp)
    # regions 0 and 6 have no cot term, so clipping keeps theta = 0, pi off the pole
    cot = np.clip(t, cuts[0], cuts[-1])
    np.tan(cot, out=cot)
    np.divide(1.0, cot, out=cot)

    # r is in range, and a mode other than "raise" lets take fill `out` unbuffered
    P = np.empty((4,) + t.shape)
    a_k = np.empty(t.shape)
    for k in range(4):
        np.take(params._B[k], r, out=P[k], mode="wrap")
        P[k] *= cot
        np.take(params._A[k], r, out=a_k, mode="wrap")
        P[k] += a_k

    if P.size and P.min() < PROB_FLOOR:
        raise AssertionError("branch probability fell below the float-noise floor; "
                             "the coefficient table is wrong")
    np.maximum(P, 0.0, out=P)
    return P[:, 0] if np.ndim(theta) == 0 else P


@dataclass(frozen=True)
class KernelRow:
    """One row of the transition kernel: positive-weight (branch, weight, image) triples."""

    theta: float
    entries: tuple[tuple[int, float, float], ...]

    def weights_sum(self) -> float:
        return sum(w for _, w, _ in self.entries)


def kernel_row(theta, params: MapParams) -> KernelRow:
    """Assemble the kernel row at theta, dropping zero-weight branches.

    Raises if the retained weights miss a partition of unity by more than
    PARTITION_TOL, or if a positive-weight image escapes [0, pi].
    """
    t = float(theta)
    P = prob_all(t, params)
    images = tau_all(t, params)
    entries = []
    for k in BRANCHES:
        w = float(P[k - 1])
        if w == 0.0:
            continue
        img = float(images[k - 1])
        if img < -PARTITION_TOL or img > math.pi + PARTITION_TOL:
            raise AssertionError(
                f"branch {k} has weight {w} but image {img} outside [0, pi]"
            )
        entries.append((k, w, min(max(img, 0.0), math.pi)))
    total = sum(w for _, w, _ in entries)
    if abs(total - 1.0) > PARTITION_TOL:
        raise AssertionError(
            f"kernel row weights sum to {total}, not 1: partition of unity broken"
        )
    return KernelRow(theta=t, entries=tuple(entries))


def select_branch(P: np.ndarray, u: np.ndarray, return_cum: bool = False):
    """Branch indices from a precomputed probability stack P (4, N) and uniforms u.

    Picks k with cum_(k-1) <= u < cum_k, summed left to right as np.cumsum
    does.  Only the last comparison can land on a zero-probability branch, in
    the float-noise sliver u >= cum_4; those draws are stepped back to the last
    positive branch.  return_cum also returns the rows (cum_1, cum_2, cum_3).
    """
    if np.ndim(u) != 1 or np.shape(P) != (4, np.size(u)):
        raise ValueError("select_branch takes a (4, N) probability stack and N uniforms")
    if not np.all((u >= 0.0) & (u < 1.0)):
        raise ValueError("u must be finite and lie in [0, 1)")
    c1 = P[0]
    c2 = c1 + P[1]
    c3 = c2 + P[2]
    past = u >= c3
    k = 1 + (u >= c1) + (u >= c2) + past
    back = np.flatnonzero(past & (P[3] == 0.0))
    if back.size:
        live = P[:, back] != 0.0
        k[back] = np.where(live.any(axis=0), 4 - np.argmax(live[::-1], axis=0), 1)
    return (k, (c1, c2, c3)) if return_cum else k


def _step(theta: np.ndarray, u: np.ndarray, params: MapParams):
    """One step on arrays: (k, tau_k(theta) clipped into [0, pi], P, (cum_1, cum_2, cum_3))."""
    P = prob_all(theta, params)
    k, cum = select_branch(P, u, return_cum=True)
    img = _pick(tau_all(theta, params), k)
    np.clip(img, 0.0, math.pi, out=img)
    return k, img, P, cum


def _pick(rows: np.ndarray, k: np.ndarray) -> np.ndarray:
    """rows[k[i] - 1, i] for a C-contiguous (m, N) stack and 1-based k, as one flat take."""
    idx = k * k.size
    idx += np.arange(-k.size, 0)
    return rows.reshape(-1).take(idx)


def reflect_sym(theta):
    """The reflection phi(theta) = pi - theta."""
    t = _as_theta(theta)
    return _match(math.pi - t, theta)


def conjugate_index(k: int) -> int:
    """Branch index conjugate under the reflection symmetry: 1<->3, 2<->4."""
    try:
        return _CONJUGATE[k]
    except KeyError:
        raise ValueError(f"branch index must be 1..4, got {k!r}") from None


def rotation_beta(params: MapParams) -> tuple[int, float]:
    """Smallest k >= 1 with (4k+6)*alpha > pi, and beta = (4k+6)*alpha - pi.

    The associated rotation by beta is what forces invariant observables of
    the two-step dynamics to be constant when alpha is irrational; exposed as
    a documentation utility.
    """
    a = params.alpha
    k = 1
    while (4 * k + 6) * a <= math.pi:
        k += 1
    return k, (4 * k + 6) * a - math.pi


_REGION_NAMES = (
    "[0, a)", "[a, 2a)", "[2a, 3a)", "[3a, pi-3a)", "[pi-3a, pi-2a)", "[pi-2a, pi-a)", "[pi-a, pi]"
)


def m2_region(theta, params: MapParams) -> str:
    """Name of the probability-table region containing theta (a = alpha)."""
    t = float(_as_theta(theta))
    return _REGION_NAMES[sum(t >= c for c in params.breakpoints)]
