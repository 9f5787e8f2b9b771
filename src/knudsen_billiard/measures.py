"""Evolution of angle distributions under the transition kernel.

Measures are kept atomic (weighted point masses on [0, pi]): each branch map
is affine, so pushing an atomic measure through the kernel is exact and the
support stays on the lattice {+-theta0 + 2k*alpha + 2j*pi}.  Binning happens
only at diagnostic time, where histograms are compared against the invariant
sine law mu(A) = 1/2 * integral_A sin(theta) dtheta.

Monte Carlo ensembles follow the same single-step rule with per-step Philox
uniforms, so a run is bit-reproducible from (seed, particle count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .core_map import MapParams, _as_theta, _step, prob_all, tau_all

MERGE_TOL = 1e-12  # atoms closer than this collapse into one
MASS_TOL = 1e-9  # total-mass drift beyond this is a hard failure

DEFAULT_BINS = 45
MAX_ATOMS = 10_000_000  # default cap on the atoms one exact step may create


class AtomCapError(RuntimeError):
    """Raised when an exact evolution would exceed the configured atom budget."""


def in_interval(theta, lo: float, hi: float):
    """Indicator of [lo, hi), closed at hi when hi is the right endpoint pi."""
    t = np.asarray(theta)
    out = (t >= lo) & (t < hi)
    if hi >= math.pi:
        out = out | (t == hi)
    return out


def _clusters(t: np.ndarray, w: np.ndarray):
    """Sort atoms by position and group each with a left neighbour within MERGE_TOL.

    Returns (t, w) sorted stably by t, the group id of each atom, the index
    of each group's first atom, and the summed weight of each group.
    """
    order = np.argsort(t, kind="stable")
    t, w = t[order], w[order]
    del order
    starts = np.empty(t.size, dtype=bool)
    starts[0] = True
    np.greater(np.diff(t), MERGE_TOL, out=starts[1:])
    gid = np.cumsum(starts)
    gid -= 1
    return t, w, gid, np.flatnonzero(starts), np.bincount(gid, weights=w)


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported probability measure on [0, pi].

    thetas are sorted strictly increasing, weights are positive and sum to 1.
    Construct through from_atoms(), which sorts, merges near-duplicates and
    absorbs float drift in the total mass.  A merged atom sits at its
    heaviest member's position (the last in sorted order on equal weights),
    at the cost of one stable sort and linear passes.
    """

    thetas: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_atoms(cls, thetas, weights) -> "AtomicMeasure":
        """Measure with the given atoms, after dropping zero weights and merging.

        Atoms are sorted stably by position, and each joins its left
        neighbour's cluster when within MERGE_TOL of it.  A cluster keeps the
        summed weight of its members and the position of its heaviest member;
        among members of equal top weight, the last in sorted order (the
        largest position, or the later input of exact duplicates) wins.  The
        cost is one stable sort, then linear passes over the atoms.
        """
        t = np.asarray(thetas, dtype=float).ravel()
        w = np.asarray(weights, dtype=float).ravel()
        if t.size == 0 or t.size != w.size:
            raise ValueError("need matching, nonempty theta and weight arrays")
        if not np.all((w >= 0.0) & (w < np.inf)):
            raise ValueError("atom weights must be finite and nonnegative")
        keep = w > 0.0
        if not keep.any():
            raise ValueError("measure has no mass")
        if keep.all():
            keep = np.s_[:]  # a view: no copies when nothing is dropped
        # no name holds the clipped or filtered copies, so the sort in
        # _clusters frees them
        t, w, gid, heads, gw = _clusters(
            np.clip(_as_theta(t), 0.0, math.pi)[keep], w[keep]
        )
        # representative of each cluster: its heaviest member, never an
        # invented average, so merged values stay on the exact orbit lattice
        # and agree bit-for-bit with sampled trajectories; of the members at
        # the cluster's top weight, the last in sorted order is kept
        at_top = np.flatnonzero(w == np.maximum.reduceat(w, heads)[gid])
        g = gid[at_top]
        gt = t[at_top[np.append(g[1:] != g[:-1], True)]]

        total = gw.sum()
        if abs(total - 1.0) > MASS_TOL:
            raise AssertionError(f"total mass drifted to {total}")
        gw /= total
        gt.flags.writeable = False
        gw.flags.writeable = False
        return cls(thetas=gt, weights=gw)

    @classmethod
    def point(cls, theta: float) -> "AtomicMeasure":
        """Dirac mass at theta."""
        return cls.from_atoms([theta], [1.0])

    def __len__(self) -> int:
        return self.thetas.size

    def measure_of(self, lo: float, hi: float) -> float:
        """Mass of the interval [lo, hi) (closed at hi = pi)."""
        if hi <= lo:
            return 0.0
        return float(self.weights[in_interval(self.thetas, lo, hi)].sum())


def mu_cdf(theta):
    """CDF of the sine law: mu([0, theta]) = (1 - cos(theta)) / 2."""
    out = 0.5 * (1.0 - np.cos(_as_theta(theta)))
    return float(out) if np.ndim(theta) == 0 else out


def mu_bin_masses(bins: int) -> np.ndarray:
    """Exact sine-law mass of each of `bins` equal-width bins of [0, pi]."""
    edges = np.linspace(0.0, math.pi, bins + 1)
    return np.diff(mu_cdf(edges))


def kernel_step(
    nu: AtomicMeasure, params: MapParams, max_atoms: int = MAX_ATOMS
) -> AtomicMeasure:
    """One exact push-forward: atom (theta, w) spawns (tau_k(theta), w * p_k(theta)).

    Refuses (AtomCapError) when the step could need more than max_atoms
    atoms, four per atom of nu, before any of them is built.
    """
    if 4 * len(nu) > max_atoms:
        raise AtomCapError(f"next step could need {4 * len(nu)} atoms (cap {max_atoms})")
    P = prob_all(nu.thetas, params)
    T = tau_all(nu.thetas, params)
    live = P > 0.0
    return AtomicMeasure.from_atoms(T[live], (P * nu.weights[None, :])[live])


def evolve(nu: AtomicMeasure, n: int, params: MapParams) -> list[AtomicMeasure]:
    """Measures [nu_0, ..., nu_n], one kernel_step per step.

    The list holds every measure of the run, so its memory grows with n; a
    run that needs only some of them steps with kernel_step and keeps one.
    Each step refuses (AtomCapError) past kernel_step's default atom cap.
    """
    if n < 0:
        raise ValueError("step count must be >= 0")
    out = [nu]
    for _ in range(n):
        out.append(kernel_step(out[-1], params))
    return out


def cesaro(nus: list[AtomicMeasure]) -> AtomicMeasure:
    """Uniform mixture of the given measures (the running-average distribution)."""
    if not nus:
        raise ValueError("need at least one measure")
    t = np.concatenate([m.thetas for m in nus])
    w = np.concatenate([m.weights for m in nus]) / len(nus)
    return AtomicMeasure.from_atoms(t, w)


def tv_atomic(nu: AtomicMeasure, rho: AtomicMeasure) -> float:
    """Total variation distance between two atomic measures.

    Atoms of the two supports are identified when closer than MERGE_TOL, which
    is sound when both measures live on a common lattice.
    """
    *_, g = _clusters(
        np.concatenate([nu.thetas, rho.thetas]), np.concatenate([nu.weights, -rho.weights])
    )
    return 0.5 * float(np.abs(g).sum())


@dataclass(frozen=True)
class ParticleEnsemble:
    """Finite particle system evolving by the sampled branch map."""

    thetas: np.ndarray
    rng_seed: int
    step_count: int = 0

    @classmethod
    def from_measure(
        cls, nu: AtomicMeasure, particles: int, seed: int
    ) -> "ParticleEnsemble":
        """Deterministic apportionment of `particles` over the atoms of nu.

        Counts come from cumulative rounding (largest-remainder style), so the
        ensemble is a pure function of (nu, particles).
        """
        if particles < 1:
            raise ValueError("need at least one particle")
        ideal = np.cumsum(nu.weights) * particles
        counts = np.diff(np.round(ideal), prepend=0.0).astype(int)
        thetas = np.repeat(nu.thetas, counts)
        return cls(thetas=thetas, rng_seed=seed, step_count=0)


def ensemble_step(e: ParticleEnsemble, params: MapParams) -> ParticleEnsemble:
    """Advance every particle one collision.

    Particle j at step i uses the uniform u = Philox(seed)[block i, position j],
    so trajectories are bit-identical across runs and across any partitioning
    of the particle range.
    """
    u = rng.uniforms(e.rng_seed, e.step_count, e.thetas.size)
    _, new_t, _, _ = _step(e.thetas, u, params)
    return ParticleEnsemble(
        thetas=new_t, rng_seed=e.rng_seed, step_count=e.step_count + 1
    )


@dataclass(frozen=True)
class Histogram:
    """Masses over equal-width bins of [0, pi]."""

    bin_count: int
    masses: np.ndarray

    def __post_init__(self):
        if self.bin_count < 1 or self.masses.size != self.bin_count:
            raise ValueError("bin count and mass array disagree")
        if abs(float(self.masses.sum()) - 1.0) > 1e-9:
            raise AssertionError("histogram masses must sum to 1")

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(0.0, math.pi, self.bin_count + 1)


def binned_histogram(obj, bins: int = DEFAULT_BINS) -> Histogram:
    """Bin an AtomicMeasure or a ParticleEnsemble.

    Bins are half-open [lo, hi): a value exactly on an interior edge counts in
    the bin to its right; theta = pi lands in the last bin.
    """
    if bins < 1:
        raise ValueError("need at least one bin")
    if isinstance(obj, AtomicMeasure):
        t, w = obj.thetas, obj.weights
    elif isinstance(obj, ParticleEnsemble):
        t = obj.thetas
        w = np.full(t.size, 1.0 / t.size)
    else:
        raise TypeError(f"cannot bin {type(obj).__name__}")
    edges = np.linspace(0.0, math.pi, bins + 1)
    idx = np.searchsorted(edges, t, side="right") - 1
    idx = np.clip(idx, 0, bins - 1)
    return Histogram(bin_count=bins, masses=np.bincount(idx, weights=w, minlength=bins))


def distance_to_mu(h: Histogram) -> tuple[float, float]:
    """(total variation, Kolmogorov-Smirnov) distance from a histogram to the sine law.

    TV is taken between the binned masses and the exact per-bin sine-law
    masses; KS is the sup over bin edges of the CDF gap.
    """
    mu = mu_bin_masses(h.bin_count)
    tv = 0.5 * float(np.abs(h.masses - mu).sum())
    cum = np.concatenate([[0.0], np.cumsum(h.masses)])
    ks = float(np.abs(cum - mu_cdf(h.edges)).max())
    return tv, ks


def atomize_density(density, bins: int = DEFAULT_BINS, atoms_per_bin: int = 1) -> AtomicMeasure:
    """Step-function approximation of a density: one atom per (sub)bin midpoint.

    `density` is a callable on [0, pi] (vectorised, nonnegative).  Each of the
    bins is split into atoms_per_bin equal cells; the atom at each cell
    midpoint gets the midpoint-rule mass of its cell, and weights are
    normalised.  Raises on a density with zero total mass.
    """
    if bins < 1 or atoms_per_bin < 1:
        raise ValueError("bins and atoms_per_bin must be >= 1")
    n = bins * atoms_per_bin
    width = math.pi / n
    mids = (np.arange(n) + 0.5) * width
    w = np.asarray(density(mids), dtype=float) * width
    if np.any(w < 0.0):
        raise ValueError("density must be nonnegative")
    total = w.sum()
    if total <= 0.0:
        raise ValueError("density has zero total mass")
    return AtomicMeasure.from_atoms(mids, w / total)


def uniform_density(theta):
    """Flat density on [0, pi]."""
    return np.ones_like(np.asarray(theta, dtype=float))


def two_bump_density(theta):
    """Piecewise-constant density with two plateaus over a small floor.

    Shipped as a generic rough initial condition for convergence experiments.
    """
    t = np.asarray(theta, dtype=float)
    out = np.full_like(t, 0.2)
    out[(t >= 0.20 * math.pi) & (t < 0.35 * math.pi)] = 2.0
    out[(t >= 0.60 * math.pi) & (t < 0.80 * math.pi)] = 1.5
    return out
