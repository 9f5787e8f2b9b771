"""The four benchmark workloads.

Each drives the library's public API the way the matching CLI command or
acceptance criterion does, at the sizes that fix the workload's shape.  A
workload's `setup(seed)` builds its inputs; `run(state)` performs one complete
pass and returns its per-operation latencies, the operations that failed
(see below), and a digest of every number it produced.  `verify(state,
result)` gives the largest z-score of the pass's Monte Carlo estimates against
their exact values, the check of whether the program is correct at all, and
any failed checks that need more than the pass's own output.

An operation whose output is a Monte Carlo estimate fails when the estimate is
GROSS_Z or more standard errors from its exact value.  The acceptance suite's
z < 4 bounds (Z_LIMIT) are reported, not counted as failures: with a few
hundred such estimates per pass, a correct program misses one of them at a few
percent of seeds, and `failed` must not depend on the seed.

Library functions are looked up on their modules at call time, so spans the
tracer installs on those modules see every call.
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from knudsen_billiard import measures, oracle, skew
from knudsen_billiard.cli import checkpoint_steps
from knudsen_billiard.core_map import MapParams

Z_LIMIT = 4.0  # acceptance suite's bound on a Monte Carlo z-score (reported)
GROSS_Z = 6.0  # an estimate this far from its exact value is a failure
CRIT1_KS = 0.02  # criterion 1: KS to the sine law after the run
CRIT1_BIN = 0.005  # criterion 1: largest per-bin deviation from the sine law
FIBER_TOL = 1e-12  # criterion 5: fibre length equals probability product


@dataclass
class PassResult:
    """One pass of a workload.

    `latencies_ns` holds the workload's primary operations (steps, grid
    angles or interval checks).  `attempted` also counts the closing checks
    that are not timed one by one (Cesaro mixture, Liouville check, fibre
    sweep per base point).  Each failure is (description, statistical):
    a statistical one is an estimate GROSS_Z or more standard errors from its
    exact value; any other is deterministic.  `final` is what verify() needs.
    """

    latencies_ns: list[int]
    attempted: int
    failures: list[tuple[str, bool]]
    summary: dict
    digest: str
    final: object = None


class Digest:
    """SHA-256 over the float64 bytes of every number a pass produced."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *values):
        for v in values:
            self._h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


@contextmanager
def call_marks(module, attr):
    """Record (start_ns, end_ns) of every call made to module.attr meanwhile."""
    original = getattr(module, attr)
    marks: list[tuple[int, int]] = []

    def marked(*args, **kwargs):
        start = time.perf_counter_ns()
        out = original(*args, **kwargs)
        marks.append((start, time.perf_counter_ns()))
        return out

    setattr(module, attr, marked)
    try:
        yield marks
    finally:
        setattr(module, attr, original)


def _histogram(obj, bins):
    h = measures.binned_histogram(obj, bins)
    return h, measures.distance_to_mu(h)


@dataclass(frozen=True)
class Ensemble:
    """`evolve --mode ensemble`: sampled particles, histograms at checkpoints."""

    alpha: float = 0.5
    particles: int = 100_000
    steps: int = 200
    bins: int = 45
    default_seed = 7

    def setup(self, seed: int):
        params = MapParams(self.alpha)
        nu0 = measures.atomize_density(measures.uniform_density, bins=self.bins)
        return params, measures.ParticleEnsemble.from_measure(nu0, self.particles, seed)

    def run(self, state) -> PassResult:
        params, ens = state
        cps = set(checkpoint_steps(self.steps))
        digest = Digest()
        hist, dist = _histogram(ens, self.bins)
        digest.add(hist.masses, dist)
        lat = []
        for s in range(1, self.steps + 1):
            t0 = time.perf_counter_ns()
            ens = measures.ensemble_step(ens, params)
            if s in cps:
                hist, dist = _histogram(ens, self.bins)
            lat.append(time.perf_counter_ns() - t0)
            if s in cps:
                digest.add(hist.masses, dist)
        digest.add(ens.thetas)
        ks = dist[1]
        dev = float(np.abs(hist.masses - measures.mu_bin_masses(self.bins)).max())
        # Criterion 1 on the sample, reported only: the exact law is already
        # 0.00466 from the sine law in its worst bin at 200 steps, so binomial
        # noise takes about a quarter of seeds past 0.005.  verify() holds the
        # exact law to criterion 1 and the sample to the exact law.
        summary = {"ks": ks, "max_bin_dev": dev, "sample_meets_crit1": ks < CRIT1_KS and dev < CRIT1_BIN}
        return PassResult(lat, self.steps, [], summary, digest.hexdigest(), hist.masses)

    def verify(self, state, result):
        """Check the final step: criterion 1 on the exact law, the sample on it.

        The exact law evolved from the uniform start must meet criterion 1's
        bounds, unchanged (deterministic).  The sample is compared bin by bin
        with the kernel evolution of the ensemble's own starting atoms.
        Particles move independently, so a bin's count has at most binomial
        variance and the z-scores are conservative.
        """
        params, ens = state
        failures = []
        nominal = measures.atomize_density(measures.uniform_density, bins=self.bins)
        law = measures.binned_histogram(measures.evolve(nominal, self.steps, params)[-1], self.bins)
        ks = measures.distance_to_mu(law)[1]
        dev = float(np.abs(law.masses - measures.mu_bin_masses(self.bins)).max())
        if not (ks < CRIT1_KS and dev < CRIT1_BIN):
            failures.append((f"step {self.steps}, exact law: ks={ks} max_bin_dev={dev}", False))
        thetas, counts = np.unique(ens.thetas, return_counts=True)
        start = measures.AtomicMeasure.from_atoms(thetas, counts / ens.thetas.size)
        exact = measures.binned_histogram(
            measures.evolve(start, self.steps, params)[-1], self.bins
        ).masses
        sigma = np.sqrt(exact * (1.0 - exact) / ens.thetas.size)
        dev = np.abs(result.final - exact)
        if np.any(dev[sigma == 0.0] > 0.0):
            worst = math.inf
        else:
            worst = float((dev[sigma > 0.0] / sigma[sigma > 0.0]).max())
        if not worst < GROSS_Z:
            failures.append((f"step {self.steps}: sample z={worst} against its exact law", True))
        return worst, failures

    def expected_counts(self) -> dict:
        n = self.particles * self.steps
        return {
            "rng.uniforms.draws": n,
            "core_map.prob_all.elems": n,
            "core_map.select_branch.elems": n,
            "measures.from_atoms.candidates": 0,
            "oracle.validate_m1_m2.entries": 0,
        }


@dataclass(frozen=True)
class Exact:
    """`evolve --mode exact` plus the Cesaro mixture of criteria 2-3."""

    alpha: float = 0.5
    steps: int = 400
    bins: int = 45
    default_seed = 0  # exact evolution draws nothing; the seed is unused

    def setup(self, seed: int):
        params = MapParams(self.alpha)
        return params, measures.atomize_density(measures.uniform_density, bins=self.bins)

    def run(self, state) -> PassResult:
        params, nu0 = state
        with call_marks(measures, "kernel_step") as marks:
            nus = measures.evolve(nu0, self.steps, params)
        if len(marks) != self.steps:
            raise RuntimeError(f"evolve made {len(marks)} kernel_step calls for {self.steps} steps")
        lat = [end - start for start, end in marks]
        digest = Digest()
        for s in checkpoint_steps(self.steps):
            hist, dist = _histogram(nus[s], self.bins)
            digest.add(hist.masses, dist)
        tv10, ks10 = _histogram(nus[10], self.bins)[1]
        tv_n = _histogram(nus[self.steps], self.bins)[1][0]
        digest.add(nus[-1].thetas, nus[-1].weights)
        hist_c, (_, ks_c) = _histogram(measures.cesaro(nus[1:]), self.bins)
        digest.add(hist_c.masses, ks_c)
        failures = []
        if not (tv_n < 0.02 and tv_n < tv10):  # criterion 2
            failures.append((f"step {self.steps}: tv={tv_n} tv10={tv10}", False))
        if not ks_c < ks10:  # criterion 3
            failures.append((f"cesaro: ks={ks_c} ks10={ks10}", False))
        summary = {"tv_final": tv_n, "tv10": tv10, "ks_cesaro": ks_c, "ks10": ks10}
        return PassResult(lat, self.steps + 1, failures, summary, digest.hexdigest())

    def verify(self, state, result):
        return 0.0, []  # no Monte Carlo estimate; run() makes every check

    def expected_counts(self) -> dict:
        return {
            "rng.uniforms.draws": 0,
            "skew.skew_step_many.points": 0,
            "oracle.validate_m1_m2.entries": 0,
        }


@dataclass(frozen=True)
class Oracle:
    """`oracle` at both acceptance angles, then the Liouville check."""

    alphas: tuple[float, ...] = (0.3, 0.5)
    grid: int = 50
    entries: int = 50_000
    liouville_alpha: float = 0.5
    liouville_samples: int = 100_000
    default_seed = 0

    def setup(self, seed: int):
        geoms = {a: oracle.CellGeometry(a) for a in self.alphas + (self.liouville_alpha,)}
        grids = {a: oracle.validation_grid(a, self.grid) for a in self.alphas}
        return seed, geoms, grids

    def run(self, state) -> PassResult:
        seed, geoms, grids = state
        digest = Digest()
        lat, failures = [], []
        worst_z, over_limit = 0.0, 0
        for a in self.alphas:
            for i in range(self.grid):
                # One call per grid angle, so each operation is timed by its
                # own call.  validate_m1_m2 derives an angle's stream from its
                # index in the grid it is given, always 0 here, so each index
                # gets a seed of its own (the same at both alphas, as the CLI's
                # one seed per alpha gives).
                t0 = time.perf_counter_ns()
                rep = oracle.validate_m1_m2(
                    grids[a][i : i + 1], self.entries, seed * self.grid + i, geoms[a], Z_LIMIT
                )
                lat.append(time.perf_counter_ns() - t0)
                (p,) = rep.points
                digest.add(p.freqs, p.probs, p.max_z)
                worst_z = max(worst_z, p.max_z)
                over_limit += not p.max_z < Z_LIMIT
                if p.unclassified:
                    failures.append((f"alpha={a} theta={p.theta}: {p.unclassified} unclassified", False))
                if not p.max_z < GROSS_Z:
                    failures.append((f"alpha={a} theta={p.theta}: z={p.max_z}", True))
        lrep = oracle.liouville_pushforward_check(
            self.liouville_samples, seed + 1, geoms[self.liouville_alpha], z_limit=Z_LIMIT
        )
        digest.add(lrep.max_z, lrep.marginal_x_max_dev, lrep.marginal_theta_max_dev)
        if not lrep.max_z < GROSS_Z:
            failures.append((f"liouville: z={lrep.max_z}", True))
        summary = {
            "worst_grid_z": worst_z,
            "grid_angles_z_ge_4": over_limit,
            "liouville_z": lrep.max_z,
            "liouville_passes_z4": lrep.passed,
        }
        return PassResult(lat, len(lat) + 1, failures, summary, digest.hexdigest())

    def verify(self, state, result):
        return max(result.summary["worst_grid_z"], result.summary["liouville_z"]), []

    def expected_counts(self) -> dict:
        return {
            "oracle.validate_m1_m2.entries": len(self.alphas) * self.grid * self.entries,
            "oracle.liouville_pushforward_check.samples": self.liouville_samples,
            "measures.from_atoms.candidates": 0,
            "skew.skew_step_many.points": 0,
        }


@dataclass(frozen=True)
class Skew:
    """Kernel-vs-skew sweep (criterion 6), then the fibre sweep (criterion 5)."""

    alpha: float = 0.5
    max_n: int = 8
    intervals: int = 16
    samples: int = 25_000
    base_points: int = 100
    max_len: int = 6
    bins: int = 45
    default_seed = 0

    @property
    def words_per_point(self) -> int:
        return sum(4**k for k in range(1, self.max_len + 1))

    def setup(self, seed: int):
        params = MapParams(self.alpha)
        nu = measures.atomize_density(measures.uniform_density, bins=self.bins)
        step = math.pi / self.intervals
        intervals = [(j * step, (j + 1) * step) for j in range(self.intervals)]
        xs = np.linspace(0.0, math.pi, self.base_points + 2)[1:-1]
        return seed, params, nu, intervals, xs

    def run(self, state) -> PassResult:
        seed, params, nu, intervals, xs = state
        digest = Digest()
        lat, failures = [], []
        worst_z, over_limit = 0.0, 0
        for n in range(1, self.max_n + 1):
            for A in intervals:
                t0 = time.perf_counter_ns()
                res = skew.theorem1_check(nu, A, n, self.samples, seed, params)
                lat.append(time.perf_counter_ns() - t0)
                digest.add(res.exact, res.estimate, res.stderr)
                if res.stderr > 0:
                    worst_z = max(worst_z, abs(res.exact - res.estimate) / res.stderr)
                over_limit += not res.within(Z_LIMIT)
                if not res.within(GROSS_Z):
                    failures.append((f"n={n} A={A}: exact={res.exact} estimate={res.estimate}", True))
        worst_fiber = 0.0
        for x in xs:
            worst, words, total = 0.0, 0, 0.0
            for _, interval, product in skew.enumerate_fibers(float(x), self.max_len, params):
                worst = max(worst, abs(interval.length - product))
                words += 1
                total += product
            digest.add(worst, total, words)
            worst_fiber = max(worst_fiber, worst)
            if not (worst < FIBER_TOL and words == self.words_per_point):
                failures.append((f"x={x}: worst={worst} words={words}", False))
        summary = {"worst_z": worst_z, "checks_z_ge_4": over_limit, "worst_fiber_dev": worst_fiber}
        return PassResult(lat, len(lat) + len(xs), failures, summary, digest.hexdigest())

    def verify(self, state, result):
        return result.summary["worst_z"], []

    def expected_counts(self) -> dict:
        steps = self.intervals * self.max_n * (self.max_n + 1) // 2
        return {
            "skew.theorem1_check.calls": self.max_n * self.intervals,
            "skew.theorem1_check.kernel_steps": steps,
            "skew.skew_step_many.points": self.samples * steps,
            "skew.enumerate_fibers.words": self.words_per_point * self.base_points,
            "oracle.validate_m1_m2.entries": 0,
        }


WORKLOADS = {"ensemble": Ensemble(), "exact": Exact(), "oracle": Oracle(), "skew": Skew()}
