import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knudsen_billiard import measures
from knudsen_billiard.core_map import MapParams, prob_all, tau_all
from knudsen_billiard.measures import (
    AtomCapError,
    AtomicMeasure,
    ParticleEnsemble,
    atomize_density,
    binned_histogram,
    cesaro,
    distance_to_mu,
    ensemble_step,
    evolve,
    kernel_step,
    mu_bin_masses,
    mu_cdf,
    tv_atomic,
    two_bump_density,
    uniform_density,
)

import reference
from reference import sine_density

ALPHA = 0.5
PI = math.pi


@pytest.fixture(scope="module")
def params():
    return MapParams(ALPHA)


class TestAtomicMeasure:
    def test_sorts_and_merges(self):
        nu = AtomicMeasure.from_atoms([2.0, 1.0, 1.0 + 5e-13], [0.25, 0.5, 0.25])
        assert len(nu) == 2
        assert nu.thetas[0] == pytest.approx(1.0, abs=1e-12)
        assert nu.weights.tolist() == [0.75, 0.25]

    def test_rejects_bad_mass(self):
        with pytest.raises(AssertionError):
            AtomicMeasure.from_atoms([1.0, 2.0], [0.5, 0.6])

    def test_rejects_out_of_range_atoms(self):
        # a NaN position must not merge into its neighbour
        for thetas in ([-0.5], [0.3, math.nan]):
            with pytest.raises(ValueError):
                AtomicMeasure.from_atoms(thetas, [1.0 / len(thetas)] * len(thetas))

    def test_rejects_bad_weights(self):
        # a NaN weight must not be dropped as if it were 0
        for bad in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                AtomicMeasure.from_atoms([0.3, 0.5], [bad, 1.0])

    def test_merge_keeps_heaviest_member_exactly(self):
        nu = AtomicMeasure.from_atoms([1.0, 1.0 + 5e-13], [0.25, 0.75])
        assert nu.thetas.tolist() == [1.0 + 5e-13]
        assert nu.weights.tolist() == [1.0]

    def test_merge_tie_keeps_larger_theta(self):
        nu = AtomicMeasure.from_atoms([1.0 + 5e-13, 1.0], [0.5, 0.5])
        assert nu.thetas.tolist() == [1.0 + 5e-13]
        assert nu.weights.tolist() == [1.0]

    def test_merge_chain_keeps_heaviest_middle_member(self):
        # each atom is within MERGE_TOL of its left neighbour, the ends are not
        t = [1.0, 1.0 + 6e-13, 1.0 + 1.2e-12]
        nu = AtomicMeasure.from_atoms(t, [0.25, 0.5, 0.25])
        assert nu.thetas.tolist() == [t[1]]
        assert nu.weights.tolist() == [1.0]

    def test_interval_mass_convention(self):
        nu = AtomicMeasure.from_atoms([0.5, 1.0, PI], [0.25, 0.25, 0.5])
        assert nu.measure_of(0.5, 1.0) == 0.25  # half-open: 1.0 not included
        assert nu.measure_of(1.0, PI) == 0.75  # pi included when hi == pi
        assert nu.measure_of(2.0, 2.0) == 0.0


class TestMuCdf:
    def test_endpoints_and_midpoint(self):
        assert mu_cdf(0.0) == 0.0
        assert mu_cdf(PI / 2) == pytest.approx(0.5, abs=1e-15)
        assert mu_cdf(PI) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_non_finite_theta(self):
        for bad in (math.nan, math.inf, np.array([0.3, math.nan])):
            with pytest.raises(ValueError):
                mu_cdf(bad)

    def test_bin_masses_sum_to_one(self):
        assert mu_bin_masses(45).sum() == pytest.approx(1.0, abs=1e-12)


class TestKernelStep:
    def test_certain_atom_moves_up(self, params):
        nu = kernel_step(AtomicMeasure.point(0.2), params)
        assert len(nu) == 1
        assert nu.thetas[0] == pytest.approx(1.2, abs=1e-15)

    def test_half_pi_splits_evenly(self, params):
        nu = kernel_step(AtomicMeasure.point(PI / 2), params)
        assert len(nu) == 2
        assert nu.weights.tolist() == [0.5, 0.5]
        assert nu.thetas[0] == pytest.approx(PI / 2 - 1, abs=1e-15)
        assert nu.thetas[1] == pytest.approx(PI / 2 + 1, abs=1e-15)

    def test_two_steps_from_atom(self, params):
        nu2 = evolve(AtomicMeasure.point(0.2), 2, params)[-1]
        P = prob_all(1.2, params)
        T = tau_all(1.2, params)
        want = sorted((T[k], P[k]) for k in range(4) if P[k] > 0)
        assert len(nu2) == len(want)
        for (t, w), atom_t, atom_w in zip(want, nu2.thetas, nu2.weights):
            assert atom_t == pytest.approx(t, abs=1e-12)
            assert atom_w == pytest.approx(w, abs=1e-12)

    def test_support_stays_on_lattice(self, params):
        # symbolic enumeration of (sign, k, j) triples is the oracle here
        levels = reference.reachable_lattice(0.2, 10, params)
        nu = AtomicMeasure.point(0.2)
        for n in range(1, 11):
            nu = kernel_step(nu, params)
            ref = np.array(sorted(levels[n]))
            assert len(nu) == len(ref)
            assert np.abs(nu.thetas - ref).max() < 1e-9
            assert len(nu) <= 8 * n + 4

    def test_atom_cap(self, params):
        # four candidate atoms per atom: 45 atoms need a cap of at least 180
        nu = atomize_density(uniform_density, bins=45)
        with pytest.raises(AtomCapError, match=r"need 180 atoms \(cap 100\)"):
            kernel_step(nu, params, max_atoms=100)
        assert len(kernel_step(nu, params, max_atoms=180)) > 0

    def test_mass_conserved_along_evolution(self, params):
        nu = atomize_density(two_bump_density, bins=45)
        for m in evolve(nu, 30, params):
            assert m.weights.sum() == pytest.approx(1.0, abs=1e-9)


def _measure_digest(*measures) -> str:
    digest = hashlib.sha256()
    for nu in measures:
        for arr in (nu.thetas, nu.weights):
            digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return digest.hexdigest()[:16]


class TestExactOutput:
    # SHA-256 prefixes of the float64 bytes of thetas, then weights, after 200
    # exact steps at alpha 0.5; any ulp change in the merge moves them
    @pytest.fixture(scope="class")
    def uniform_run(self):
        return evolve(atomize_density(uniform_density, 45), 200, MapParams(ALPHA))

    def test_uniform_start_final_measure(self, uniform_run):
        assert len(uniform_run[-1]) == 13207
        assert _measure_digest(uniform_run[-1]) == "616aa0f297ff93ee"

    def test_uniform_start_cesaro(self, uniform_run):
        avg = cesaro(uniform_run[1:])
        assert len(avg) == 26385
        assert _measure_digest(avg) == "f83885713dbefb02"

    def test_uniform_start_cesaro_memory(self, uniform_run):
        # the windowed merge never holds a copy of its input: the concatenating
        # merge peaked at three times the input (65.7 MB for 21.3 MB)
        nus = uniform_run[1:]
        held = sum(m.thetas.nbytes + m.weights.nbytes for m in nus)
        tracemalloc.start()
        try:
            cesaro(nus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < held / 2

    def test_point_start_final_measure_and_cesaro(self):
        nus = evolve(AtomicMeasure.point(0.2), 200, MapParams(ALPHA))
        assert _measure_digest(nus[-1]) == "e39fc7b5b3852e21"
        assert _measure_digest(cesaro(nus[1:])) == "c969366cf5aa10b3"


# clusters sit on a 1e-3 grid; members chain by steps around MERGE_TOL (0 for
# exact duplicates, 2e-12 to split a chain); weights repeat to force ties
_member = st.tuples(
    st.sampled_from([0.0, 4e-13, 9e-13, 1e-12, 2e-12]),
    st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]),
)
_cluster = st.tuples(st.integers(0, 3100), st.lists(_member, min_size=1, max_size=5))


@given(
    clusters=st.lists(_cluster, min_size=1, max_size=12),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_merge_matches_lexsort_reference(clusters, data):
    thetas, weights = [], []
    for base, members in clusters:
        theta = base * 1e-3
        for step, weight in members:
            theta += step
            thetas.append(theta)
            weights.append(weight)
    w = np.asarray(weights)
    if not w.any():
        w[0] = 1.0
    w = w / w.sum()
    perm = data.draw(st.permutations(range(w.size)))
    t, w = np.asarray(thetas)[perm], w[perm]
    nu = AtomicMeasure.from_atoms(t, w)
    ref_t, ref_w = reference.merge_atoms_by_lexsort(t, w)
    assert nu.thetas.tobytes() == ref_t.tobytes()
    assert nu.weights.tobytes() == ref_w.tobytes()


# positions on a 1e-3 grid plus offsets around MERGE_TOL, so measures share
# exact positions and chain into each other; a 5e-324 weight, divided by the
# number of measures, underflows to 0 and must not bridge a chain
_OFFSETS = (0.0, 5e-13, 1e-12, 1.5e-12, 3e-12)
_mixture_atom = st.tuples(
    st.integers(0, 40),
    st.integers(0, len(_OFFSETS) - 1),
    st.sampled_from([5e-324, 0.125, 0.5, 1.0]),
)


@given(
    sizes=st.lists(st.sampled_from([1, 2, 5, 40]), min_size=1, max_size=6),
    budget=st.sampled_from([1, 2, 3, 5, 8, 1 << 18]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_cesaro_matches_concatenation(sizes, budget, data):
    nus = []
    for size in sizes:
        atoms = data.draw(st.lists(_mixture_atom, min_size=size, max_size=size))
        t = np.array([i * 1e-3 + _OFFSETS[o] for i, o, _ in atoms])
        w = np.array([1.0] + [wt for *_, wt in atoms[1:]])
        tiny = w < 1e-300  # kept as they are, so that they reach cesaro
        nus.append(AtomicMeasure.from_atoms(t, np.where(tiny, w, w / w[~tiny].sum())))
    with mock.patch.object(measures, "_CESARO_WINDOW", budget):
        got = cesaro(nus)
    want = reference.cesaro_by_concatenation(nus)
    assert got.thetas.tobytes() == want.thetas.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()


class TestEvolve:
    def test_zero_steps_identity(self, params):
        nu = AtomicMeasure.point(0.3)
        out = evolve(nu, 0, params)
        assert len(out) == 1 and out[0] is nu

    def test_negative_steps_rejected(self, params):
        with pytest.raises(ValueError):
            evolve(AtomicMeasure.point(0.3), -1, params)


class TestCesaro:
    def test_single_measure_identity(self):
        nu = AtomicMeasure.from_atoms([0.4, 2.0], [0.5, 0.5])
        avg = cesaro([nu])
        assert np.array_equal(avg.thetas, nu.thetas)
        assert np.array_equal(avg.weights, nu.weights)

    def test_idempotent_on_copies(self):
        nu = AtomicMeasure.from_atoms([0.4, 2.0], [0.25, 0.75])
        avg = cesaro([nu, nu])
        assert np.abs(avg.weights - nu.weights).max() < 1e-15

    def test_underflowed_weight_does_not_bridge(self):
        # 1.0 and 1.0 + 1.5e-12 are apart; an atom between them whose weight
        # is 0 once divided by the number of measures must not join them
        nus = [
            AtomicMeasure.from_atoms([1.0], [1.0]),
            AtomicMeasure.from_atoms([1.0 + 7e-13, 2.0], [5e-324, 1.0]),
            AtomicMeasure.from_atoms([1.0 + 1.5e-12], [1.0]),
        ]
        avg = cesaro(nus)
        assert avg.thetas.tolist() == [1.0, 1.0 + 1.5e-12, 2.0]
        assert avg.weights.tobytes() == reference.cesaro_by_concatenation(nus).weights.tobytes()

    @pytest.mark.parametrize("budget", [16, 1 << 18])
    def test_one_from_atoms_call_for_any_window_count(self, params, monkeypatch, budget):
        # the benchmark counts one from_atoms call per mixture
        nus = evolve(atomize_density(uniform_density, 45), 10, params)[1:]
        calls = []
        merge = AtomicMeasure.from_atoms.__func__

        def counted(cls, thetas, weights):
            calls.append(len(thetas))
            return merge(cls, thetas, weights)

        monkeypatch.setattr(AtomicMeasure, "from_atoms", classmethod(counted))
        monkeypatch.setattr(measures, "_CESARO_WINDOW", budget)
        avg = cesaro(nus)
        assert calls == [len(avg)]


class TestTvAtomic:
    def test_identical_measures(self):
        nu = AtomicMeasure.from_atoms([0.5, 1.5], [0.5, 0.5])
        assert tv_atomic(nu, nu) == 0.0

    def test_atoms_within_merge_tol_are_identified(self):
        nu = AtomicMeasure.from_atoms([1.0, 2.0], [0.5, 0.5])
        rho = AtomicMeasure.from_atoms([1.0 + 5e-13, 2.0 - 5e-13], [0.5, 0.5])
        assert tv_atomic(nu, rho) == 0.0
        assert tv_atomic(rho, nu) == 0.0

    def test_disjoint_supports(self):
        nu = AtomicMeasure.point(0.5)
        rho = AtomicMeasure.point(2.5)
        assert tv_atomic(nu, rho) == pytest.approx(1.0, abs=1e-15)

    def test_kernel_is_a_contraction(self, params):
        # data-processing inequality, on pairs sharing a support lattice
        gen = np.random.Generator(np.random.Philox(key=42))
        for _ in range(20):
            support = np.sort(gen.uniform(0.0, PI, size=8))
            w1 = gen.dirichlet(np.ones(8))
            w2 = gen.dirichlet(np.ones(8))
            nu = AtomicMeasure.from_atoms(support, w1)
            rho = AtomicMeasure.from_atoms(support, w2)
            before = tv_atomic(nu, rho)
            after = tv_atomic(kernel_step(nu, params), kernel_step(rho, params))
            assert after <= before + 1e-12


class TestEnsemble:
    def test_apportionment_is_exact(self):
        nu = atomize_density(uniform_density, bins=45)
        ens = ParticleEnsemble.from_measure(nu, 30000, seed=7)
        assert ens.thetas.size == 30000
        counts = np.unique(ens.thetas, return_counts=True)[1]
        assert counts.min() >= 666 and counts.max() <= 667

    def test_certain_region_moves_everyone(self, params):
        ens = ParticleEnsemble(thetas=np.full(100, 0.2), rng_seed=3)
        out = ensemble_step(ens, params)
        assert np.all(out.thetas == pytest.approx(1.2, abs=1e-15))
        assert out.step_count == 1

    def test_bit_identical_across_runs(self, params):
        nu = atomize_density(two_bump_density, bins=45)
        runs = []
        for _ in range(2):
            ens = ParticleEnsemble.from_measure(nu, 5000, seed=11)
            for _ in range(20):
                ens = ensemble_step(ens, params)
            runs.append(ens.thetas.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_matches_exact_evolution_within_noise(self, params):
        # the exact atomic push-forward is the oracle for the sampled system
        bins, n_particles = 45, 30000
        nu = atomize_density(uniform_density, bins=bins)
        ens = ParticleEnsemble.from_measure(nu, n_particles, seed=5)
        nus = evolve(nu, 50, params)
        for step in range(1, 51):
            ens = ensemble_step(ens, params)
        exact = binned_histogram(nus[50], bins).masses
        sampled = binned_histogram(ens, bins).masses
        sigma = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / n_particles)
        assert np.all(np.abs(sampled - exact) <= 4 * sigma + 1e-12)


class TestHistogram:
    def test_edge_atom_goes_right(self):
        h = binned_histogram(AtomicMeasure.point(PI / 2), bins=2)
        assert h.masses.tolist() == [0.0, 1.0]

    def test_pi_lands_in_last_bin(self):
        h = binned_histogram(AtomicMeasure.point(PI), bins=45)
        assert h.masses[-1] == 1.0

    def test_sine_atoms_reproduce_mu_bins(self):
        nu = atomize_density(sine_density, bins=45)
        h = binned_histogram(nu, bins=45)
        assert np.abs(h.masses - mu_bin_masses(45)).max() < 1e-12

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            binned_histogram([0.1, 0.2], bins=4)


class TestDistances:
    def test_exact_mu_is_at_zero_distance(self):
        nu = atomize_density(sine_density, bins=45)
        tv, ks = distance_to_mu(binned_histogram(nu, bins=45))
        assert tv < 1e-12 and ks < 1e-12

    def test_single_atom_tv(self):
        h = binned_histogram(AtomicMeasure.point(0.2), bins=45)
        tv, _ = distance_to_mu(h)
        j = int(0.2 / (PI / 45))
        assert tv == pytest.approx(1.0 - mu_bin_masses(45)[j], abs=1e-12)


class TestAtomize:
    def test_uniform_gives_equal_midpoint_atoms(self):
        nu = atomize_density(uniform_density, bins=45)
        assert len(nu) == 45
        assert np.abs(nu.weights - 1.0 / 45).max() < 1e-15
        width = PI / 45
        assert nu.thetas[0] == pytest.approx(width / 2, abs=1e-15)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            atomize_density(lambda t: np.zeros_like(np.asarray(t)), bins=10)

    def test_subdivision(self):
        nu = atomize_density(uniform_density, bins=9, atoms_per_bin=5)
        assert len(nu) == 45


class TestConvergence:
    def test_mu_is_binned_fixed_point(self, params):
        # the discretised sine law moves only at discretisation scale and the
        # deviation never amplifies; 1.35e-3 after one step with 45 midpoint
        # atoms, halving for each refinement of the atomisation
        mu_bins = mu_bin_masses(45)
        nu = atomize_density(sine_density, bins=45)
        nus = evolve(nu, 50, params)
        devs = [
            np.abs(binned_histogram(m, 45).masses - mu_bins).max() for m in nus[1:]
        ]
        assert devs[0] < 2e-3
        assert max(devs) < 5e-3

    def test_mu_fixed_point_deviation_is_discretisation_error(self, params):
        # refining the atomisation shrinks the one-step deviation roughly linearly
        devs = []
        for apb in (1, 4):
            nu = atomize_density(sine_density, bins=45, atoms_per_bin=apb)
            h = binned_histogram(kernel_step(nu, params), 45)
            devs.append(np.abs(h.masses - mu_bin_masses(45)).max())
        assert devs[1] < devs[0] / 2

    def test_exact_evolution_approaches_mu(self, params):
        nus = evolve(atomize_density(uniform_density, bins=45), 200, params)
        tv10, _ = distance_to_mu(binned_histogram(nus[10], 45))
        tv200, _ = distance_to_mu(binned_histogram(nus[200], 45))
        assert tv200 < 0.02
        assert tv200 < tv10

    def test_cesaro_beats_single_early_step(self, params):
        nus = evolve(AtomicMeasure.point(0.2), 200, params)
        _, ks_avg = distance_to_mu(binned_histogram(cesaro(nus[1:]), 45))
        _, ks_10 = distance_to_mu(binned_histogram(nus[10], 45))
        assert ks_avg < ks_10


@given(
    weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6),
    thetas=st.lists(st.floats(0.0, PI), min_size=6, max_size=6),
    steps=st.integers(0, 4),
)
@settings(max_examples=50, deadline=None)
def test_mass_conservation_property(weights, thetas, steps):
    params = MapParams(ALPHA)
    k = len(weights)
    w = np.asarray(weights) / np.sum(weights)
    nu = AtomicMeasure.from_atoms(np.asarray(thetas[:k]), w)
    out = evolve(nu, steps, params)[-1]
    assert out.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(out.thetas >= 0.0) and np.all(out.thetas <= PI)
