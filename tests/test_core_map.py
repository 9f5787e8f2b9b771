import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knudsen_billiard.core_map import (
    BRANCHES,
    MapParams,
    conjugate_index,
    kernel_row,
    m2_region,
    prob_all,
    reflect_sym,
    rotation_beta,
    select_branch,
    tau,
    tau_all,
    u_alpha,
)
from knudsen_billiard import rng

ALPHA = 0.5
PI = math.pi


@pytest.fixture(scope="module")
def params():
    return MapParams(ALPHA)


def grid_away_from_breakpoints(params, n=10_000, margin=1e-9):
    t = np.linspace(0.0, PI, n)
    for b in params.breakpoints:
        t = t[np.abs(t - b) > margin]
    return t


class TestMapParams:
    def test_rejects_alpha_outside_range(self):
        for bad in (0.0, -0.1, PI / 6, 1.0):
            with pytest.raises(ValueError):
                MapParams(bad)

    def test_breakpoints_ordered(self, params):
        b = params.breakpoints
        assert all(x < y for x, y in zip(b, b[1:]))


class TestTau:
    def test_branch_one_shifts_up(self, params):
        assert tau(1, 0.2, params) == pytest.approx(1.2, abs=1e-15)

    def test_branch_three_shifts_down(self, params):
        assert tau(3, 1.2, params) == pytest.approx(0.2, abs=1e-15)

    def test_branch_two_is_involution(self, params):
        # branch 2 maps [pi-4a, pi] into [0, pi], so the composition stays legal
        for theta in (2.2, 2.5, 3.0, PI - 0.01):
            assert tau(2, tau(2, theta, params), params) == pytest.approx(
                theta, abs=1e-12
            )

    def test_invalid_branch_and_theta(self, params):
        with pytest.raises(ValueError):
            tau(5, 0.2, params)
        with pytest.raises(ValueError):
            tau(1, -0.5, params)
        with pytest.raises(ValueError):
            tau(1, PI + 0.5, params)

    def test_tau_all_stacks_branches(self, params):
        t = np.array([0.3, 2.0])
        T = tau_all(t, params)
        for k in BRANCHES:
            assert np.allclose(T[k - 1], tau(k, t, params))


class TestUAlpha:
    def test_half_pi_is_regular(self):
        assert u_alpha(PI / 2, 0.5) == 0.5

    def test_matches_extended_precision_value(self):
        # 0.5*(1 + tan(0.5)/tan(0.6)) evaluated at 50 decimal digits
        assert u_alpha(0.6, 0.5) == pytest.approx(0.8992640676416723, abs=1e-16)

    def test_mirror_argument_flips_slope_term(self):
        theta = 0.8
        up = u_alpha(theta, 0.5)
        um = 0.5 * (1.0 - math.tan(0.5) * math.cos(theta) / math.sin(theta))
        assert up + um == pytest.approx(1.0, abs=1e-15)

    def test_rejects_endpoint_angles(self):
        for bad in (0.0, PI, math.nan, math.inf, np.array([0.6, math.nan])):
            with pytest.raises(ValueError):
                u_alpha(bad, 0.5)


class TestProb:
    def test_certain_branch_near_zero(self, params):
        assert prob_all(0.2, params)[0] == 1.0

    def test_certain_branch_near_pi(self, params):
        assert prob_all(PI - 0.1, params)[2] == 1.0

    def test_three_branch_region_values(self, params):
        # theta = pi - 1.3 sits in [pi-3a, pi-2a); all three values frozen from
        # a 50-digit evaluation of the table
        P = prob_all(PI - 1.3, params)
        assert P[0] == pytest.approx(0.3066967943750982, abs=1e-15)
        assert P[1] == pytest.approx(0.11747214616239661, abs=1e-15)
        assert P[2] == pytest.approx(0.5758310594625052, abs=1e-15)
        assert P[3] == 0.0

    def test_partition_of_unity_on_grid(self):
        for alpha in np.linspace(0.02, PI / 6 - 0.01, 10):
            params = MapParams(float(alpha))
            t = np.linspace(0.0, PI, 10_000)
            sums = prob_all(t, params).sum(axis=0)
            assert np.abs(sums - 1.0).max() < 1e-12

    def test_non_finite_theta_rejected(self, params):
        # NaN fails every comparison, so it must not slip into a region or a branch
        for bad in (math.nan, math.inf, np.array([0.3, math.nan])):
            with pytest.raises(ValueError):
                prob_all(bad, params)
            with pytest.raises(ValueError):
                tau_all(bad, params)

    def test_range_after_clamping(self, params):
        t = np.linspace(0.0, PI, 10_000)
        P = prob_all(t, params)
        assert P.min() >= 0.0
        assert P.max() <= 1.0 + 1e-12

    def test_image_confinement(self, params):
        t = np.linspace(0.0, PI, 10_000)
        P = prob_all(t, params)
        T = tau_all(t, params)
        live = P > 0
        assert T[live].min() >= -1e-12
        assert T[live].max() <= PI + 1e-12

    def test_positivity_implications(self, params):
        # a positive branch now forces the paired branch to be positive next.
        # theta = 0 and pi are excluded: their images land exactly on table
        # breakpoints where the next probability is 0, a measure-zero boundary
        # degeneracy of the half-open convention.
        t = grid_away_from_breakpoints(params)
        t = t[(t > 0.0) & (t < PI)]
        P = prob_all(t, params)
        for k, k_next in ((2, 2), (4, 4), (1, 3), (3, 1)):
            live = P[k - 1] > 0
            after = prob_all(np.clip(tau(k, t[live], params), 0, PI), params)
            assert np.all(after[k_next - 1] > 0)


class TestSymmetry:
    def test_reflection_examples(self):
        assert reflect_sym(0.0) == PI
        assert reflect_sym(PI / 2) == PI / 2
        assert reflect_sym(reflect_sym(1.1)) == pytest.approx(1.1, abs=1e-15)

    def test_conjugate_table(self):
        assert [conjugate_index(k) for k in BRANCHES] == [3, 4, 1, 2]
        for k in BRANCHES:
            assert conjugate_index(conjugate_index(k)) == k
        with pytest.raises(ValueError):
            conjugate_index(0)

    def test_prob_conjugation_on_grid(self, params):
        t = grid_away_from_breakpoints(params)
        P = prob_all(t, params)
        P_ref = prob_all(reflect_sym(t), params)
        for k in BRANCHES:
            assert np.abs(P_ref[k - 1] - P[conjugate_index(k) - 1]).max() < 1e-12

    def test_map_conjugation_everywhere(self, params):
        # phi(tau_k(phi(theta))) == tau_conj(k)(theta), comparing raw images
        # because tau may step outside [0, pi] where its probability vanishes
        t = np.linspace(0.0, PI, 10_000)
        for k in BRANCHES:
            lhs = PI - tau(k, PI - t, params)
            rhs = tau(conjugate_index(k), t, params)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_involution_identities(self, params):
        t = np.linspace(0.0, PI, 10_000)
        for f, g in ((2, 2), (4, 4), (1, 3), (3, 1)):
            # compose without range checks: intermediate values may leave [0, pi]
            a = params.alpha
            maps = {
                1: lambda x: x + 2 * a,
                2: lambda x: -x + 2 * PI - 4 * a,
                3: lambda x: x - 2 * a,
                4: lambda x: -x + 4 * a,
            }
            assert np.abs(maps[g](maps[f](t)) - t).max() < 1e-12


class TestKernelRow:
    def test_certain_region_single_entry(self, params):
        row = kernel_row(0.2, params)
        assert row.entries == ((1, 1.0, 1.2),)

    def test_half_pi_two_entries(self, params):
        row = kernel_row(PI / 2, params)
        assert [e[0] for e in row.entries] == [1, 3]
        for _, w, img in row.entries:
            assert w == 0.5
        assert row.entries[0][2] == pytest.approx(PI / 2 + 1, abs=1e-15)
        assert row.entries[1][2] == pytest.approx(PI / 2 - 1, abs=1e-15)

    def test_rows_sum_to_one(self, params):
        for theta in np.linspace(0.0, PI, 500):
            assert kernel_row(float(theta), params).weights_sum() == pytest.approx(
                1.0, abs=1e-12
            )


def _draw(thetas, us, params):
    return select_branch(prob_all(np.asarray(thetas, dtype=float), params), np.asarray(us))


class TestSampleBranch:
    def test_certain_region_ignores_u(self, params):
        assert _draw([0.2, 0.2], [0.0, 0.73], params).tolist() == [1, 1]

    def test_half_pi_split(self, params):
        assert _draw([PI / 2, PI / 2], [0.49, 0.51], params).tolist() == [1, 3]

    def test_u_range_enforced(self, params):
        for bad in (1.0, -0.1):
            with pytest.raises(ValueError):
                _draw([0.2], [bad], params)

    def test_non_finite_u_rejected(self, params):
        P = prob_all(np.array([0.2, 1.5]), params)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                select_branch(P, np.array([0.3, bad]))

    def test_rejects_scalar_draw_in_dead_branch_sliver(self, params):
        # u >= cum_3 with p_4 = 0 is the sliver where draws step back; a
        # scalar angle and u used to reach it and raise IndexError there
        theta, u = 1.887637981134261, math.nextafter(1.0, 0.0)
        assert select_branch(prob_all(np.array([theta]), params), np.array([u])).tolist() == [3]
        with pytest.raises(ValueError):
            select_branch(prob_all(theta, params), u)

    def test_rejects_mismatched_shapes(self, params):
        P = prob_all(np.array([0.2, 1.5]), params)
        for u in (np.array([0.3]), np.array([[0.3, 0.4]]), np.array([0.3, 0.4, 0.5])):
            with pytest.raises(ValueError):
                select_branch(P, u)
        with pytest.raises(ValueError):
            select_branch(P[:3], np.array([0.3, 0.4]))

    def test_monte_carlo_frequencies_match_probabilities(self, params):
        # three-branch region; frequencies must sit within 3 sigma at N=1e5
        theta, n = 2.0, 100_000
        u = rng.uniforms(seed=123, stream_id=0, n=n)
        k = _draw(np.full(n, theta), u, params)
        P = prob_all(theta, params)
        for b in BRANCHES:
            freq = np.count_nonzero(k == b) / n
            sigma = math.sqrt(max(P[b - 1] * (1 - P[b - 1]), 1e-12) / n)
            assert abs(freq - P[b - 1]) < 3 * sigma + 1e-12


class TestRotationBeta:
    def test_canonical_alpha(self, params):
        k, beta = rotation_beta(params)
        assert k == 1
        assert beta == pytest.approx(5.0 - PI, abs=1e-12)

    def test_alpha_just_below_limit(self):
        k, beta = rotation_beta(MapParams(PI / 6 - 1e-6))
        assert k == 1
        assert beta > 0

    def test_boundary_alpha_terminates(self):
        k, beta = rotation_beta(MapParams(PI / 10))
        assert k >= 1 and beta >= 0

    def test_double_inequality_holds(self):
        for alpha in np.linspace(0.05, PI / 6 - 0.01, 25):
            params = MapParams(float(alpha))
            k, beta = rotation_beta(params)
            assert (4 * k + 6) * alpha > PI
            assert beta == pytest.approx((4 * k + 6) * alpha - PI, abs=1e-12)
            if k > 1:
                assert (4 * (k - 1) + 6) * alpha < PI


class TestRegionLabel:
    @pytest.mark.parametrize(
        "theta,label",
        [
            (0.2, "[0, a)"),
            (0.7, "[a, 2a)"),
            (1.2, "[2a, 3a)"),
            (1.6, "[3a, pi-3a)"),
            (2.0, "[pi-3a, pi-2a)"),
            (2.5, "[pi-2a, pi-a)"),
            (3.0, "[pi-a, pi]"),
        ],
    )
    def test_labels(self, params, theta, label):
        assert m2_region(theta, params) == label


@given(
    alpha=st.floats(0.02, PI / 6 - 0.005),
    theta=st.floats(0.0, PI),
)
@settings(max_examples=200, deadline=None)
def test_partition_of_unity_property(alpha, theta):
    P = prob_all(theta, MapParams(alpha))
    assert abs(P.sum() - 1.0) < 1e-12


@given(
    alpha=st.floats(0.02, PI / 6 - 0.005),
    theta=st.floats(0.0, PI),
)
@settings(max_examples=200, deadline=None)
def test_reflection_conjugation_property(alpha, theta):
    params = MapParams(alpha)
    assume(min(abs(theta - b) for b in params.breakpoints) > 1e-9)
    P = prob_all(theta, params)
    P_ref = prob_all(PI - theta, params)
    for k in BRANCHES:
        assert abs(P_ref[k - 1] - P[conjugate_index(k) - 1]) < 1e-12


@given(
    alpha=st.floats(0.02, PI / 6 - 0.005),
    theta=st.floats(0.0, PI),
    u=st.floats(0.0, 1.0, exclude_max=True),
)
@settings(max_examples=200, deadline=None)
def test_sampled_branch_is_always_live(alpha, theta, u):
    params = MapParams(alpha)
    P = prob_all(np.array([theta]), params)
    k = select_branch(P, np.array([u]))[0]
    assert P[k - 1, 0] > 0.0
