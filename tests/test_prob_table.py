"""The affine coefficient table of prob_all against the paper's table.

prob_all holds the table as a region index r (the number of breakpoints at
or below theta) and two 4x7 arrays, P[k] = A[k, r] + B[k, r] * cot(theta).
These tests compare it with reference.paper_table, which is written from the
u_a formulas region by region and shares no code with it.
"""

import math

import numpy as np
import pytest

from knudsen_billiard.core_map import _REGION_NAMES, MapParams, m2_region, prob_all

import reference

ALPHAS = (0.05, 0.3, 0.5, math.pi / 6 - 1e-6)
EPS = np.finfo(float).eps


def probe_angles(params):
    """Every region midpoint, every breakpoint, and both ends of [0, pi]."""
    edges = (0.0, *params.breakpoints, math.pi)
    mids = [0.5 * (lo + hi) for lo, hi in zip(edges, edges[1:])]
    return np.array(sorted(mids + list(edges)))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_table_matches_paper_formulas(alpha):
    params = MapParams(alpha)
    t = probe_angles(params)
    ref = np.array([reference.paper_table(float(x), alpha) for x in t]).T
    P = prob_all(t, params)
    # the affine form rounds differently from the masked formulas, by a few ulp
    assert np.abs(P - ref).max() <= 4e-16
    for x, col in zip(t, P.T):
        assert np.array_equal(prob_all(float(x), params), col)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_breakpoints_belong_to_the_region_on_their_right(alpha):
    # the table is continuous across breakpoints, so mark each region instead
    params = MapParams(alpha)
    marked = MapParams(alpha)
    object.__setattr__(marked, "_A", np.tile(np.arange(7.0), (4, 1)))
    object.__setattr__(marked, "_B", np.zeros((4, 7)))
    cuts = params.breakpoints
    at = prob_all(np.array(cuts), marked)[0]
    assert list(at) == [1, 2, 3, 4, 5, 6]
    below = prob_all(np.nextafter(np.array(cuts), 0.0), marked)[0]
    assert list(below) == [0, 1, 2, 3, 4, 5]
    t = np.linspace(0.0, math.pi, 5001)
    assert np.array_equal(prob_all(t, marked)[0], np.searchsorted(cuts, t, side="right"))
    # m2_region names the region prob_all reads, breakpoints included
    for x in np.concatenate([cuts, np.nextafter(np.array(cuts), 0.0), t[::50]]):
        assert _REGION_NAMES.index(m2_region(x, params)) == prob_all(x, marked)[0]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_columns_are_partitions_of_unity(alpha):
    params = MapParams(alpha)
    A, B = params._A, params._B
    assert A.shape == B.shape == (4, 7)
    assert np.abs(A.sum(axis=0) - 1.0).max() <= 4 * EPS
    assert np.abs(B.sum(axis=0)).max() <= 4 * EPS * np.abs(B).max()


def test_table_is_read_only_and_left_out_of_equality():
    p, q = MapParams(0.5), MapParams(0.5)
    assert p == q and hash(p) == hash(q)
    assert p != MapParams(0.3)
    with pytest.raises(ValueError):
        p._A[0, 0] = 2.0
    assert "_A" not in repr(p)
