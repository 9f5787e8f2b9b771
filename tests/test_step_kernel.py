"""The shared step kernel: pinned ensemble trajectories and branch selection.

The digests below were taken from the masked-formula implementation that
the affine probability table replaced; sampled trajectories must not move.
"""

import hashlib
import math

import numpy as np
import pytest

from knudsen_billiard.core_map import MapParams, select_branch
from knudsen_billiard.measures import (
    ParticleEnsemble,
    atomize_density,
    ensemble_step,
    uniform_density,
)

GOLDEN = {0.3: "69340eb220d74f90", 0.5: "4f2fd88354ee6681"}


@pytest.mark.parametrize("alpha", sorted(GOLDEN))
def test_ensemble_trajectories_are_pinned(alpha):
    params = MapParams(alpha)
    nu = atomize_density(uniform_density, bins=45)
    e = ParticleEnsemble.from_measure(nu, 5000, seed=7)
    for _ in range(50):
        e = ensemble_step(e, params)
    assert hashlib.sha256(e.thetas.tobytes()).hexdigest()[:16] == GOLDEN[alpha]


def select_branch_loop(P, u):
    """Reference: cumsum, count the crossings, then step back one draw at a time."""
    cum = np.cumsum(P, axis=0)
    k = 1 + np.sum(u[None, :] >= cum[:3], axis=0)
    for i in range(u.size):
        while k[i] > 1 and P[k[i] - 1, i] == 0.0:
            k[i] -= 1
    return k


def test_step_back_off_trailing_zero_branches():
    below_one = math.nextafter(1.0, 0.0)
    P = np.array([
        [0.1, 0.7, 0.6, 0.25, 0.0],
        [0.2, 0.3 - 2e-16, 0.0, 0.25, 0.0],
        [0.7 - 1e-16, 0.0, 0.0, 0.25, 0.0],
        [0.0, 0.0, 0.0, 0.25 - 1e-16, 0.0],
    ])
    cum3 = np.cumsum(P, axis=0)[2]
    # every draw sits in the sliver u >= cum_3 that the comparisons send to branch 4
    u = np.array([below_one, below_one, 0.8, below_one, 0.5])
    assert np.all(u >= cum3)
    k = select_branch(P, u)
    assert k.tolist() == [3, 2, 1, 4, 1]
    assert k.tolist() == select_branch_loop(P, u).tolist()


def test_select_branch_matches_loop_on_sparse_rows():
    gen = np.random.default_rng(11)
    P = gen.random((4, 4000)) * (gen.random((4, 4000)) < 0.6)
    P /= np.where(P.sum(axis=0) > 0, P.sum(axis=0), 1.0)
    u = gen.random(4000)
    u[::7] = math.nextafter(1.0, 0.0)
    k, cum = select_branch(P, u, return_cum=True)
    assert np.array_equal(k, select_branch_loop(P, u))
    # the cumulative rows are the ones np.cumsum makes, bit for bit
    assert np.array_equal(np.stack(cum), np.cumsum(P, axis=0)[:3])

