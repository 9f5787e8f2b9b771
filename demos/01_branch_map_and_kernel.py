"""Tour of the four-branch angle map and its transition kernel.

An outgoing angle theta in [0, pi] can turn, after the next passage through a
cell, into one of four affine images; which ones are possible, and how likely,
depends on where theta sits among seven regions cut at multiples of the cell
angle alpha.  This script walks one representative angle per region and prints
the kernel row, then spot-checks the structural identities the map family
satisfies.
"""

import math

import numpy as np

from knudsen_billiard import (
    BRANCHES,
    MapParams,
    conjugate_index,
    kernel_row,
    m2_region,
    prob_all,
    rotation_beta,
    tau,
)

PI = math.pi
params = MapParams(0.5)

print("cell angle alpha = 0.5 rad  (must be < pi/6 ~ 0.5236)")
print("branch images:  tau1 = theta+2a   tau2 = -theta+2pi-4a")
print("                tau3 = theta-2a   tau4 = -theta+4a")
print()

representatives = [0.2, 0.7, 1.2, 1.6, 2.0, 2.5, 3.0]
for theta in representatives:
    row = kernel_row(theta, params)
    cells = "   ".join(f"k={k} p={w:.4f} -> {img:.4f}" for k, w, img in row.entries)
    print(f"theta={theta:<4}  {m2_region(theta, params):<15}  {cells}")

print()
print("partition of unity: the four probabilities always sum to 1")
grid = np.linspace(0.0, PI, 100_001)
sums = prob_all(grid, params).sum(axis=0)
print(f"  max |p1+p2+p3+p4 - 1| over {grid.size} angles: {np.abs(sums - 1).max():.2e}")

print()
print("reflection symmetry theta -> pi - theta swaps branches 1<->3 and 2<->4:")
theta = 1.0
for k in BRANCHES:
    # compare raw affine images: branch images may leave [0, pi] where the
    # corresponding probability is zero
    lhs = PI - tau(k, PI - theta, params)
    rhs = tau(conjugate_index(k), theta, params)
    print(f"  phi(tau{k}(phi({theta}))) = {lhs:.12f}   tau{conjugate_index(k)}({theta}) = {rhs:.12f}")

print()
print("pairs of branches undo each other (involutions):")
print(f"  tau2(tau2(2.4)) = {tau(2, tau(2, 2.4, params), params):.15f}")
print(f"  tau3(tau1(1.3)) = {tau(3, tau(1, 1.3, params), params):.15f}")

k, beta = rotation_beta(params)
print()
print("rotation constant behind the irrational-angle mixing argument:")
print(f"  smallest k with (4k+6)*alpha > pi: k={k}, beta = (4k+6)*alpha - pi = {beta:.6f}")
