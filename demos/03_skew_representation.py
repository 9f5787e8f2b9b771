"""The deterministic skew map behind the random angle dynamics.

Stacking the branch probabilities over a unit y-interval turns the random map
into one deterministic transformation S(y, x) on [0,1) x [0,pi]: y selects the
branch by which slab it falls in, then rescales to [0,1) for the next step.
Words of branch choices carve each fibre {x} x [0,1) into intervals whose
lengths are exactly the products of branch probabilities along the orbit, and
averaging any indicator over (y, x) reproduces the kernel-iterated measure.
"""

import math

import numpy as np

from knudsen_billiard import (
    CylinderWord,
    MapParams,
    atomize_density,
    cylinder_fiber,
    enumerate_fibers,
    fiber_measure,
    prob_all,
    skew_step_many,
    theorem1_check,
    uniform_density,
)
from knudsen_billiard.core_map import select_branch

PI = math.pi
params = MapParams(0.5)

print("slabs of the skew map at x = 2.0 (three live branches):")
for k in (1, 2, 3, 4):
    f = cylinder_fiber(2.0, CylinderWord((k,)), params)
    tag = "empty" if f.is_empty else f"[{f.lo:.5f}, {f.hi:.5f})"
    print(f"  branch {k}: {tag}")

print()
print("stepping a few points:")
ys, xs = np.array([0.40, 0.75, 0.10]), np.array([0.20, PI / 2, 2.00])
slabs = select_branch(prob_all(xs, params), ys)
for y, x, slab, y2, x2 in zip(ys, xs, slabs, *skew_step_many(ys, xs, params)):
    print(f"  S({y:.2f}, {x:.4f}) lands in slab {slab} -> ({y2:.4f}, {x2:.4f})")

print()
print("cylinder fibres vs probability products at x = 1.0:")
for idx in ((1,), (3, 1), (1, 3, 1), (2, 3, 1), (3, 1, 3, 1)):
    w = CylinderWord(idx)
    f = cylinder_fiber(1.0, w, params)
    m = fiber_measure(1.0, w, params)
    print(
        f"  word {str(idx):<14} length={f.length:.10f}  product={m:.10f}"
        f"  diff={f.length - m:+.2e}"
    )

worst = 0.0
for x in np.linspace(0.1, PI - 0.1, 25):
    for _, interval, product in enumerate_fibers(float(x), 5, params):
        worst = max(worst, abs(interval.length - product))
print(f"  exhaustive scan, words up to length 5 at 25 base points: max diff {worst:.2e}")

print()
print("fibre-averaged skew statistics reproduce kernel iteration:")
nu = atomize_density(uniform_density, bins=45)
print(f"{'steps':>6} {'interval':>16} {'exact':>10} {'estimate':>10} {'z':>6}")
for n in (1, 3, 6):
    for a, b in ((0.0, 1.0), (1.0, 2.0), (2.0, PI)):
        r = theorem1_check(nu, (a, b), n, 100_000, seed=0, params=params)
        z = abs(r.exact - r.estimate) / r.stderr if r.stderr else 0.0
        print(f"{n:>6} [{a:.2f}, {b:.2f}) {r.exact:>10.5f} {r.estimate:>10.5f} {z:>6.2f}")
