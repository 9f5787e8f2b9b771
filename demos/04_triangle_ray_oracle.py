"""Ray tracing the actual triangle cell to validate the analytic angle map.

Everything else in this package trusts the four affine branch images and
their probability table.  Here we earn that trust: shoot particles into the
open isosceles cell, reflect them specularly off the two slanted walls, and
tally where they exit.  Every exit angle must equal one of the four branch
images, and the exit frequencies must match the table to Monte Carlo noise.
"""

import math

from knudsen_billiard import (
    CellGeometry,
    CornerHitError,
    MapParams,
    first_return,
    liouville_pushforward_check,
    tau_all,
    validate_m1_m2,
)

PI = math.pi
alpha = 0.5
geom = CellGeometry(alpha)
params = MapParams(alpha)

print(f"cell: base (0,0)-(1,0) open, apex {geom.apex}, base angles {alpha} rad")
print()
print("single trajectories:")
for x, theta in ((0.37, 0.20), (0.81, 1.00), (0.25, 2.00), (0.60, 2.94)):
    rec = first_return(x, theta, geom)
    print(
        f"  enter x={x:.2f} theta={theta:.2f}: exit x={rec.exit_x:.4f}"
        f" theta={rec.theta_out:.4f} after {rec.bounce_count} bounce(s),"
        f" branch {rec.branch_matched}"
    )

print()
print("aiming at the apex is the degenerate corner case:")
try:
    first_return(0.5, PI / 2, geom)
except CornerHitError as exc:
    print(f"  CornerHitError: {exc}")

print()
print("traced branch frequencies vs the probability table (100000 entries each):")
table = validate_m1_m2([0.2, 1.0, 2.0, 2.5], 100_000, seed=0, geom=geom)
for p in table.points:
    images = tau_all(p.theta, params)
    print(f"  theta = {p.theta}:")
    for k in (1, 2, 3, 4):
        if p.probs[k - 1] == 0 and p.freqs[k - 1] == 0:
            continue
        print(
            f"    branch {k} -> {images[k - 1]:8.4f}   traced {p.freqs[k - 1]:8.5f}"
            f"   table {p.probs[k - 1]:8.5f}"
        )
print(f"  max z = {table.max_z:.2f}, unclassified exits = {table.unclassified_total}")

print()
print("the first-return map preserves uniform-position x sine-law-angle measure:")
report = liouville_pushforward_check(500_000, seed=0, geom=geom)
print(
    f"  {report.bins}x{report.bins} bins at {report.samples} samples:"
    f" max z = {report.max_z:.2f}, failed bins = {report.failed_bins}"
)
print(
    f"  marginal deviations: exit position {report.marginal_x_max_dev:.2e},"
    f" outgoing angle {report.marginal_theta_max_dev:.2e}"
)
