"""Independent reference computations used as test oracles.

Nothing here reuses the code paths under test beyond the elementary branch
probabilities and maps themselves: invariance integrals go through piecewise
Gauss-Legendre quadrature, support structure comes from exact symbolic
lattice enumeration, and the atom merge is the earlier two-sort rule.  The
one exception is the Cesaro mixture, which is from_atoms on the whole
concatenation at once, the rule the windowed merge must reproduce.
"""

import math

import numpy as np

from knudsen_billiard.core_map import MapParams, prob_all, tau_all
from knudsen_billiard.measures import MERGE_TOL, AtomicMeasure, in_interval


def sine_density(theta):
    """Density of the invariant sine law, sin(theta) / 2."""
    return 0.5 * np.sin(np.asarray(theta, dtype=float))


def kernel_mass_under_mu(lo: float, hi: float, params: MapParams, nodes: int = 64) -> float:
    """Quadrature of  integral_0^pi K(theta, [lo,hi)) * sin(theta)/2 dtheta.

    The integrand is analytic between the probability-table breakpoints and
    the branch preimages of the interval edges, so fixed-order Gauss-Legendre
    on each piece is exact to float precision.  If the sine law is invariant,
    this equals mu([lo, hi)).
    """
    a, pi = params.alpha, math.pi
    cuts = {0.0, pi, *params.breakpoints}
    for e in (lo, hi):
        cuts.update((e - 2 * a, 2 * pi - 4 * a - e, e + 2 * a, 4 * a - e))
    pts = np.array(sorted(c for c in cuts if 0.0 <= c <= pi))
    xg, wg = np.polynomial.legendre.leggauss(nodes)

    total = 0.0
    for left, right in zip(pts[:-1], pts[1:]):
        if right - left < 1e-15:
            continue
        t = 0.5 * (right - left) * xg + 0.5 * (left + right)
        w = 0.5 * (right - left) * wg
        P = prob_all(t, params)
        T = tau_all(t, params)
        f = (P * in_interval(T, lo, hi)).sum(axis=0) * 0.5 * np.sin(t)
        total += float((f * w).sum())
    return total


def reachable_lattice(theta0: float, n: int, params: MapParams) -> list[set]:
    """Symbolically enumerated supports of the first n push-forwards of a point mass.

    States are exact integer triples (sigma, k, j) encoding the angle
    sigma*theta0 + 2*k*alpha + 2*j*pi; the four branch maps act on the triples
    exactly, and a transition is allowed iff the branch probability at the
    float value is positive.  Returns a list of n+1 sets of float values.
    """
    a = params.alpha

    def value(state):
        s, k, j = state
        return s * theta0 + 2.0 * k * a + 2.0 * j * math.pi

    def children(state):
        s, k, j = state
        return {
            1: (s, k + 1, j),
            2: (-s, -k - 2, -j + 1),
            3: (s, k - 1, j),
            4: (-s, -k + 2, -j),
        }

    levels = [{(1, 0, 0)}]
    for _ in range(n):
        nxt = set()
        for st in levels[-1]:
            P = prob_all(value(st), params)
            for branch, child in children(st).items():
                if P[branch - 1] > 0.0:
                    nxt.add(child)
        levels.append(nxt)
    return [{value(st) for st in lv} for lv in levels]


def paper_table(theta: float, alpha: float) -> tuple[float, float, float, float]:
    """The paper's branch probabilities (p_1, p_2, p_3, p_4) at one angle.

    Written region by region from u_a(theta) = (1 + tan(a) * cot(theta)) / 2,
    with cot = cos/sin, and nothing from the library: the regions are
    half-open, so a breakpoint belongs to the region on its right.
    """
    a, pi, t = alpha, math.pi, theta
    c = math.cos(2.0 * a)

    def u(b, sign):  # u_b(sign * theta)
        return 0.5 * (1.0 + sign * math.tan(b) * math.cos(t) / math.sin(t))

    if t < a:
        return (1.0, 0.0, 0.0, 0.0)
    if t < 2 * a:
        return (u(a, 1), 0.0, 0.0, u(a, -1))
    if t < 3 * a:
        return (u(a, 1), 0.0, 2 * c * u(2 * a, -1), u(a, -1) - 2 * c * u(2 * a, -1))
    if t < pi - 3 * a:
        return (u(a, 1), 0.0, u(a, -1), 0.0)
    if t < pi - 2 * a:
        return (2 * c * u(2 * a, 1), u(a, 1) - 2 * c * u(2 * a, 1), u(a, -1), 0.0)
    if t < pi - a:
        return (0.0, u(a, 1), u(a, -1), 0.0)
    return (0.0, 0.0, 1.0, 0.0)


def merge_atoms_by_lexsort(thetas, weights) -> tuple[np.ndarray, np.ndarray]:
    """Atom merge by a second sort: each cluster's representative via lexsort.

    Drops zero weights, clips positions to [0, pi], sorts stably by position
    and chains atoms within MERGE_TOL of their left neighbour into clusters.
    A lexsort by (cluster, weight) puts each cluster's heaviest member last,
    the later one in position order on equal weights, and searchsorted picks
    it.  Returns the representatives' positions and the normalised cluster
    weights.
    """
    t = np.asarray(thetas, dtype=float)
    w = np.asarray(weights, dtype=float)
    keep = w > 0.0
    t, w = np.clip(t, 0.0, math.pi)[keep], w[keep]
    order = np.argsort(t, kind="stable")
    t, w = t[order], w[order]
    gid = np.concatenate([[0], np.cumsum(np.diff(t) > MERGE_TOL)])
    gw = np.bincount(gid, weights=w)
    by_weight = np.lexsort((w, gid))
    last = np.searchsorted(gid[by_weight], np.arange(gw.size), side="right") - 1
    return t[by_weight[last]], gw / gw.sum()


def cesaro_by_concatenation(nus) -> AtomicMeasure:
    """Uniform mixture by one from_atoms call on every atom of every measure."""
    t = np.concatenate([m.thetas for m in nus])
    w = np.concatenate([m.weights for m in nus]) / len(nus)
    return AtomicMeasure.from_atoms(t, w)
