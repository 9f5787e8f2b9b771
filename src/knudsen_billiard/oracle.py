"""Deterministic elastic ray tracer for the open triangular cell.

The cell is the isosceles triangle with base corners p = (0, 0), q = (1, 0)
and apex (0.5, 0.5 * tan(alpha)); the base angles are alpha and the base is
the open side.  A particle enters at (x, 0) with direction
(cos(theta), sin(theta)), reflects specularly off the two slanted walls, and
eventually crosses the base moving downward.  The returned outgoing angle is
read from the y-flipped exit velocity (v_x, -v_y), the convention under which
re-entry into the next cell reuses the angle directly.

This tracer knows nothing about the four-branch angle map; sampling the entry
point uniformly and tallying where exits land is the independent check that
the analytic map and probability table describe this geometry.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import rng
from .core_map import MapParams, prob_all, tau_all
from .measures import mu_bin_masses

T_EPS = 1e-12  # minimum ray parameter: refuse to re-hit the departure point
S_EPS = 1e-12  # segment-endpoint slack in the intersection test
CORNER_EPS = 1e-12  # hits this close to a vertex are degenerate
MATCH_TOL = 1e-9  # exit angle must land this close to a branch image
EXIT_X_TOL = 1e-9

_CHUNK = 1 << 18  # trajectories per vectorised batch


class CornerHitError(RuntimeError):
    """Trajectory hit a vertex (or slipped through one to float precision)."""


class TracerStuckError(RuntimeError):
    """Bounce budget exceeded; unreachable for a correct tracer."""


@dataclass(frozen=True)
class CellGeometry:
    """Open isosceles triangle with base angles alpha at (0,0) and (1,0)."""

    alpha: float
    apex: tuple[float, float] = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.alpha < math.pi / 6.0:
            raise ValueError(f"alpha must lie in (0, pi/6), got {self.alpha!r}")
        object.__setattr__(self, "apex", (0.5, 0.5 * math.tan(self.alpha)))

    @property
    def vertices(self) -> np.ndarray:
        return np.array([(0.0, 0.0), (1.0, 0.0), self.apex])

    @property
    def max_bounces(self) -> int:
        return 10 * math.ceil(math.pi / self.alpha)

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays (A, B) for segments [base, left wall, right wall]."""
        a = np.array([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
        b = np.array([(1.0, 0.0), self.apex, self.apex])
        return a, b


@dataclass(frozen=True)
class ReturnRecord:
    """Outcome of one passage through the cell."""

    exit_x: float
    theta_out: float
    bounce_count: int
    branch_matched: int | None


def _reflect(vx, vy, ux, uy):
    """Specular reflection of velocity components across wall directions (ux, uy)."""
    dot = vx * ux + vy * uy
    return 2.0 * dot * ux - vx, 2.0 * dot * uy - vy


def _trace_batch(xs: np.ndarray, thetas: np.ndarray, geom: CellGeometry):
    """Trace many entries at once.

    Returns (exit_x, theta_out, bounces, corner) arrays; corner marks
    trajectories abandoned as degenerate (vertex hits and float-lost rays),
    whose other outputs are unspecified.

    The rays live in 1-D coordinate arrays; each bounce makes one pass per
    wall with that wall's scalar constants and keeps a running minimum of
    the ray parameter, so no (trajectories x walls) temporaries are built.
    """
    n = xs.size
    seg_a, seg_b = geom.segments()
    seg_d = seg_b - seg_a
    wall_unit = seg_d / np.linalg.norm(seg_d, axis=1, keepdims=True)
    walls = np.column_stack([seg_a, seg_d]).tolist()  # rows (ax, ay, dx, dy)
    verts = geom.vertices.tolist()

    px = np.asarray(xs, dtype=float)
    py = np.zeros(n)
    vx = np.cos(thetas)
    vy = np.sin(thetas)
    skip = np.zeros(n, dtype=np.int64)  # entered through the base
    bounces = np.zeros(n, dtype=np.int64)

    exit_x = np.full(n, np.nan)
    theta_out = np.full(n, np.nan)
    corner = np.zeros(n, dtype=bool)
    out_bounces = np.zeros(n, dtype=np.int64)
    live = np.arange(n)

    for _ in range(geom.max_bounces + 1):
        if live.size == 0:
            break
        # nearest wall ahead: solve pos + t*vel = A + s*(B-A) by 2x2 cross
        # products, one wall at a time; strict < keeps the first of equal t
        t_hit = np.full(live.size, np.inf)
        seg_hit = np.zeros(live.size, dtype=np.int64)
        for k, (ax, ay, dx, dy) in enumerate(walls):
            rx = ax - px
            ry = ay - py
            den = vx * dy - vy * dx
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (rx * dy - ry * dx) / den
                s = (rx * vy - ry * vx) / den
            nearer = (
                (den != 0.0)
                & (t > T_EPS)
                & (s >= -S_EPS)
                & (s <= 1.0 + S_EPS)
                & (skip != k)
                & (t < t_hit)
            )
            np.copyto(t_hit, t, where=nearer)
            np.copyto(seg_hit, k, where=nearer)
        degen = ~np.isfinite(t_hit)  # lost: no wall ahead to float precision
        hx = px + t_hit * vx
        hy = py + t_hit * vy
        for cx, cy in verts:
            ox = hx - cx
            oy = hy - cy
            degen |= np.sqrt(ox * ox + oy * oy) < CORNER_EPS
        exited = (seg_hit == 0) & ~degen

        if np.any(degen):
            corner[live[degen]] = True
        if np.any(exited):
            rows = np.nonzero(exited)[0]
            gids = live[rows]
            ex = hx[rows]
            if np.any(ex < -EXIT_X_TOL) or np.any(ex > 1.0 + EXIT_X_TOL):
                raise AssertionError("exit crossed the base outside [0, 1]")
            evx, evy = vx[rows], vy[rows]
            if np.any(evy >= 0.0):
                raise AssertionError("exit with non-downward velocity")
            exit_x[gids] = np.clip(ex, 0.0, 1.0)
            theta_out[gids] = np.arctan2(-evy, evx)
            out_bounces[gids] = bounces[rows]

        cont = ~(degen | exited)
        if not np.any(cont):
            break
        rows = np.nonzero(cont)[0]
        skip = seg_hit[rows]
        vx, vy = _reflect(vx[rows], vy[rows], wall_unit[skip, 0], wall_unit[skip, 1])
        px = hx[rows]
        py = hy[rows]
        bounces = bounces[rows] + 1
        live = live[rows]
    else:
        raise TracerStuckError(
            f"trajectories still inside the cell after {geom.max_bounces} bounces"
        )

    return exit_x, theta_out, out_bounces, corner


def first_return(x: float, theta_in: float, geom: CellGeometry) -> ReturnRecord:
    """Trace one entry at (x, 0) with angle theta_in to its exit.

    Raises CornerHitError on degenerate vertex hits and TracerStuckError if
    the bounce budget is exhausted.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("entry position must lie strictly inside (0, 1)")
    if not 0.0 < theta_in < math.pi:
        raise ValueError("entry angle must lie strictly inside (0, pi)")
    ex, th, nb, corner = _trace_batch(np.array([x]), np.array([theta_in]), geom)
    if corner[0]:
        raise CornerHitError(f"degenerate trajectory from (x={x}, theta={theta_in})")
    params = MapParams(geom.alpha)
    images = tau_all(theta_in, params)
    k = int(np.argmin(np.abs(images - th[0]))) + 1
    matched = k if abs(float(images[k - 1]) - float(th[0])) < MATCH_TOL else None
    return ReturnRecord(
        exit_x=float(ex[0]),
        theta_out=float(th[0]),
        bounce_count=int(nb[0]),
        branch_matched=matched,
    )


def _traced_entries(draw, samples: int, max_rounds: int, geom: CellGeometry):
    """Yield (exit_x, theta_out) batches until `samples` entries have been traced.

    Round r calls draw(r, remaining) for fresh entries (xs, thetas), traced in
    _CHUNK batches.  Corner hits have probability 0: they are dropped, and the
    next round draws exactly as many entries as were lost, from its own
    counter blocks.  Raises CornerHitError after max_rounds short rounds.
    """
    remaining = samples
    for round_id in range(max_rounds):
        if remaining == 0:
            return
        xs, thetas = draw(round_id, remaining)
        for off in range(0, xs.size, _CHUNK):
            ex, th, _, corner = _trace_batch(
                xs[off : off + _CHUNK], thetas[off : off + _CHUNK], geom
            )
            ok = ~corner
            remaining -= int(np.count_nonzero(ok))
            yield ex[ok], th[ok]
    if remaining:
        raise CornerHitError("corner redraw limit hit; geometry is degenerate")


def _kernel_counts(theta_in: float, samples: int, seed: int, geom: CellGeometry):
    """Branch tallies (counts[4], unclassified) for uniform entry points at a fixed angle."""
    images = tau_all(theta_in, MapParams(geom.alpha))
    counts = np.zeros(4, dtype=np.int64)
    unclassified = 0

    def draw(round_id, n):
        xs = rng.uniforms(seed, round_id, n)
        xs = xs[xs > 0.0]  # x must be strictly inside (0, 1)
        return xs, np.broadcast_to(float(theta_in), xs.shape)

    for _, th in _traced_entries(draw, samples, 64, geom):
        # nearest image by a running minimum; strict < keeps the first of ties
        best = np.zeros(th.size, dtype=np.int64)
        best_dev = np.abs(th - images[0])
        for k in (1, 2, 3):
            dev = np.abs(th - images[k])
            nearer = dev < best_dev
            np.copyto(best_dev, dev, where=nearer)
            np.copyto(best, k, where=nearer)
        good = best_dev < MATCH_TOL
        counts += np.bincount(best[good], minlength=4)
        unclassified += int(np.count_nonzero(~good))
    return counts, unclassified


@dataclass(frozen=True)
class GridPointResult:
    theta: float
    freqs: tuple[float, float, float, float]
    probs: tuple[float, float, float, float]
    max_abs_dev: float
    max_z: float
    unclassified: int


@dataclass(frozen=True)
class ValidationReport:
    alpha: float
    samples: int
    z_limit: float
    points: tuple[GridPointResult, ...]
    passed: bool

    @property
    def max_z(self) -> float:
        return max(p.max_z for p in self.points)

    @property
    def unclassified_total(self) -> int:
        return sum(p.unclassified for p in self.points)

    def to_dict(self) -> dict:
        """Plain fields for JSON; an infinite z (a certain branch missed) is None."""
        d = dict(
            asdict(self),
            max_z=_finite_or_none(self.max_z),
            unclassified_total=self.unclassified_total,
        )
        for p in d["points"]:
            p["max_z"] = _finite_or_none(p["max_z"])
        return d


def _finite_or_none(x: float):
    return x if math.isfinite(x) else None


def validation_grid(alpha: float, n: int, margin: float = 1e-6) -> np.ndarray:
    """n angles spread over (0, pi), nudged off the probability-table breakpoints."""
    params = MapParams(alpha)
    grid = np.linspace(0.0, math.pi, n + 2)[1:-1]
    for b in params.breakpoints:
        close = np.abs(grid - b) < margin
        grid[close] = b + margin
    return grid


def validate_m1_m2(
    theta_grid: np.ndarray,
    samples: int,
    seed: int,
    geom: CellGeometry,
    z_limit: float = 4.0,
) -> ValidationReport:
    """Compare traced branch frequencies against the analytic table on a grid.

    Each grid angle gets `samples` uniform entry points from its own derived
    stream.  A branch with probability exactly 0 or 1 must match exactly; the
    others are scored by the binomial z of the observed frequency.
    """
    grid = np.asarray(theta_grid, dtype=float)
    if grid.size == 0 or samples < 1:
        raise ValueError("need a nonempty grid and at least one sample")
    params = MapParams(geom.alpha)
    points = []
    for i, th in enumerate(grid):
        counts, unclassified = _kernel_counts(th, samples, rng.derive_seed(seed, i), geom)
        freqs = counts / samples
        probs = prob_all(th, params)
        zs = np.zeros(4)
        for k in range(4):
            sigma = math.sqrt(probs[k] * (1.0 - probs[k]) / samples)
            if sigma > 0.0:
                zs[k] = abs(freqs[k] - probs[k]) / sigma
            else:
                zs[k] = 0.0 if freqs[k] == probs[k] else math.inf
        points.append(
            GridPointResult(
                theta=float(th),
                freqs=tuple(freqs),
                probs=tuple(probs),
                max_abs_dev=float(np.abs(freqs - probs).max()),
                max_z=float(zs.max()),
                unclassified=unclassified,
            )
        )
    passed = all(p.max_z < z_limit for p in points)
    return ValidationReport(
        alpha=geom.alpha,
        samples=samples,
        z_limit=z_limit,
        points=tuple(points),
        passed=passed,
    )


@dataclass(frozen=True)
class PushforwardReport:
    alpha: float
    samples: int
    bins: int
    max_z: float
    failed_bins: int
    marginal_x_max_dev: float
    marginal_theta_max_dev: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def liouville_pushforward_check(
    samples: int,
    seed: int,
    geom: CellGeometry,
    bins: int = 16,
    z_limit: float = 4.0,
) -> PushforwardReport:
    """Push (x, theta) ~ uniform x sine-law through the cell and re-histogram.

    The first-return map preserves that product measure, so every 2-D bin of
    (exit position, outgoing angle) must keep its mass to binomial noise.
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples for a meaningful bin test")

    def draw(round_id, n):
        xs = rng.uniforms(seed, 2 * round_id, n)
        thetas = np.arccos(1.0 - 2.0 * rng.uniforms(seed, 2 * round_id + 1, n))
        keep = (xs > 0.0) & (thetas > 1e-12) & (thetas < math.pi - 1e-12)
        return xs[keep], thetas[keep]

    counts = np.zeros((bins, bins), dtype=np.int64)
    for ex, th in _traced_entries(draw, samples, 32, geom):
        ix = np.minimum((ex * bins).astype(int), bins - 1)
        it = np.minimum((th / math.pi * bins).astype(int), bins - 1)
        counts += np.bincount(ix * bins + it, minlength=bins * bins).reshape(bins, bins)

    expected = np.outer(np.full(bins, 1.0 / bins), mu_bin_masses(bins))
    freq = counts / samples
    sigma = np.sqrt(expected * (1.0 - expected) / samples)
    z = np.abs(freq - expected) / sigma
    failed = int(np.count_nonzero(z >= z_limit))

    marg_x = np.abs(freq.sum(axis=1) - 1.0 / bins).max()
    marg_t = np.abs(freq.sum(axis=0) - mu_bin_masses(bins)).max()
    return PushforwardReport(
        alpha=geom.alpha,
        samples=samples,
        bins=bins,
        max_z=float(z.max()),
        failed_bins=failed,
        marginal_x_max_dev=float(marg_x),
        marginal_theta_max_dev=float(marg_t),
        passed=failed == 0,
    )
