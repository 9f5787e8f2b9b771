"""Command-line harness wiring the library into reproducible experiments.

Subcommands:
    kernel   print the transition-kernel row at one angle
    evolve   run an exact or ensemble evolution, emit histograms + distances
    oracle   ray-tracing validation of the branch maps and probabilities
    skew     cylinder-fibre diagnostics and the kernel-vs-skew consistency check

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 resource cap.
All output is a deterministic function of the flags and the seed; the
environment variable KNUDSEN_SEED is the fallback seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial

import numpy as np

from .core_map import MapParams, kernel_row, m2_region
from .measures import (
    MAX_ATOMS,
    AtomCapError,
    AtomicMeasure,
    ParticleEnsemble,
    atomize_density,
    binned_histogram,
    distance_to_mu,
    ensemble_step,
    kernel_step,
    uniform_density,
)
from .oracle import (
    CellGeometry,
    liouville_pushforward_check,
    validate_m1_m2,
    validation_grid,
)
from .skew import CylinderWord, cylinder_fiber, fiber_measure, theorem1_check

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class UsageError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _default_seed(arg_seed) -> int:
    if arg_seed is not None:
        return int(arg_seed)
    return int(os.environ.get("KNUDSEN_SEED", "0"))


def checkpoint_steps(n: int) -> list[int]:
    """Every step up to 50; beyond that, 20 evenly spaced plus the final step."""
    if n <= 50:
        return list(range(n + 1))
    marks = {round(i * n / 19) for i in range(20)}
    marks.add(n)
    return sorted(marks)


def _load_initial_file(path: str, bins: int) -> AtomicMeasure:
    """Read atoms (theta,weight) or a step density (bin_lo,bin_hi,density) from CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if not rows:
        raise UsageError(f"initial file {path!r} is empty")
    header = [c.strip().lower() for c in rows[0].split(",")]
    body = [[float(c) for c in line.split(",")] for line in rows[1:]]
    if header == ["theta", "weight"]:
        if not body:
            raise UsageError("no atoms in initial file")
        t, w = zip(*body)
        total = sum(w)
        if not 0 < total < math.inf:
            raise UsageError("atom weights must have a finite positive total")
        return AtomicMeasure.from_atoms(t, np.asarray(w) / total)
    if header == ["bin_lo", "bin_hi", "density"]:
        if not body:
            raise UsageError("no density pieces in initial file")
        pieces = sorted(body)

        def density(theta):
            t = np.asarray(theta, dtype=float)
            out = np.zeros_like(t)
            for lo, hi, d in pieces:
                out[(t >= lo) & (t < hi)] = d
            return out

        return atomize_density(density, bins=bins)
    raise UsageError(
        "initial file must start with 'theta,weight' or 'bin_lo,bin_hi,density'"
    )


def _initial_measure(spec: str, bins: int) -> AtomicMeasure:
    if spec == "uniform":
        return atomize_density(uniform_density, bins=bins)
    if spec.startswith("atom:"):
        theta = float(spec.split(":", 1)[1])
        if not 0.0 <= theta <= math.pi:
            raise UsageError("atom position must lie in [0, pi]")
        return AtomicMeasure.point(theta)
    if spec.startswith("file:"):
        return _load_initial_file(spec.split(":", 1)[1], bins)
    raise UsageError(f"unknown initial distribution {spec!r}")


def cmd_kernel(args) -> int:
    params = MapParams(args.alpha)
    row = kernel_row(args.theta, params)
    print(f"theta = {_fmt(args.theta)}  region = {m2_region(args.theta, params)}")
    print("branch,probability,image")
    for k, w, img in row.entries:
        print(f"{k},{_fmt(w)},{_fmt(img)}")
    return EXIT_OK


def _evolve_checkpoints(args, params: MapParams, seed: int):
    """Yield (step, Histogram) at each checkpoint of the run, holding one state.

    Exact mode steps the measure with kernel_step, ensemble mode the
    particles with ensemble_step; either state is binned at each checkpoint
    and then replaced by the next.
    """
    state = _initial_measure(args.initial, args.bins)
    if args.mode == "exact":
        step = partial(kernel_step, params=params, max_atoms=args.max_atoms)
    else:
        state = ParticleEnsemble.from_measure(state, args.particles, seed)
        step = partial(ensemble_step, params=params)
    want = set(checkpoint_steps(args.steps))
    for s in range(args.steps + 1):
        if s:
            state = step(state)
        if s in want:
            yield s, binned_histogram(state, args.bins)


def cmd_evolve(args) -> int:
    if args.steps < 0:
        raise UsageError("steps must be >= 0")
    if args.particles < 1 or args.bins < 1:
        raise UsageError("particles and bins must be >= 1")
    if args.format == "csv" and not args.output:
        raise UsageError("--format csv needs --output BASE for the two tables")
    params = MapParams(args.alpha)
    seed = _default_seed(args.seed)

    checkpoints = _evolve_checkpoints(args, params, seed)

    if args.format == "json":
        doc = {
            "config": {
                "alpha": args.alpha,
                "steps": args.steps,
                "particles": args.particles,
                "bins": args.bins,
                "seed": seed,
                "initial": args.initial,
                "mode": args.mode,
            },
            "checkpoints": [],
        }
        for s, h in checkpoints:
            tv, ks = distance_to_mu(h)
            doc["checkpoints"].append(
                {"step": s, "masses": h.masses.tolist(), "tv": tv, "ks": ks}
            )
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
        if args.output:
            with open(args.output + ".json", "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return EXIT_OK

    edges = np.linspace(0.0, math.pi, args.bins + 1)
    hist_lines = ["step,bin_index,bin_lo,bin_hi,mass"]
    dist_lines = ["step,tv,ks"]
    for s, h in checkpoints:
        for j in range(args.bins):
            hist_lines.append(
                f"{s},{j},{_fmt(edges[j])},{_fmt(edges[j + 1])},{_fmt(h.masses[j])}"
            )
        tv, ks = distance_to_mu(h)
        dist_lines.append(f"{s},{_fmt(tv)},{_fmt(ks)}")
    with open(args.output + ".histograms.csv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(hist_lines) + "\n")
    with open(args.output + ".distances.csv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(dist_lines) + "\n")
    return EXIT_OK


def cmd_oracle(args) -> int:
    MapParams(args.alpha)
    geom = CellGeometry(args.alpha)
    seed = _default_seed(args.seed)
    grid = validation_grid(args.alpha, args.grid)
    vrep = validate_m1_m2(grid, args.samples, seed, geom, z_limit=args.z_limit)
    lrep = liouville_pushforward_check(
        max(args.samples, 10_000), seed + 1, geom, z_limit=args.z_limit
    )
    doc = {"branch_table": vrep.to_dict(), "liouville": lrep.to_dict()}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    if args.output:
        with open(args.output + ".json", "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK if (vrep.passed and lrep.passed) else EXIT_VALIDATION


def cmd_skew(args) -> int:
    params = MapParams(args.alpha)
    try:
        indices = tuple(int(tok) for tok in args.word.split(","))
        word = CylinderWord(indices)
    except ValueError as exc:
        raise UsageError(f"malformed word {args.word!r}: {exc}") from exc
    if not 0.0 <= args.x <= math.pi:
        raise UsageError("x must lie in [0, pi]")

    fiber = cylinder_fiber(args.x, word, params)
    product = fiber_measure(args.x, word, params)
    seed = _default_seed(args.seed)
    nu = atomize_density(uniform_density, bins=45)
    lo, hi = args.interval
    result = theorem1_check(nu, (lo, hi), args.steps, args.samples, seed, params)
    doc = {
        "alpha": args.alpha,
        "x": args.x,
        "word": list(word.indices),
        "fiber": {"lo": fiber.lo, "hi": fiber.hi, "length": fiber.length},
        "product": product,
        "difference": fiber.length - product,
        "kernel_vs_skew": {
            "interval": [lo, hi],
            "steps": args.steps,
            "samples": args.samples,
            "exact": result.exact,
            "estimate": result.estimate,
            "stderr": result.stderr,
        },
    }
    print(json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False))
    return EXIT_OK


def _finite(text: str) -> float:
    try:
        x = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(x):
        # JSON has no NaN or Infinity, so the report could not carry it
        raise argparse.ArgumentTypeError("must be finite")
    return x


def _interval(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(",")
    except ValueError as exc:
        raise argparse.ArgumentTypeError("interval must be 'lo,hi'") from exc
    return _finite(lo), _finite(hi)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knudsen-billiard",
        description="Random triangular billiard: kernel rows, measure evolution, "
        "ray-tracing validation and skew-representation checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pk = sub.add_parser("kernel", help="print the kernel row at one angle")
    pk.add_argument("--alpha", type=float, required=True, help="cell angle in (0, pi/6)")
    pk.add_argument("--theta", type=float, required=True, help="angle in [0, pi]")
    pk.set_defaults(func=cmd_kernel)

    pe = sub.add_parser("evolve", help="run an exact or ensemble evolution")
    pe.add_argument("--alpha", type=float, required=True)
    pe.add_argument("--steps", type=int, required=True)
    pe.add_argument("--particles", type=int, default=30000)
    pe.add_argument("--bins", type=int, default=45)
    pe.add_argument("--seed", type=int, default=None)
    pe.add_argument(
        "--initial",
        default="uniform",
        help="uniform | atom:<theta> | file:<path>",
    )
    pe.add_argument("--mode", choices=("exact", "ensemble"), default="exact")
    pe.add_argument("--format", choices=("csv", "json"), default="json")
    pe.add_argument("--output", default=None, help="output base path (no extension)")
    pe.add_argument(
        "--max-atoms",
        type=int,
        default=MAX_ATOMS,
        help="abort exact evolution when one step's support could exceed this "
        "(exit 3); the run holds one measure at a time",
    )
    pe.set_defaults(func=cmd_evolve)

    po = sub.add_parser("oracle", help="ray-tracing validation of the branch table")
    po.add_argument("--alpha", type=float, required=True)
    po.add_argument("--grid", type=int, default=50, help="number of test angles")
    po.add_argument("--samples", type=int, default=100_000, help="entries per angle")
    po.add_argument("--seed", type=int, default=None)
    po.add_argument("--output", default=None)
    po.add_argument(
        "--z-limit",
        type=_finite,
        default=4.0,
        help="fail the report when any frequency z-score reaches this",
    )
    po.set_defaults(func=cmd_oracle)

    ps = sub.add_parser("skew", help="cylinder fibre and kernel-vs-skew diagnostics")
    ps.add_argument("--alpha", type=float, required=True)
    ps.add_argument("--word", required=True, help="comma-separated branch indices")
    ps.add_argument("--x", type=float, required=True, help="base angle of the fibre")
    ps.add_argument("--interval", type=_interval, default=(0.0, math.pi / 2))
    ps.add_argument("--steps", type=int, default=4)
    ps.add_argument("--samples", type=int, default=10_000)
    ps.add_argument("--seed", type=int, default=None)
    ps.set_defaults(func=cmd_skew)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AtomCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
