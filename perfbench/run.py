"""Benchmark for knudsen-billiard: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload ensemble|exact|oracle|skew
                             --seconds S [--seed N] [--trace 0|1]

Run from anywhere; the library is imported from the `src/` directory beside
this one.  A run sets the workload up, then repeats complete passes of it until
`--seconds` would be exceeded (at least one pass; two when traced).

`--trace 0` prints the end-to-end metrics: setup_s (median over
fresh processes, from process start to inputs built, SETUP_PROBES of them
before each pass and after the last: the host's CPU speed changes by up to
half for seconds at a time, and probes spread over the run see those changes
as the passes do), wall_s (mean pass time; passes are few and CPU speed
on a shared host drifts between them, so the mean averages more of that drift
than a median of three would), op_ms_p50/op_ms_p90 (over every timed operation
of every pass), peak_rss_mb (ru_maxrss of this process) and ok_frac
(operations meeting their bound / operations attempted, i.e. 1 - fail_frac;
workloads.py says what fails an operation).  On ensemble and exact only the last operations of a pass
carry a bound, so ok_frac there cannot fall below about 0.995 and `correct`
is their real gate.

`--trace 1` alternates untraced and traced passes and prints the per-layer
metrics of spans.py, per pass, plus the traced pass time, its excess over the
untraced one, and the time the tracer's wrappers spent outside the spans they
recorded.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  The lines above it give the environment, the checks and
the output digest.  The full record, spans included when traced, is written to
.perfbench/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 4  # per probe point: before each pass and after the last


def _import_library():
    if not (SRC / "knudsen_billiard" / "__init__.py").is_file():
        sys.exit(f"error: no knudsen_billiard package under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def _git(*args):
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=60, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or "unknown",
        "dirty": bool(status) if status is not None else None,
    }


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start to inputs built, once per fresh process."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def run_passes(workload, state, seconds: float, traced: bool, tracer, probe=None):
    """Complete passes until another would overrun `seconds`; odd passes traced.

    `probe`, if given, runs before each pass and after the last one; its time
    does not count against `seconds`.
    """
    passes = []
    spent = 0.0
    while True:
        if probe:
            probe()
        with_trace = traced and len(passes) % 2 == 1
        t0 = time.perf_counter()
        if with_trace:
            with tracer:
                res = workload.run(state)
        else:
            res = workload.run(state)
        wall = time.perf_counter() - t0
        passes.append((with_trace, wall, res))
        spent += wall
        if spent + wall > seconds and len(passes) >= (2 if traced else 1):
            if probe:
                probe()
            return passes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(probes, walls, results, rss_mb, failed, attempted) -> dict[str, tuple[float, str]]:
    lat_ms = [ns * 1e-6 for r in results for ns in r.latencies_ns]
    return {
        "setup_s": (statistics.median(probes), "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "op_ms_p90": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ensemble", "exact", "oracle", "skew"))
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, required=True, help="run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    wl = _import_library()
    workload = wl.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if args.setup_probe:
        workload.setup(seed)
        print(time.monotonic())
        return 0

    from spans import Tracer, layer_metrics

    probes = []

    def probe():
        probes.extend(setup_seconds(args.workload, seed))

    state = workload.setup(seed)
    tracer = Tracer()
    passes = run_passes(workload, state, args.seconds, bool(args.trace), tracer, None if args.trace else probe)

    rss_mb = peak_rss_mb()  # before verify(), which evolves exact laws
    results = [res for _, _, res in passes]
    digests = sorted({r.digest for r in results})
    problems = []
    if len(digests) > 1:
        problems.append(f"passes disagree: digests {digests}")
    # verify() checks the output every pass produced (the digests agree), so
    # what it finds counts once per pass.
    worst_z, late = workload.verify(state, results[0])
    failures = results[0].failures + late
    attempted = sum(r.attempted for r in results)
    failed = sum(len(r.failures) + len(late) for r in results)
    problems += [f"deterministic check failed: {what}" for what, stat in failures if not stat]
    if not worst_z < wl.GROSS_Z:
        problems.append(f"a Monte Carlo estimate is {worst_z:.3g} standard errors from its exact value")

    plain = [wall for t, wall, _ in passes if not t]
    if args.trace:
        traced = [wall for t, wall, _ in passes if t]
        metrics = layer_metrics(tracer.totals(), len(traced))
        metrics["bench.traced_wall_s"] = (statistics.median(traced), "s")
        metrics["bench.trace_overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        metrics["bench.tracer_self_s"] = (tracer.overhead_ns * 1e-9 / len(traced), "s")
        for name, want in workload.expected_counts().items():
            if metrics[name][0] != want:
                problems.append(f"counter {name} = {metrics[name][0]}, closed form {want}")
    else:
        metrics = end_to_end_metrics(probes, plain, results, rss_mb, failed, attempted)

    env = environment()
    timed_ops = sum(len(r.latencies_ns) for r in results)
    print(f"workload {args.workload}  seed {seed}  passes {len(passes)}"
          f" (traced {sum(t for t, _, _ in passes)})  operations {attempted} (timed {timed_ops})")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("checks " + " ".join(f"{k}={v:.6g}" for k, v in results[0].summary.items())
          + f"  worst_z_vs_exact={worst_z:.4g}  failed {failed}/{attempted}  fail_frac {failed / attempted:.6g}")
    for what, statistical in failures:
        print(f"  failed ({'statistical' if statistical else 'deterministic'}): {what}")
    for p in problems:
        print(f"  PROBLEM: {p}")
    print(f"digest {' '.join(digests)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")

    record = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "digest": digests, "setup_probes_s": probes,
        "pass_wall_s": [[t, wall] for t, wall, _ in passes],
        "failures": [list(f) for f in failures], "summary": results[0].summary,
        "worst_z_vs_exact": worst_z,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.trace:
        record["trace"] = tracer.dump()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
