"""Run one workload over several seeds and summarise each metric's spread.

    python3 perfbench/series.py --workload skew --seeds 1-10
                                [--trace 0|1] [--out perfbench/baseline/BENCH_skew.json]

Each seed is one fresh `run.py` process of run_seconds, run one after another.  For every
metric the summary gives the median, the quartiles of
`statistics.quantiles(values, n=4)` and the spread (Q3 - Q1) / median; an
end-to-end metric is flagged when its spread reaches a third of the bound in
BENCHMARK.json.  With --out the summary is stored under "end_to_end" or
"per_layer" in that file, next to whatever the other mode stored there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1-10 or 0,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        digest = next(ln.split()[1] for ln in lines if ln.startswith("digest "))
        runs.append({"seed": seed, "digest": digest, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                         if args.trace == 0 or k.startswith("bench.")), flush=True)

    names = list(runs[0]["metrics"])
    summary = {n: summarise([r["metrics"][n]["value"] for r in runs]) for n in names}
    units = {n: runs[0]["metrics"][n]["unit"] for n in names}
    for n in names:
        s = summary[n]
        flag = ""
        if n in bounds and s["spread"] >= bounds[n] / 3:
            flag = f"  <-- spread at or above a third of bound {bounds[n]}"
        if args.trace == 0 or n.startswith("bench."):
            print(f"{n:24s} median {s['median']:.6g} {units[n]}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}{flag}")

    if args.out:
        record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        record["workload"] = args.workload
        record["why"] = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
        record["env"] = json.loads(
            (ROOT / ".perfbench" / f"{args.workload}-seed{args.seeds[0]}-trace{args.trace}.json").read_text()
        )["env"]
        record["end_to_end" if args.trace == 0 else "per_layer"] = {
            "seconds": seconds,
            "runs": runs,
            "summary": {n: {**summary[n], "unit": units[n]} for n in names},
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
