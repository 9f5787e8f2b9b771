"""Tests of the benchmark itself, on reduced sizes (a few seconds in all).

    python3 -m pytest perfbench -q

Every counter the traced run reports is checked against its closed form, so
later count claims can rest on it.  The tier-1 suite does not collect this file.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from knudsen_billiard import core_map, measures, oracle, rng, skew  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

SMALL = {
    "ensemble": workloads.Ensemble(particles=1000, steps=20),
    "exact": workloads.Exact(steps=12),
    "oracle": workloads.Oracle(grid=4, entries=2000, liouville_samples=10_000),
    "skew": workloads.Skew(max_n=3, intervals=4, samples=500, base_points=3, max_len=3),
}


def traced_pass(w):
    state = w.setup(w.default_seed)
    tracer = Tracer()
    with tracer:
        res = w.run(state)
    return res, layer_metrics(tracer.totals(), 1), tracer


def value(metrics, name):
    return metrics[name][0]


def test_ensemble_counters_match_closed_form():
    w = SMALL["ensemble"]
    res, m, _ = traced_pass(w)
    # one uniform and one probability column per particle-step
    assert value(m, "rng.uniforms.draws") == 1000 * 20
    assert value(m, "core_map.prob_all.elems") == 1000 * 20
    assert value(m, "core_map.prob_all.calls") == 20
    assert value(m, "core_map.select_branch.elems") == 1000 * 20
    # one tau_all in ensemble_step, none elsewhere
    assert value(m, "core_map.tau_all.elems") == 1000 * 20
    # every step up to 50 is a checkpoint, plus the initial ensemble
    assert value(m, "measures.binned_histogram.elems") == 1000 * 21
    assert value(m, "skew.skew_step_many.points") == 0
    assert len(res.latencies_ns) == 20 and res.attempted == 20
    for name, want in w.expected_counts().items():
        assert value(m, name) == want


def test_skew_counters_match_closed_form():
    w = SMALL["skew"]
    res, m, _ = traced_pass(w)
    sum_n = 1 + 2 + 3
    assert value(m, "skew.theorem1_check.calls") == 3 * 4
    assert value(m, "skew.theorem1_check.kernel_steps") == sum_n * 4
    assert value(m, "skew.skew_step_many.points") == 500 * sum_n * 4
    assert value(m, "skew.skew_step_many.useful_ratio") == pytest.approx(3 * 500 / (500 * sum_n * 4))
    assert value(m, "skew.enumerate_fibers.words") == (4 + 16 + 64) * 3
    # two uniforms per sample (y and x) per check
    assert value(m, "rng.uniforms.draws") == 2 * 500 * 3 * 4
    assert len(res.latencies_ns) == 12 and res.attempted == 12 + 3
    for name, want in w.expected_counts().items():
        assert value(m, name) == want


def test_oracle_counters_match_closed_form():
    w = SMALL["oracle"]
    res, m, tracer = traced_pass(w)
    # one validate_m1_m2 call per grid angle: the benchmark times each one
    assert tracer.totals()["oracle.validate_m1_m2"]["calls"] == 2 * 4
    assert value(m, "oracle.validate_m1_m2.entries") == 2 * 4 * 2000
    assert value(m, "oracle.liouville_pushforward_check.samples") == 10_000
    # one table lookup per grid angle
    assert value(m, "core_map.prob_all.calls") == 2 * 4
    # redraws and x = 0 discards can only add draws
    assert value(m, "oracle.draw_ratio") >= 1.0
    assert value(m, "rng.uniforms.draws") >= 2 * 4 * 2000 + 2 * 10_000
    assert len(res.latencies_ns) == 8 and res.attempted == 9
    for name, want in w.expected_counts().items():
        assert value(m, name) == want


def test_exact_counters_match_closed_form():
    w = SMALL["exact"]
    _, m, tracer = traced_pass(w)
    params, nu0 = w.setup(0)
    nus = measures.evolve(nu0, 12, params)
    held = sum(len(nu) for nu in nus)
    assert value(m, "measures.evolve.atoms_held") == held
    assert value(m, "measures.kernel_step.atoms_in") == held - len(nus[-1])
    assert value(m, "measures.cesaro.atoms_in") == held - len(nus[0])
    assert tracer.totals()["measures.kernel_step"]["calls"] == 12
    # from_atoms: 45 initial atoms, one merge per step, one for the mixture
    assert tracer.totals()["measures.from_atoms"]["calls"] == 12 + 1
    assert value(m, "measures.from_atoms.atoms_out") == held - len(nus[0]) + len(measures.cesaro(nus[1:]))
    assert value(m, "rng.uniforms.draws") == 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_leaves_outputs_and_modules_unchanged(name):
    w = SMALL[name]
    modules = (core_map, measures, oracle, rng, skew)
    before = {(mod, k): v for mod in modules for k, v in vars(mod).items()}
    plain = w.run(w.setup(w.default_seed))
    traced, _, _ = traced_pass(w)
    assert traced.digest == plain.digest
    assert traced.failures == plain.failures
    after = {(mod, k): v for mod in modules for k, v in vars(mod).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert "from_atoms" in vars(measures.AtomicMeasure)
    assert measures.AtomicMeasure.from_atoms.__func__.__name__ == "from_atoms"


def test_verify_compares_monte_carlo_with_exact_values():
    w = workloads.Ensemble(particles=1000)  # criterion 1 needs the full 200 steps
    state = w.setup(7)
    res = w.run(state)
    worst, failures = w.verify(state, res)
    assert worst < workloads.GROSS_Z and failures == []
    # move 5% of the mass between two bins: far outside binomial noise
    shifted = res.final.copy()
    shifted[10] += 0.05
    shifted[30] -= 0.05
    res.final = shifted
    worst, failures = w.verify(state, res)
    assert worst > workloads.GROSS_Z
    assert [stat for _, stat in failures] == [True]
    # at 20 steps the exact law is still far from the sine law
    small = SMALL["ensemble"]
    state = small.setup(7)
    _, failures = small.verify(state, small.run(state))
    assert [stat for _, stat in failures] == [False]
    assert SMALL["exact"].verify(None, None) == (0.0, [])


@pytest.mark.parametrize("z, misses, failed", [(5.0, 12, 0), (7.0, 12, 12)])
def test_statistical_failure_needs_a_gross_miss(monkeypatch, z, misses, failed):
    w = SMALL["skew"]
    real = skew.theorem1_check

    def off_by_z(*args):
        res = real(*args)
        return dataclasses.replace(res, estimate=res.exact + z * res.stderr)

    monkeypatch.setattr(skew, "theorem1_check", off_by_z)
    res = w.run(w.setup(w.default_seed))
    assert res.summary["checks_z_ge_4"] == misses
    assert len(res.failures) == failed
    assert all(stat for _, stat in res.failures)


def test_self_time_excludes_children():
    res, m, tracer = traced_pass(SMALL["ensemble"])
    totals = tracer.totals()
    # ensemble_step contains uniforms, prob_all, select_branch and tau_all
    step_spans = [s for s in tracer.spans if s[1] == "measures.ensemble_step"]
    total_step_ns = sum(e - s for _, _, _, s, e in step_spans)
    child_ns = sum(totals[n]["self_ns"] for n in
                   ("rng.uniforms", "core_map.prob_all", "core_map.select_branch", "core_map.tau_all"))
    # children's wrapper bookkeeping is charged to the tracer, not the parent
    parent_self = totals["measures.ensemble_step"]["self_ns"]
    assert total_step_ns - child_ns - tracer.overhead_ns <= parent_self <= total_step_ns - child_ns
    assert 0 < tracer.overhead_ns < total_step_ns
    ids = {s[0] for s in step_spans}
    assert all(s[2] in ids for s in tracer.spans if s[1] == "rng.uniforms")


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    res = SMALL["ensemble"].run(SMALL["ensemble"].setup(7))
    e2e = run.end_to_end_metrics([0.2, 0.3], [1.0], [res], 50.0, 0, res.attempted)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, u) for k, (_, u) in e2e.items()]
    layers = list(layer_metrics({}, 1)) + ["bench.traced_wall_s", "bench.trace_overhead_s", "bench.tracer_self_s"]
    assert [m["name"] for m in spec["per_layer"]] == layers


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "skew", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
