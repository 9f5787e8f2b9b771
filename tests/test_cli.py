import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from knudsen_billiard import cli

PI = math.pi
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, env=None):
    # the CLI runs in a child process, which pytest's `pythonpath` and
    # `filterwarnings` do not reach
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "knudsen_billiard", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestKernelCommand:
    def test_certain_region_row(self):
        res = run_cli("kernel", "--alpha", "0.5", "--theta", "0.2")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert "region = [0, a)" in lines[0]
        assert lines[1] == "branch,probability,image"
        assert lines[2] == "1,1," + format(0.2 + 2 * 0.5, ".17g")

    def test_half_pi_two_rows(self):
        res = run_cli("kernel", "--alpha", "0.5", "--theta", "1.5707963")
        assert res.returncode == 0
        rows = res.stdout.strip().splitlines()[2:]
        assert len(rows) == 2
        assert [r.split(",")[0] for r in rows] == ["1", "3"]
        assert all(abs(float(r.split(",")[1]) - 0.5) < 1e-6 for r in rows)

    def test_alpha_out_of_range_exits_2(self):
        res = run_cli("kernel", "--alpha", "0.6", "--theta", "0.2")
        assert res.returncode == 2
        assert "alpha" in res.stderr

    def test_missing_flag_exits_2(self):
        res = run_cli("kernel", "--alpha", "0.5")
        assert res.returncode == 2


class TestEvolveCommand:
    def test_atom_start_zero_steps_single_bin(self):
        res = run_cli(
            "evolve", "--alpha", "0.5", "--steps", "0", "--mode", "exact",
            "--initial", "atom:0.2", "--seed", "1",
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        masses = doc["checkpoints"][0]["masses"]
        assert sum(1 for m in masses if m > 0) == 1

    def test_byte_identical_reruns(self):
        args = (
            "evolve", "--alpha", "0.5", "--steps", "60", "--particles", "2000",
            "--bins", "45", "--seed", "7", "--initial", "uniform",
            "--mode", "ensemble",
        )
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_exact_stdout_pinned(self):
        # the whole report, byte for byte: any change in the exact merge that
        # moves a binned mass past its 17th digit moves this digest
        res = run_cli(
            "evolve", "--alpha", "0.5", "--steps", "60", "--mode", "exact",
            "--initial", "uniform",
        )
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == (
            "f6c9d612151b6817f793070a5d57297a5a21bffe3ba5d21e24c83f9ba452dde0"
        )

    def test_checkpoint_thinning(self):
        res = run_cli(
            "evolve", "--alpha", "0.5", "--steps", "60", "--mode", "exact",
            "--initial", "atom:0.2", "--seed", "1",
        )
        doc = json.loads(res.stdout)
        steps = [c["step"] for c in doc["checkpoints"]]
        assert len(steps) <= 21
        assert steps[0] == 0 and steps[-1] == 60

    def test_csv_schema(self, tmp_path):
        base = tmp_path / "run"
        res = run_cli(
            "evolve", "--alpha", "0.5", "--steps", "5", "--mode", "exact",
            "--initial", "uniform", "--seed", "1", "--format", "csv",
            "--output", str(base),
        )
        assert res.returncode == 0
        hist = (tmp_path / "run.histograms.csv").read_text().splitlines()
        dist = (tmp_path / "run.distances.csv").read_text().splitlines()
        assert hist[0] == "step,bin_index,bin_lo,bin_hi,mass"
        assert dist[0] == "step,tv,ks"
        assert len(hist) == 1 + 6 * 45
        assert len(dist) == 1 + 6
        row = hist[1].split(",")
        assert row[:2] == ["0", "0"] and float(row[2]) == 0.0

    def test_csv_without_output_exits_2(self):
        res = run_cli(
            "evolve", "--alpha", "0.5", "--steps", "1", "--format", "csv",
        )
        assert res.returncode == 2
        # refused before the run, so the atom cap it would hit is never reached
        res = run_cli(
            "evolve", "--alpha", "0.5", "--steps", "10", "--mode", "exact",
            "--max-atoms", "50", "--format", "csv",
        )
        assert res.returncode == 2
        assert "--output" in res.stderr

    def test_atom_cap_exits_3(self):
        res = run_cli(
            "evolve", "--alpha", "0.5", "--steps", "10", "--mode", "exact",
            "--initial", "uniform", "--max-atoms", "50",
        )
        assert res.returncode == 3
        assert "cap" in res.stderr
        assert res.stdout == ""
        # from one atom the cap is hit at step 20, after 19 checkpoints were
        # binned: a partial report is still never printed
        res = run_cli(
            "evolve", "--alpha", "0.5", "--steps", "60", "--mode", "exact",
            "--initial", "atom:0.2", "--max-atoms", "100",
        )
        assert res.returncode == 3
        assert "need 116 atoms (cap 100)" in res.stderr
        assert res.stdout == ""

    def test_exact_run_holds_one_measure(self, capsys):
        # 400 exact steps from uniform-45 peak near 86 MB when every measure
        # of the run is kept, and near 6 MB when only the current one is
        tracemalloc.start()
        try:
            code = cli.main(["evolve", "--alpha", "0.5", "--steps", "400", "--mode", "exact"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["checkpoints"][-1]["step"] == 400
        assert peak < 20e6

    def test_file_initial_atoms(self, tmp_path):
        f = tmp_path / "init.csv"
        f.write_text("theta,weight\n0.2,0.5\n2.0,0.5\n")
        res = run_cli(
            "evolve", "--alpha", "0.5", "--steps", "0", "--mode", "exact",
            "--initial", f"file:{f}",
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert sum(1 for m in doc["checkpoints"][0]["masses"] if m > 0) == 2

    def test_file_initial_non_finite_weights_exit_2(self, tmp_path):
        f = tmp_path / "init.csv"
        # the last pair is finite but its total overflows
        for w1, w2 in (("inf", "1"), ("nan", "1"), ("1e308", "1e308")):
            f.write_text(f"theta,weight\n0.3,{w1}\n0.5,{w2}\n")
            res = run_cli(
                "evolve", "--alpha", "0.5", "--steps", "0", "--mode", "exact",
                "--initial", f"file:{f}",
            )
            assert res.returncode == 2
            assert "finite positive total" in res.stderr
            assert "RuntimeWarning" not in res.stderr

    def test_file_initial_density(self, tmp_path):
        f = tmp_path / "init.csv"
        f.write_text(f"bin_lo,bin_hi,density\n0,{PI / 2},1\n{PI / 2},{PI},3\n")
        res = run_cli(
            "evolve", "--alpha", "0.5", "--steps", "0", "--mode", "exact",
            "--initial", f"file:{f}", "--bins", "4",
        )
        assert res.returncode == 0
        masses = json.loads(res.stdout)["checkpoints"][0]["masses"]
        assert masses[0] == pytest.approx(0.125, abs=1e-12)
        assert masses[3] == pytest.approx(0.375, abs=1e-12)

    def test_env_seed_fallback(self):
        import os

        env = dict(os.environ, KNUDSEN_SEED="123")
        res = run_cli(
            "evolve", "--alpha", "0.5", "--steps", "3", "--particles", "500",
            "--mode", "ensemble", env=env,
        )
        assert res.returncode == 0
        assert json.loads(res.stdout)["config"]["seed"] == 123

    def test_reference_ensemble_run_converges(self):
        # the headline experiment, end to end through the CLI
        res = run_cli(
            "evolve", "--alpha", "0.5", "--steps", "200", "--particles", "30000",
            "--bins", "45", "--seed", "7", "--initial", "uniform",
            "--mode", "ensemble",
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        final = doc["checkpoints"][-1]
        assert final["step"] == 200
        assert final["ks"] < 0.02


class TestOracleCommand:
    def test_small_run_passes(self):
        res = run_cli(
            "oracle", "--alpha", "0.5", "--grid", "5", "--samples", "20000",
            "--seed", "3",
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["branch_table"]["passed"] is True
        assert doc["liouville"]["passed"] is True
        assert len(doc["branch_table"]["points"]) == 5
        for point in doc["branch_table"]["points"]:
            assert "max_z" in point

    def test_validation_failure_exits_1_with_report(self):
        # an absurdly strict z gate must fail, and the report is still emitted
        res = run_cli(
            "oracle", "--alpha", "0.5", "--grid", "3", "--samples", "20000",
            "--seed", "3", "--z-limit", "0.05",
        )
        assert res.returncode == 1
        doc = json.loads(res.stdout)
        assert doc["branch_table"]["passed"] is False

    def test_json_pinned(self):
        # the whole report, byte for byte: any change in the tracer's exits,
        # the classification or the Liouville tally moves this digest
        res = run_cli(
            "oracle", "--alpha", "0.5", "--grid", "6", "--samples", "20000",
            "--seed", "3",
        )
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == (
            "97ff1bf9c792dccca6ac128405734d946f84a9cc13dba85c6ea9dd679d0b9980"
        )

    @pytest.mark.parametrize("flag", ["--grid", "--samples"])
    def test_empty_grid_or_zero_samples_exits_2(self, flag):
        res = run_cli("oracle", "--alpha", "0.5", flag, "0")
        assert res.returncode == 2
        assert "nonempty grid" in res.stderr
        assert res.stdout == ""


class TestSkewCommand:
    def test_full_slab_word(self):
        res = run_cli(
            "skew", "--alpha", "0.5", "--word", "1", "--x", "0.2",
            "--samples", "2000", "--steps", "2", "--seed", "4",
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["fiber"] == {"lo": 0.0, "hi": 1.0, "length": 1.0}
        assert doc["product"] == 1.0
        assert doc["difference"] == 0.0

    def test_dead_branch_word(self):
        res = run_cli(
            "skew", "--alpha", "0.5", "--word", "2", "--x", "0.2",
            "--samples", "2000", "--steps", "1", "--seed", "4",
        )
        doc = json.loads(res.stdout)
        assert doc["fiber"]["length"] == 0.0
        assert doc["product"] == 0.0

    def test_malformed_word_exits_2(self):
        res = run_cli("skew", "--alpha", "0.5", "--word", "1,9", "--x", "0.2")
        assert res.returncode == 2
        res = run_cli("skew", "--alpha", "0.5", "--word", "abc", "--x", "0.2")
        assert res.returncode == 2

    def test_kernel_vs_skew_record(self):
        res = run_cli(
            "skew", "--alpha", "0.5", "--word", "1,3", "--x", "1.0",
            "--interval", "0.5,2.5", "--steps", "3", "--samples", "20000",
            "--seed", "5",
        )
        doc = json.loads(res.stdout)
        rec = doc["kernel_vs_skew"]
        assert abs(rec["exact"] - rec["estimate"]) <= 4 * rec["stderr"]

    @pytest.mark.parametrize("interval", ["nan,1", "0,inf"])
    def test_non_finite_interval_exits_2(self, interval):
        # JSON has no NaN or Infinity, so such a bound never reaches the report
        res = run_cli(
            "skew", "--alpha", "0.5", "--word", "1,3", "--x", "1.0",
            "--interval", interval,
        )
        assert res.returncode == 2
        assert "finite" in res.stderr
        assert res.stdout == ""
