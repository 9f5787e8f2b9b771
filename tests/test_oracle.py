import hashlib
import json
import math

import numpy as np
import pytest

from knudsen_billiard.core_map import MapParams, prob_all, tau, tau_all
from knudsen_billiard.oracle import (
    CellGeometry,
    CornerHitError,
    GridPointResult,
    ReturnRecord,
    TracerStuckError,
    ValidationReport,
    _kernel_counts,
    _reflect,
    _trace_batch,
    _traced_entries,
    first_return,
    liouville_pushforward_check,
    validate_m1_m2,
    validation_grid,
)
from knudsen_billiard import rng

ALPHA = 0.5
PI = math.pi


@pytest.fixture(scope="module")
def geom():
    return CellGeometry(ALPHA)


@pytest.fixture(scope="module")
def params():
    return MapParams(ALPHA)


class TestGeometry:
    def test_apex_location(self, geom):
        assert geom.apex == (0.5, 0.5 * math.tan(ALPHA))

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            CellGeometry(PI / 6)

    def test_bounce_budget(self, geom):
        assert geom.max_bounces == 10 * math.ceil(PI / ALPHA)


class TestReflect:
    def test_preserves_norm_and_mirrors_angle(self):
        gen = np.random.Generator(np.random.Philox(key=3))
        ang_v = gen.uniform(0, 2 * PI, 200)
        ang_w = gen.uniform(0, PI, 200)
        vx, vy = np.cos(ang_v), np.sin(ang_v)
        ux, uy = np.cos(ang_w), np.sin(ang_w)
        rx, ry = _reflect(vx, vy, ux, uy)
        assert np.abs(np.hypot(rx, ry) - 1.0).max() < 1e-12
        # incident and reflected angles against the wall direction agree
        cos_in = np.abs(vx * ux + vy * uy)
        cos_out = np.abs(rx * ux + ry * uy)
        assert np.abs(cos_in - cos_out).max() < 1e-12


class _NoBounceCell(CellGeometry):
    """The real cell with a bounce budget of 0: any wall hit exhausts it."""

    @property
    def max_bounces(self) -> int:
        return 0


class TestTracerOutput:
    # SHA-256 prefixes of the tracer's output on 65536 random entries:
    # exit x, exit angle and bounce count of the non-corner trajectories,
    # then the corner flags, each as float64 bytes
    GOLDEN = {
        0.05: "142beed8df2d89a3",
        0.3: "2d0dfda0e0d4e972",
        0.5: "74fecdb044d1365b",
    }

    @pytest.mark.parametrize("alpha", sorted(GOLDEN))
    def test_bit_identical_to_golden(self, alpha):
        xs = rng.uniforms(11, 0, 1 << 16)
        ths = PI * rng.uniforms(11, 1, 1 << 16)
        keep = (xs > 0) & (ths > 1e-12) & (ths < PI - 1e-12)
        assert np.count_nonzero(keep) == 1 << 16
        ex, th, nb, c = _trace_batch(xs[keep], ths[keep], CellGeometry(alpha))
        assert np.count_nonzero(c) == 0
        digest = hashlib.sha256()
        for arr in (ex[~c], th[~c], nb[~c], c):
            digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        assert digest.hexdigest()[:16] == self.GOLDEN[alpha]

    def test_bounce_cap_raises(self):
        # x = 0.37, theta = 0.2 must bounce once off the right wall
        geom = _NoBounceCell(ALPHA)
        assert first_return(0.37, 0.2, CellGeometry(ALPHA)).bounce_count == 1
        with pytest.raises(TracerStuckError):
            _trace_batch(np.array([0.37]), np.array([0.2]), geom)
        with pytest.raises(TracerStuckError):
            first_return(0.37, 0.2, geom)


class TestFirstReturn:
    def test_shallow_entry_single_bounce(self, geom, params):
        for x in (0.1, 0.5, 0.9):
            for theta in (0.05, 0.2, 0.45):
                rec = first_return(x, theta, geom)
                assert rec.bounce_count == 1
                assert rec.theta_out == pytest.approx(theta + 2 * ALPHA, abs=1e-12)
                assert rec.branch_matched == 1

    def test_steep_entry_single_bounce(self, geom):
        for theta in (PI - 0.05, PI - 0.2, PI - 0.45):
            rec = first_return(0.3, theta, geom)
            assert rec.theta_out == pytest.approx(theta - 2 * ALPHA, abs=1e-12)
            assert rec.branch_matched == 3

    def test_apex_aim_is_corner(self, geom):
        with pytest.raises(CornerHitError):
            first_return(0.5, PI / 2, geom)

    def test_rejects_boundary_inputs(self, geom):
        with pytest.raises(ValueError):
            first_return(0.0, 1.0, geom)
        with pytest.raises(ValueError):
            first_return(0.5, 0.0, geom)

    def test_exit_positions_legal_and_branches_closed(self, geom, params):
        # branch closure: every exit angle equals some branch image
        n = 100_000
        xs = rng.uniforms(17, 0, n)
        ths = PI * rng.uniforms(17, 1, n)
        keep = (xs > 0) & (ths > 1e-9) & (ths < PI - 1e-9)
        ex, th, nb, corner = _trace_batch(xs[keep], ths[keep], geom)
        ok = ~corner
        assert corner.mean() < 1e-3
        assert ex[ok].min() >= 0.0 and ex[ok].max() <= 1.0
        assert th[ok].min() > 0.0 and th[ok].max() < PI
        images = tau_all(ths[keep][ok], params)
        dev = np.abs(images - th[ok][None, :]).min(axis=0)
        assert dev.max() < 1e-9

    def test_exit_completeness_at_scale(self, geom):
        # every non-degenerate trajectory leaves well inside the bounce budget;
        # 1e7 random entries, chunked
        total = 10_000_000
        chunk = 500_000
        max_bounces_seen = 0
        corner_total = 0
        for i in range(total // chunk):
            xs = rng.uniforms(400, 2 * i, chunk)
            ths = PI * rng.uniforms(400, 2 * i + 1, chunk)
            keep = (xs > 0) & (ths > 1e-12) & (ths < PI - 1e-12)
            _, _, nb, corner = _trace_batch(xs[keep], ths[keep], geom)
            max_bounces_seen = max(max_bounces_seen, int(nb[~corner].max()))
            corner_total += int(np.count_nonzero(corner))
        assert max_bounces_seen < geom.max_bounces
        assert corner_total < 1e-4 * total

    def test_batch_agrees_with_scalar(self, geom):
        gen = np.random.Generator(np.random.Philox(key=8))
        xs = gen.uniform(0.05, 0.95, 50)
        ths = gen.uniform(0.05, PI - 0.05, 50)
        ex, th, nb, corner = _trace_batch(xs, ths, geom)
        for i in range(50):
            if corner[i]:
                continue
            rec = first_return(float(xs[i]), float(ths[i]), geom)
            assert rec.exit_x == ex[i]
            assert rec.theta_out == th[i]
            assert rec.bounce_count == nb[i]

    def test_return_record_fields(self, geom):
        rec = first_return(0.37, 0.2, geom)
        assert isinstance(rec, ReturnRecord)
        assert 0.0 <= rec.exit_x <= 1.0
        assert abs(rec.theta_out - tau(1, 0.2, MapParams(ALPHA))) < 1e-9


class TestEmpiricalKernel:
    # the traced branch tallies behind validate_m1_m2's frequencies
    def test_certain_region(self, geom):
        counts, unclassified = _kernel_counts(0.2, 20_000, 5, geom)
        assert counts.tolist() == [20_000, 0, 0, 0]
        assert unclassified == 0

    def test_half_pi_split(self, geom):
        n = 100_000
        counts, unclassified = _kernel_counts(PI / 2, n, 5, geom)
        sigma = math.sqrt(0.25 / n)
        assert counts[1] == counts[3] == unclassified == 0
        assert abs(counts[0] / n - 0.5) < 3 * sigma
        assert abs(counts[2] / n - 0.5) < 3 * sigma

    @pytest.mark.parametrize("theta", [2.0, 2.2])
    def test_mixed_regions_match_table(self, geom, params, theta):
        n = 200_000
        counts, unclassified = _kernel_counts(theta, n, 5, geom)
        assert unclassified == 0
        P = prob_all(theta, params)
        for k in (1, 2, 3, 4):
            p = float(P[k - 1])
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(counts[k - 1] / n - p) < 4 * sigma + 1e-9

    def test_deterministic(self, geom):
        a = _kernel_counts(1.1, 30_000, 9, geom)
        b = _kernel_counts(1.1, 30_000, 9, geom)
        assert a[0].tolist() == b[0].tolist() and a[1] == b[1]


class TestRedrawLoop:
    def test_redraws_exactly_what_was_lost(self, geom):
        asked = []

        def draw(round_id, n):
            # keep every other entry, as if the rest were inadmissible
            asked.append(n)
            xs = rng.uniforms(11, round_id, n)[::2]
            return xs, np.full(xs.size, 1.1)

        got = sum(ex.size for ex, _ in _traced_entries(draw, 1000, 64, geom))
        assert got == 1000
        assert asked == [1000, 500, 250, 125, 62, 31, 15, 7, 3, 1]  # n - ceil(n / 2)

    @pytest.mark.parametrize(
        "run, calls",
        [
            (lambda geom: _kernel_counts(1.1, 100, 0, geom), 64),
            (lambda geom: liouville_pushforward_check(10_000, 0, geom), 2 * 32),
        ],
        ids=["kernel_counts", "liouville"],
    )
    def test_round_caps(self, geom, monkeypatch, run, calls):
        # x = 0 is never a valid entry, so every round comes back empty
        seen = []

        def zeros(seed, stream_id, n):
            seen.append(stream_id)
            return np.zeros(n)

        monkeypatch.setattr(rng, "uniforms", zeros)
        with pytest.raises(CornerHitError):
            run(geom)
        assert len(seen) == calls


class TestValidate:
    def test_grid_avoids_breakpoints(self, params):
        grid = validation_grid(ALPHA, 50)
        assert grid.size == 50
        assert grid.min() > 0 and grid.max() < PI
        for b in params.breakpoints:
            assert np.abs(grid - b).min() >= 1e-6 - 1e-12

    def test_small_validation_run_passes(self, geom):
        report = validate_m1_m2(validation_grid(ALPHA, 8), 20_000, 31, geom)
        assert report.passed
        assert report.unclassified_total == 0
        assert report.max_z < 4.0
        d = report.to_dict()
        assert d["passed"] is True
        assert len(d["points"]) == 8
        # key sets of the CLI's JSON, as written before to_dict used asdict
        assert set(d) == {
            "alpha", "samples", "z_limit", "max_z", "unclassified_total", "passed", "points",
        }
        assert set(d["points"][0]) == {
            "theta", "freqs", "probs", "max_abs_dev", "max_z", "unclassified",
        }

    def test_rejects_empty_grid_and_zero_samples(self, geom):
        with pytest.raises(ValueError):
            validate_m1_m2(np.array([]), 5_000, 2, geom)
        with pytest.raises(ValueError):
            validate_m1_m2(np.array([0.2]), 0, 2, geom)

    def test_certain_point_recorded_exactly(self, geom):
        report = validate_m1_m2(np.array([0.2]), 5_000, 2, geom)
        point = report.points[0]
        assert point.freqs[0] == 1.0
        assert point.max_z == 0.0

    def test_infinite_z_written_as_null(self):
        # a certain branch missed scores z = inf, which JSON cannot carry
        def point(z):
            return GridPointResult(
                theta=0.2,
                freqs=(0.5, 0.5, 0.0, 0.0),
                probs=(1.0, 0.0, 0.0, 0.0),
                max_abs_dev=0.5,
                max_z=z,
                unclassified=0,
            )

        report = ValidationReport(
            alpha=ALPHA, samples=2, z_limit=4.0, points=(point(math.inf), point(1.5)), passed=False
        )
        doc = json.loads(json.dumps(report.to_dict(), allow_nan=False))
        assert doc["max_z"] is None
        assert [p["max_z"] for p in doc["points"]] == [None, 1.5]


class TestLiouville:
    def test_pushforward_preserved(self, geom):
        report = liouville_pushforward_check(200_000, 6, geom)
        assert report.passed
        assert report.failed_bins == 0
        assert report.max_z < 4.0
        # marginals: exit position uniform, outgoing angle sine-law
        assert report.marginal_x_max_dev < 0.004
        assert report.marginal_theta_max_dev < 0.004

    def test_report_keys(self, geom):
        d = liouville_pushforward_check(10_000, 6, geom).to_dict()
        assert set(d) == {
            "alpha", "samples", "bins", "max_z", "failed_bins",
            "marginal_x_max_dev", "marginal_theta_max_dev", "passed",
        }

    def test_rejects_tiny_sample(self, geom):
        with pytest.raises(ValueError):
            liouville_pushforward_check(100, 0, geom)
