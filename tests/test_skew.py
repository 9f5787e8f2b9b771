import math
from itertools import product

import numpy as np
import pytest

from knudsen_billiard import rng, skew
from knudsen_billiard.core_map import BRANCHES, MapParams, prob_all, select_branch, tau
from knudsen_billiard.measures import (
    AtomicMeasure,
    atomize_density,
    mu_bin_masses,
    uniform_density,
)
from knudsen_billiard.skew import (
    _EMPTY,
    CylinderWord,
    FiberInterval,
    cylinder_fiber,
    enumerate_fibers,
    fiber_measure,
    skew_step_many,
    theorem1_check,
)

ALPHA = 0.5
PI = math.pi


@pytest.fixture(scope="module")
def params():
    return MapParams(ALPHA)


class TestTypes:
    def test_word_validation(self):
        with pytest.raises(ValueError):
            CylinderWord(())
        with pytest.raises(ValueError):
            CylinderWord((1, 5))
        assert len(CylinderWord((1, 2, 3))) == 3

    def test_interval_validation(self):
        with pytest.raises(AssertionError):
            FiberInterval(0.7, 0.4)
        assert FiberInterval(0.2, 0.2).is_empty


def _slab(y, x, params):
    """Index k of the slab J_k containing each (y, x)."""
    return select_branch(prob_all(np.asarray(x, dtype=float), params), np.asarray(y))


class TestLocateAndStep:
    def test_locate_certain_region(self, params):
        assert _slab([0.3], [0.2], params).tolist() == [1]

    def test_locate_half_pi(self, params):
        assert _slab([0.51], [PI / 2], params).tolist() == [3]

    def test_step_identity_slab(self, params):
        y, x = skew_step_many(np.array([0.4]), np.array([0.2]), params)
        assert y[0] == pytest.approx(0.4, abs=1e-15)
        assert x[0] == pytest.approx(1.2, abs=1e-15)

    def test_step_rescales_upper_slab(self, params):
        y, x = skew_step_many(np.array([0.75]), np.array([PI / 2]), params)
        assert y[0] == pytest.approx(0.5, abs=1e-15)
        assert x[0] == pytest.approx(PI / 2 - 1, abs=1e-15)

    def test_slab_partition_tiles_unit_interval(self, params):
        for x in np.linspace(0.0, PI, 200):
            P = prob_all(float(x), params)
            fibers = [cylinder_fiber(float(x), CylinderWord((k,)), params) for k in (1, 2, 3, 4)]
            total = sum(f.length for f in fibers)
            assert total == pytest.approx(1.0, abs=1e-12)
            # nonempty slabs are consecutive half-open intervals
            live = [f for f in fibers if not f.is_empty]
            assert live[0].lo == 0.0
            for a, b in zip(live, live[1:]):
                assert b.lo == pytest.approx(a.hi, abs=1e-15)
            assert live[-1].hi == pytest.approx(1.0, abs=1e-12)
            assert {f.length for f in fibers if f.is_empty} <= {0.0}
            del P

    def test_every_point_in_exactly_one_slab(self, params):
        gen = np.random.Generator(np.random.Philox(key=9))
        points = [(gen.uniform(0, 1), gen.uniform(0, PI)) for _ in range(200)]
        ys, xs = np.array(points).T
        for y, x, k in zip(ys, xs, _slab(ys, xs, params)):
            hits = [
                not cylinder_fiber(x, CylinderWord((b,)), params).is_empty
                and cylinder_fiber(x, CylinderWord((b,)), params).lo
                <= y
                < cylinder_fiber(x, CylinderWord((b,)), params).hi
                for b in (1, 2, 3, 4)
            ]
            assert hits.count(True) == 1
            assert hits[k - 1]


class TestCylinderFibers:
    def test_single_letter_full_slab(self, params):
        f = cylinder_fiber(0.2, CylinderWord((1,)), params)
        assert (f.lo, f.hi) == (0.0, 1.0)

    def test_dead_branch_is_empty(self, params):
        f = cylinder_fiber(0.2, CylinderWord((2,)), params)
        assert f.is_empty
        assert fiber_measure(0.2, CylinderWord((2,)), params) == 0.0

    def test_word_11_at_half_pi_degenerates(self, params):
        # branch 1 is dead at tau_1(pi/2) for alpha = 0.5, so the fibre is
        # empty and its length still equals 0.5 * p_1(pi/2 + 1) = 0
        w = CylinderWord((1, 1))
        f = cylinder_fiber(PI / 2, w, params)
        assert f.is_empty
        assert prob_all(PI / 2 + 1, params)[0] == 0.0
        assert fiber_measure(PI / 2, w, params) == 0.0

    def test_word_31_at_half_pi(self, params):
        # first apply branch 1 at pi/2 (lower half slab), then branch 3
        w = CylinderWord((3, 1))
        f = cylinder_fiber(PI / 2, w, params)
        want = 0.5 * prob_all(PI / 2 + 1, params)[2]
        assert not f.is_empty
        assert 0.0 <= f.lo and f.hi <= 0.5 + 1e-15
        assert f.length == pytest.approx(want, abs=1e-14)
        assert fiber_measure(PI / 2, w, params) == pytest.approx(want, abs=1e-14)

    def test_product_formula_small_words(self, params):
        gen = np.random.Generator(np.random.Philox(key=21))
        xs = gen.uniform(0.0, PI, size=20)
        for x in xs:
            for n in (1, 2, 3, 4):
                for idx in product((1, 2, 3, 4), repeat=n):
                    w = CylinderWord(idx)
                    f = cylinder_fiber(float(x), w, params)
                    m = fiber_measure(float(x), w, params)
                    assert abs(f.length - m) < 1e-12

    def test_enumerator_matches_standalone_ops(self, params):
        x = 1.234
        seen = {}
        for word, interval, measure in enumerate_fibers(x, 4, params):
            seen[word] = (interval, measure)
        assert len(seen) == 4 + 16 + 64 + 256
        gen = np.random.Generator(np.random.Philox(key=4))
        words = list(seen)
        for i in gen.choice(len(words), size=60, replace=False):
            w = words[int(i)]
            f = cylinder_fiber(x, CylinderWord(w), params)
            m = fiber_measure(x, CylinderWord(w), params)
            assert (f, m) == seen[w]

    def test_children_refine_parent(self, params):
        # prepending each branch splits a word's fibre into four tiles
        x = 2.04
        fibers = {w: f for w, f, _ in enumerate_fibers(x, 4, params)}
        for word, parent in fibers.items():
            if len(word) == 4:
                continue
            kids = [fibers[(k,) + word] for k in (1, 2, 3, 4)]
            total = sum(k.length for k in kids)
            assert abs(total - parent.length) < 1e-12
            for kid in kids:
                if not kid.is_empty:
                    assert kid.lo >= parent.lo - 1e-12
                    assert kid.hi <= parent.hi + 1e-12


def depth_first_fibers(x, max_len, params):
    """The recursive, one-point-at-a-time fibre walk, kept as a reference."""

    def _dead(prefix, depth):
        # all extensions of a zero-probability branch are empty
        for ext in range(1, depth + 1):
            for tail in product(BRANCHES, repeat=ext):
                yield tail + prefix, _EMPTY, 0.0

    def _walk(cur, chain, off, scale, depth):
        P = prob_all(cur, params)
        cum_lo = 0.0
        for i in BRANCHES:
            p = float(P[i - 1])
            word = tuple(reversed(chain + (i,)))
            if p == 0.0:
                yield word, _EMPTY, 0.0
                if depth > 1:
                    yield from _dead(word, depth - 1)
            else:
                lo = off + scale * cum_lo
                hi = off + scale * (cum_lo + p)
                yield word, FiberInterval(lo, hi), scale * p
                if depth > 1:
                    nxt = min(max(tau(i, cur, params), 0.0), math.pi)
                    yield from _walk(nxt, chain + (i,), lo, scale * p, depth - 1)
            cum_lo += p

    yield from _walk(float(x), (), 0.0, 1.0, max_len)


EDGE_ALPHAS = [0.05, 0.3, 0.5, PI / 6 - 1e-6]

# the 100 interior base points of the criterion-5 sweep
SWEEP_POINTS = np.linspace(0.0, PI, 102)[1:-1]


def _edge_points(params):
    """0, pi/2, pi, every breakpoint and the float just below each one."""
    xs = [0.0, PI / 2, PI]
    for b in params.breakpoints:
        xs += [b, math.nextafter(b, 0.0)]
    return xs


def _bits(f, m):
    return np.array([f.lo, f.hi, m]).tobytes()


def _assert_same_as_depth_first(xs, params):
    """Every word's (lo, hi, product) agrees bit for bit with the reference walk."""

    def bits(walk, x):
        return {w: _bits(f, m) for w, f, m in walk(x, 6, params)}

    for x in xs:
        got = bits(enumerate_fibers, float(x))
        assert len(got) == sum(4**n for n in range(1, 7))
        assert got == bits(depth_first_fibers, float(x)), f"alpha={params.alpha} x={x}"


def _assert_single_words_same_as_depth_first(xs, params):
    """cylinder_fiber and fiber_measure agree bit for bit on every word up to length 4."""
    for x in xs:
        for w, f, m in depth_first_fibers(float(x), 4, params):
            word = CylinderWord(w)
            got = _bits(cylinder_fiber(x, word, params), fiber_measure(x, word, params))
            assert got == _bits(f, m), f"alpha={params.alpha} x={x} word={w}"


def _count_table_calls(monkeypatch):
    """Count skew's prob_all and tau_all calls in the returned dict."""
    calls = {"prob_all": 0, "tau_all": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(skew, name, counting(name, getattr(skew, name)))
    return calls


class TestEnumerateFibers:
    @pytest.mark.parametrize("alpha", EDGE_ALPHAS)
    def test_matches_depth_first_walk_at_edges(self, alpha):
        params = MapParams(alpha)
        _assert_same_as_depth_first(_edge_points(params), params)

    def test_matches_depth_first_walk_on_sweep_points(self, params):
        _assert_same_as_depth_first(SWEEP_POINTS, params)

    def test_one_table_and_image_call_per_length(self, params, monkeypatch):
        calls = _count_table_calls(monkeypatch)
        assert sum(1 for _ in enumerate_fibers(1.234, 6, params)) == 5460
        assert calls == {"prob_all": 6, "tau_all": 5}

    def test_words_come_grouped_by_length(self, params):
        words = [w for w, _, _ in enumerate_fibers(2.04, 4, params)]
        assert words[:4] == [(1,), (2,), (3,), (4,)]
        lengths = [len(w) for w in words]
        assert lengths == sorted(lengths)
        assert words[4:20] == list(product(BRANCHES, repeat=2))

    def test_dead_subtree_is_empty(self, params):
        # branch 2 is dead at 0.2, so every word ending in it is empty
        fibers = {w: (f, m) for w, f, m in enumerate_fibers(0.2, 4, params)}
        dead = [w for w in fibers if w[-1] == 2]
        assert len(dead) == 1 + 4 + 16 + 64
        for w in dead:
            assert fibers[w] == (_EMPTY, 0.0)
            assert fibers[w][0] is _EMPTY

    def test_max_len_below_one_rejected(self, params):
        with pytest.raises(ValueError):
            list(enumerate_fibers(0.2, 0, params))


class TestSingleWordFibers:
    @pytest.mark.parametrize("alpha", EDGE_ALPHAS)
    def test_matches_depth_first_walk_at_edges(self, alpha):
        params = MapParams(alpha)
        _assert_single_words_same_as_depth_first(_edge_points(params), params)

    def test_matches_depth_first_walk_on_sweep_points(self, params):
        _assert_single_words_same_as_depth_first(SWEEP_POINTS, params)

    def test_live_word_with_zero_length_fibre_is_not_dead(self):
        # x = alpha is a breakpoint; no branch of word (4, 3, 1) has probability
        # 0 along its orbit, but its fibre rounds to [1, 1) around a product of
        # 5.6e-17, so it is a live word, not the empty fibre of a dead one
        params = MapParams(0.05)
        w = CylinderWord((4, 3, 1))
        f = cylinder_fiber(0.05, w, params)
        assert f is not _EMPTY
        assert (f.lo, f.hi) == (1.0, 1.0)
        assert 0.0 < fiber_measure(0.05, w, params) < 1e-16

    def test_one_table_call_per_letter(self, params, monkeypatch):
        calls = _count_table_calls(monkeypatch)
        assert fiber_measure(1.234, CylinderWord((1, 3, 2, 1)), params) > 0.0
        assert calls == {"prob_all": 4, "tau_all": 3}
        # a word stops at its first dead branch: branch 2 is dead at 0.2
        assert fiber_measure(0.2, CylinderWord((1, 3, 1, 2)), params) == 0.0
        assert calls == {"prob_all": 5, "tau_all": 3}


class TestSkewInvariance:
    def test_pushforward_preserves_product_measure(self, params):
        # quick version of the acceptance check: 1e5 points, 16x16 bins
        n, bins = 100_000, 16
        y = rng.uniforms(0, 0, n)
        x = np.arccos(1.0 - 2.0 * rng.uniforms(0, 1, n))
        y2, x2 = skew_step_many(y, x, params)
        counts = np.zeros((bins, bins))
        iy = np.minimum((y2 * bins).astype(int), bins - 1)
        ix = np.minimum((x2 / PI * bins).astype(int), bins - 1)
        np.add.at(counts, (iy, ix), 1)
        expected = np.outer(np.full(bins, 1.0 / bins), mu_bin_masses(bins))
        sigma = np.sqrt(expected * (1 - expected) / n)
        assert np.all(np.abs(counts / n - expected) <= 4 * sigma)


class TestTheorem1:
    def test_zero_steps_reduces_to_initial_mass(self, params):
        nu = atomize_density(uniform_density, bins=45)
        res = theorem1_check(nu, (0.5, 1.5), 0, 20_000, 7, params)
        assert res.exact == pytest.approx(nu.measure_of(0.5, 1.5), abs=1e-12)
        assert res.within(4.0)

    def test_atom_pushed_with_certainty(self, params):
        res = theorem1_check(AtomicMeasure.point(0.2), (1.1, 1.3), 1, 5_000, 3, params)
        assert res.exact == 1.0
        assert res.estimate == 1.0

    def test_degenerate_interval(self, params):
        nu = AtomicMeasure.point(0.2)
        res = theorem1_check(nu, (2.0, 1.0), 3, 100, 1, params)
        assert (res.exact, res.estimate, res.stderr) == (0.0, 0.0, 0.0)

    def test_five_steps_uniform_start(self, params):
        nu = atomize_density(uniform_density, bins=45)
        res = theorem1_check(nu, (1.0, 2.0), 5, 100_000, 11, params)
        assert res.within(4.0)

    def test_deterministic_given_seed(self, params):
        nu = atomize_density(uniform_density, bins=45)
        a = theorem1_check(nu, (0.3, 2.8), 4, 30_000, 99, params)
        b = theorem1_check(nu, (0.3, 2.8), 4, 30_000, 99, params)
        assert a == b
