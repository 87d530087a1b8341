"""The numpy-only routines of strictlyap._numerics equal scipy's bit for bit.

Every case compares with ``np.array_equal`` (NaN positions with
``equal_nan``), so a reordered floating-point operation fails here before it
moves any output digest.
"""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, cumulative_trapezoid
from scipy.interpolate import CubicHermiteSpline
from scipy.stats import qmc

from strictlyap import _numerics as nm


class TestHalton:
    @pytest.mark.parametrize("d", range(1, 13))
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_matches_scipy(self, d, seed):
        for n in (0, 1, 2, 1000, 50_000):
            expected = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
            got = nm.halton(d, n, seed)
            assert got.shape == (n, d)
            assert np.array_equal(got, expected), (d, seed, n)

    # an index range ending just short of, at and just past a power of a base
    # leaves the last (blocks, b^r) block partial or full
    @pytest.mark.parametrize("n", [2**10 - 1, 2**10, 2**10 + 1, 2**16,
                                   3**7 - 1, 3**7, 3**7 + 1, 5**5])
    def test_matches_scipy_at_base_powers(self, n):
        for seed in (0, 7):
            expected = qmc.Halton(d=5, scramble=True, seed=seed).random(n)
            assert np.array_equal(nm.halton(5, n, seed), expected), (n, seed)

    @pytest.mark.parametrize("seed", range(2026, 2030))
    def test_matches_scipy_at_certificate_shape(self, seed):
        # SampleDomain draws 5e4 Halton rows of width 8 for a 1e5-sample
        # certificate with nx = 3, nu = 2
        expected = qmc.Halton(d=8, scramble=True, seed=seed).random(50_000)
        assert np.array_equal(nm.halton(8, 50_000, seed), expected)

    def test_layout_matches_scipy(self):
        # reductions along a row sum in memory order, so the layout counts too
        assert nm.halton(5, 100, 0).strides == qmc.Halton(d=5, seed=0).random(100).strides


class TestCumulativeSimpson:
    @pytest.mark.parametrize("m", [3, 4, 5, 8, 101, 4099, 20001])
    def test_matches_scipy(self, m):
        rng = np.random.default_rng(m)
        y = rng.normal(size=m)
        for dx in (0.1, 1.0 / 3.0, math.pi / 4096):
            expected = cumulative_simpson(y, dx=dx, initial=0.0)
            assert np.array_equal(nm.cumulative_simpson(y, dx), expected)

    def test_signed_zero_matches_scipy(self):
        y = np.array([-0.0, -0.0, -0.0, -0.0])
        got = nm.cumulative_simpson(y, 0.5)
        assert np.array_equal(np.signbit(got),
                              np.signbit(cumulative_simpson(y, dx=0.5, initial=0.0)))

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 3"):
            nm.cumulative_simpson(np.ones(2), 0.1)


class TestCumulativeTrapezoid:
    @pytest.mark.parametrize("m", [2, 3, 1000])
    def test_matches_scipy_on_non_uniform_times(self, m):
        rng = np.random.default_rng(m)
        x = np.cumsum(rng.uniform(0.001, 0.5, m))
        y = rng.normal(size=m)
        assert np.array_equal(nm.cumulative_trapezoid(y, x),
                              cumulative_trapezoid(y, x, initial=0.0))


def _queries(x, rng):
    """Every knot and its neighbours, a uniform fill reaching past both ends
    (more queries than one evaluation chunk), and a NaN."""
    h = (x[-1] - x[0]) / (x.size - 1)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                           rng.uniform(x[0] - 5 * h, x[-1] + 5 * h, 2 * nm._CHUNK + 7),
                           [x[0] - 1e6, x[-1] + 1e6, np.nan]])


class TestCubicHermite:
    @pytest.fixture(params=["random", "even", "jittered", "two knots"])
    def knots(self, request):
        rng = np.random.default_rng(11)
        if request.param == "random":
            return np.sort(rng.uniform(-5.0, 5.0, 300))
        if request.param == "two knots":
            return np.array([0.25, 1.5])
        # even knots as window_table lays them out, and knots a tenth of a step off
        x = -1.0 + (1.0 / 4096) * np.arange(0, 4 * 1025, 4)
        if request.param == "jittered":
            x = x + rng.uniform(-0.1, 0.1, x.size) * (4.0 / 4096)
        return x

    def test_array_and_float_paths_match_scipy(self, knots):
        rng = np.random.default_rng(knots.size)
        y, dydx = rng.normal(size=(2, knots.size))
        expected_fn = CubicHermiteSpline(knots, y, dydx)
        table = nm.CubicHermite(knots, y, dydx)
        q = _queries(knots, rng)
        expected = expected_fn(q)
        assert np.array_equal(table(q), expected, equal_nan=True)
        assert np.array_equal(table(q.reshape(-1, 1)), expected.reshape(-1, 1),
                              equal_nan=True)
        points = [table(s) for s in q.tolist()]
        assert all(type(v) is float for v in points)
        assert np.array_equal(np.array(points), expected, equal_nan=True)

    def test_even_knots_take_the_guess(self, knots):
        table = nm.CubicHermite(knots, np.zeros(knots.size), np.zeros(knots.size))
        assert (table._per_step is None) == (knots.size == 300)

    def test_tables_on_shared_knots_match_each_alone(self, knots):
        rng = np.random.default_rng(3)
        tables = [nm.CubicHermite(knots, *rng.normal(size=(2, knots.size)))
                  for _ in range(2)]
        q = _queries(knots, rng)
        got = nm.hermite_values(tables, q)
        for table, values in zip(tables, got):
            assert np.array_equal(values, table(q), equal_nan=True)
        assert nm.hermite_values(tables, 0.5) == tuple(t(0.5) for t in tables)

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            nm.CubicHermite([0.0, 1.0], [0.0, np.inf], [0.0, 0.0])
