"""The routines of strictlyap._numerics equal scipy's bit for bit.

Every array case compares with ``np.array_equal`` (NaN positions with
``equal_nan``), and the minimizer's ``x`` and ``fun`` with ``==``, so a
reordered floating-point operation fails here before it moves any output
digest.
"""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, cumulative_trapezoid
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import minimize_scalar
from scipy.stats import qmc

from strictlyap import _numerics as nm
from strictlyap import decay


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
    # odd and even lengths: an even one ends on a step of its own, the last
    # triple's second step
    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8, 100, 101, 4098, 4099, 8193,
                                   20001, 20481, 20482])
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

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            nm.CubicHermite([0.0, 1.0], [0.0, np.inf], [0.0, 0.0])


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _minimize_bounded(fn, lo, hi, xatol):
    """`minimize_brackets` on the one bracket (lo, hi), fn read at a point at a time."""
    return nm.minimize_brackets(lambda xs: [fn(x) for x in xs], [(lo, hi)], xatol)[0]


def _assert_matches_scipy(fn, lo, hi, xatol=1.0e-11):
    r = minimize_scalar(fn, bounds=(lo, hi), method="bounded",
                        options={"xatol": xatol})
    x, fun = _minimize_bounded(fn, lo, hi, xatol)
    assert type(x) is float
    assert _same(fun, float(r.fun)) and _same(x, float(r.x)), (lo, hi, x, fun, r.x, r.fun)
    return x, fun


class TestMinimizeBounded:
    @pytest.fixture
    def pinned(self, monkeypatch):
        """Compare every bracket decay polishes in lockstep with scipy."""
        calls = []
        lockstep = nm.minimize_brackets

        def compare(fn, brackets, xatol):
            found = lockstep(fn, brackets, xatol)
            for (lo, hi), got in zip(brackets, found):
                calls.append((lo, hi))
                want = _assert_matches_scipy(lambda x: fn([x])[0], lo, hi, xatol)
                assert all(map(_same, got, want)), (lo, hi, got, want)
            return found

        monkeypatch.setattr(decay, "minimize_brackets", compare)
        return calls

    @pytest.mark.parametrize("name", ["rigid-body", "counterexample-elw", "scalar-linear"])
    def test_fixture_pe_estimates_match_scipy(self, name, pinned):
        # the window-integral and -p objectives of estimate_pe, at the brackets
        # it polishes
        from strictlyap.fixtures import get_fixture

        problem = get_fixture(name)
        decay.estimate_pe(problem.rate, problem.tau)
        assert len(pinned) == 6

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sweep_pe_estimates_match_scipy(self, seed, pinned, sweep_problems):
        problems = sweep_problems(seed)
        assert len(problems) == 12
        for problem in problems:
            decay.estimate_pe(problem.rate, problem.tau)
        assert len(pinned) == 6 * len(problems)

    def test_underline_p_matches_scipy(self, pinned):
        from strictlyap.fixtures import get_fixture

        rate = get_fixture("rigid-body").rate
        for h in (0.5, math.pi, 7.0):
            decay.underline_p(rate, h)
        assert len(pinned) == 9

    def test_random_objectives_and_intervals(self):
        rng = np.random.default_rng(17)
        fns = [lambda x: math.sin(3.0 * x) + 0.1 * x * x, lambda x: abs(x - 0.3),
               lambda x: (x - 0.7) ** 4, lambda x: -math.exp(-x * x),
               lambda x: math.floor(10.0 * x)]
        for k in range(500):
            lo = float(rng.uniform(-2.0, 2.0))
            hi = lo + 10.0 ** float(rng.uniform(-6.0, 1.0))
            _assert_matches_scipy(fns[k % len(fns)], lo, hi,
                                  (1.0e-11, 1.0e-8, 1.0e-5)[k % 3])

    def test_constant_objective(self):
        x, fun = _assert_matches_scipy(lambda x: 2.5, -1.0, 3.0)
        assert fun == 2.5 and -1.0 <= x <= 3.0

    def test_nan_on_part_of_the_interval(self):
        # a NaN value never replaces the best point, so a NaN at the first
        # point (the golden section, 0.38) is what comes back
        for cut in (0.5, 0.9):
            x, fun = _assert_matches_scipy(
                lambda x, cut=cut: math.nan if x > cut else (x - 0.2) ** 2, 0.0, 1.0)
            assert x <= cut and not math.isnan(fun)
        x, fun = _assert_matches_scipy(
            lambda x: math.nan if x > 0.1 else (x - 0.05) ** 2, 0.0, 1.0)
        assert math.isnan(fun)

    def test_interval_shorter_than_xatol(self):
        x, _ = _assert_matches_scipy(lambda x: (x - 1.0) ** 2, 1.0, 1.0 + 1.0e-13)
        assert 1.0 <= x <= 1.0 + 1.0e-13
        x, _ = _assert_matches_scipy(lambda x: x, 0.5, 0.5)
        assert x == 0.5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_maximum_evaluations(self):
        # golden sections shrinking 1e300 down to 1e-11 need over 1400 steps;
        # both stop after 500 evaluations (scipy's parabola fit overflows on
        # numpy scalars, and warns)
        count = []
        _assert_matches_scipy(lambda x: count.append(x) or x, 0.0, 1.0e300)
        assert len(count) == 2 * 500

    @pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_bad_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="bounds"):
            _minimize_bounded(lambda x: x, lo, hi, 1.0e-11)
