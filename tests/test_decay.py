import math

import numpy as np
import pytest

from strictlyap import decay
from strictlyap.config import rate_from_expr
from strictlyap.decay import DecayRate, PETriple
from strictlyap.exprparse import EvalDomainError

PI = math.pi

SIN2 = rate_from_expr("sin(t)^2", period=PI)
ONE = rate_from_expr("1", period=1.0)
# aperiodic rate with arbitrarily long null stretches; oracle values frozen
# from a 1e6-node Simpson scan over [0, 8 pi] (window) and [-2 pi, 8 pi] (max)
SIN3 = rate_from_expr("(1 + exp(-t))*max(0, sin(t))^3")
SIN3_EPS = 1.333333335371483
SIN3_PBAR = 131.97278714792367
# aperiodic: the two frequencies are incommensurate
MIXED = rate_from_expr("1 + sin(t)^2 + 0.5*sin(sqrt(2)*t)^2")


def counting(rate):
    """The rate as a new DecayRate, and a one-item list counting its nodes."""
    nodes = [0]

    def fn(t):
        nodes[0] += int(np.size(t))
        return rate.fn(t)

    return DecayRate(fn, rate.period), nodes


class TestEstimatePE:
    def test_sin_squared(self):
        est = decay.estimate_pe(SIN2, PI)
        assert est.epsilon == pytest.approx(PI / 2, abs=1e-6)
        assert est.pbar == pytest.approx(1.0, abs=1e-9)
        assert not est.horizon_limited

    def test_constant(self):
        est = decay.estimate_pe(ONE, 1.0)
        assert est.epsilon == pytest.approx(1.0, abs=1e-9)
        assert est.pbar == pytest.approx(1.0, abs=1e-12)

    def test_decaying_sin_cubed_matches_oracle(self):
        est = decay.estimate_pe(SIN3, 2 * PI, horizon=8 * PI)
        assert est.epsilon == pytest.approx(SIN3_EPS, abs=1e-6)
        assert est.pbar == pytest.approx(SIN3_PBAR, abs=1e-6)
        assert est.horizon_limited

    def test_certified_margins(self):
        est = decay.estimate_pe(SIN2, PI)
        assert est.epsilon_certified == pytest.approx(0.99 * est.epsilon, rel=1e-12)
        assert est.pbar_certified == pytest.approx(1.01 * est.pbar, rel=1e-12)
        assert est.epsilon_certified < est.epsilon
        assert est.pbar_certified > est.pbar

    def test_not_persistently_exciting(self):
        # window of length 1/2 fits inside the null stretch (pi, 2 pi)
        with pytest.raises(decay.NotPersistentlyExcitingError):
            decay.estimate_pe(rate_from_expr("max(0, sin(t))^3", period=2 * PI), 0.5)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            decay.estimate_pe(SIN2, -1.0)
        with pytest.raises(ValueError):
            decay.estimate_pe(SIN2, 2.0, horizon=1.0)


class TestXi:
    def test_constant_rate_closed_form(self):
        for tau in (0.5, 1.0, 2.5):
            for t in (0.0, 1.3, 7.7):
                assert decay.xi(ONE, tau, t) == pytest.approx(tau ** 2 / 2, abs=1e-10)

    def test_sin_squared_closed_form_t0(self):
        assert decay.xi(SIN2, PI, 0.0) == pytest.approx(PI ** 2 / 4, abs=1e-9)

    def test_sin_squared_closed_form_quarter(self):
        assert decay.xi(SIN2, PI, PI / 4) == pytest.approx((PI / 4) * (PI - 1), abs=1e-9)

    def test_fubini_identity_nested_vs_single(self):
        for t in (0.0, 0.9, 2.2):
            single = decay.xi(SIN2, PI, t)
            nested = decay.xi_nested(SIN2, PI, t, n=512)
            assert single == pytest.approx(nested, abs=1e-8)

    def test_vectorized_matches_scalar(self):
        # negative times fold into the period
        ts = np.concatenate([np.linspace(0.0, 6.0, 13), [-7.0, -PI / 2, -0.1]])
        vec = decay.xi_vec(SIN2, PI, ts)
        for t, v in zip(ts, vec):
            assert v == pytest.approx(decay.xi(SIN2, PI, float(t)), abs=1e-12)
        zero_d = decay.xi_vec(MIXED, 2.0, 1.5)
        assert np.shape(zero_d) == ()
        assert float(zero_d) == pytest.approx(decay.xi(MIXED, 2.0, 1.5), abs=1e-12)

    def test_xi_window_bounds_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.uniform(0.0, 1.0)
            b = rng.uniform(0.2, 2.0)
            om = rng.uniform(0.5, 3.0)
            period = 2 * PI / om
            p = DecayRate(lambda t, a=a, b=b, om=om: a + b * np.sin(om * np.asarray(t)) ** 2,
                          period=period)
            tau = period
            est = decay.estimate_pe(p, tau)
            ts = rng.uniform(0.0, 20.0, 200)
            xs = decay.xi_vec(p, tau, ts)
            assert float(xs.min()) >= -1e-9
            assert float(xs.max()) <= tau ** 2 * est.pbar / 2 + 1e-9


class TestUnderlineP:
    def test_constant(self):
        assert decay.underline_p(ONE, 3.7) == pytest.approx(3.7, abs=1e-9)

    def test_sin_squared_window(self):
        assert decay.underline_p(SIN2, PI) == pytest.approx(PI / 2, abs=1e-9)

    def test_zero_h(self):
        assert decay.underline_p(SIN2, 0.0) == 0.0
        assert decay.underline_p(SIN3, 0.0) == 0.0

    def test_nondecreasing_ladder(self):
        hs = np.arange(0.0, 20.5, 0.5)
        vals = [decay.underline_p(SIN2, float(h), n_grid=128) for h in hs]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_accumulates_epsilon_per_window(self):
        est = decay.estimate_pe(SIN2, PI)
        for k in range(1, 6):
            val = decay.underline_p(SIN2, k * PI)
            assert val >= k * est.epsilon - 1e-6


class TestDecayRate:
    def test_periodic_fold_negative_times(self):
        assert SIN2(-1.0) == pytest.approx(math.sin(-1.0) ** 2, abs=1e-12)
        ts = np.array([-PI / 2, -0.1, 0.3])
        got = SIN2(ts)
        assert np.allclose(got, np.sin(ts) ** 2)

    def test_natural_extension_when_aperiodic(self):
        assert SIN3(-3 * PI / 2) == pytest.approx((1 + math.exp(3 * PI / 2)), rel=1e-12)

    def test_aperiodic_failure_at_negative_t_propagates(self):
        # an aperiodic rate is evaluated as given: no p(0) fallback
        p = DecayRate(lambda t: math.sqrt(t) if not isinstance(t, np.ndarray) else np.sqrt(t))
        with pytest.raises(ValueError, match="math domain error"):
            p(-4.0)
        assert p(4.0) == 2.0
        expr = rate_from_expr("sqrt(t)")
        with pytest.raises(EvalDomainError):
            expr(-4.0)
        with np.errstate(invalid="ignore"):
            assert np.isnan(expr(np.array([-4.0]))).all()

    def test_with_pe_attaches_triple(self):
        p = SIN2.with_pe(PETriple(PI, PI / 2, 1.0))
        ok, worst = decay.check_pe(p)
        assert ok and worst >= -1e-9

    def test_check_pe_flags_wrong_triple(self):
        p = SIN2.with_pe(PETriple(PI, 2.0, 1.0))  # epsilon too large
        ok, worst = decay.check_pe(p)
        assert not ok and worst < -0.4

    def test_check_pe_fails_on_a_nan_rate_sample(self):
        # NaN at one of the 1600 rate nodes only: the window grid misses it,
        # and min(finite, nan) would have returned the finite margin
        node = np.linspace(-1.0, 20.0, 1600)[777]
        p = DecayRate(lambda t: np.where(t == node, np.nan, 1.0),
                      pe=PETriple(1.0, 0.5, 2.0))
        ok, worst = decay.check_pe(p)
        assert not ok and math.isnan(worst)
        # without the NaN the triple holds
        assert decay.check_pe(DecayRate(lambda t: 1.0, pe=PETriple(1.0, 0.5, 2.0))) == (True, 0.5)


def test_simpson_polynomial_exact():
    # Simpson is exact through cubics
    val = decay.simpson(lambda x: x ** 3 - 2 * x + 1, 0.0, 2.0, n=8)
    assert val == pytest.approx(2.0, abs=1e-13)


def test_window_integral_vec_matches_scalar():
    ts = np.concatenate([np.linspace(0.0, 5.0, 11), [-7.0, -PI / 2, -0.1]])
    vec = decay.window_integral_vec(SIN2, PI, ts)
    for t, v in zip(ts, vec):
        assert v == pytest.approx(decay.window_integral(SIN2, PI, float(t)), abs=1e-12)
    zero_d = decay.window_integral_vec(MIXED, 2.0, 1.5)
    assert np.shape(zero_d) == ()
    assert float(zero_d) == pytest.approx(decay.window_integral(MIXED, 2.0, 1.5), abs=1e-12)


class TestWindowTable:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_query_time_named(self, bad):
        with pytest.raises(ValueError, match=f"query time is not finite: t={bad!r}"):
            decay.xi_vec(SIN2, 1.0, [0.0, bad])
        with pytest.raises(ValueError, match="query time is not finite"):
            decay.window_integral_vec(SIN2, 1.0, np.array([[0.0, 2.0], [-bad, bad]]))

    def test_rigid_body_closed_form_dense(self):
        ts = np.linspace(0.0, 4 * PI, 20001)
        closed = (PI / 4) * (PI - np.sin(2 * ts))
        W, X = decay.window_table(SIN2, PI, 0.0, 4 * PI)
        assert np.abs(X(ts) - closed).max() <= 1e-12
        assert np.abs(W(ts) - PI / 2).max() <= 1e-12
        # periodic rates fold the times into one period
        assert np.abs(decay.xi_vec(SIN2, PI, ts) - closed).max() <= 1e-12

    def test_matches_nested_oracle_up_to_20_tau(self):
        # D = int C grows like t^2: this bounds its cancellation at 20 tau
        ts = np.linspace(0.0, 40.0, 41)
        got = decay.xi_vec(MIXED, 2.0, ts)
        nested = [decay.xi_nested(MIXED, 2.0, float(t), n=512) for t in ts]
        assert np.abs(got - nested).max() <= 1e-10

    def test_single_node_span(self):
        W, X = decay.window_table(MIXED, 2.0, 3.0, 3.0)
        assert float(W(3.0)) == pytest.approx(decay.window_integral(MIXED, 2.0, 3.0), abs=1e-12)
        assert float(X(3.0)) == pytest.approx(decay.xi(MIXED, 2.0, 3.0), abs=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_rate_named(self):
        with pytest.raises(decay.NotPersistentlyExcitingError, match=r"not finite at t=-1\.0"):
            decay.estimate_pe(rate_from_expr("sqrt(t)"), 1.0)
        with pytest.raises(decay.NotPersistentlyExcitingError, match=r"not finite at t=2\.0"):
            decay.window_table(rate_from_expr("1/(t - 2)"), 1.0, 2.0, 5.0)

    def test_non_finite_maximum_rejected(self):
        # finite on every grid, infinite at the scalar polish of the maximum
        p = DecayRate(lambda t: np.ones_like(t) if isinstance(t, np.ndarray) else math.inf)
        with pytest.raises(decay.NotPersistentlyExcitingError, match="maximum"):
            decay.estimate_pe(p, 1.0)

    def test_pe_triple_rejects_non_finite(self):
        for eps, pbar in ((math.nan, 1.0), (1.0, math.inf), (math.inf, 1.0)):
            with pytest.raises(ValueError):
                PETriple(1.0, eps, pbar)

    def test_sparse_underline_p_node_budget(self):
        """Isolated windows: at most 2x the nodes of one (n+1)-node window
        per grid time, next to the same scalar polish."""
        n, n_grid, h = decay.SIMPSON_SUBINTERVALS, 512, 1e-6
        p, nodes = counting(MIXED)
        decay.underline_p(p, h)
        total = nodes[0]
        nodes[0] = 0
        decay.window_integral_vec(p, h, np.linspace(0.0, 20.0, n_grid) + h)
        polish = total - nodes[0]
        assert total <= 2 * (n_grid * (n + 1) + polish)

    def test_sparse_xi_vec_node_budget(self):
        """Each isolated window costs 2n + 3 nodes: twice the n + 1 of the
        single-window Simpson sum, plus the second knot of its table."""
        n = decay.SIMPSON_SUBINTERVALS
        p, nodes = counting(MIXED)
        decay.xi_vec(p, 2.0, np.linspace(0.0, 200.0, 13))
        assert nodes[0] <= 13 * (2 * (n + 1) + 1)
