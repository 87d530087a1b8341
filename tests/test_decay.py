import gc
import math
import re
import warnings
import weakref

import numpy as np
import pytest

from strictlyap import decay
from strictlyap.config import rate_from_expr
from strictlyap.decay import DecayRate, PETriple

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
# most rate nodes of one block: the window tau before it on a grid of step
# tau/(2n), n = SIMPSON_SUBINTERVALS, and one more even step past its end
BLOCK_NODES = 2 * (decay.BLOCK_WINDOWS + 1) * decay.SIMPSON_SUBINTERVALS + 3


def counting(rate):
    """The rate as a new DecayRate, and a one-item list counting its nodes."""
    nodes = [0]

    def fn(t):
        nodes[0] += int(np.size(t))
        return rate.fn(t)

    return DecayRate(fn, rate.period), nodes


def recording(monkeypatch):
    """A list that records (t_lo, t_hi) of each window_table call."""
    calls = []
    window_table = decay.window_table

    def record(p, tau, t_lo, t_hi):
        calls.append((t_lo, t_hi))
        return window_table(p, tau, t_lo, t_hi)

    monkeypatch.setattr(decay, "window_table", record)
    return calls


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
        # negative times fold into the period; with tau = 0.5 the period
        # spans two blocks of tables
        ts = np.concatenate([np.linspace(0.0, 6.0, 13), [-7.0, -PI / 2, -0.1]])
        for tau in (PI, 0.5):
            vec = decay.xi_vec(SIN2, tau, ts)
            for t, v in zip(ts, vec):
                assert v == pytest.approx(decay.xi(SIN2, tau, float(t)), abs=1e-12)
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

    def test_horizon_that_overflows_names_h(self):
        # 20 max(h, 1) overflows for an aperiodic rate
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(decay.NotPersistentlyExcitingError, match=r"tau=1e\+307$"):
                decay.underline_p(rate_from_expr("1"), 1e307)


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
        # a compiled rate gives at a float what its batch row gives: nan
        expr = rate_from_expr("sqrt(t)")
        assert math.isnan(expr(-4.0))
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

    def test_windows_keeps_the_last_window_and_with_pe_shares_it(self):
        p = DecayRate(MIXED.fn)
        look = p.windows(2.0)
        assert p.windows(2.0) is look
        q = p.with_pe(PETriple(2.0, 1.0, 3.0))
        assert q.windows(2.0) is look
        other = p.windows(1.0)
        assert other is not look and p.windows(1.0) is other and q.windows(2.0) is look
        # the lookup is no setting: not a constructor argument, and not part
        # of equality or hash; it holds a bare copy of the rate, not the rate
        assert p == DecayRate(MIXED.fn) and hash(p) == hash(DecayRate(MIXED.fn))
        assert look.rate == p and look.rate is not p
        with pytest.raises(TypeError):
            DecayRate(MIXED.fn, _windows=look)

    def test_rate_and_its_with_pe_copy_are_freed_without_the_cycle_collector(self):
        gc.collect()
        gc.disable()
        try:
            p = DecayRate(MIXED.fn)
            q = p.with_pe(decay.estimate_pe(p, 2.0).triple(certified=True))
            assert q.windows(2.0) is p.windows(2.0)
            refs = [weakref.ref(obj) for obj in (p, q, p.windows(2.0))]
            del p, q
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()

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
        # periodic and aperiodic rates, batch and float queries alike
        for rate in (SIN2, MIXED):
            with pytest.raises(ValueError, match=f"query time is not finite: t={bad!r}"):
                decay.xi_vec(rate, 1.0, [0.0, bad])
            with pytest.raises(ValueError, match="query time is not finite"):
                decay.window_integral_vec(rate, 1.0, np.array([[0.0, 2.0], [-bad, bad]]))
            with pytest.raises(ValueError, match=f"query time is not finite: t={bad!r}"):
                decay.xi_vec(rate, 1.0, bad)

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

    # a periodic rate is evaluated at its grid times folded into one period,
    # and the time named is the folded one, where the pole is
    @pytest.mark.parametrize("text, t", [("1/(t - 0.5)^2", "0.5"), ("log(t)", "0.0")])
    def test_non_finite_periodic_rate_named_at_the_folded_time(self, text, t):
        with pytest.raises(decay.NotPersistentlyExcitingError,
                           match=rf"^rate is not finite at t={re.escape(t)}$"):
            decay.estimate_pe(rate_from_expr(text, period=1.0), 1.0)

    def test_window_integral_too_small_has_its_own_class(self):
        with pytest.raises(decay.WindowIntegralTooSmallError, match="window integral"):
            decay.estimate_pe(rate_from_expr("max(0, sin(t))", period=2 * math.pi), 1.0)
        with pytest.raises(decay.NotPersistentlyExcitingError) as info:
            decay.estimate_pe(rate_from_expr("1/t"), 1.0)
        assert not isinstance(info.value, decay.WindowIntegralTooSmallError)

    def test_non_finite_maximum_rejected(self):
        # finite on every grid, infinite at the scalar polish of the maximum
        p = DecayRate(lambda t: np.ones_like(t) if isinstance(t, np.ndarray) else math.inf)
        with pytest.raises(decay.NotPersistentlyExcitingError, match="maximum"):
            decay.estimate_pe(p, 1.0)

    @pytest.mark.parametrize("expr, tau", [
        ("1", 1e160), ("1", 1e-310), ("1", 1e-320), ("1e308", 1.0)])
    @pytest.mark.parametrize("period", [1.0, None])
    def test_tables_that_overflow_name_tau(self, expr, tau, period):
        """Tables too large, or a window too short for a grid, raise the
        validation failure naming tau, with no RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(decay.NotPersistentlyExcitingError, match=re.escape(f"tau={tau!r}") + "$"):
                decay.estimate_pe(rate_from_expr(expr, period=period), tau)

    def test_largest_finite_tables_are_kept(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = decay.estimate_pe(rate_from_expr("1e307", period=1.0), 1.0)
        assert est.epsilon == pytest.approx(1e307, rel=1e-12)

    def test_pe_triple_rejects_non_finite(self):
        for eps, pbar in ((math.nan, 1.0), (1.0, math.inf), (math.inf, 1.0)):
            with pytest.raises(ValueError):
                PETriple(1.0, eps, pbar)

    def test_sparse_underline_p_builds_one_block_per_time(self, monkeypatch):
        """Isolated windows: one whole block per grid time, and the polish
        reads the same lookup, which builds a block whole and only when it
        is not kept."""
        n_grid, h = 64, 1e-6
        calls = recording(monkeypatch)
        decay.underline_p(MIXED, h, n_grid=n_grid)
        ts = np.linspace(0.0, 20.0, n_grid) + h
        span = decay.BLOCK_WINDOWS * h
        k = np.floor(ts / span)
        assert np.unique(k).size == n_grid
        assert calls[:n_grid] == [(lo, lo + span) for lo in (k * span).tolist()]
        assert len(calls) > n_grid
        for i, (lo, hi) in enumerate(calls):
            assert lo == round(lo / span) * span and hi == lo + span
            # the lookup keeps the MAX_BLOCKS blocks built last
            assert (lo, hi) not in calls[max(0, i - decay.MAX_BLOCKS):i]

    def test_sparse_xi_vec_builds_one_block_per_time(self):
        """Each isolated time builds the whole block it falls in, once."""
        p, nodes = counting(MIXED)
        ts = np.linspace(0.0, 200.0, 13)
        decay.xi_vec(p, 2.0, ts)
        # L = 8 and h = tau/2n = 1/2048 are exact: a whole block is
        # 2n + L/h + 1 = 10n + 1 rate nodes
        assert nodes[0] == ts.size * (10 * decay.SIMPSON_SUBINTERVALS + 1)
        nodes[0] = 0
        decay.xi_vec(p, 2.0, ts[-decay.MAX_BLOCKS:])
        assert nodes[0] == 0

    @pytest.mark.parametrize("rate, tau", [(MIXED, 2.0), (SIN2, 0.3), (SIN3, 1.0)])
    def test_blocks_built_as_prefixes_equal_whole_blocks(self, rate, tau):
        """Values read time by time, in any order, or in batches of any size,
        equal those of a lookup whose blocks were all built first, bit for
        bit, on float and array reads."""
        span = decay.BLOCK_WINDOWS * tau
        rng = np.random.default_rng(22)
        inside = span * np.array([0.0, 1e-9, 0.1, 0.37, 0.5, 0.81, 0.999999])
        knots = decay.window_table(rate, tau, 0.0, span)[0].knots
        times = np.concatenate([inside, inside + span, knots[::512],
                                knots[512::512] - 1e-12, rng.uniform(0.0, 3.0 * span, 40)])
        whole = decay.WindowTables(rate, tau)
        for k in range(3):
            whole.block(k)
        W, X = whole(times)
        ascending = np.sort(times)
        for order in [ascending, ascending[::-1], rng.permutation(times)]:
            look, single = decay.WindowTables(rate, tau), decay.WindowTables(rate, tau)
            for t in order.tolist():
                assert look(t) == whole(t), t
                assert single(np.array([t]))[0] == whole(t)[0], t
        for size in (5, 17, times.size):
            look = decay.WindowTables(rate, tau)
            for a in range(0, times.size, size):
                for col, vals in zip(look(times[a:a + size]), (W, X)):
                    assert np.array_equal(col, vals[a:a + size])

    def test_blocks_are_built_once_and_bounded(self):
        # a lookup builds a block on first use and keeps the last MAX_BLOCKS
        p, nodes = counting(MIXED)
        windows = decay.WindowTables(p, 2.0)
        ts = windows.span * (np.arange(decay.MAX_BLOCKS + 2) + 0.5)
        first = windows(ts)
        assert nodes[0] <= ts.size * BLOCK_NODES
        assert len(windows.blocks) == decay.MAX_BLOCKS
        nodes[0] = 0
        again = windows(ts[2:])
        assert nodes[0] == 0
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a[2:], b)


@pytest.fixture
def without_single_windows(monkeypatch):
    """decay's single-window Simpson sums, made to raise when called."""
    def refuse(*args, **kwargs):
        raise AssertionError("a single-window Simpson sum was called")

    for name in ("simpson", "window_integral", "xi"):
        monkeypatch.setattr(decay, name, refuse)


def test_no_path_takes_a_single_window_sum(without_single_windows, sweep_problems,
                                           tmp_path, capsys):
    """W, xi and the PE constants come from window tables alone."""
    from strictlyap import cli
    from strictlyap.fixtures import rigid_body

    problems = sweep_problems(0) + [rigid_body()]
    for problem in problems:
        rate, tau = problem.rate, problem.tau
        est = decay.estimate_pe(rate, tau)
        assert decay.underline_p(rate, tau) > 0.0
        assert decay.check_pe(rate.with_pe(est.triple(certified=True)))[0]
    configs = [["--config", str(ini)] for ini in sorted(tmp_path.glob("sweep-0-*.ini"))]
    assert len(configs) == len(problems) - 1
    for source in configs + [["--example", "rigid-body"]]:
        assert cli.main(["pe", *source, "--out", str(tmp_path / "out")]) == 0
        assert cli.main(["strictify", *source]) == 0
    assert "epsilon (raw): 1.5707963267948961" in capsys.readouterr().out


def test_each_table_is_built_once(monkeypatch, sweep_problems, tmp_path, capsys):
    """strictify --config builds a periodic rate's one-period table once, and
    an aperiodic rate's blocks 0 to 5 (estimate_pe's grid on [0, 20 tau])
    once each, as the certificate reads estimate_pe's lookup; pe --out
    writes pe_window.csv from estimate_pe's table."""
    from strictlyap import cli

    calls = recording(monkeypatch)
    for i, problem in enumerate(sweep_problems(0)):
        calls.clear()
        args = ["--config", str(tmp_path / f"sweep-0-{i}.ini"), "--out", str(tmp_path / "out")]
        assert cli.main(["strictify", *args]) == 0
        assert len(calls) == (1 if problem.rate.period is not None else 6)
        assert len({lo for lo, _ in calls}) == len(calls)
    calls.clear()
    assert cli.main(["pe", "--example", "rigid-body", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_every_block_is_built_to_its_end(monkeypatch, sweep_problems, tmp_path, capsys):
    """pe --out and strictify --out on the sweep INIs build no partial
    block: each window_table call spans [kL, min((k+1)L, period)], and
    each block a lookup keeps ends at that end, within one knot."""
    from strictlyap import cli

    spans, looks = [], []
    window_table, init = decay.window_table, decay.WindowTables.__init__

    def record(p, tau, t_lo, t_hi):
        spans.append((p.period, tau, t_lo, t_hi))
        return window_table(p, tau, t_lo, t_hi)

    def keep(self, p, tau):
        init(self, p, tau)
        looks.append(self)

    monkeypatch.setattr(decay, "window_table", record)
    monkeypatch.setattr(decay.WindowTables, "__init__", keep)
    for i, _ in enumerate(sweep_problems(0)):
        for command in ("pe", "strictify"):
            args = ["--config", str(tmp_path / f"sweep-0-{i}.ini"), "--out", str(tmp_path / "out")]
            assert cli.main([command, *args]) == 0
    assert spans and looks

    def block_end(period, tau, lo):
        end = lo + decay.BLOCK_WINDOWS * tau
        return end if period is None else min(end, period)

    for period, tau, lo, hi in spans:
        span = decay.BLOCK_WINDOWS * tau
        assert lo == round(lo / span) * span and hi == block_end(period, tau, lo)
    for look in looks:
        step = look.tau / decay.SIMPSON_SUBINTERVALS      # one knot
        for k, (W, X) in look.blocks.items():
            end = block_end(look.period, look.tau, k * look.span)
            assert np.array_equal(W.knots, X.knots)
            assert end - 1e-9 * step <= W.knots[-1] <= end + step


@pytest.mark.parametrize("seed", [0, 1])
def test_certificate_reads_what_a_fresh_lookup_reads(sweep_problems, seed):
    """The certificate reads the lookup estimate_pe built, and its W and xi
    equal those of a new lookup, bit for bit, on the xi.csv grid and at each
    report's worst time."""
    from strictlyap.config import strictify_problem

    for problem in sweep_problems(seed):
        tau = problem.tau
        problem.rate = problem.rate.with_pe(
            decay.estimate_pe(problem.rate, tau).triple(certified=True))
        cert = strictify_problem(problem)
        assert cert._windows is problem.rate.windows(tau)
        worst = [float(r.worst_point[0]) for r in cert.validation.reports]
        ts = np.concatenate([np.linspace(0.0, problem.domain.t_range[1], 513), worst])
        fresh = decay.WindowTables(problem.rate, tau)
        assert np.array_equal(cert.window_fn(ts), fresh.column(0, ts))
        assert np.array_equal(cert.xi_fn(ts), fresh.column(1, ts))
        for t in worst:
            assert (cert.window_fn(t), cert.xi_fn(t)) == fresh(t)


def _simpson_polished_epsilon(p, tau):
    """estimate_pe's epsilon with each grid minimum polished on fresh
    single-window Simpson sums: the oracle of the table polish."""
    horizon = p.period + tau if p.period is not None else 20.0 * tau
    ts = np.linspace(0.0, horizon, 512)
    return decay._refine_min(lambda t: decay.window_integral(p, tau, t), ts,
                             decay.window_integral_vec(p, tau, ts))


@pytest.mark.parametrize("seed", [0, 1])
def test_epsilon_matches_the_simpson_polish(sweep_problems, seed):
    from strictlyap.fixtures import FIXTURES, get_fixture

    problems = sweep_problems(seed)
    if seed == 0:
        problems += [get_fixture(name) for name in FIXTURES]
    for problem in problems:
        eps = decay.estimate_pe(problem.rate, problem.tau).epsilon
        oracle = _simpson_polished_epsilon(problem.rate, problem.tau)
        assert eps == pytest.approx(oracle, rel=1e-11, abs=0.0)
