import gc
import math
import weakref

import numpy as np
import pytest

from strictlyap import strictify as st
from strictlyap import verify
from strictlyap.config import (candidate_from_exprs, field_from_exprs,
                               rate_from_expr, strictify_problem)
from strictlyap.decay import PETriple
from strictlyap.fixtures import counterexample_elw, rigid_body, scalar_linear
from strictlyap.funcalc import gain_from_expr, identity_gain
from strictlyap.verify import SampleDomain

PI = math.pi


def _aperiodic_certificate():
    """A strict-DIS certificate whose rate declares no period."""
    system = field_from_exprs(["-x1 + 0.5*u1"], 1, 1)
    candidate = candidate_from_exprs("0.5*x1^2", 1, "0.5*s^2", "0.5*s^2", "s")
    rate = rate_from_expr("1 + 0.5*sin(t)^2", pe=PETriple(1.0, 1.0, 1.5))
    return st.strictify_disp(candidate, system, rate, mu_tilde=identity_gain(),
                             omega=gain_from_expr("0.5*s^2"), factor=0.125,
                             domain=SampleDomain((0.0, 3.0), 4.0, 1.0),
                             n_samples=400, seed=4)


def test_default_box_that_overflows_raises():
    # max(P, tau) + tau is inf for tau = 1e308: no route may sample t = inf
    sl = scalar_linear()
    rate = rate_from_expr("1", period=1.0, pe=PETriple(1.0e308, 1.0e308, 1.0))
    assert st.default_t_range(sl.candidate, sl.system, rate, 1.0e308) == (0.0, math.inf)
    with pytest.raises(ValueError, match=r"^t_range must be finite, got \(0.0, inf\)$"):
        st.default_domain(sl.candidate, sl.system, rate, 1.0e308)
    with pytest.raises(ValueError, match="t_range must be finite"):
        st.strictify_issp(sl.candidate, sl.system, rate, chi=sl.chi, mu=sl.mu, n_samples=200)


class TestBuildAlpha2Tilde:
    def test_identity_gains_pi(self):
        g = st.build_alpha2_tilde(identity_gain(), identity_gain(), PI, 1.0)
        for s in (0.0, 1.0, 2.5):
            assert float(g(s)) == pytest.approx(3 * PI / 2 * s, abs=1e-12)

    def test_identity_gains_unit(self):
        g = st.build_alpha2_tilde(identity_gain(), identity_gain(), 1.0, 1.0)
        assert float(g(2.0)) == pytest.approx(6.0, abs=1e-12)

    def test_mixed_gains(self):
        g = st.build_alpha2_tilde(gain_from_expr("s^2"), identity_gain(), 1.0, 1.0)
        # max{1/2, 1} * (4 + 2 + 2) at s = 2
        assert float(g(2.0)) == pytest.approx(8.0, abs=1e-12)

    def test_derivative_chain(self):
        g = st.build_alpha2_tilde(gain_from_expr("s^2"), gain_from_expr("s"), 2.0, 3.0)
        c = max(2.0 * 3.0 / 2.0, 1.0)
        assert float(g.deriv(1.5)) == pytest.approx(c * (2 * 1.5 + 1 + 1), abs=1e-9)

    def test_bad_constants(self):
        with pytest.raises(ValueError):
            st.build_alpha2_tilde(identity_gain(), identity_gain(), -1.0, 1.0)


class TestBuildW:
    def test_example_factor_accepted(self):
        w = st.build_w(identity_gain(), PI, 1.0, factor=0.125)
        assert float(w(1.0)) == pytest.approx(1.0 / (8 * PI), abs=1e-12)
        # slope 1/(8 pi) ~ 0.0398 below the bound 1/(2 pi^2) ~ 0.0507
        assert float(w.deriv(3.0)) < 1.0 / (2 * PI ** 2)

    def test_quarter_factor_rejected_for_direct_identity(self):
        # slope 1/(4 pi) ~ 0.0796 exceeds 1/(2 pi^2) ~ 0.0507
        with pytest.raises(st.SlopeBoundViolatedError):
            st.build_w(identity_gain(), PI, 1.0, factor=0.25)

    def test_slope_messages_print_floats(self):
        with pytest.raises(st.SlopeBoundViolatedError) as info:
            st.build_w(identity_gain(), PI, 1.0, factor=0.25)
        assert str(info.value) == (
            "w'(0.0) = 0.07957747154594767 exceeds 1/(2 tau^2 pbar) = "
            "0.05066059182116889; retry with factor < 0.159155")
        with pytest.raises(st.SlopeBoundViolatedError) as info:
            st.build_w(gain_from_expr("-s"), 1.0, 1.0, factor=0.25)
        assert str(info.value) == "w'(0.0) = -0.25 is negative"

    def test_quarter_factor_accepted_through_alpha2_tilde(self):
        from strictlyap.funcalc import compose, inverse_gain
        a2t = st.build_alpha2_tilde(identity_gain(), identity_gain(), 1.0, 1.0)
        mu_tilde = compose(identity_gain(), inverse_gain(a2t))
        w = st.build_w(mu_tilde, 1.0, 1.0, factor=0.25)
        # alpha2_tilde = 3s so w(s) = s/12, slope 1/12 <= 1/2
        assert float(w(12.0)) == pytest.approx(1.0, abs=1e-6)
        assert float(w.deriv(5.0)) == pytest.approx(1.0 / 12.0, abs=1e-6)

    def test_factor_range_validated(self):
        with pytest.raises(ValueError):
            st.build_w(identity_gain(), 1.0, 1.0, factor=0.3)
        with pytest.raises(ValueError):
            st.build_w(identity_gain(), 1.0, 1.0, factor=0.0)

    def test_slope_not_finite_is_refused_by_name(self):
        # w'(0) = 0*log(0) + ... is nan, which is neither above the bound nor
        # below zero
        with pytest.raises(st.SlopeBoundViolatedError, match=r"w'\(0\.0\) = nan is not finite"):
            st.build_w(gain_from_expr("s^2*log(s) + s"), 1.0, 1.0)


class TestDisToIsspChi:
    def test_identity_mu(self):
        chi = st.dis_to_issp_chi(identity_gain(), gain_from_expr("0.5*s^2"))
        assert float(chi(3.0)) == pytest.approx(9.0, abs=1e-8)

    def test_square_mu(self):
        chi = st.dis_to_issp_chi(gain_from_expr("s^2"), gain_from_expr("s^2"))
        assert float(chi(3.0)) == pytest.approx(3.0 * math.sqrt(2.0), abs=1e-7)

    def test_cubic_mu_matches_root_oracle(self):
        chi = st.dis_to_issp_chi(gain_from_expr("s + s^3"), identity_gain())
        # root of s + s^3 = 6, from an independent polynomial solve
        assert float(chi(3.0)) == pytest.approx(1.6343652930135437, abs=1e-6)


class TestStrictifyIssp:
    def _toy(self):
        system = field_from_exprs(["-sin(t)^2*(x1 - u1)"], 1, 1, period=PI,
                                  label="rate-driven")
        candidate = candidate_from_exprs("0.5*x1^2", 1, "0.5*s^2", "0.5*s^2", "s",
                                         period=PI)
        rate = rate_from_expr("sin(t)^2", period=PI,
                              pe=PETriple(PI, PI / 2, 1.0))
        return system, candidate, rate

    def test_certificate_issued_with_paper_decay(self):
        system, candidate, rate = self._toy()
        cert = st.strictify_issp(candidate, system, rate,
                                 chi=gain_from_expr("2*s"),
                                 mu=gain_from_expr("0.5*s^2"),
                                 domain=SampleDomain((0.0, 2 * PI), 6.0, 2.0),
                                 n_samples=6000, seed=1)
        assert cert.kind == "strict-ISS" and cert.passed
        assert cert.pe.epsilon == PI / 2 and cert.pe.tau == PI
        # decay(s) = epsilon * w(alpha1(s)) with w = mu(alpha2_tilde^{-1}(.))/(4 tau)
        from strictlyap.funcalc import invert
        s = 2.0
        z = invert(cert.alpha2_tilde, float(candidate.alpha1(s)))
        expected = (PI / 2) / (4 * PI) * float(gain_from_expr("0.5*s^2")(z))
        assert float(cert.decay(s)) == pytest.approx(expected, rel=1e-8)
        # epsilon times w o alpha1, under its own label
        a1, w = candidate.alpha1, cert.w
        assert cert.decay.label == f"{PI / 2!r}*({w.label})(({a1.label}))"
        assert cert.decay.probe_max == a1.probe_max
        assert cert.decay.point_exact == (w.point_exact and a1.point_exact)
        assert float(cert.decay.deriv(s)) == (PI / 2) * (float(w.deriv(a1(s)))
                                                         * float(a1.deriv(s)))

    def test_constant_rate_gives_constant_xi(self):
        sc = scalar_linear()
        cert = strictify_problem(sc, n_samples=4000)
        assert cert.passed
        for t in (0.0, 1.7, 9.2):
            assert float(cert.xi_fn(t)) == pytest.approx(0.5, abs=1e-10)
            x = np.array([0.7])
            v = float(sc.candidate.V(t, x))
            assert float(cert.v_sharp(t, x)) == pytest.approx(
                v + 0.5 * float(cert.w(v)), abs=1e-12)

    def test_premise_failure_raises(self):
        system, candidate, rate = self._toy()
        with pytest.raises(st.ValidationFailedError) as ei:
            st.strictify_issp(candidate, system, rate,
                              chi=gain_from_expr("2*s"),
                              mu=gain_from_expr("4*s^2"),  # too greedy a rate
                              domain=SampleDomain((0.0, 2 * PI), 6.0, 2.0),
                              n_samples=3000, seed=2)
        assert ei.value.report.name == "issp-lyapunov"

    def test_missing_pe_triple_rejected(self):
        system, candidate, _ = self._toy()
        bare = rate_from_expr("sin(t)^2", period=PI)
        with pytest.raises(ValueError):
            st.strictify_issp(candidate, system, bare, gain_from_expr("2*s"),
                              gain_from_expr("0.5*s^2"))


class TestStrictifyDisp:
    def test_rigid_body_reproduces_closed_form_coefficient(self):
        rb = rigid_body()
        rb.samples = 20000
        cert = strictify_problem(rb)
        assert cert.kind == "strict-DIS" and cert.passed
        assert cert.gain_margin == 1.25
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = rng.uniform(0.0, 4 * PI)
            x = rng.normal(size=3)
            coeff = 1.0 + PI / 32.0 - math.sin(2 * t) / 32.0
            v = float(rb.candidate.V(t, x))
            assert float(cert.v_sharp(t, x)) == pytest.approx(coeff * v, rel=1e-9)

    def test_unit_rate_sixteenth_growth(self):
        system = field_from_exprs(["-x1 + 0.5*u1"], 1, 1, period=1.0)
        candidate = candidate_from_exprs("0.5*x1^2", 1, "0.5*s^2", "0.5*s^2", "s",
                                         period=1.0)
        rate = rate_from_expr("1", period=1.0, pe=PETriple(1.0, 1.0, 1.0))
        cert = st.strictify_disp(candidate, system, rate,
                                 mu_tilde=identity_gain(),
                                 omega=gain_from_expr("0.5*s^2"), factor=0.125,
                                 domain=SampleDomain((0.0, 2.0), 6.0, 2.0),
                                 n_samples=4000, seed=3)
        # xi = 1/2 and w = s/8, so V# = V + V/16
        x = np.array([1.3])
        v = float(candidate.V(0.7, x))
        assert float(cert.v_sharp(0.7, x)) == pytest.approx(v * (1 + 1 / 16), rel=1e-10)

    def test_vsharp_zero_at_origin(self):
        rb = rigid_body()
        rb.samples = 8000
        cert = strictify_problem(rb)
        for t in (0.0, 1.1, 4.4):
            assert float(cert.v_sharp(t, np.zeros(3))) == 0.0


class TestStateFormRoute:
    def test_rigid_body_state_form(self):
        rb = rigid_body()
        cert = st.strictify_from_state_form(
            rb.candidate, rb.system, rb.rate, mu=rb.mu, omega=rb.omega,
            domain=rb.domain, n_samples=8000, seed=4)
        assert cert.passed and cert.alpha2_tilde is not None
        names = [r.name for r in cert.validation.reports]
        assert "disp-lyapunov[state]" in names

    def test_counterexample_rejected(self):
        ce = counterexample_elw()
        with pytest.raises(st.ValidationFailedError):
            st.strictify_from_state_form(ce.candidate, ce.system, ce.rate,
                                         mu=ce.mu, omega=ce.omega,
                                         domain=ce.domain, n_samples=4000, seed=5)


HALF_SQUARE = gain_from_expr("0.5*s^2")


# each route with its two gains, its report names in order and the check
# whose failure it raises first
ROUTE_CASES = [
    pytest.param(st.strictify_issp, (gain_from_expr("2*s"), HALF_SQUARE),
                 ["uppd", "issp-lyapunov", "coefficient-bounds", "strict-iss-contract"],
                 "uppd", id="issp"),
    pytest.param(st.strictify_disp, (identity_gain(), HALF_SQUARE),
                 ["uppd", "disp-lyapunov[value]", "coefficient-bounds",
                  "strict-dis-contract"], "uppd", id="disp-value"),
    pytest.param(st.strictify_from_state_form, (HALF_SQUARE, HALF_SQUARE),
                 ["uppd", "disp-lyapunov[state]", "disp-lyapunov[value]",
                  "coefficient-bounds", "strict-dis-contract"],
                 "disp-lyapunov[state]", id="disp-state"),
]


class TestRoutes:
    """What each route owns on top of the shared builder."""

    @staticmethod
    def _run(route, gains, drift="-x1", alpha1="0.5*s^2"):
        system = field_from_exprs([f"{drift} + 0.5*u1"], 1, 1, period=1.0)
        candidate = candidate_from_exprs("0.5*x1^2", 1, alpha1, "0.5*s^2", "s",
                                         period=1.0)
        rate = rate_from_expr("1", period=1.0, pe=PETriple(1.0, 1.0, 1.0))
        return route(candidate, system, rate, *gains,
                     domain=SampleDomain((0.0, 2.0), 6.0, 2.0), n_samples=3000, seed=6)

    @pytest.mark.parametrize("route, gains, names, first", ROUTE_CASES)
    def test_report_names_in_order(self, route, gains, names, first):
        cert = self._run(route, gains)
        assert cert.passed
        assert [r.name for r in cert.validation.reports] == names

    @pytest.mark.parametrize("route, gains, names, first", ROUTE_CASES)
    def test_first_failing_premise_is_raised(self, route, gains, names, first):
        # alpha1 = s^2 exceeds V and the drift is unstable: the envelope and
        # the dissipation premises all fail, so the order of checks decides
        with pytest.raises(st.ValidationFailedError) as ei:
            self._run(route, gains, drift="x1", alpha1="s^2")
        assert ei.value.report.name == first


class TestConstructOmega:
    def test_leaky_envelope_dominates_and_is_modest(self):
        sc = scalar_linear()
        omega = st.construct_omega(sc.system, sc.candidate, sc.mu, sc.chi,
                                   seed=6)
        # oracle: M(s) = max{-x^2/2 + x u} = s^2/2 over |x| <= 2s, |u| <= s
        for s in (0.25, 0.5, 1.0, 2.0, 5.0):
            val = float(omega(s))
            assert val >= s * s / 2.0 - 1e-6
            assert val <= s * s + s  # stays within the coarse bound

    def test_zero_dynamics_reduces_to_monotone_hull(self):
        from strictlyap.dynsys import ControlSystem
        zero_sys = ControlSystem(1, 1,
                                 lambda t, x, u: np.zeros_like(np.asarray(x, dtype=float)),
                                 period=1.0)
        cand = candidate_from_exprs("0.5*x1^2", 1, "0.5*s^2", "0.5*s^2", "s",
                                    period=1.0)
        mu = identity_gain()
        chi = gain_from_expr("2*s")
        omega = st.construct_omega(zero_sys, cand, mu, chi, seed=7)
        for s in (0.1, 0.5, 1.0, 3.0):
            hull = float(mu(chi(s)))  # max of mu(|x|) over |x| <= chi(s)
            assert float(omega(s)) == pytest.approx(hull, rel=0.08, abs=1e-3)

    def test_remark_counterexample_unbounded(self):
        ce = counterexample_elw()
        with pytest.raises(st.UnboundedSupError) as ei:
            st.construct_omega(ce.system, ce.candidate, ce.mu, ce.chi, seed=8)
        assert str(ei.value) == (
            "sup of Vdot + mu at s = 10 grows without bound "
            "(16920.9 -> 32233.2 -> 62857.8 as the horizon doubles)")

    def test_one_draw_per_s_value(self, monkeypatch):
        # the three horizons of an aperiodic system share one batch per s
        calls = []
        sample = SampleDomain.sample

        def spy(self, *args, **kwargs):
            calls.append(self.t_range)
            return sample(self, *args, **kwargs)

        monkeypatch.setattr(SampleDomain, "sample", spy)
        ce = counterexample_elw()
        with pytest.raises(st.UnboundedSupError):
            st.construct_omega(ce.system, ce.candidate, ce.mu, ce.chi, seed=8)
        assert len(calls) == 64
        assert set(calls) == {(0.0, 1.0)}


class TestCertificateInvariants:
    def test_coefficient_bounds_on_random_samples(self):
        rb = rigid_body()
        rb.samples = 20000
        cert = strictify_problem(rb)
        rng = np.random.default_rng(9)
        t = rng.uniform(0, 4 * PI, 10_000)
        x = rng.normal(size=(10_000, 3)) * 2.0
        coef = 1.0 + np.asarray(cert.xi_fn(t)) * np.asarray(
            cert.w.deriv(rb.candidate.V(t, x)))
        assert float(coef.min()) >= 1.0 - 1e-9
        assert float(coef.max()) <= 1.25 + 1e-9

    def test_slope_bound_on_issued_w(self):
        rb = rigid_body()
        rb.samples = 8000
        cert = strictify_problem(rb)
        s = np.linspace(0.0, 50.0, 2000)
        slopes = np.asarray(cert.w.deriv(s), dtype=float)
        bound = 1.0 / (2.0 * cert.pe.tau ** 2 * cert.pe.pbar)
        assert float(slopes.min()) >= -1e-12
        assert float(slopes.max()) <= bound + 1e-12

    def test_periodicity_preserved_when_shared(self):
        # V and p share the period pi
        system = field_from_exprs(["-(1 + sin(t)^2)*x1 + u1"], 1, 1, period=PI)
        candidate = candidate_from_exprs("(0.5 + 0.25*sin(t)^2)*x1^2", 1,
                                         "0.5*s^2", "0.75*s^2", "2*s", period=PI)
        rate = rate_from_expr("sin(t)^2", period=PI, pe=PETriple(PI, PI / 2, 1.0))
        cert = st.strictify_disp(candidate, system, rate,
                                 mu_tilde=gain_from_expr("0.5*s"),
                                 omega=gain_from_expr("s^2"), factor=0.125,
                                 domain=SampleDomain((0.0, 2 * PI), 4.0, 1.0),
                                 n_samples=4000, seed=10)
        rng = np.random.default_rng(11)
        for _ in range(25):
            t = rng.uniform(0, 2 * PI)
            x = rng.normal(size=1)
            a = float(cert.v_sharp(t, x))
            b = float(cert.v_sharp(t + PI, x))
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_one_table_per_aperiodic_margin_evaluation(self, monkeypatch):
        # each block of an aperiodic certificate's lookup is built whole on
        # first use, and later margin calls in those blocks, at the same
        # times or later ones, read the kept blocks
        from strictlyap import decay as dmod
        cert = _aperiodic_certificate()
        windows = cert._windows
        tables = []
        window_table = dmod.window_table

        def counting(*args, **kwargs):
            tables.append(args[2:4])
            return window_table(*args, **kwargs)

        monkeypatch.setattr(dmod, "window_table", counting)
        windows.blocks.clear()
        span = windows.span
        t = np.linspace(-0.5 * span, 2.5 * span, 50)     # blocks -1 to 2
        x = np.linspace(-1.0, 1.0, 50)[:, None]
        u = np.full((50, 1), 0.3)
        cert.vdot_sharp(t, x, u)
        assert sorted(tables) == [(k * span, k * span + span) for k in (-1, 0, 1, 2)]
        cert.vdot_sharp(t, x, u)
        cert.sharp_candidate().dV_dt(t, x)
        cert.v_sharp(t, x)
        later = np.array([0.5 * (t[np.floor(t / span) == 0].max() + span)])
        cert.v_sharp(later, x[:1])
        cert.v_sharp(float(later[0]), x[0])
        cert.vdot_sharp(t, x, u)
        assert len(tables) == 4

    def test_one_spline_per_periodic_coefficient_call(self):
        system = field_from_exprs(["-x1 + 0.5*u1"], 1, 1, period=1.0)
        candidate = candidate_from_exprs("0.5*x1^2", 1, "0.5*s^2", "0.5*s^2", "s",
                                         period=1.0)
        rate = rate_from_expr("1 + 0.5*sin(2*pi*t)^2", period=1.0,
                              pe=PETriple(1.0, 1.0, 1.5))
        cert = st.strictify_disp(candidate, system, rate,
                                 mu_tilde=identity_gain(),
                                 omega=gain_from_expr("0.5*s^2"), factor=0.125,
                                 domain=SampleDomain((0.0, 2.0), 4.0, 1.0),
                                 n_samples=400, seed=4)
        calls = []

        class Counting:
            """A table that records its name at each evaluation."""

            def __init__(self, name, table):
                self.name, self.table = name, table

            def __call__(self, s):
                calls.append(self.name)
                return self.table(s)

            def locate(self, s):
                return self.table.locate(s)

            def at(self, i, d, out):
                calls.append(self.name)
                self.table.at(i, d, out)

        # the period is at most BLOCK_WINDOWS * tau: one block, the
        # one-period table
        assert list(cert._windows.blocks) == [0]
        W, xi = cert._windows.blocks[0]
        cert._windows.blocks[0] = (Counting("W", W), Counting("xi", xi))
        t = np.linspace(-1.0, 3.0, 9)
        assert np.array_equal(cert.xi_fn(t), xi(np.mod(t, 1.0)))
        assert calls == ["xi"]
        assert np.array_equal(cert.window_fn(t), W(np.mod(t, 1.0)))
        assert calls == ["xi", "W"]
        cert.v_sharp(0.5, np.array([1.0]))
        assert calls == ["xi", "W", "xi"]

    def test_point_v_sharp_reads_the_batch_xi(self):
        # a float time takes the table's Python Hermite path, a batch its
        # array path: both must give the same xi and W, bit for bit.  V itself is
        # evaluated on floats (math) at a point and on arrays (numpy) in a
        # batch; its squares are products on both, so V and V# agree too.
        rb = rigid_body()
        cert = strictify_problem(rb, n_samples=2000)
        period = cert.rate.period
        knots = cert._windows.blocks[0][1].knots
        fixed = np.concatenate([knots, -knots[1::2], period * np.arange(-20.0, 21.0)])
        rng = np.random.default_rng(21)
        times = np.concatenate([fixed, rng.uniform(-50.0, 100.0, 10_000 - fixed.size)])
        states = rng.normal(size=(times.size, 3)) * 2.0
        xi, W = cert.xi_fn(times), cert.window_fn(times)
        V, vs = rb.candidate.V(times, states), cert.v_sharp(times, states)
        for i, (t, x) in enumerate(zip(times.tolist(), states)):
            assert cert.xi_fn(t) == xi[i] and cert.window_fn(t) == W[i]
            v = rb.candidate.V(t, x)
            point = cert.v_sharp(t, x)
            assert type(point) is float and point == v + xi[i] * cert.w(v)
            assert v == V[i] and point == vs[i]

    @pytest.mark.parametrize("build", [
        lambda: strictify_problem(scalar_linear(), n_samples=500),
        lambda: strictify_problem(rigid_body(), n_samples=500),
        lambda: _aperiodic_certificate()], ids=["strict-ISS", "strict-DIS", "aperiodic"])
    def test_certificate_is_freed_without_the_cycle_collector(self, build):
        # no report's margin function refers back to its certificate, nor
        # does the certificate's table lookup, so reference counting alone
        # frees a certificate
        gc.collect()
        gc.disable()
        try:
            cert = build()
            reports = cert.validation.reports
            for report in reports:
                assert report.reevaluate() == report.worst_margin
            ref = weakref.ref(cert)
            del cert
            assert ref() is None
            assert [r.reevaluate() for r in reports] == [r.worst_margin for r in reports]
        finally:
            gc.enable()

    def test_analytic_vdot_sharp_matches_expansion(self):
        rb = rigid_body()
        rb.samples = 8000
        cert = strictify_problem(rb)
        rng = np.random.default_rng(12)
        t = rng.uniform(0, 2 * PI, 100)
        x = rng.normal(size=(100, 3))
        u = rng.normal(size=(100, 2)) * 0.5
        got = np.asarray(cert.vdot_sharp(t, x, u))
        v = np.asarray(rb.candidate.V(t, x))
        vd = verify.vdot(rb.candidate, rb.system, t, x, u)
        from strictlyap import decay as dmod
        xi_direct = dmod.xi_vec(rb.rate, PI, t)
        win_direct = dmod.window_integral_vec(rb.rate, PI, t)
        expected = ((1.0 + xi_direct * np.asarray(cert.w.deriv(v))) * vd
                    + (PI * np.asarray(rb.rate(t)) - win_direct) * np.asarray(cert.w(v)))
        assert np.abs(got - expected).max() < 1e-9


# counterexample-elw issues no certificate: its premise fails by design
@pytest.mark.parametrize("fixture", [rigid_body, scalar_linear])
def test_point_v_sharp_is_a_float_equal_to_the_batch(fixture):
    # the stop test of an RK4 run calls V# at a float t and an (n,) x
    from strictlyap._numerics import halton

    problem = fixture()
    cert = strictify_problem(problem, n_samples=2000)
    (t_lo, t_hi), r = cert.domain.t_range, cert.domain.x_radius
    pts = halton(1 + problem.system.n, 10_000, seed=18)
    ts = t_lo - 2.0 * (t_hi - t_lo) + 5.0 * (t_hi - t_lo) * pts[:, 0]
    xs = r * (2.0 * pts[:, 1:] - 1.0)
    point = [cert.v_sharp(t, x) for t, x in zip(ts.tolist(), xs)]
    assert all(isinstance(v, float) for v in point)
    batch = np.asarray(cert.v_sharp(ts, xs), dtype=float)
    np.testing.assert_array_equal(np.array(point).view(np.uint64), batch.view(np.uint64))
    for t, x, v in zip(ts[:100], xs[:100], point):
        assert float(cert.v_sharp(np.array([t]), x[None])[0]) == v


def test_strict_iss_contract_at_scale():
    """1e5 masked samples: the analytic expansion of d/dt V# stays below
    -decay(|x|) wherever |x| >= chi(|u|)."""
    system = field_from_exprs(["-sin(t)^2*(x1 - u1)"], 1, 1, period=PI,
                              label="rate-driven")
    candidate = candidate_from_exprs("0.5*x1^2", 1, "0.5*s^2", "0.5*s^2", "s",
                                     period=PI)
    rate = rate_from_expr("sin(t)^2", period=PI, pe=PETriple(PI, PI / 2, 1.0))
    chi = gain_from_expr("2*s")
    cert = st.strictify_issp(candidate, system, rate, chi=chi,
                             mu=gain_from_expr("0.5*s^2"),
                             domain=SampleDomain((0.0, 2 * PI), 6.0, 2.0),
                             n_samples=6000, seed=14)
    dom = SampleDomain((0.0, 2 * PI), 6.0, 2.0)
    t, x, u = dom.sample(100_000, 1, 1, seed=15)
    keep = np.linalg.norm(x, axis=1) >= np.asarray(chi(np.linalg.norm(u, axis=1)))
    t, x, u = t[keep], x[keep], u[keep]
    margin = -cert.vdot_sharp(t, x, u) - np.asarray(
        cert.decay(np.linalg.norm(x, axis=1)))
    assert t.size > 10_000
    assert float(margin.min()) >= -1e-9


def test_aperiodic_values_depend_on_the_time_alone():
    # W and xi of a time come from its block alone: a batch row equals the
    # time queried alone, as a float and as a batch of one, and V# at a
    # float time equals its batch row, bit for bit
    cert = _aperiodic_certificate()
    span, tau = cert._windows.span, cert.pe.tau
    edges = span * np.arange(-1.0, 4.0)
    rng = np.random.default_rng(20)
    times = np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        np.linspace(-tau, 0.0, 16, endpoint=False),
        rng.uniform(-span, 3.5 * span, 200)])
    assert np.unique(np.floor(times / span)).size >= 3
    states = rng.normal(size=(times.size, 1))
    xi, W, vs = cert.xi_fn(times), cert.window_fn(times), cert.v_sharp(times, states)
    for i, (t, x) in enumerate(zip(times.tolist(), states)):
        assert cert.xi_fn(t) == xi[i] and cert.window_fn(t) == W[i]
        assert cert.xi_fn(np.array([t]))[0] == xi[i]
        assert cert.window_fn(np.array([t]))[0] == W[i]
        assert float(cert.v_sharp(t, x)) == vs[i]
    order = rng.permutation(times.size)[:times.size // 3]
    assert np.array_equal(cert.xi_fn(times[order]), xi[order])
    assert np.array_equal(cert.window_fn(times[order]), W[order])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", [
    lambda: strictify_problem(rigid_body(), n_samples=500),
    _aperiodic_certificate], ids=["periodic", "aperiodic"])
def test_non_finite_time_raises(build, bad):
    # one message on every path: float and batch, W, xi and V#
    cert = build()
    x = np.ones(cert.candidate.n)
    match = f"query time is not finite: t={bad!r}"
    for t in (bad, np.array([0.0, bad]), np.array([[bad]])):
        for call in (cert.xi_fn, cert.window_fn):
            with pytest.raises(ValueError, match=match):
                call(t)
        with pytest.raises(ValueError, match=match):
            cert.v_sharp(t, x if isinstance(t, float) else np.ones((t.size, x.size)))
