import dataclasses
import hashlib
import math

import numpy as np
import pytest

from strictlyap import verify
from strictlyap.config import strictify_problem
from strictlyap.decay import DecayRate, PETriple, estimate_pe
from strictlyap.dynsys import ControlSystem, Signal, integrate
from strictlyap.fixtures import counterexample_elw, rigid_body, scalar_linear
from strictlyap.funcalc import (GainFunction, KLFunction, gain_from_expr,
                                identity_gain, scale_gain)
from strictlyap.strictify import (LyapunovCandidate, ValidationFailedError,
                                 dis_to_issp_chi)
from strictlyap.verify import SampleDomain

PI = math.pi


def _norm_sq_candidate(tight=True):
    a1 = gain_from_expr("s^2") if tight else gain_from_expr("2*s^2")
    return LyapunovCandidate(
        n=2,
        V=lambda t, x: (np.asarray(x) ** 2).sum(axis=-1),
        dV_dt=lambda t, x: np.zeros(np.shape(x)[0]) if np.ndim(x) == 2 else 0.0,
        grad_x=lambda t, x: 2.0 * np.asarray(x, dtype=float),
        alpha1=a1, alpha2=gain_from_expr("s^2"), alpha3=gain_from_expr("2*s"))


def _two_part_reference(dom, n, nx, nu, seed):
    """The sampler as two separately mapped branches, Halton then uniform."""
    from scipy.stats import norm, qmc

    def ball(r01, dir01, radius):
        k, d = dir01.shape
        if d == 0:
            return np.zeros((k, 0))
        if radius <= 0:
            return np.zeros((k, d))
        z = norm.ppf(np.clip(dir01, 1.0e-12, 1.0 - 1.0e-12))
        nrm = np.linalg.norm(z, axis=1)
        nrm[nrm == 0.0] = 1.0
        rad = (0.0 ** d + r01 * (radius ** d - 0.0 ** d)) ** (1.0 / d)
        return z / nrm[:, None] * rad[:, None]

    n_h = int(round(n * 0.5))
    n_u = n - n_h
    parts = []
    if n_h > 0:
        d = 1 + (1 + nx) + (1 + nu if nu else 0)
        h = qmc.Halton(d=d, scramble=True, seed=seed).random(n_h)
        h = np.clip(h, 1.0e-12, 1.0 - 1.0e-12)
        t = dom.t_range[0] + (dom.t_range[1] - dom.t_range[0]) * h[:, 0]
        x = ball(h[:, 1], h[:, 2:2 + nx], dom.x_radius)
        u = (ball(h[:, 2 + nx], h[:, 3 + nx:3 + nx + nu], dom.u_radius) if nu
             else np.zeros((n_h, 0)))
        parts.append((t, x, u))
    if n_u > 0:
        rng = np.random.default_rng(seed + 1)
        t = rng.uniform(*dom.t_range, n_u)
        x = ball(rng.uniform(size=n_u), rng.uniform(size=(n_u, nx)), dom.x_radius)
        u = (ball(rng.uniform(size=n_u), rng.uniform(size=(n_u, nu)), dom.u_radius)
             if nu else np.zeros((n_u, 0)))
        parts.append((t, x, u))
    return tuple(np.concatenate([p[k] for p in parts]) for k in range(3))


class TestSampleDomain:
    DOMAIN = SampleDomain((-1.5, 7.25), 3.0, 0.75)

    @pytest.mark.parametrize("dom, n, nx, nu", [
        (DOMAIN, 1, 2, 1),
        (DOMAIN, 1001, 3, 2),
        (DOMAIN, 999, 1, 0),
        (SampleDomain((0.0, 1.0), 0.0, 0.0), 257, 2, 2),
        (SampleDomain((0.0, 1.0), 2.0, 0.0), 64, 1, 1),
    ])
    def test_matches_two_part_reference(self, dom, n, nx, nu):
        for seed in (0, 7):
            got = dom.sample(n, nx, nu, seed)
            ref = _two_part_reference(dom, n, nx, nu, seed)
            for g, r in zip(got, ref):
                assert g.shape == r.shape
                assert np.array_equal(g, r)

    def test_batch_stays_in_the_box(self):
        dom = self.DOMAIN
        t, x, u = dom.sample(4001, 3, 2, seed=3)
        assert t.shape == (4001,) and x.shape == (4001, 3) and u.shape == (4001, 2)
        assert t.min() >= dom.t_range[0] and t.max() <= dom.t_range[1]
        assert np.linalg.norm(x, axis=1).max() <= dom.x_radius * (1 + 1e-12)
        assert np.linalg.norm(u, axis=1).max() <= dom.u_radius * (1 + 1e-12)

    def test_large_batch_digest_is_pinned(self):
        # sha256 of t, x and u: pins _map and _ball on top of halton, bit for
        # bit, at the rigid-body certificate's budget
        digest = hashlib.sha256()
        for a in SampleDomain((0.0, 2 * PI), 5.0, 2.0).sample(100_000, 3, 2, seed=2028):
            digest.update(np.ascontiguousarray(a).tobytes())
        assert digest.hexdigest() == (
            "a2801bb0ac76f44f1531085e99b66010aceb6fbe23cab1bd3334349148fc5bdb")

    def test_radius_whose_power_overflows_scales_the_root(self):
        # 1e200 ** 2 overflows a float, so each fraction's root is scaled
        # instead, which differs from a unit ball scaled by rounding alone
        big = SampleDomain((0.0, 1.0), 1e200, 1e200).sample(501, 2, 2, seed=1)
        unit = SampleDomain((0.0, 1.0), 1.0, 1.0).sample(501, 2, 2, seed=1)
        assert np.array_equal(big[0], unit[0])
        for b, u in zip(big[1:], unit[1:]):
            assert np.isfinite(b).all()
            np.testing.assert_allclose(b, 1e200 * u, rtol=1e-14)

    @pytest.mark.parametrize("kwargs, match", [
        ({"t_range": (0.0, math.inf)}, r"^t_range must be finite, got \(0.0, inf\)$"),
        ({"t_range": (math.nan, 1.0)}, r"^t_range must be finite, got \(nan, 1.0\)$"),
        ({"t_range": (5.0, 1.0)}, r"^t_range must be increasing, got \(5.0, 1.0\)$"),
        ({"t_range": (2.0, 2.0)}, r"^t_range must be increasing, got \(2.0, 2.0\)$"),
        ({"x_radius": -3.0}, r"^x_radius must be non-negative and finite, got -3.0$"),
        ({"x_radius": math.inf}, r"^x_radius must be non-negative and finite, got inf$"),
        ({"u_radius": math.nan}, r"^u_radius must be non-negative and finite, got nan$"),
    ])
    def test_invalid_box_names_the_field(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SampleDomain(**kwargs)

    def test_zero_radius_is_a_valid_box(self):
        _, x, u = SampleDomain((0.0, 1.0), 0.0, 0.0).sample(9, 2, 1)
        assert not x.any() and not u.any()

    @pytest.mark.parametrize("box", [((0.0, math.inf),), ((5.0, 1.0),), ((0.0, 2.0), -3.0)])
    def test_box_that_passed_a_check_now_raises(self, box):
        # each of these boxes once passed check_uppd on 200 samples: t = inf
        # as the worst point, a reversed range, and x = 0 at every sample
        with pytest.raises(ValueError, match="t_range" if len(box) == 1 else "x_radius"):
            verify.check_uppd(scalar_linear().candidate, SampleDomain(*box), 200, 0)

    @pytest.mark.parametrize("n", [0, -5])
    def test_empty_budget_rejected(self, n):
        with pytest.raises(ValueError, match="at least 1"):
            SampleDomain().sample(n, 2, 1)


@pytest.mark.parametrize("n", [0, 1])
def test_budget_below_two_is_refused(n):
    # one sample once passed the rigid-body envelope check
    rb = rigid_body()
    with pytest.raises(ValueError, match=f"^uppd: sample budget must be at least 2, got {n}$"):
        verify.check_uppd(rb.candidate, rb.domain, n=n)


def test_empty_implication_region_fails():
    def never(t, x, u):
        return np.zeros(t.size, dtype=bool)

    rep = verify._run_check("empty", lambda t, x, u: np.ones(t.size),
                            SampleDomain(), 2, 1, 50, 0, mask_fn=never)
    assert rep.n_samples == 0
    assert not rep.passed
    assert rep.notes == "no samples in implication region"
    assert rep.sampled_worst == np.inf and rep.n_nonfinite == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_margin_fails_by_name(bad):
    calls = []

    def margin_fn(t, x, u):
        calls.append(t.size)
        m = 1.0 + x[:, 0] ** 2
        m[[3, 11, 12]] = bad
        return m

    rep = verify._run_check("nonfinite", margin_fn, SampleDomain(), 2, 1, 50, 0)
    t, x, u = SampleDomain().sample(50, 2, 1, 0)
    assert calls == [50]                     # no refinement probes
    assert not rep.passed and rep.n_samples == 50
    assert rep.worst_margin == bad or (np.isnan(bad) and np.isnan(rep.worst_margin))
    assert rep.n_nonfinite == 3
    assert np.array_equal(rep.sampled_worst, rep.worst_margin, equal_nan=True)
    assert rep.worst_point[0] == t[3] and np.array_equal(rep.worst_point[1], x[3])
    assert rep.notes.startswith(f"3 non-finite margins; first {bad!r} at t={float(t[3])!r}, ")
    msg = str(ValidationFailedError(rep))
    assert msg == f"check 'nonfinite' failed: {rep.notes}"
    assert rep.notes.endswith(f"x={x[3].tolist()}, u={u[3].tolist()}")
    assert "horizon" not in msg


def test_sampled_worst_is_the_worst_sample_before_refinement():
    def margin_fn(t, x, u):
        return (x[:, 0] - 0.3) ** 2 + 0.1 * t

    rep = verify._run_check("bowl", margin_fn, SampleDomain(), 2, 1, 50, 0)
    t, x, u = SampleDomain().sample(50, 2, 1, 0)
    assert rep.sampled_worst == margin_fn(t, x, u).min()
    assert rep.worst_margin < rep.sampled_worst      # refinement improved on it
    assert rep.n_nonfinite == 0


def test_finite_failure_message_keeps_the_margin():
    rep = verify._run_check("neg", lambda t, x, u: -1.0 - x[:, 0] ** 2, SampleDomain(),
                            2, 1, 50, 0)
    t, x, u = rep.worst_point
    assert str(ValidationFailedError(rep)) == (
        f"check 'neg' failed: margin {rep.worst_margin!r} at "
        f"t={t!r}, x={x.tolist()}, u={u.tolist()}")


class TestCheckUppd:
    def test_tight_envelopes_pass_with_zero_margin(self):
        rep = verify.check_uppd(_norm_sq_candidate(), SampleDomain((0, 1), 3.0, 0.0),
                                n=2000, seed=1)
        assert rep.passed
        assert abs(rep.worst_margin) < 1e-9

    def test_rigid_body_eigen_envelopes(self):
        rb = rigid_body()
        rep = verify.check_uppd(rb.candidate, rb.domain, n=20000, seed=2)
        assert rep.passed
        # cross-check the envelope constants against the eigenvalue oracle:
        # half the extreme eigenvalues of [[1, s], [s, 1 + s^2]] over s in [-1, 1]
        ss = np.linspace(-1, 1, 20001)
        lo = (2 + ss ** 2 - np.sqrt(ss ** 4 + 4 * ss ** 2)) / 2
        hi = (2 + ss ** 2 + np.sqrt(ss ** 4 + 4 * ss ** 2)) / 2
        assert lo.min() / 2 == pytest.approx(float(rb.candidate.alpha1(1.0)), abs=1e-12)
        assert hi.max() / 2 == pytest.approx(float(rb.candidate.alpha2(1.0)), abs=1e-12)

    def test_oversized_alpha1_fails(self):
        rep = verify.check_uppd(_norm_sq_candidate(tight=False),
                                SampleDomain((0, 1), 3.0, 0.0), n=2000, seed=1)
        assert not rep.passed


def _leaky():
    return ControlSystem(1, 1, lambda t, x, u: -x + u, period=1.0, label="leaky")


def _leaky_candidate():
    return LyapunovCandidate(
        n=1,
        V=lambda t, x: 0.5 * (np.asarray(x) ** 2).sum(axis=-1),
        dV_dt=lambda t, x: np.zeros(np.shape(x)[0]) if np.ndim(x) == 2 else 0.0,
        grad_x=lambda t, x: np.asarray(x, dtype=float),
        alpha1=gain_from_expr("0.5*s^2"), alpha2=gain_from_expr("0.5*s^2"),
        alpha3=gain_from_expr("s"))


ONE = DecayRate(lambda t: np.ones_like(np.asarray(t, dtype=float)), period=1.0,
                pe=PETriple(1, 1, 1), label="1")


def test_field_not_shaped_like_x_is_refused_by_name():
    # a time-varying rate times (x - u) without p(t)[..., None]: shapes (k,)
    # and (k, 1) broadcast to (k, k), which would mix the rows of a batch
    p = DecayRate(lambda t: 0.5 + np.sin(np.asarray(t)) ** 2, period=PI, label="0.5+sin^2")
    bad = ControlSystem(1, 1, lambda t, x, u: -np.asarray(p(t)) * (x - 0.5 * u),
                        period=PI, label="rate-times-gap")
    good = dataclasses.replace(
        bad, f=lambda t, x, u: -np.asarray(p(t))[..., None] * (x - 0.5 * u))
    t, x, u = SampleDomain((0.0, PI), 2.0, 1.0).sample(7, 1, 1, 0)
    with pytest.raises(ValueError) as err:
        verify.vdot(_leaky_candidate(), bad, t, x, u)
    assert str(err.value) == ("system rate-times-gap: f(t, x, u) has shape (7, 7), "
                              "expected the shape (7, 1) of x")
    assert verify.vdot(_leaky_candidate(), good, t, x, u).shape == (7,)
    with pytest.raises(ValueError, match=r"^system rate-times-gap: .* \(200, 200\)"):
        verify.check_disp_lyap(_leaky_candidate(), bad, p, identity_gain(),
                               gain_from_expr("s^2"), "state",
                               SampleDomain((0.0, PI), 2.0, 1.0), n=200, seed=0)
    unnamed = dataclasses.replace(bad, label="")
    with pytest.raises(ValueError, match=r"^system \(unnamed\): "):
        verify.vdot(_leaky_candidate(), unnamed, t, x, u)


class TestCheckIsspLyap:
    DOMAIN = SampleDomain((0.0, 2.0), 6.0, 2.0)

    def test_leaky_with_half_square_rate_passes(self):
        rep = verify.check_issp_lyap(_leaky_candidate(), _leaky(), ONE,
                                     gain_from_expr("0.5*s^2"), gain_from_expr("2*s"),
                                     self.DOMAIN, n=4000, seed=3)
        assert rep.passed

    def test_oversized_mu_fails(self):
        rep = verify.check_issp_lyap(_leaky_candidate(), _leaky(), ONE,
                                     gain_from_expr("2*s^2"), gain_from_expr("2*s"),
                                     self.DOMAIN, n=4000, seed=3)
        assert not rep.passed
        # violated already at u = 0 for any x != 0
        t, x, u = rep.worst_point
        assert abs(x[0]) > 0

    def test_zero_disturbance_reduces_to_decay_check(self):
        dom = SampleDomain((0.0, 2.0), 6.0, 0.0)
        rep = verify.check_issp_lyap(_leaky_candidate(), _leaky(), ONE,
                                     gain_from_expr("s^2"), gain_from_expr("s"),
                                     dom, n=2000, seed=4)
        # Vdot = -x^2 = -mu(|x|): every sample is in the implication region
        assert rep.n_samples == 2000
        assert rep.passed


class TestCheckDispLyap:
    def test_rigid_body_value_form_passes(self):
        rb = rigid_body()
        rep = verify.check_disp_lyap(rb.candidate, rb.system, rb.rate,
                                     rb.mu_tilde, rb.omega, "value", rb.domain,
                                     n=20000, seed=5)
        assert rep.passed

    def test_counterexample_margin_diverges_with_horizon(self):
        ce = counterexample_elw()
        margins = {}
        for t_max in (10.0, 100.0):
            dom = dataclasses.replace(ce.domain, t_range=(0.0, t_max))
            rep = verify.check_disp_lyap(ce.candidate, ce.system, ce.rate, ce.mu,
                                         ce.omega, "state", dom, n=8000, seed=6)
            margins[t_max] = rep.worst_margin
            assert not rep.passed
        assert margins[100.0] <= margins[10.0] - 100.0

    def test_counterexample_probe_point_growth_is_exact(self):
        # Vdot(t, 1, 2) = 2(-1 + (1 + t)); the gap over Delta t = 10 is 20
        ce = counterexample_elw()
        x = np.array([[1.0]])
        u = np.array([[2.0]])
        v10 = float(verify.vdot(ce.candidate, ce.system, np.array([10.0]), x, u)[0])
        v0 = float(verify.vdot(ce.candidate, ce.system, np.array([0.0]), x, u)[0])
        assert v10 - v0 == pytest.approx(20.0, abs=1e-9)

    def test_zero_field_margin_is_gain_gap(self):
        zero_sys = ControlSystem(2, 1, lambda t, x, u: np.zeros_like(np.asarray(x, dtype=float)))
        cand = _norm_sq_candidate()
        dom = SampleDomain((0.0, 1.0), 2.0, 1.0)
        mu = gain_from_expr("s^2")
        om = gain_from_expr("s^2")
        rep = verify.check_disp_lyap(cand, zero_sys, ONE, mu, om, "state", dom,
                                     n=2000, seed=7)
        # with Vdot = 0 the margin is exactly min(Omega(|u|) - p mu(|x|))
        t, x, u = dom.sample(2000, 2, 1, seed=7)
        direct = float((om(np.linalg.norm(u, axis=1))
                        - mu(np.linalg.norm(x, axis=1))).min())
        assert rep.worst_margin <= direct + 1e-12
        assert not rep.passed

    def test_form_validation(self):
        with pytest.raises(ValueError):
            verify.check_disp_lyap(_norm_sq_candidate(), _leaky(), ONE,
                                   identity_gain(), identity_gain(), "bogus",
                                   SampleDomain(), 10)


class TestCheckStrictIss:
    def test_counterexample_passes(self):
        ce = counterexample_elw()
        rep = verify.check_strict_iss_lyap(ce.candidate, ce.system, ce.mu, ce.chi,
                                           ce.domain, n=8000, seed=8)
        assert rep.passed

    def test_rigid_body_sharp_certificate_passes(self):
        rb = rigid_body()
        rb.samples = 20000
        cert = strictify_problem(rb)
        sharp = cert.sharp_candidate()
        # Step-3 style threshold for the certificate inequality:
        # |x| >= decay^{-1}(2 * (5/4) Omega(|u|)) makes the decay dominate
        chi_sharp = dis_to_issp_chi(cert.decay,
                                    scale_gain(cert.gain_margin, cert.omega))
        mu_sharp = scale_gain(0.5, cert.decay)
        rep = verify.check_strict_iss_lyap(sharp, rb.system, mu_sharp, chi_sharp,
                                           rb.domain, n=20000, seed=9)
        assert rep.passed

    def test_unstable_system_fails(self):
        grow = ControlSystem(1, 1, lambda t, x, u: x, label="unstable")
        cand = LyapunovCandidate(
            n=1, V=lambda t, x: (np.asarray(x) ** 2).sum(axis=-1),
            dV_dt=lambda t, x: np.zeros(np.shape(x)[0]) if np.ndim(x) == 2 else 0.0,
            grad_x=lambda t, x: 2.0 * np.asarray(x, dtype=float),
            alpha1=gain_from_expr("s^2"), alpha2=gain_from_expr("s^2"),
            alpha3=gain_from_expr("2*s"))
        rep = verify.check_strict_iss_lyap(cand, grow, gain_from_expr("s^2"),
                                           identity_gain(), SampleDomain((0, 2), 3, 1),
                                           n=2000, seed=10)
        assert not rep.passed


class TestIssEstimate:
    def _batch(self, amps, x0s, tf=8.0):
        out = []
        for x0, amp in zip(x0s, amps):
            sig = Signal.constant([amp]) if amp else Signal.zero(1)
            out.append(integrate(_leaky(), [x0], 0.0, tf, sig, 1e-3))
        return out

    def test_variation_of_constants_envelope_passes(self):
        batch = self._batch([0.0, 0.5, 1.0], [2.0, 1.0, -1.5])
        beta = KLFunction(lambda s, r: s * np.exp(-r))
        rep = verify.check_iss_estimate(batch, ONE, beta, identity_gain())
        assert rep.passed

    def test_zero_everything_passes(self):
        batch = self._batch([0.0], [0.0])
        beta = KLFunction(lambda s, r: s * np.exp(-r))
        rep = verify.check_iss_estimate(batch, ONE, beta, identity_gain())
        assert rep.passed

    def test_zero_gamma_with_disturbance_fails(self):
        batch = self._batch([1.0], [0.5], tf=12.0)
        beta = KLFunction(lambda s, r: s * np.exp(-r))
        zero_gain = GainFunction(lambda s: 0.0 * np.asarray(s, dtype=float))
        rep = verify.check_iss_estimate(batch, ONE, beta, zero_gain)
        assert not rep.passed

    def test_fit_leaky_recovers_unit_decay(self):
        fit = self._batch([0.0, 0.0, 0.3, 0.6], [2.0, -1.0, 1.0, 0.5])
        hold = self._batch([0.0, 0.5], [1.5, -0.8])
        beta, gamma = verify.fit_iss_envelope(fit, ONE, holdout=hold)
        # exponential run: fitted constants stay within 5% of the true (1, 1)
        c = float(beta(1.0, 0.0))
        lam = -math.log(float(beta(1.0, 1.0)) / c)
        assert c == pytest.approx(1.0, rel=0.05)
        assert lam == pytest.approx(1.0, rel=0.05)

    def test_fit_rigid_body_passes_holdout(self):
        rb = rigid_body()
        runs, hold = [], []
        rng = np.random.default_rng(20)
        for k in range(3):
            x0 = rng.normal(size=3)
            x0 *= 1.5 / np.linalg.norm(x0)
            tr = integrate(rb.system, x0, 0.0, 12.0, Signal.zero(2), 1e-3)
            (runs if k < 2 else hold).append(tr)
        for k, amp in enumerate((0.3, 0.6)):
            tr = integrate(rb.system, np.array([0.5, -0.5, 0.5]), 0.0, 12.0,
                           Signal.constant([amp, 0.0]), 1e-3)
            (runs if k < 1 else hold).append(tr)
        beta, gamma = verify.fit_iss_envelope(runs, rb.rate, holdout=hold)
        rep = verify.check_iss_estimate(hold, rb.rate, beta, gamma)
        assert rep.passed

    def test_fit_requires_zero_input_runs(self):
        batch = self._batch([0.5], [1.0])
        with pytest.raises(verify.FitFailedError):
            verify.fit_iss_envelope(batch, ONE)

    def test_nan_margin_fails_by_name(self):
        # one NaN used to hide every finite margin of its run: argmin picks it
        # and nan < worst is false, so the check passed with margin inf
        sc = scalar_linear()
        run = integrate(sc.system, [1.0], 0.0, 1.0, Signal.zero(sc.system.m))
        beta = KLFunction(lambda s, r: np.where(r > 0.5, np.nan, 2 * s * np.exp(-r)))
        rep = verify.check_iss_estimate([run], sc.rate, beta, gain_from_expr("s"))
        assert not rep.passed and math.isnan(rep.worst_margin)
        assert rep.n_nonfinite == 100 and rep.worst_point[0] == 0.502
        assert rep.notes == ("100 non-finite margins; first nan at "
                             + verify.point_text(rep.worst_point))

    def test_clock_not_finite_fails_the_fit_by_run_and_time(self):
        pole = DecayRate(lambda t: 1.0 / (np.asarray(t) - 0.5) ** 2, label="pole")
        batch = self._batch([0.0, 0.5], [2.0, 1.0], tf=1.0)
        with pytest.raises(verify.FitFailedError,
                           match=r"clock int p of fit run 1 is not finite from t=0\.5$"):
            verify.fit_iss_envelope(batch, pole)


def _one_point_descent(margin_fn, domain, point, accept=None):
    """The coordinate descent that probes one point per margin call, as it
    was before passes were batched; returns (best, point) and its moves."""
    t, x, u = point
    t = float(t)
    x = np.array(x, dtype=float)
    u = np.array(u, dtype=float)
    moves = 0

    def value(tt, xx, uu):
        if accept is not None and not verify._at_point(accept, tt, xx, uu):
            return np.inf
        return float(verify._at_point(margin_fn, tt, xx, uu))

    best = value(t, x, u)
    dt0 = 0.1 * (domain.t_range[1] - domain.t_range[0])
    dx0 = 0.1 * max(domain.x_radius, 1.0e-6)
    du0 = 0.1 * max(domain.u_radius, 1.0e-6)
    for p in range(verify.REFINE_PASSES):
        shrink = 0.5 ** p
        for idx in range(1 + x.size + u.size):
            for sign in (+1.0, -1.0):
                tt, xx, uu = t, x.copy(), u.copy()
                if idx == 0:
                    tt = float(np.clip(t + sign * dt0 * shrink, *domain.t_range))
                elif idx <= x.size:
                    xx[idx - 1] += sign * dx0 * shrink
                    nrm = np.linalg.norm(xx)
                    if nrm > domain.x_radius:
                        xx *= domain.x_radius / nrm
                else:
                    uu[idx - 1 - x.size] += sign * du0 * shrink
                    nrm = np.linalg.norm(uu)
                    if nrm > domain.u_radius:
                        uu *= domain.u_radius / nrm
                cand = value(tt, xx, uu)
                if cand < best:
                    best, t, x, u = cand, tt, xx, uu
                    moves += 1
    return (best, (t, x, u)), moves


class TestCoordinateDescent:
    @staticmethod
    def _compare(margin_fn, domain, point, accept=None):
        """Batched and one-point descents from ``point``: the same result,
        bit for bit, in at most 1 + moves margin calls (one batch, then one
        per move); returns every probed row."""
        rows = []

        def recorded(t, x, u):
            rows.append((t.copy(), x.copy(), u.copy()))
            return margin_fn(t, x, u)

        best, (t, x, u) = verify._coordinate_descent(recorded, domain, point, accept)
        (ref_best, (ref_t, ref_x, ref_u)), moves = _one_point_descent(
            margin_fn, domain, point, accept)
        assert best == ref_best and t == ref_t
        assert np.array_equal(x, ref_x) and np.array_equal(u, ref_u)
        assert moves > 0
        assert len(rows) <= 1 + moves
        return [np.concatenate(a) for a in zip(*rows)]

    def test_uppd_margin(self):
        rb = rigid_body()
        margin_fn = verify.check_uppd(rb.candidate, rb.domain, n=200, seed=3).margin_fn
        t, x, u = rb.domain.sample(4, rb.candidate.n, 0, seed=9)
        for i in range(4):
            self._compare(margin_fn, rb.domain, (t[i], x[i], u[i]))

    def test_issp_margin_with_mask_through_the_inverse_gain(self):
        cert = strictify_problem(scalar_linear(), n_samples=500)
        (contract,) = [r for r in cert.validation.reports if r.name == "strict-iss-contract"]
        chi = cert.chi
        rejected = []

        def mask_fn(t, x, u):
            keep = np.linalg.norm(x, axis=1) >= chi(np.linalg.norm(u, axis=1))
            rejected.append(int((~keep).sum()))
            return keep

        # just inside the implication region: raising |u| leaves it
        for x0, u0, t0 in ((1.02, 0.5, 0.7), (-3.1, -1.5, 1.3), (0.4, 0.19, 0.1)):
            self._compare(contract.margin_fn, cert.domain,
                          (t0, np.array([x0]), np.array([u0])), mask_fn)
        assert sum(rejected) > 0

    def test_t_probe_clipped_to_the_range(self):
        rb = rigid_body()
        margin_fn = verify.check_uppd(rb.candidate, rb.domain, n=200, seed=3).margin_fn
        t1 = rb.domain.t_range[1]
        t, x, u = self._compare(margin_fn, rb.domain,
                                (t1 - 1.0e-3, np.array([0.3, -1.2, 0.8]), np.zeros(0)))
        assert (t == t1).any()

    def test_x_probe_projected_onto_the_ball(self):
        rb = rigid_body()
        margin_fn = verify.check_uppd(rb.candidate, rb.domain, n=200, seed=3).margin_fn
        radius = rb.domain.x_radius
        x0 = 0.99 * radius * np.array([0.6, 0.0, 0.8])
        t, x, u = self._compare(margin_fn, rb.domain, (1.0, x0, np.zeros(0)))
        assert np.isclose(np.linalg.norm(x, axis=1), radius, rtol=1e-14, atol=0.0).any()

    def test_start_on_the_ball_boundary_projects_row_by_row(self, monkeypatch):
        # rows that may leave the ball fall back to the one-point norm
        rb = rigid_body()
        margin_fn = verify.check_uppd(rb.candidate, rb.domain, n=200, seed=3).margin_fn
        radius = rb.domain.x_radius
        row_norms = []
        norm = np.linalg.norm

        def counted(a, *args, **kwargs):
            if np.ndim(a) == 1 and not args and not kwargs:
                row_norms.append(a.copy())
            return norm(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        for x0 in (radius * np.array([0.6, 0.0, 0.8]), np.array([0.0, -radius, 0.0])):
            del row_norms[:]
            t, x, u = self._compare(margin_fn, rb.domain, (2.0, x0, np.zeros(0)))
            assert row_norms
            assert np.isclose(np.linalg.norm(x, axis=1), radius, rtol=1e-14, atol=0.0).any()

    def test_zero_x_radius_keeps_x_at_the_origin(self):
        dom = SampleDomain((0.0, 10.0), x_radius=0.0, u_radius=2.0)

        def margin_fn(t, x, u):
            return (t - 3.3) ** 2 + (x ** 2).sum(axis=1) + ((u - 0.7) ** 2).sum(axis=1)

        t, x, u = self._compare(margin_fn, dom, (1.0, np.zeros(2), np.zeros(1)))
        assert not x.any()      # every x probe is projected back to the origin

    def test_accept_rejecting_every_later_pass(self):
        # the first pass's steps are 1 in t and 0.5 in x, and every later
        # pass probes off that grid, where the mask rejects each row
        dom = SampleDomain((0.0, 10.0), x_radius=5.0, u_radius=0.0)

        def margin_fn(t, x, u):
            return (t - 3.3) ** 2 + ((x - [0.7, -0.4]) ** 2).sum(axis=1)

        def on_first_grid(t, x, u):
            return (t % 1.0 == 0.0) & (x % 0.5 == 0.0).all(axis=1)

        t, x, u = self._compare(margin_fn, dom, (1.0, np.zeros(2), np.zeros(0)),
                                on_first_grid)
        assert on_first_grid(t, x, u).all()
        best, point = verify._coordinate_descent(margin_fn, dom,
                                                 (1.0, np.zeros(2), np.zeros(0)),
                                                 on_first_grid)
        assert point[0] == 2.0 and np.array_equal(point[1], [0.5, -0.5])

    @pytest.mark.parametrize("fixture", [rigid_body, scalar_linear, counterexample_elw])
    def test_refined_margin_reevaluates_exactly(self, fixture):
        # each batch row is evaluated as that point alone would be, so the
        # margin recorded from a batch is the margin at the recorded point
        try:
            reports = strictify_problem(fixture()).validation.reports
        except ValidationFailedError as exc:     # counterexample-elw fails by design
            reports = [exc.report]
        for report in reports:
            assert report.reevaluate() == report.worst_margin

    @pytest.mark.parametrize("seed", [0, 1])
    def test_refined_margin_reevaluates_exactly_on_sweep(self, seed, sweep_problems):
        # the aperiodic problems too: a time's W and xi do not depend on the
        # batch it was evaluated in
        missed = []
        for problem in sweep_problems(seed):
            est = estimate_pe(problem.rate, problem.tau)
            problem.rate = problem.rate.with_pe(est.triple(certified=True))
            for report in strictify_problem(problem).validation.reports:
                if report.reevaluate() != report.worst_margin:
                    missed.append((problem.name, report.name))
        assert missed == []


class TestDeterminismAndReports:
    def test_worst_point_reproduces_margin(self):
        rb = rigid_body()
        rep = verify.check_disp_lyap(rb.candidate, rb.system, rb.rate,
                                     rb.mu_tilde, rb.omega, "value", rb.domain,
                                     n=4000, seed=21)
        assert rep.reevaluate() == pytest.approx(rep.worst_margin, abs=1e-12)
        assert rep.sampled_worst >= rep.worst_margin and rep.n_nonfinite == 0

    def test_same_seed_same_report(self):
        sc = scalar_linear()
        reps = [verify.check_issp_lyap(sc.candidate, sc.system, sc.rate, sc.mu,
                                       sc.chi, sc.domain, n=3000, seed=22)
                for _ in range(2)]
        assert reps[0].worst_margin == reps[1].worst_margin
        assert reps[0].worst_point[0] == reps[1].worst_point[0]

    def test_step3_implication_on_same_samples(self):
        # strict DIS (p = 1, state form) passing makes the derived chi and the
        # halved rate pass on the same sample set
        sc = scalar_linear()
        dom = sc.domain
        dis = verify.check_disp_lyap(sc.candidate, sc.system, ONE, sc.mu, sc.omega,
                                     "state", dom, n=4000, seed=23)
        assert dis.passed
        chi = dis_to_issp_chi(sc.mu, sc.omega)
        p = DecayRate(lambda t: np.sin(t) ** 2, period=PI, pe=PETriple(PI, PI / 2, 1.0))
        halved = scale_gain(1.0 / (2.0 * p.pe.pbar), sc.mu)
        issp = verify.check_issp_lyap(sc.candidate, sc.system, p, halved, chi,
                                      dom, n=4000, seed=23)
        assert issp.passed


def test_rigid_body_disturbed_run_within_fitted_envelope():
    """The fixture's oscillatory-disturbance run stays below the envelope
    fitted from zero-input and constant-amplitude batches."""
    rb = rigid_body()
    rng = np.random.default_rng(33)
    fit_batch = []
    for _ in range(3):
        x0 = rng.normal(size=3)
        x0 *= 2.0 / np.linalg.norm(x0)
        fit_batch.append(integrate(rb.system, x0, 0.0, 12.0, Signal.zero(2), 1e-3))
    for amp in (0.1, 0.3):
        fit_batch.append(integrate(rb.system, np.array([1.0, 0.0, -1.0]), 0.0, 12.0,
                                   Signal.constant([amp, 0.0]), 1e-3))
    disturbed = rb.sim.runs[1]
    tr = integrate(rb.system, disturbed.x0, 0.0, 12.0, disturbed.signal, 1e-3)
    beta, gamma = verify.fit_iss_envelope(fit_batch, rb.rate, holdout=[tr])
    rep = verify.check_iss_estimate([tr], rb.rate, beta, gamma)
    assert rep.passed
