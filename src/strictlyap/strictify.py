"""Turning non-strict Lyapunov functions into strict ones.

Given a candidate V with envelope gains, a decay rate p certified by a
window triple (tau, epsilon, pbar), and the route-specific gains, this
module builds the auxiliary comparison functions, the correction integral
xi(t), and the strictified function

    V#(t, x) = V(t, x) + xi(t) * w(V(t, x)),

then validates the guaranteed decay inequality of the resulting certificate
by sampling.  The three routes (strictify_issp, strictify_disp and
strictify_from_state_form) differ only in the premises they check, in how
they obtain mu_tilde and in the contract margin; each hands these to one
shared builder, _certify, which constructs w and the certificate and runs
the contract and coefficient-bounds checks.  The time derivative of V# is
always assembled from the analytic expansion

    d/dt V# = [1 + xi(t) w'(V)] Vdot + [tau p(t) - W(t)] w(V),

never by numeric differentiation, so certificate validation is independent
of integrator error (W is the sliding-window integral of p).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import decay as decay_mod
from . import verify
from .decay import DecayRate, PETriple
from .dynsys import ControlSystem
from .funcalc import GainFunction, compose, inverse_gain, scale_gain
from .verify import InequalityReport, SampleDomain

GAIN_MARGIN = 1.25          # the 5/4 factor multiplying the disturbance gain
DEFAULT_FACTOR_ISS = 0.25   # w = (factor/tau) * mu_tilde
DEFAULT_FACTOR_DIS = 0.125


class SlopeBoundViolatedError(RuntimeError):
    """w'(s) exceeded 1/(2 tau^2 pbar); use a smaller factor."""


class UnboundedSupError(RuntimeError):
    """The sampled sup defining the disturbance envelope keeps growing."""


class ValidationFailedError(RuntimeError):
    """A required sampled inequality failed; carries the offending report."""

    def __init__(self, report: InequalityReport, certificate=None):
        detail = report.notes if not np.isfinite(report.worst_margin) else (
            f"margin {report.worst_margin!r} at t={report.worst_point[0]!r}, "
            f"x={report.worst_point[1]!r}, u={report.worst_point[2]!r}")
        super().__init__(f"check '{report.name}' failed: {detail}")
        self.report = report
        self.certificate = certificate


@dataclass(frozen=True)
class LyapunovCandidate:
    """V(t, x) with its time/space derivatives and envelope gains.

    Callables take batches: t of shape (k,) (or a scalar) with x of shape
    (k, n).  Point calls (x of shape (n,)) are for RK4 stop tests only;
    V, dV_dt and grad_x built from expressions answer them on floats.
    """

    n: int
    V: Callable
    dV_dt: Callable
    grad_x: Callable
    alpha1: GainFunction
    alpha2: GainFunction
    alpha3: GainFunction
    period: float | None = None
    label: str = ""


@dataclass
class CertificateValidation:
    reports: list[InequalityReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def worst(self) -> InequalityReport | None:
        failing = [r for r in self.reports if not r.passed]
        pool = failing or self.reports
        return min(pool, key=lambda r: r.worst_margin) if pool else None


@dataclass
class StrictCertificate:
    """The strictified function with its guaranteed decay inequality.

    kind 'strict-ISS': |x| >= chi(|u|)  =>  d/dt V# <= -decay(|x|).
    kind 'strict-DIS': d/dt V# <= -decay(|x|) + (5/4) Omega(|u|), everywhere.
    In both kinds decay(s) = epsilon * w(alpha1(s)).
    """

    kind: str
    candidate: LyapunovCandidate
    system: ControlSystem
    rate: DecayRate
    pe: PETriple
    w: GainFunction
    mu_tilde: GainFunction
    decay: GainFunction
    factor: float
    alpha2_tilde: GainFunction | None = None
    chi: GainFunction | None = None
    omega: GainFunction | None = None
    gain_margin: float | None = None
    domain: SampleDomain | None = None
    validation: CertificateValidation = field(default_factory=CertificateValidation)
    _table: tuple | None = field(default=None, repr=False)

    # -- time-dependent coefficients ---------------------------------------

    def _fold(self, t):
        """t folded into the table's period; a float stays a Python float,
        which the table answers without scipy."""
        period = self.rate.period
        return float(t) % period if isinstance(t, float) else np.mod(t, period)

    def _window_xi(self, t):
        """(W(t), xi(t)): the cached one-period table, else one tabulation."""
        if self._table is not None:
            s = self._fold(t)
            return self._table[0](s), self._table[1](s)
        return decay_mod._tabulate(self.rate, self.pe.tau, t)

    def xi_fn(self, t):
        """xi(t): an array of the shape of t, or a float at a float t."""
        if self._table is not None:
            return self._table[1](self._fold(t))
        return self._window_xi(t)[1]

    def window_fn(self, t):
        """W(t) = int_{t-tau}^t p: an array of the shape of t, or a float at a
        float t."""
        if self._table is not None:
            return self._table[0](self._fold(t))
        return self._window_xi(t)[0]

    # -- the strictified function -------------------------------------------

    def v_sharp(self, t, x):
        v = self.candidate.V(t, x)
        return v + self.xi_fn(t) * self.w(v)

    def _expand(self, t, v, vd):
        """d/dt V# = (1 + xi w'(V)) vd + (tau p - W) w(V), with vd = d/dt V."""
        W, xi = self._window_xi(t)
        return ((1.0 + xi * self.w.deriv(v)) * vd
                + (self.pe.tau * self.rate(t) - W) * self.w(v))

    def vdot_sharp(self, t, x, u):
        """Analytic expansion of d/dt V# along the system."""
        return self._expand(t, self.candidate.V(t, x),
                            verify.vdot(self.candidate, self.system, t, x, u))

    @property
    def passed(self) -> bool:
        return self.validation.passed

    def sharp_candidate(self) -> "LyapunovCandidate":
        """V# packaged as a candidate of its own.

        Envelopes: V <= V# <= V + xi_max w(V) and the coefficient bound
        1 + xi w' <= 5/4 give alpha1# = alpha1, alpha2# = alpha2 + xi_max
        w(alpha2), alpha3# = (5/4) alpha3 + 2 tau pbar w(alpha2) (the last
        term bounds the extra d/dt contribution |xi'| w(V) <= 2 tau pbar
        w(alpha2(|x|))).
        """
        cand, w = self.candidate, self.w
        xi_max = self.pe.tau ** 2 * self.pe.pbar / 2.0
        dxi_max = 2.0 * self.pe.tau * self.pe.pbar

        def dV_dt(t, x):
            return self._expand(t, cand.V(t, x), cand.dV_dt(t, x))

        def grad_x(t, x):
            coef = np.asarray(1.0 + self.xi_fn(t) * w.deriv(cand.V(t, x)))
            return coef[..., None] * np.asarray(cand.grad_x(t, x), dtype=float)

        a2, a3 = cand.alpha2, cand.alpha3
        alpha2_sharp = GainFunction(
            lambda s: a2(s) + xi_max * w(a2(s)), None, probe_max=a2.probe_max,
            label=f"({a2.label or 'a2'}) + {xi_max!r}*w(a2)")
        alpha3_sharp = GainFunction(
            lambda s: GAIN_MARGIN * a3(s) + dxi_max * w(a2(s)), None,
            probe_max=a3.probe_max,
            label=f"{GAIN_MARGIN}*({a3.label or 'a3'}) + {dxi_max!r}*w(a2)")
        period = None
        if cand.period is not None and self.rate.period is not None:
            ratio = cand.period / self.rate.period
            period = cand.period if abs(ratio - round(ratio)) < 1e-9 else None
        return LyapunovCandidate(n=cand.n, V=self.v_sharp, dV_dt=dV_dt, grad_x=grad_x,
                                 alpha1=cand.alpha1, alpha2=alpha2_sharp,
                                 alpha3=alpha3_sharp, period=period,
                                 label=f"sharp({cand.label})" if cand.label else "sharp")

    def report_lines(self) -> list[str]:
        """Stable-order structured text description."""
        pe = self.pe
        lines = [
            "strict-lyapunov-certificate",
            f"kind: {self.kind}",
            f"system: {self.system.label or '(unnamed)'}",
            f"state_dim: {self.system.n}",
            f"input_dim: {self.system.m}",
            f"pe.tau: {pe.tau:.17g}",
            f"pe.epsilon: {pe.epsilon:.17g}",
            f"pe.pbar: {pe.pbar:.17g}",
            f"factor: {self.factor:.17g}",
            f"w: {self.w.label or '(numeric)'}",
            f"mu_tilde: {self.mu_tilde.label or '(numeric)'}",
            f"decay: {self.decay.label or '(numeric)'}",
        ]
        if self.alpha2_tilde is not None:
            lines.append(f"alpha2_tilde: {self.alpha2_tilde.label or '(numeric)'}")
        if self.chi is not None:
            lines.append(f"chi: {self.chi.label or '(numeric)'}")
        if self.omega is not None:
            lines.append(f"omega: {self.omega.label or '(numeric)'}")
        if self.gain_margin is not None:
            lines.append(f"gain_margin: {self.gain_margin:.17g}")
        if self.domain is not None:
            d = self.domain
            lines.append(f"domain.t: [{d.t_range[0]:.17g}, {d.t_range[1]:.17g}]")
            lines.append(f"domain.x_radius: {d.x_radius:.17g}")
            lines.append(f"domain.u_radius: {d.u_radius:.17g}")
        for r in self.validation.reports:
            lines.append(f"check.{r.name}: margin={r.worst_margin:.6e} "
                         f"n={r.n_samples} {'PASS' if r.passed else 'FAIL'}")
        lines.append(f"validation: {'PASS' if self.passed else 'FAIL'}")
        return lines


# ---------------------------------------------------------------------------
# Constructions

def build_alpha2_tilde(alpha2: GainFunction, mu: GainFunction, tau: float,
                       pbar: float) -> GainFunction:
    """max{tau pbar / 2, 1} * (alpha2(s) + mu(s) + s)."""
    if tau <= 0 or pbar <= 0:
        raise ValueError("tau and pbar must be positive")
    c = max(tau * pbar / 2.0, 1.0)

    def fn(s):
        return c * (alpha2(s) + mu(s) + s)

    def deriv(s):
        return c * (alpha2.deriv(s) + mu.deriv(s) + 1.0)

    label = f"{c!r}*(({alpha2.label or 'a2'}) + ({mu.label or 'mu'}) + s)"
    return GainFunction(fn, deriv, probe_max=min(alpha2.probe_max, mu.probe_max),
                        label=label)


def build_w(mu_tilde: GainFunction, tau: float, pbar: float,
            factor: float = DEFAULT_FACTOR_ISS, n_grid: int = 1024,
            tol: float = 1.0e-9) -> GainFunction:
    """w(s) = (factor/tau) * mu_tilde(s), gated by the slope bound.

    Sampled w'(s) must stay within [0, 1/(2 tau^2 pbar)]; otherwise the
    certificate would lose the coefficient bound 1 + xi w' <= 5/4 and the
    construction is refused.
    """
    if not 0.0 < factor <= 0.25 + 1.0e-12:
        raise ValueError("factor must lie in (0, 1/4]")
    w = scale_gain(factor / tau, mu_tilde)
    bound = 1.0 / (2.0 * tau * tau * pbar)
    s = np.linspace(0.0, mu_tilde.probe_max, n_grid)
    slopes = np.asarray(w.deriv(s), dtype=float)
    if float(slopes.max()) > bound + tol:
        j = int(np.argmax(slopes))
        raise SlopeBoundViolatedError(
            f"w'({s[j]!r}) = {slopes[j]!r} exceeds 1/(2 tau^2 pbar) = {bound!r}; "
            f"retry with factor < {factor * bound / float(slopes.max()):.6g}")
    if float(slopes.min()) < -tol:
        j = int(np.argmin(slopes))
        raise SlopeBoundViolatedError(f"w'({s[j]!r}) = {slopes[j]!r} is negative")
    return w


def dis_to_issp_chi(mu: GainFunction, omega: GainFunction) -> GainFunction:
    """chi = mu^{-1}(2 Omega(.)), the implication threshold of the DIS route."""
    return compose(inverse_gain(mu), scale_gain(2.0, omega))


def default_domain(candidate: LyapunovCandidate, system: ControlSystem,
                   p: DecayRate, tau: float) -> SampleDomain:
    period = max(candidate.period or 0.0, system.period or 0.0, p.period or 0.0)
    return SampleDomain((0.0, max(period, tau) + tau), 10.0, 5.0)


def _xi_splines(p: DecayRate, tau: float):
    """The one-period (W, xi) table of a periodic rate; None otherwise.

    Each entry answers a float query in Python (``decay.PointSpline``), so
    V# at a point, as in an RK4 stop test, makes no scipy call.
    """
    if p.period is None:
        return None
    return tuple(map(decay_mod.PointSpline, decay_mod.window_table(p, tau, 0.0, p.period)))


def _prepare(candidate: LyapunovCandidate, system: ControlSystem, p: DecayRate,
             domain: SampleDomain | None) -> tuple[PETriple, SampleDomain]:
    """The PE triple of ``p`` and the sampling domain, defaulted if None."""
    if p.pe is None:
        raise ValueError("decay rate carries no PE triple; run estimate_pe first")
    if domain is None:
        domain = default_domain(candidate, system, p, p.pe.tau)
    return p.pe, domain


def _require(report: InequalityReport) -> InequalityReport:
    """A premise report that passed; a failed one is raised."""
    if not report.passed:
        raise ValidationFailedError(report)
    return report


def _iss_margin(cert: StrictCertificate, t, x, u):
    return -cert.vdot_sharp(t, x, u) - cert.decay(np.linalg.norm(x, axis=1))


def _dis_margin(cert: StrictCertificate, t, x, u):
    return (_iss_margin(cert, t, x, u)
            + cert.gain_margin * cert.omega(np.linalg.norm(u, axis=1)))


def _certify(kind: str, candidate: LyapunovCandidate, system: ControlSystem,
             p: DecayRate, domain: SampleDomain, premises: list[InequalityReport],
             mu_tilde: GainFunction, factor: float, margin: Callable,
             n_samples: int, seed: int, tol: float, mask_fn: Callable | None = None,
             **extra) -> StrictCertificate:
    """The construction shared by every route, after its premises passed.

    Builds w = (factor/tau) mu_tilde, the decay gain and the certificate
    (``extra``: chi, omega, gain_margin, alpha2_tilde), then samples the
    contract margin(cert, t, x, u) >= 0 on mask_fn (seed + 2) and the
    coefficient bounds 0 <= xi w'(V) <= 1/4 (seed + 3).
    """
    pe = p.pe
    w = build_w(mu_tilde, pe.tau, pe.pbar, factor)
    cert = StrictCertificate(
        kind=kind, candidate=candidate, system=system, rate=p, pe=pe, w=w,
        mu_tilde=mu_tilde, decay=_decay_gain(pe.epsilon, w, candidate.alpha1),
        factor=factor, domain=domain, _table=_xi_splines(p, pe.tau), **extra)

    def bounds_fn(t, x, u):
        q = cert.xi_fn(t) * w.deriv(candidate.V(t, x))
        return np.minimum(q, 0.25 - q)

    contract = verify._run_check(f"{kind.lower()}-contract", partial(margin, cert),
                                 domain, candidate.n, system.m, n_samples, seed + 2,
                                 tol, mask_fn=mask_fn)
    bounds = verify._run_check("coefficient-bounds", bounds_fn, domain,
                               candidate.n, 0, n_samples, seed + 3, tol)
    cert.validation.reports = [*premises, bounds, contract]
    if not cert.passed:
        raise ValidationFailedError(cert.validation.worst(), cert)
    return cert


def strictify_issp(candidate: LyapunovCandidate, system: ControlSystem,
                   p: DecayRate, chi: GainFunction, mu: GainFunction,
                   factor: float = DEFAULT_FACTOR_ISS,
                   domain: SampleDomain | None = None,
                   n_samples: int = verify.DEFAULT_SAMPLES, seed: int = 0,
                   tol: float = verify.DEFAULT_TOL) -> StrictCertificate:
    """Strict-ISS certificate from a rate-dependent implication premise.

    Requires p to carry a certified PE triple and (V, p, chi, mu) to pass
    the sampled implication check.  The issued guarantee is

        |x| >= chi(|u|)  =>  d/dt V# <= -epsilon * w(alpha1(|x|)).
    """
    pe, domain = _prepare(candidate, system, p, domain)
    uppd = _require(verify.check_uppd(candidate, domain, n_samples, seed, tol))
    premise = _require(verify.check_issp_lyap(candidate, system, p, mu, chi, domain,
                                              n_samples, seed + 1, tol))
    a2t = build_alpha2_tilde(candidate.alpha2, mu, pe.tau, pe.pbar)
    mu_tilde = compose(mu, inverse_gain(a2t))

    def mask_fn(t, x, u):
        return np.linalg.norm(x, axis=1) >= chi(np.linalg.norm(u, axis=1))

    return _certify("strict-ISS", candidate, system, p, domain, [uppd, premise],
                    mu_tilde, factor, _iss_margin, n_samples, seed, tol,
                    mask_fn=mask_fn, alpha2_tilde=a2t, chi=chi)


def strictify_disp(candidate: LyapunovCandidate, system: ControlSystem,
                   p: DecayRate, mu_tilde: GainFunction, omega: GainFunction,
                   factor: float = DEFAULT_FACTOR_DIS,
                   domain: SampleDomain | None = None,
                   n_samples: int = verify.DEFAULT_SAMPLES, seed: int = 0,
                   tol: float = verify.DEFAULT_TOL) -> StrictCertificate:
    """Strict-DIS certificate from a dissipation premise in value form.

    Requires the sampled premise Vdot <= -p(t) mu_tilde(V) + Omega(|u|).
    The issued guarantee holds at every sampled point:

        d/dt V# <= -epsilon * w(alpha1(|x|)) + (5/4) Omega(|u|).
    """
    _, domain = _prepare(candidate, system, p, domain)
    uppd = _require(verify.check_uppd(candidate, domain, n_samples, seed, tol))
    premise = _require(verify.check_disp_lyap(candidate, system, p, mu_tilde, omega,
                                              "value", domain, n_samples, seed + 1, tol))
    return _certify("strict-DIS", candidate, system, p, domain, [uppd, premise],
                    mu_tilde, factor, _dis_margin, n_samples, seed, tol,
                    omega=omega, gain_margin=GAIN_MARGIN)


def strictify_from_state_form(candidate: LyapunovCandidate, system: ControlSystem,
                              p: DecayRate, mu: GainFunction, omega: GainFunction,
                              factor: float = DEFAULT_FACTOR_ISS,
                              domain: SampleDomain | None = None,
                              n_samples: int = verify.DEFAULT_SAMPLES,
                              seed: int = 0,
                              tol: float = verify.DEFAULT_TOL) -> StrictCertificate:
    """Strict-DIS certificate from the state-form dissipation premise.

    Checks Vdot <= -p(t) mu(|x|) + Omega(|u|) first, then rewrites the decay
    term in value form through alpha2-tilde and certifies as strictify_disp
    does (V <= alpha2_tilde(|x|) makes mu(|x|) >= mu_tilde(V)).
    """
    pe, domain = _prepare(candidate, system, p, domain)
    state_premise = _require(verify.check_disp_lyap(
        candidate, system, p, mu, omega, "state", domain, n_samples, seed + 7, tol))
    a2t = build_alpha2_tilde(candidate.alpha2, mu, pe.tau, pe.pbar)
    mu_tilde = compose(mu, inverse_gain(a2t))
    uppd = _require(verify.check_uppd(candidate, domain, n_samples, seed, tol))
    premise = _require(verify.check_disp_lyap(candidate, system, p, mu_tilde, omega,
                                              "value", domain, n_samples, seed + 1, tol))
    return _certify("strict-DIS", candidate, system, p, domain,
                    [uppd, state_premise, premise], mu_tilde, factor, _dis_margin,
                    n_samples, seed, tol, omega=omega, gain_margin=GAIN_MARGIN,
                    alpha2_tilde=a2t)


def _decay_gain(epsilon: float, w: GainFunction, alpha1: GainFunction) -> GainFunction:
    g = compose(w, alpha1)
    return GainFunction(lambda s: epsilon * g(s), lambda s: epsilon * g.deriv(s),
                        probe_max=alpha1.probe_max,
                        label=f"{epsilon!r}*({w.label or 'w'})(({alpha1.label or 'a1'}))")


# ---------------------------------------------------------------------------
# The disturbance envelope of the strict route (Omega construction)

def construct_omega(system: ControlSystem, candidate: LyapunovCandidate,
                    mu: GainFunction, chi: GainFunction,
                    s_grid: np.ndarray | None = None, n_per_s: int = 4000,
                    seed: int = 0, t_horizon: float = 10.0,
                    growth_tol: float = 1.0e-6) -> GainFunction:
    """Monotone envelope dominating M(s) = sup {Vdot + mu(|x|)} over
    t, |x| <= chi(s), |u| <= s.

    Sampled over t in [0, T] for periodic systems; aperiodic systems get a
    doubling t-horizon scan, and persistent growth raises UnboundedSupError
    (the uniform-boundedness premise fails).  Each s-value draws one batch
    with t in [0, 1], which every horizon T reads as T * t.
    """
    if s_grid is None:
        s_grid = np.concatenate([[0.0], np.geomspace(1.0e-3, 10.0, 63)])
    s_grid = np.asarray(s_grid, dtype=float)
    horizons = ([system.period] if system.period is not None
                else [t_horizon, 2.0 * t_horizon, 4.0 * t_horizon])

    sups = np.empty((len(horizons), s_grid.size))
    for i, s in enumerate(s_grid):
        dom = SampleDomain((0.0, 1.0), float(chi(s)), float(s))
        t01, x, u = dom.sample(n_per_s, candidate.n, system.m, seed + i)
        mu_x = mu(np.linalg.norm(x, axis=1))
        for k, T in enumerate(horizons):
            vd = verify.vdot(candidate, system, T * t01, x, u)
            sups[k, i] = float((vd + mu_x).max())

    M = sups[-1]
    if system.period is None:
        m1, m2, m4 = sups
        g1 = m2 - m1
        g2 = m4 - m2
        scale = np.maximum(1.0, np.abs(m1))
        growing = (g2 >= 0.4 * g1) & (g1 > growth_tol * scale)
        if growing.any():
            j = int(np.argmax(np.where(growing, g2, -np.inf)))
            raise UnboundedSupError(
                f"sup of Vdot + mu at s = {float(s_grid[j]):g} grows without bound "
                f"({float(m1[j]):.6g} -> {float(m2[j]):.6g} -> {float(m4[j]):.6g} "
                f"as the horizon doubles)")

    # monotone piecewise-linear majorant with a 5% sampling-safety margin,
    # pinned to 0 at 0 when possible
    vals = 1.05 * np.maximum.accumulate(np.maximum(M, 0.0))
    if M[0] > 0.0:
        vals[0] = 1.05 * M[0]  # not class-Kinf; spot checks downstream flag it
    last_slope = 0.0
    if s_grid[-1] > s_grid[-2]:
        last_slope = (vals[-1] - vals[-2]) / (s_grid[-1] - s_grid[-2])

    def fn(s):
        s = np.asarray(s, dtype=float)
        base = np.interp(s, s_grid, vals)
        over = np.maximum(s - s_grid[-1], 0.0)
        return np.maximum(base + (last_slope + 1.0) * over, 1.0e-6 * s)

    return GainFunction(fn, None, probe_max=float(s_grid[-1]),
                        label="envelope(Vdot + mu)")
