"""Turning non-strict Lyapunov functions into strict ones.

Given a candidate V with envelope gains, a decay rate p certified by a
window triple (tau, epsilon, pbar), and the route-specific gains, this
module builds the auxiliary comparison functions, the correction integral
xi(t), and the strictified function

    V#(t, x) = V(t, x) + xi(t) * w(V(t, x)),

then validates the guaranteed decay inequality of the resulting certificate
by sampling.  The three routes (strictify_issp, strictify_disp and
strictify_from_state_form) differ only in the premises they check and in
how they obtain mu_tilde; each hands these to one shared builder, _certify,
which constructs w and the certificate and runs the contract (the margin
of its kind) and coefficient-bounds checks.  The time derivative of V# is
always assembled from the analytic expansion

    d/dt V# = [1 + xi(t) w'(V)] Vdot + [tau p(t) - W(t)] w(V),

never by numeric differentiation, so certificate validation is independent
of integrator error (W is the sliding-window integral of p).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import decay as decay_mod
from . import verify
from .decay import PASS_TOL, DecayRate, PETriple
from .dynsys import ControlSystem
from .errors import ValidationFailure
from .funcalc import GainFunction, compose, inverse_gain, scale_gain
from .verify import InequalityReport, SampleDomain

GAIN_MARGIN = 1.25          # the 5/4 factor multiplying the disturbance gain
DEFAULT_FACTOR_ISS = 0.25   # w = (factor/tau) * mu_tilde
DEFAULT_FACTOR_DIS = 0.125
SLOPE_GRID = 1024           # points on [0, probe_max] where build_w gates w'
# the Omega envelope: s-values, draws per s-value, and the doubling
# t-horizons an aperiodic system is scanned over
OMEGA_S_GRID = np.concatenate([[0.0], np.geomspace(1.0e-3, 10.0, 63)])
OMEGA_DRAWS = 4000
OMEGA_HORIZONS = (10.0, 20.0, 40.0)


class SlopeBoundViolatedError(ValidationFailure):
    """w'(s) exceeded 1/(2 tau^2 pbar); use a smaller factor."""


class UnboundedSupError(ValidationFailure):
    """The sampled sup defining the disturbance envelope keeps growing."""


class ValidationFailedError(ValidationFailure):
    """A required sampled inequality failed; carries the offending report."""

    def __init__(self, report: InequalityReport, certificate=None):
        detail = report.notes if not np.isfinite(report.worst_margin) else (
            f"margin {report.worst_margin!r} at {verify.point_text(report.worst_point)}")
        super().__init__(f"check '{report.name}' failed: {detail}")
        self.report = report
        self.certificate = certificate


@dataclass(frozen=True)
class LyapunovCandidate:
    """V(t, x) with its time/space derivatives and envelope gains.

    Callables take batches: t of shape (k,) with x of shape (k, n).  Point calls (x of shape (n,)) are for RK4 stop tests only;
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
    _windows: decay_mod.WindowTables | None = field(default=None, repr=False)

    # -- time-dependent coefficients ---------------------------------------

    def xi_fn(self, t):
        """xi(t): an array of the shape of t, or a float at a float t."""
        return self._windows.column(1, t)

    def window_fn(self, t):
        """W(t) = int_{t-tau}^t p: an array of the shape of t, or a float at a
        float t."""
        return self._windows.column(0, t)

    # -- the strictified function -------------------------------------------

    def v_sharp(self, t, x):
        xi = self.xi_fn(t)       # first, so a non-finite t is named here
        v = self.candidate.V(t, x)
        return v + xi * self.w(v)

    def vdot_sharp(self, t, x, u):
        """Analytic expansion of d/dt V# along the system."""
        return _dvsharp_dt(self._windows, self.w, t, self.candidate.V(t, x),
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
            return _dvsharp_dt(self._windows, w, t, cand.V(t, x), cand.dV_dt(t, x))

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
# The time derivative of V#, from the certificate's (W, xi) lookup of its
# rate.  Certificate checks call it and the lookup directly, so a report's
# margin function holds no reference to its certificate, which would put
# every certificate in a reference cycle.

def _dvsharp_dt(windows: decay_mod.WindowTables, w: GainFunction, t, v, vd):
    """d/dt V# = (1 + xi w'(V)) vd + (tau p - W) w(V), with vd = d/dt V."""
    W, xi = windows(t)
    return (1.0 + xi * w.deriv(v)) * vd + (windows.tau * windows.rate(t) - W) * w(v)


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
                        label=label, point_exact=alpha2.point_exact and mu.point_exact)


def build_w(mu_tilde: GainFunction, tau: float, pbar: float,
            factor: float = DEFAULT_FACTOR_ISS) -> GainFunction:
    """w(s) = (factor/tau) * mu_tilde(s), gated by the slope bound.

    w'(s), sampled at SLOPE_GRID points of [0, probe_max], must be finite
    and stay within [0, 1/(2 tau^2 pbar)] up to PASS_TOL; otherwise the
    certificate would lose the coefficient bound 1 + xi w' <= 5/4 and the
    construction is refused.
    """
    if not 0.0 < factor <= 0.25 + 1.0e-12:
        raise ValueError("factor must lie in (0, 1/4]")
    w = scale_gain(factor / tau, mu_tilde)
    bound = float(1.0 / (2.0 * tau * tau * pbar))
    s = np.linspace(0.0, mu_tilde.probe_max, SLOPE_GRID)
    with np.errstate(all="ignore"):
        slopes = np.asarray(w.deriv(s), dtype=float)
    bad = ~np.isfinite(slopes)
    if bad.any():
        j = int(np.argmax(bad))
        raise SlopeBoundViolatedError(
            f"w'({float(s[j])!r}) = {float(slopes[j])!r} is not finite")
    if float(slopes.max()) > bound + PASS_TOL:
        j = int(np.argmax(slopes))
        raise SlopeBoundViolatedError(
            f"w'({float(s[j])!r}) = {float(slopes[j])!r} exceeds 1/(2 tau^2 pbar) = "
            f"{bound!r}; retry with factor < {factor * bound / float(slopes.max()):.6g}")
    if float(slopes.min()) < -PASS_TOL:
        j = int(np.argmin(slopes))
        raise SlopeBoundViolatedError(f"w'({float(s[j])!r}) = {float(slopes[j])!r} is negative")
    return w


def dis_to_issp_chi(mu: GainFunction, omega: GainFunction) -> GainFunction:
    """chi = mu^{-1}(2 Omega(.)), the implication threshold of the DIS route."""
    return compose(inverse_gain(mu), scale_gain(2.0, omega))


def default_domain(candidate: LyapunovCandidate, system: ControlSystem,
                   p: DecayRate, tau: float) -> SampleDomain:
    """The box a route samples when given none: ``SampleDomain``'s radii,
    and ``t`` in `default_t_range`.  Raises ValueError, through
    ``SampleDomain``, when that range's end overflows."""
    return SampleDomain(default_t_range(candidate, system, p, tau))


def default_t_range(candidate: LyapunovCandidate, system: ControlSystem,
                    p: DecayRate, tau: float) -> tuple[float, float]:
    """``[0, max(P, tau) + tau]``, which an INI's `[domains]` keys override:
    one period of ``xi`` (that of ``p``) plus one window, with ``P`` the
    largest of the candidate's, system's and rate's periods (0 if none).
    The end is inf when the sum overflows."""
    period = max(candidate.period or 0.0, system.period or 0.0, p.period or 0.0)
    return 0.0, max(period, tau) + tau


def _xi_splines(p: DecayRate, tau: float) -> decay_mod.WindowTables:
    """The certificate's (W, xi) lookup: the rate's own for window tau, so
    the blocks `estimate_pe` built are read again.

    A table answers a float query in Python, so V# at a point, as in an RK4
    stop test, makes no array call.
    """
    return p.windows(tau)


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


def _certify(kind: str, candidate: LyapunovCandidate, system: ControlSystem,
             p: DecayRate, domain: SampleDomain, premises: list[InequalityReport],
             mu_tilde: GainFunction, factor: float, n_samples: int, seed: int,
             mask_fn: Callable | None = None, **extra) -> StrictCertificate:
    """The construction shared by every route, after its premises passed.

    Builds w = (factor/tau) mu_tilde, the decay gain and the certificate
    (``extra``: chi, omega, gain_margin, alpha2_tilde), then samples the
    contract of its kind >= 0 on mask_fn (seed + 2) and the coefficient
    bounds 0 <= xi w'(V) <= 1/4 (seed + 3):

        strict-ISS:  -d/dt V# - decay(|x|)
        strict-DIS:  -d/dt V# - decay(|x|) + gain_margin * omega(|u|)
    """
    pe = p.pe
    tau = pe.tau
    w = build_w(mu_tilde, tau, pe.pbar, factor)
    windows = _xi_splines(p, tau)
    decay = _decay_gain(pe.epsilon, w, candidate.alpha1)
    omega, gain_margin = extra.get("omega"), extra.get("gain_margin")

    def contract_fn(t, x, u):
        vdot_sharp = _dvsharp_dt(windows, w, t, candidate.V(t, x),
                                 verify.vdot(candidate, system, t, x, u))
        margin = -vdot_sharp - decay(np.linalg.norm(x, axis=1))
        if kind == "strict-DIS":
            margin = margin + gain_margin * omega(np.linalg.norm(u, axis=1))
        return margin

    def bounds_fn(t, x, u):
        q = windows.column(1, t) * w.deriv(candidate.V(t, x))
        return np.minimum(q, 0.25 - q)

    cert = StrictCertificate(
        kind=kind, candidate=candidate, system=system, rate=p, pe=pe, w=w,
        mu_tilde=mu_tilde, decay=decay, factor=factor, domain=domain, _windows=windows,
        **extra)
    contract = verify._run_check(f"{kind.lower()}-contract", contract_fn,
                                 domain, candidate.n, system.m, n_samples, seed + 2,
                                 mask_fn=mask_fn)
    bounds = verify._run_check("coefficient-bounds", bounds_fn, domain,
                               candidate.n, 0, n_samples, seed + 3)
    cert.validation.reports = [*premises, bounds, contract]
    if not cert.passed:
        raise ValidationFailedError(cert.validation.worst(), cert)
    return cert


def strictify_issp(candidate: LyapunovCandidate, system: ControlSystem,
                   p: DecayRate, chi: GainFunction, mu: GainFunction,
                   factor: float = DEFAULT_FACTOR_ISS,
                   domain: SampleDomain | None = None,
                   n_samples: int = verify.DEFAULT_SAMPLES,
                   seed: int = 0) -> StrictCertificate:
    """Strict-ISS certificate from a rate-dependent implication premise.

    Requires p to carry a certified PE triple and (V, p, chi, mu) to pass
    the sampled implication check.  The issued guarantee is

        |x| >= chi(|u|)  =>  d/dt V# <= -epsilon * w(alpha1(|x|)).
    """
    pe, domain = _prepare(candidate, system, p, domain)
    uppd = _require(verify.check_uppd(candidate, domain, n_samples, seed))
    premise = _require(verify.check_issp_lyap(candidate, system, p, mu, chi, domain,
                                              n_samples, seed + 1))
    a2t = build_alpha2_tilde(candidate.alpha2, mu, pe.tau, pe.pbar)
    mu_tilde = compose(mu, inverse_gain(a2t))
    return _certify("strict-ISS", candidate, system, p, domain, [uppd, premise],
                    mu_tilde, factor, n_samples, seed,
                    mask_fn=verify.implication_mask(chi), alpha2_tilde=a2t, chi=chi)


def strictify_disp(candidate: LyapunovCandidate, system: ControlSystem,
                   p: DecayRate, mu_tilde: GainFunction, omega: GainFunction,
                   factor: float = DEFAULT_FACTOR_DIS,
                   domain: SampleDomain | None = None,
                   n_samples: int = verify.DEFAULT_SAMPLES,
                   seed: int = 0) -> StrictCertificate:
    """Strict-DIS certificate from a dissipation premise in value form.

    Requires the sampled premise Vdot <= -p(t) mu_tilde(V) + Omega(|u|).
    The issued guarantee holds at every sampled point:

        d/dt V# <= -epsilon * w(alpha1(|x|)) + (5/4) Omega(|u|).
    """
    _, domain = _prepare(candidate, system, p, domain)
    uppd = _require(verify.check_uppd(candidate, domain, n_samples, seed))
    premise = _require(verify.check_disp_lyap(candidate, system, p, mu_tilde, omega,
                                              "value", domain, n_samples, seed + 1))
    return _certify("strict-DIS", candidate, system, p, domain, [uppd, premise],
                    mu_tilde, factor, n_samples, seed,
                    omega=omega, gain_margin=GAIN_MARGIN)


def strictify_from_state_form(candidate: LyapunovCandidate, system: ControlSystem,
                              p: DecayRate, mu: GainFunction, omega: GainFunction,
                              factor: float = DEFAULT_FACTOR_ISS,
                              domain: SampleDomain | None = None,
                              n_samples: int = verify.DEFAULT_SAMPLES,
                              seed: int = 0) -> StrictCertificate:
    """Strict-DIS certificate from the state-form dissipation premise.

    Checks Vdot <= -p(t) mu(|x|) + Omega(|u|) first, then rewrites the decay
    term in value form through alpha2-tilde and certifies as strictify_disp
    does (V <= alpha2_tilde(|x|) makes mu(|x|) >= mu_tilde(V)).
    """
    pe, domain = _prepare(candidate, system, p, domain)
    state_premise = _require(verify.check_disp_lyap(
        candidate, system, p, mu, omega, "state", domain, n_samples, seed + 7))
    a2t = build_alpha2_tilde(candidate.alpha2, mu, pe.tau, pe.pbar)
    mu_tilde = compose(mu, inverse_gain(a2t))
    uppd = _require(verify.check_uppd(candidate, domain, n_samples, seed))
    premise = _require(verify.check_disp_lyap(candidate, system, p, mu_tilde, omega,
                                              "value", domain, n_samples, seed + 1))
    return _certify("strict-DIS", candidate, system, p, domain,
                    [uppd, state_premise, premise], mu_tilde, factor,
                    n_samples, seed, omega=omega, gain_margin=GAIN_MARGIN,
                    alpha2_tilde=a2t)


def _decay_gain(epsilon: float, w: GainFunction, alpha1: GainFunction) -> GainFunction:
    """epsilon * w(alpha1(s)), under the label the reports print."""
    return replace(scale_gain(epsilon, compose(w, alpha1)),
                   label=f"{epsilon!r}*({w.label or 'w'})(({alpha1.label or 'a1'}))")


# ---------------------------------------------------------------------------
# The disturbance envelope of the strict route (Omega construction)

def _horizon_growth(m1, m2, m4):
    """Whether sups over the horizons H, 2H and 4H keep growing: the second
    gain m4 - m2 is at least 0.4 times the first, m2 - m1, and the first
    exceeds 1e-6 max(1, |m1|).  Elementwise on arrays."""
    g1, g2 = m2 - m1, m4 - m2
    return (g2 >= 0.4 * g1) & (g1 > 1.0e-6 * np.maximum(1.0, np.abs(m1)))


def construct_omega(system: ControlSystem, candidate: LyapunovCandidate,
                    mu: GainFunction, chi: GainFunction,
                    seed: int = 0) -> GainFunction:
    """Monotone envelope dominating M(s) = sup {Vdot + mu(|x|)} over
    t, |x| <= chi(s), |u| <= s, at each s of OMEGA_S_GRID.

    Sampled over t in [0, T] for periodic systems; aperiodic systems get
    the doubling OMEGA_HORIZONS scan, and growth by `_horizon_growth` raises
    UnboundedSupError (the uniform-boundedness premise fails), as does a
    sup that is not finite; a chi(s) that is not a finite, non-negative
    radius raises ValidationFailure naming s.  Each s-value draws one
    batch of OMEGA_DRAWS points with t in [0, 1], which every horizon T
    reads as T * t.
    """
    horizons = [system.period] if system.period is not None else OMEGA_HORIZONS

    sups = np.empty((len(horizons), OMEGA_S_GRID.size))
    for i, s in enumerate(OMEGA_S_GRID.tolist()):
        radius = float(chi(s))
        if not 0.0 <= radius < np.inf:
            raise ValidationFailure(f"chi(s) = {radius!r} at s = {s!r} is not a finite, "
                                    f"non-negative radius")
        t01, x, u = SampleDomain((0.0, 1.0), radius, s).sample(
            OMEGA_DRAWS, candidate.n, system.m, seed + i)
        with np.errstate(all="ignore"):
            mu_x = mu(np.linalg.norm(x, axis=1))
            for k, T in enumerate(horizons):
                vd = verify.vdot(candidate, system, T * t01, x, u)
                sups[k, i] = float((vd + mu_x).max())
        if not np.isfinite(sups[:, i]).all():
            raise UnboundedSupError(f"sup of Vdot + mu at s = {s:g} is not finite: "
                                    f"{sups[:, i].tolist()}")

    M = sups[-1]
    if system.period is None:
        m1, m2, m4 = sups
        growing = _horizon_growth(m1, m2, m4)
        if growing.any():
            j = int(np.argmax(np.where(growing, m4 - m2, -np.inf)))
            raise UnboundedSupError(
                f"sup of Vdot + mu at s = {float(OMEGA_S_GRID[j]):g} grows without bound "
                f"({float(m1[j]):.6g} -> {float(m2[j]):.6g} -> {float(m4[j]):.6g} "
                f"as the horizon doubles)")

    # monotone piecewise-linear majorant with a 5% sampling-safety margin,
    # pinned to 0 at 0 when possible
    vals = 1.05 * np.maximum.accumulate(np.maximum(M, 0.0))
    if M[0] > 0.0:
        vals[0] = 1.05 * M[0]  # not class-Kinf; spot checks downstream flag it
    last_slope = (vals[-1] - vals[-2]) / (OMEGA_S_GRID[-1] - OMEGA_S_GRID[-2])

    def fn(s):
        s = np.asarray(s, dtype=float)
        base = np.interp(s, OMEGA_S_GRID, vals)
        over = np.maximum(s - OMEGA_S_GRID[-1], 0.0)
        return np.maximum(base + (last_slope + 1.0) * over, 1.0e-6 * s)

    return GainFunction(fn, None, probe_max=float(OMEGA_S_GRID[-1]),
                        label="envelope(Vdot + mu)")
