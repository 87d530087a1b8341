"""Sampling-based checking and falsification of the decay inequalities.

Every check draws a deterministic batch of points (unit-cube rows from
scrambled Halton for coverage plus seeded uniform noise, sent into the domain
by one map), evaluates a vectorized margin whose nonnegativity expresses the
inequality, then polishes the worst point with coordinate descent.  A passing
report means "no violation found on this domain with this budget", never a
proof; an implication region that kept no sample fails, and so does a
non-finite sampled margin, without refinement.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.special import ndtri
from scipy.stats import qmc

from .decay import DecayRate, _rate_values
from .dynsys import Trajectory
from .funcalc import GainFunction, KLFunction

DEFAULT_TOL = 1.0e-9
DEFAULT_SAMPLES = 10_000


class FitFailedError(RuntimeError):
    """The fitted ISS envelope failed its held-out validation."""


@dataclass(frozen=True)
class SampleDomain:
    """Box of the form t in [t0, t1], |x| <= x_radius, |u| <= u_radius."""

    t_range: tuple[float, float] = (0.0, 10.0)
    x_radius: float = 10.0
    u_radius: float = 5.0

    def sample(self, n: int, nx: int, nu: int, seed: int = 0,
               halton_fraction: float = 0.5):
        """Deterministic batch: (t, x, u) arrays of shapes (n,), (n,nx), (n,nu).

        Unit-cube rows [t, |x|, x-direction, |u|, u-direction]: a block of
        clipped Halton rows, then one of uniform rows drawn column by column.
        """
        if n < 1:
            raise ValueError(f"sample count must be at least 1, got {n!r}")
        widths = [1, 1, nx] + ([1, nu] if nu else [])
        n_h = int(round(n * halton_fraction))
        # each block is mapped as soon as it is drawn, which bounds peak memory
        parts = []
        if n_h > 0:
            h = qmc.Halton(d=sum(widths), scramble=True, seed=seed).random(n_h)
            parts.append(self._map(np.clip(h, 1.0e-12, 1.0 - 1.0e-12), nx))
        if n > n_h:
            rng = np.random.default_rng(seed + 1)
            parts.append(self._map(
                np.hstack([rng.random((n - n_h, w)) for w in widths]), nx))
        return tuple(np.concatenate(a) for a in zip(*parts))

    def _map(self, c: np.ndarray, nx: int):
        """Send unit-cube rows into the box."""
        t = self.t_range[0] + (self.t_range[1] - self.t_range[0]) * c[:, 0]
        return (t, self._ball(c[:, 1:2 + nx], self.x_radius),
                self._ball(c[:, 2 + nx:], self.u_radius))

    @staticmethod
    def _ball(c: np.ndarray, radius: float) -> np.ndarray:
        """Uniform in the ball |x| <= radius from rows [|x|, direction]."""
        k, d = c.shape[0], c.shape[1] - 1
        if d <= 0:
            return np.zeros((k, 0))
        if radius <= 0:
            return np.zeros((k, d))
        z = ndtri(np.clip(c[:, 1:], 1.0e-12, 1.0 - 1.0e-12))
        nrm = np.linalg.norm(z, axis=1)
        nrm[nrm == 0.0] = 1.0
        rad = (c[:, 0] * radius ** d) ** (1.0 / d)
        return z / nrm[:, None] * rad[:, None]


@dataclass
class InequalityReport:
    """Worst sampled margin of one inequality (positive = slack)."""

    name: str
    n_samples: int
    worst_margin: float
    worst_point: tuple[float, np.ndarray, np.ndarray]
    passed: bool
    tol: float = DEFAULT_TOL
    notes: str = ""
    margin_fn: Callable | None = field(default=None, repr=False, compare=False)

    def reevaluate(self) -> float:
        """Margin at the recorded worst point; matches worst_margin."""
        if self.margin_fn is None:
            raise ValueError(f"report '{self.name}' carries no margin function")
        return float(_at_point(self.margin_fn, *self.worst_point))


def _at_point(fn, t, x, u):
    """A batch function of (t, x, u) evaluated at one point; a point outside
    a field's domain gives nan or inf, without a warning."""
    with np.errstate(all="ignore"):
        return fn(np.asarray([t]), np.asarray(x)[None, :], np.asarray(u)[None, :])[0]


def vdot(candidate, system, t, x, u):
    """dV/dt + grad_x V . f along the system, vectorized over batches."""
    dt = np.asarray(candidate.dV_dt(t, x), dtype=float)
    g = np.asarray(candidate.grad_x(t, x), dtype=float)
    fx = np.asarray(system.f(t, x, u), dtype=float)
    return dt + np.einsum("ij,ij->i", g, fx)


def _coordinate_descent(margin_fn, domain: SampleDomain, point, accept=None,
                        passes: int = 8):
    """Locally minimize the margin around ``point`` (deterministic); probes
    outside the batch mask ``accept`` count as +inf."""
    t, x, u = point
    t = float(t)
    x = np.array(x, dtype=float)
    u = np.array(u, dtype=float)

    def value(tt, xx, uu):
        if accept is not None and not _at_point(accept, tt, xx, uu):
            return np.inf
        return float(_at_point(margin_fn, tt, xx, uu))

    best = value(t, x, u)
    dt0 = 0.1 * (domain.t_range[1] - domain.t_range[0])
    dx0 = 0.1 * max(domain.x_radius, 1.0e-6)
    du0 = 0.1 * max(domain.u_radius, 1.0e-6)
    for p in range(passes):
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
    return best, (t, x, u)


def _run_check(name: str, margin_fn, domain: SampleDomain, nx: int, nu: int,
               n: int, seed: int, tol: float, mask_fn=None,
               refine: bool = True, notes: str = "") -> InequalityReport:
    t, x, u = domain.sample(n, nx, nu, seed)
    # samples outside a field's domain give nan or inf, which fail by name below
    with np.errstate(all="ignore"):
        if mask_fn is not None:
            keep = mask_fn(t, x, u)
            t, x, u = t[keep], x[keep], u[keep]
        if t.size == 0:
            return InequalityReport(name, 0, np.inf, (0.0, np.zeros(nx), np.zeros(nu)),
                                    False, tol, notes="no samples in implication region",
                                    margin_fn=margin_fn)
        margins = np.asarray(margin_fn(t, x, u), dtype=float)
    bad = ~np.isfinite(margins)
    if bad.any():
        j = int(np.argmax(bad))
        worst, point = float(margins[j]), (float(t[j]), x[j], u[j])
        notes = (f"{int(bad.sum())} non-finite margins; first {worst!r} at "
                 f"t={point[0]!r}, x={point[1]!r}, u={point[2]!r}")
        return InequalityReport(name, int(t.size), worst, point, False, tol,
                                notes=notes, margin_fn=margin_fn)
    j = int(np.argmin(margins))
    worst = float(margins[j])
    point = (float(t[j]), x[j], u[j])
    if refine:
        worst, point = _coordinate_descent(margin_fn, domain, point, mask_fn)
    return InequalityReport(name, int(t.size), worst, point, worst >= -tol,
                            tol, notes=notes, margin_fn=margin_fn)


# ---------------------------------------------------------------------------
# Named checks

def check_uppd(candidate, domain: SampleDomain, n: int = DEFAULT_SAMPLES,
               seed: int = 0, tol: float = DEFAULT_TOL) -> InequalityReport:
    """Envelope check: a1(|x|) <= V <= a2(|x|), |full grad V| <= a3(|x|)."""
    a1, a2, a3 = candidate.alpha1, candidate.alpha2, candidate.alpha3

    def margin_fn(t, x, u):
        r = np.linalg.norm(x, axis=1)
        v = np.asarray(candidate.V(t, x), dtype=float)
        g = np.asarray(candidate.grad_x(t, x), dtype=float)
        gt = np.asarray(candidate.dV_dt(t, x), dtype=float)
        full = np.sqrt((g ** 2).sum(axis=1) + gt ** 2)
        return np.minimum(np.minimum(v - a1(r), a2(r) - v), a3(r) - full)

    return _run_check("uppd", margin_fn, domain, candidate.n, 0, n, seed, tol)


def check_issp_lyap(candidate, system, p: DecayRate, mu: GainFunction,
                    chi: GainFunction, domain: SampleDomain,
                    n: int = DEFAULT_SAMPLES, seed: int = 0,
                    tol: float = DEFAULT_TOL) -> InequalityReport:
    """|x| >= chi(|u|)  =>  Vdot <= -p(t) mu(|x|)."""

    def mask_fn(t, x, u):
        return np.linalg.norm(x, axis=1) >= chi(np.linalg.norm(u, axis=1))

    def margin_fn(t, x, u):
        r = np.linalg.norm(x, axis=1)
        return -vdot(candidate, system, t, x, u) - _rate_values(p, t) * mu(r)

    notes = "" if p.period is not None else "horizon-limited (aperiodic rate)"
    return _run_check("issp-lyapunov", margin_fn, domain, candidate.n, system.m,
                      n, seed, tol, mask_fn=mask_fn, notes=notes)


def check_disp_lyap(candidate, system, p: DecayRate, term_gain: GainFunction,
                    omega: GainFunction, form: str, domain: SampleDomain,
                    n: int = DEFAULT_SAMPLES, seed: int = 0,
                    tol: float = DEFAULT_TOL) -> InequalityReport:
    """Dissipation check; ``form`` picks the decay term:

    'state':  Vdot <= -p(t) mu(|x|)   + Omega(|u|)
    'value':  Vdot <= -p(t) mut(V)    + Omega(|u|)
    """
    if form not in ("state", "value"):
        raise ValueError("form must be 'state' or 'value'")

    def margin_fn(t, x, u):
        if form == "state":
            term = term_gain(np.linalg.norm(x, axis=1))
        else:
            term = term_gain(np.asarray(candidate.V(t, x), dtype=float))
        uu = np.linalg.norm(u, axis=1)
        return (-vdot(candidate, system, t, x, u)
                - _rate_values(p, t) * term + omega(uu))

    notes = "" if p.period is not None else "horizon-limited (aperiodic rate)"
    return _run_check(f"disp-lyapunov[{form}]", margin_fn, domain,
                      candidate.n, system.m, n, seed, tol, notes=notes)


def check_strict_iss_lyap(candidate, system, mu: GainFunction,
                          chi: GainFunction, domain: SampleDomain,
                          n: int = DEFAULT_SAMPLES, seed: int = 0,
                          tol: float = DEFAULT_TOL) -> InequalityReport:
    """Strict version: the ISS(p) check with the rate pinned to 1."""
    one = DecayRate(lambda t: np.ones_like(np.asarray(t, dtype=float)),
                    period=1.0, label="1")
    rep = check_issp_lyap(candidate, system, one, mu, chi, domain, n, seed, tol)
    return dataclasses.replace(rep, name="strict-iss-lyapunov")


def falsify(predicate, domain: SampleDomain, nx: int, nu: int,
            budget: int = 2_000, seed: int = 0,
            tol: float = DEFAULT_TOL) -> InequalityReport:
    """Randomized search for a violation of ``predicate(t, x, u) >= 0``.

    Uniform exploration followed by coordinate descent around the best
    candidate; deterministic for a fixed seed.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    t, x, u = domain.sample(budget, nx, nu, seed, halton_fraction=0.0)
    margins = np.asarray(predicate(t, x, u), dtype=float)
    j = int(np.argmin(margins))
    worst, point = _coordinate_descent(predicate, domain, (t[j], x[j], u[j]))
    return InequalityReport("falsify", budget, worst, point, worst >= -tol,
                            tol, margin_fn=predicate)


# ---------------------------------------------------------------------------
# Trajectory-level ISS estimates

def _running_input_sup(traj: Trajectory) -> np.ndarray:
    if traj.inputs.shape[1] == 0:
        return np.zeros(traj.times.size)
    return np.maximum.accumulate(np.linalg.norm(traj.inputs, axis=1))


def check_iss_estimate(trajs: Sequence[Trajectory], p: DecayRate,
                       beta: KLFunction, gamma: GainFunction,
                       n_h: int = 200, tol: float = DEFAULT_TOL) -> InequalityReport:
    """|phi(t0+h)| <= beta(|x0|, int_{t0}^{t0+h} p) + gamma(sup |u|)."""
    worst = np.inf
    worst_point = (0.0, np.zeros(trajs[0].states.shape[1]), np.zeros(trajs[0].inputs.shape[1]))
    total = 0
    for traj in trajs:
        r = cumulative_trapezoid(_rate_values(p, traj.times), traj.times,
                                 initial=0.0)
        sup_u = _running_input_sup(traj)
        nrm = traj.norms()
        x0 = float(nrm[0])
        idxs = np.unique(np.linspace(0, traj.times.size - 1, n_h).astype(int))
        m = beta(x0, r[idxs]) + gamma(sup_u[idxs]) - nrm[idxs]
        total += idxs.size
        j = int(np.argmin(m))
        if m[j] < worst:
            worst = float(m[j])
            worst_point = (float(traj.times[idxs[j]]), traj.states[idxs[j]],
                           traj.inputs[idxs[j]])
    return InequalityReport("iss-estimate", total, worst, worst_point,
                            worst >= -tol, tol)


def fit_iss_envelope(trajs: Sequence[Trajectory], p: DecayRate,
                     holdout: Sequence[Trajectory] | None = None,
                     tol: float = DEFAULT_TOL) -> tuple[KLFunction, GainFunction]:
    """Fit beta(s, r) = C s exp(-lambda r) and a monotone gain from runs.

    Zero-input runs drive the exponential fit; constant-amplitude runs set
    the ultimate-bound hull for gamma.  The fitted pair must pass
    `check_iss_estimate` on the held-out batch.
    """
    zero_runs = [tr for tr in trajs if float(np.linalg.norm(tr.inputs)) == 0.0]
    forced_runs = [tr for tr in trajs if float(np.linalg.norm(tr.inputs)) > 0.0]
    if not zero_runs:
        raise FitFailedError("need at least one zero-input run to fit the decay")

    rs, ys = [], []
    for tr in zero_runs:
        x0 = float(tr.norms()[0])
        if x0 <= 0.0:
            continue
        r = cumulative_trapezoid(_rate_values(p, tr.times), tr.times,
                                 initial=0.0)
        nrm = tr.norms()
        keep = nrm > 1.0e-8 * x0
        rs.append(r[keep])
        ys.append(np.log(nrm[keep] / x0))
    if not rs:
        raise FitFailedError("zero-input runs start at the origin; nothing to fit")
    r_all = np.concatenate(rs)
    y_all = np.concatenate(ys)
    A = np.stack([np.ones_like(r_all), -r_all], axis=1)
    coef, *_ = np.linalg.lstsq(A, y_all, rcond=None)
    lam_fit = float(coef[1])
    if lam_fit <= 0.0:
        raise FitFailedError(f"fitted decay exponent {lam_fit!r} is not positive")
    # slope from least squares (slightly slowed); amplitude as the smallest
    # constant dominating every observed point, so that clock wiggles around
    # the mean exponential are absorbed
    lam = 0.98 * lam_fit
    C = max(1.0, float(np.exp(y_all + lam * r_all).max())) * 1.02
    beta = KLFunction(lambda s, r: C * s * np.exp(-lam * r),
                      label=f"{C:.6g}*s*exp(-{lam:.6g}*r)")

    amps, ubs = [0.0], [0.0]
    for tr in forced_runs:
        amp = float(np.linalg.norm(tr.inputs, axis=1).max())
        r = cumulative_trapezoid(_rate_values(p, tr.times), tr.times,
                                 initial=0.0)
        residual = tr.norms() - C * float(tr.norms()[0]) * np.exp(-lam * r)
        amps.append(amp)
        ubs.append(max(0.0, float(residual.max())) * 1.05)
    order = np.argsort(amps)
    a_nodes = np.asarray(amps)[order]
    g_nodes = np.maximum.accumulate(np.asarray(ubs)[order])

    def gamma_fn(s):
        base = np.interp(s, a_nodes, g_nodes)
        last_slope = 0.0
        if a_nodes.size >= 2 and a_nodes[-1] > a_nodes[-2]:
            last_slope = (g_nodes[-1] - g_nodes[-2]) / (a_nodes[-1] - a_nodes[-2])
        over = np.maximum(np.asarray(s, dtype=float) - a_nodes[-1], 0.0)
        return base + (last_slope + 1.0e-6) * over + 1.0e-9 * np.asarray(s, dtype=float)

    gamma = GainFunction(gamma_fn, None, probe_max=max(10.0, 2 * float(a_nodes[-1]) or 10.0),
                         label="ultimate-bound hull")

    held = holdout if holdout is not None else trajs
    rep = check_iss_estimate(held, p, beta, gamma, tol=tol)
    if not rep.passed:
        raise FitFailedError(
            f"held-out check failed with margin {rep.worst_margin!r} at t={rep.worst_point[0]!r}")
    return beta, gamma
