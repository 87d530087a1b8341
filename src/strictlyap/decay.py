"""Decay rates p(t): persistency-of-excitation analysis and the xi integral.

The central objects are the sliding-window integral W(t) = int_{t-tau}^t p,
its certified lower bound epsilon, the upper bound pbar, the double integral
xi(t) = int_{t-tau}^t int_s^t p(r) dr ds, and the infimum function
pl(h) = inf_t int_t^{t+h} p.

W and xi at many times come from one primitive, `window_table`: two
cumulative Simpson integrals on a single grid, read at their composite-
Simpson nodes and joined by cubic Hermite pieces with the exact slopes.
Single windows (`simpson`, `window_integral`, `xi`, `xi_nested`) are plain
composite Simpson; they serve as oracles and as the objective of the bounded
scalar minimizer that polishes grid minima and maxima over t.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import minimize_scalar

SIMPSON_SUBINTERVALS = 2048
PE_SAFETY = 0.01  # 1% shrink/inflation between raw and certified values


def _rate_values(p, nodes) -> np.ndarray:
    """Evaluate a rate on an array, broadcasting constant results."""
    return np.broadcast_to(np.asarray(p(nodes), dtype=float), np.shape(nodes))


class NotPersistentlyExcitingError(RuntimeError):
    """Sampled window integral came out nonpositive for the given tau."""


@dataclass(frozen=True)
class PETriple:
    """Constants (tau, epsilon, pbar) certifying the excitation condition."""

    tau: float
    epsilon: float
    pbar: float

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.tau, self.epsilon, self.pbar)):
            raise ValueError("tau, epsilon, pbar must all be positive and finite")


@dataclass(frozen=True)
class DecayRate:
    """Nonnegative scalar rate p(t), evaluable on [-tau, infinity).

    A declared period folds every argument into [0, period).  An aperiodic
    rate is evaluated as given, also at t < 0, so its function must be
    defined on [-tau, infinity); a failure there propagates.
    """

    fn: Callable
    period: float | None = None
    pe: PETriple | None = None
    label: str = ""

    def __call__(self, t):
        if self.period is not None:
            t = np.mod(t, self.period)
        return self.fn(t)

    def with_pe(self, pe: PETriple) -> "DecayRate":
        return dataclasses.replace(self, pe=pe)


@dataclass(frozen=True)
class PEEstimate:
    """Raw and certified excitation constants over a sampled horizon."""

    tau: float
    epsilon: float          # raw: sampled min of the window integral
    pbar: float             # raw: sampled max of p on [-tau, horizon]
    epsilon_certified: float
    pbar_certified: float
    horizon: float
    horizon_limited: bool   # True when p has no declared period

    def triple(self, certified: bool = False) -> PETriple:
        if certified:
            return PETriple(self.tau, self.epsilon_certified, self.pbar_certified)
        return PETriple(self.tau, self.epsilon, self.pbar)


# ---------------------------------------------------------------------------
# Simpson quadrature over sliding windows

def _simpson_weights(n: int) -> np.ndarray:
    if n % 2 or n < 2:
        raise ValueError("Simpson needs an even subinterval count >= 2")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def simpson(fn: Callable, a: float, b: float, n: int = SIMPSON_SUBINTERVALS) -> float:
    """Composite Simpson integral of a vectorized callable on [a, b]."""
    if b == a:
        return 0.0
    x = np.linspace(a, b, n + 1)
    y = _rate_values(fn, x)
    return float((b - a) / n * np.dot(_simpson_weights(n), y))


def window_integral(p: DecayRate, tau: float, t: float,
                    n: int = SIMPSON_SUBINTERVALS) -> float:
    """int_{t-tau}^t p(r) dr."""
    return simpson(p, t - tau, t, n)


def window_table(p: DecayRate, tau: float, t_lo: float, t_hi: float,
                 n: int = SIMPSON_SUBINTERVALS):
    """Interpolants (W, xi) of the window integral and of xi on [t_lo, t_hi].

    With C = int p and D = int C, cumulative Simpson integrals on one grid of
    step tau/(2n) over [t_lo - tau, t_hi],

        W(t) = C(t) - C(t - tau),   xi(t) = tau C(t) - [D(t) - D(t - tau)].

    Both are read at the even nodes, where the cumulative integrals are exact
    composite-Simpson sums, and joined by cubic Hermite pieces with the exact
    slopes W' = p(t) - p(t - tau) and xi' = tau p(t) - W(t).  A non-finite
    rate value on the grid raises NotPersistentlyExcitingError naming its time.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    h = tau / (2 * n)
    m = 2 * n + 2 * max(1, math.ceil((t_hi - t_lo) / (2 * h)))
    x = (t_lo - tau) + h * np.arange(m + 1)
    y = _rate_values(p, x)
    bad = ~np.isfinite(y)
    if bad.any():
        raise NotPersistentlyExcitingError(
            f"rate is not finite at t={float(x[np.argmax(bad)])!r}")
    C = cumulative_simpson(y, dx=h, initial=0.0)
    D = cumulative_simpson(C, dx=h, initial=0.0)
    now, back = slice(2 * n, None, 2), slice(0, m - 2 * n + 1, 2)
    W = C[now] - C[back]
    xi_vals = tau * C[now] - (D[now] - D[back])
    return (CubicHermiteSpline(x[now], W, y[now] - y[back]),
            CubicHermiteSpline(x[now], xi_vals, tau * y[now] - W))


class PointSpline:
    """A cubic Hermite spline that answers a Python float without scipy.

    A float ``s`` is placed by ``bisect_right`` on the knots, clipped to the
    first and last piece as PPoly extrapolates, and its piece is summed in
    PPoly's own order, so the value equals ``spline(s)`` bit for bit.  Any
    other query (arrays, numpy scalars of other types) goes to ``spline``.
    The knots and coefficients are copied to lists on the first float query
    only, so a table that is only read on arrays holds no Python copy.
    """

    def __init__(self, spline: CubicHermiteSpline):
        self.spline = spline

    @functools.cached_property
    def _lists(self):
        return (self.spline.x.tolist(), *self.spline.c.tolist())   # knots, cubic..constant

    def __call__(self, s):
        if not isinstance(s, float):
            return self.spline(s)
        knots, c0, c1, c2, c3 = self._lists
        i = min(max(bisect_right(knots, s) - 1, 0), len(knots) - 2)
        d = s - knots[i]
        return (((0.0 + c3[i]) + c2[i] * d) + c1[i] * (d * d)) + c0[i] * ((d * d) * d)


def _tabulate(p: DecayRate, tau: float, t, n: int = SIMPSON_SUBINTERVALS):
    """W and xi at the times t, one table per run of overlapping windows.

    Times are folded into one period for periodic p and sorted; a gap wider
    than tau starts a new run, so the grids never cover more than about
    twice the nodes of separate windows.  A non-finite time raises ValueError
    naming the first one.
    """
    t = np.asarray(t, dtype=float)
    bad = t[~np.isfinite(t)]
    if bad.size:
        raise ValueError(f"query time is not finite: t={float(bad[0])!r}")
    s = (np.mod(t, p.period) if p.period is not None else t).ravel()
    W, X = np.empty(s.shape), np.empty(s.shape)
    order = np.argsort(s, kind="stable")
    for idx in np.split(order, np.flatnonzero(np.diff(s[order]) > tau) + 1):
        if idx.size:
            W_fn, X_fn = window_table(p, tau, s[idx[0]], s[idx[-1]], n)
            W[idx], X[idx] = W_fn(s[idx]), X_fn(s[idx])
    return W.reshape(t.shape), X.reshape(t.shape)


def window_integral_vec(p: DecayRate, tau: float, t: np.ndarray,
                        n: int = SIMPSON_SUBINTERVALS) -> np.ndarray:
    """Window integral for an array of right endpoints."""
    return _tabulate(p, tau, t, n)[0]


def xi(p: DecayRate, tau: float, t: float, n: int = SIMPSON_SUBINTERVALS) -> float:
    """Double integral int_{t-tau}^t int_s^t p(r) dr ds.

    Computed via the single-integral identity
    xi(t) = int_{t-tau}^t (r - t + tau) p(r) dr.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    x = np.linspace(t - tau, t, n + 1)
    y = (x - t + tau) * _rate_values(p, x)
    return float(tau / n * np.dot(_simpson_weights(n), y))


def xi_vec(p: DecayRate, tau: float, t: np.ndarray,
           n: int = SIMPSON_SUBINTERVALS) -> np.ndarray:
    """Vectorized xi over an array of times."""
    return _tabulate(p, tau, t, n)[1]


def xi_nested(p: DecayRate, tau: float, t: float, n: int = 256) -> float:
    """Direct nested-quadrature xi, used as an independent cross-check."""
    def inner(s_arr):
        return np.array([simpson(p, s, t, n) for s in np.atleast_1d(s_arr)])
    return simpson(inner, t - tau, t, n)


# ---------------------------------------------------------------------------
# PE constants

def _refine_min(fn: Callable[[float], float], grid: np.ndarray,
                vals: np.ndarray, k: int = 3) -> float:
    """Polish the k best grid minima with bounded Brent; return the least."""
    best = float(vals.min())
    order = np.argsort(vals)[:k]
    for j in order:
        lo = grid[max(0, j - 1)]
        hi = grid[min(len(grid) - 1, j + 1)]
        if hi <= lo:
            continue
        r = minimize_scalar(fn, bounds=(lo, hi), method="bounded",
                            options={"xatol": 1.0e-11})
        best = min(best, float(r.fun))
    return best


def estimate_pe(p: DecayRate, tau: float, horizon: float | None = None,
                n_grid: int = 512, n_quad: int = SIMPSON_SUBINTERVALS,
                tol: float = 1.0e-9) -> PEEstimate:
    """Estimate (epsilon, pbar) for the window length tau.

    epsilon is the sampled minimum over t in [0, horizon] of the window
    integral, pbar the sampled maximum of p over [-tau, horizon]; both are
    polished locally, and certified values carry a 1% safety margin
    (epsilon shrunk, pbar inflated).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if horizon is None:
        horizon = p.period + tau if p.period is not None else 20.0 * tau
    if horizon < tau:
        raise ValueError("horizon must be at least tau")

    ts = np.linspace(0.0, horizon, n_grid)
    Ws = window_integral_vec(p, tau, ts, n_quad)
    eps = _refine_min(lambda t: window_integral(p, tau, float(t), n_quad), ts, Ws)
    if not eps > tol:  # also catches NaN
        raise NotPersistentlyExcitingError(
            f"window integral reaches {eps!r} on [0, {horizon!r}] for tau={tau!r}")

    n_p = max(4 * n_grid, 4096)
    tg = np.linspace(-tau, horizon, n_p + 1)
    pv = _rate_values(p, tg)
    pbar = -_refine_min(lambda t: -float(p(float(t))), tg, -pv)
    if not math.isfinite(pbar):
        raise NotPersistentlyExcitingError(
            f"maximum of the rate on [{-tau!r}, {horizon!r}] is {pbar!r}")

    return PEEstimate(
        tau=tau,
        epsilon=eps,
        pbar=pbar,
        epsilon_certified=(1.0 - PE_SAFETY) * eps,
        pbar_certified=(1.0 + PE_SAFETY) * pbar,
        horizon=horizon,
        horizon_limited=p.period is None,
    )


def pe_scan(p: DecayRate, taus, horizon: float | None = None,
            n_grid: int = 256) -> list[tuple[float, float]]:
    """epsilon(tau) over a ladder of window lengths; 0 marks failures."""
    out = []
    for tau in taus:
        try:
            est = estimate_pe(p, float(tau), horizon, n_grid)
            out.append((float(tau), est.epsilon))
        except NotPersistentlyExcitingError:
            out.append((float(tau), 0.0))
    return out


def check_pe(p: DecayRate, n_samples: int = 400, horizon: float | None = None,
             tol: float = 1.0e-9) -> tuple[bool, float]:
    """Verify the attached triple by sampling; returns (ok, worst margin)."""
    if p.pe is None:
        raise ValueError("decay rate has no attached PE triple")
    tau, eps, pbar = p.pe.tau, p.pe.epsilon, p.pe.pbar
    if horizon is None:
        horizon = p.period + tau if p.period is not None else 20.0 * tau
    ts = np.linspace(0.0, horizon, n_samples)
    margins = window_integral_vec(p, tau, ts) - eps
    pg = np.linspace(-tau, horizon, 4 * n_samples)
    margins_p = pbar - _rate_values(p, pg)
    worst = float(min(margins.min(), margins_p.min()))
    return worst >= -tol, worst


def underline_p(p: DecayRate, h: float, horizon: float | None = None,
                n_grid: int = 512, n_quad: int = SIMPSON_SUBINTERVALS) -> float:
    """inf over t in [0, horizon] of int_t^{t+h} p(r) dr.

    Exact for periodic p as soon as the horizon covers a full period.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    if h == 0.0:
        return 0.0
    if horizon is None:
        horizon = p.period if p.period is not None else 20.0 * max(h, 1.0)
    ts = np.linspace(0.0, horizon, n_grid)
    vals = window_integral_vec(p, h, ts + h, n_quad)
    return max(0.0, _refine_min(
        lambda t: window_integral(p, h, float(t) + h, n_quad), ts, vals))


def underline_p_gain(p: DecayRate, horizon: float | None = None,
                     n_grid: int = 128, probe_max: float = 50.0):
    """pl as a gain-like callable of h (used to rescale KL estimates)."""
    from .funcalc import GainFunction

    def fn(h):
        h = np.asarray(h, dtype=float)
        return np.array([underline_p(p, float(v), horizon, n_grid)
                         for v in h.ravel()]).reshape(h.shape)

    return GainFunction(fn, None, probe_max=probe_max,
                        label=f"pl[{p.label}]" if p.label else "pl")
