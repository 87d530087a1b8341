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
Brent minimizer that polishes grid minima and maxima over t.  The cumulative
integrals, the Hermite pieces and the minimizer come from `_numerics`, which
equals scipy's versions bit for bit without importing scipy.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numerics import CubicHermite, cumulative_simpson, hermite_values, minimize_bounded
from .errors import ValidationFailure

SIMPSON_SUBINTERVALS = 2048
PE_SAFETY = 0.01  # 1% shrink/inflation between raw and certified values
PASS_TOL = 1.0e-9  # least accepted epsilon; a sampled margin >= -PASS_TOL passes


def _rate_values(p, nodes) -> np.ndarray:
    """Evaluate a rate on an array, broadcasting constant results."""
    return np.broadcast_to(np.asarray(p(nodes), dtype=float), np.shape(nodes))


class NotPersistentlyExcitingError(ValidationFailure):
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


def window_integral(p: DecayRate, tau: float, t: float) -> float:
    """int_{t-tau}^t p(r) dr."""
    return simpson(p, t - tau, t)


def window_table(p: DecayRate, tau: float, t_lo: float, t_hi: float):
    """Interpolants (W, xi) of the window integral and of xi on [t_lo, t_hi].

    With C = int p and D = int C, cumulative Simpson integrals on one grid of
    step tau/(2n), n = SIMPSON_SUBINTERVALS, over [t_lo - tau, t_hi],

        W(t) = C(t) - C(t - tau),   xi(t) = tau C(t) - [D(t) - D(t - tau)].

    Both are read at the even nodes, where the cumulative integrals are exact
    composite-Simpson sums, and joined by cubic Hermite pieces with the exact
    slopes W' = p(t) - p(t - tau) and xi' = tau p(t) - W(t); the two tables
    share their knots, so `hermite_values` places a batch once for both.  A
    non-finite rate value on the grid raises NotPersistentlyExcitingError
    naming its time.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    n = SIMPSON_SUBINTERVALS
    h = tau / (2 * n)
    m = 2 * n + 2 * max(1, math.ceil((t_hi - t_lo) / (2 * h)))
    x = (t_lo - tau) + h * np.arange(m + 1)
    y = _rate_values(p, x)
    bad = ~np.isfinite(y)
    if bad.any():
        raise NotPersistentlyExcitingError(
            f"rate is not finite at t={float(x[np.argmax(bad)])!r}")
    C = cumulative_simpson(y, h)
    D = cumulative_simpson(C, h)
    now, back = slice(2 * n, None, 2), slice(0, m - 2 * n + 1, 2)
    W = C[now] - C[back]
    xi_vals = tau * C[now] - (D[now] - D[back])
    knots = x[now]
    return (CubicHermite(knots, W, y[now] - y[back]),
            CubicHermite(knots, xi_vals, tau * y[now] - W))


def _tabulate(p: DecayRate, tau: float, t):
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
            tables = window_table(p, tau, s[idx[0]], s[idx[-1]])
            W[idx], X[idx] = hermite_values(tables, s[idx])
    return W.reshape(t.shape), X.reshape(t.shape)


def window_integral_vec(p: DecayRate, tau: float, t: np.ndarray) -> np.ndarray:
    """Window integral for an array of right endpoints."""
    return _tabulate(p, tau, t)[0]


def xi(p: DecayRate, tau: float, t: float) -> float:
    """Double integral int_{t-tau}^t int_s^t p(r) dr ds.

    Computed via the single-integral identity
    xi(t) = int_{t-tau}^t (r - t + tau) p(r) dr.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    n = SIMPSON_SUBINTERVALS
    x = np.linspace(t - tau, t, n + 1)
    y = (x - t + tau) * _rate_values(p, x)
    return float(tau / n * np.dot(_simpson_weights(n), y))


def xi_vec(p: DecayRate, tau: float, t: np.ndarray) -> np.ndarray:
    """Vectorized xi over an array of times."""
    return _tabulate(p, tau, t)[1]


def xi_nested(p: DecayRate, tau: float, t: float, n: int = 256) -> float:
    """Direct nested-quadrature xi, used as an independent cross-check."""
    def inner(s_arr):
        return np.array([simpson(p, s, t, n) for s in np.atleast_1d(s_arr)])
    return simpson(inner, t - tau, t, n)


# ---------------------------------------------------------------------------
# PE constants

def _refine_min(fn: Callable[[float], float], grid: np.ndarray,
                vals: np.ndarray) -> float:
    """Polish the 3 best grid minima with bounded Brent; return the least.

    Each runs `minimize_bounded` (scipy's bounded method, bit for bit) on
    the two grid steps around its node, to an absolute tolerance of 1e-11.
    """
    best = float(vals.min())
    order = np.argsort(vals)[:3]
    for j in order:
        lo = grid[max(0, j - 1)]
        hi = grid[min(len(grid) - 1, j + 1)]
        if hi <= lo:
            continue
        best = min(best, minimize_bounded(fn, lo, hi, 1.0e-11)[1])
    return best


def estimate_pe(p: DecayRate, tau: float, horizon: float | None = None,
                n_grid: int = 512) -> PEEstimate:
    """Estimate (epsilon, pbar) for the window length tau.

    epsilon is the sampled minimum over t in [0, horizon] of the window
    integral, pbar the sampled maximum of p over [-tau, horizon]; both are
    polished locally, and certified values carry a 1% safety margin
    (epsilon shrunk, pbar inflated).  An epsilon not above PASS_TOL raises
    NotPersistentlyExcitingError.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if horizon is None:
        horizon = p.period + tau if p.period is not None else 20.0 * tau
    if horizon < tau:
        raise ValueError("horizon must be at least tau")

    ts = np.linspace(0.0, horizon, n_grid)
    Ws = window_integral_vec(p, tau, ts)
    eps = _refine_min(lambda t: window_integral(p, tau, float(t)), ts, Ws)
    if not eps > PASS_TOL:  # also catches NaN
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


def check_pe(p: DecayRate) -> tuple[bool, float]:
    """Verify the attached triple on 400 window ends over estimate_pe's
    default horizon and 1600 rate samples; returns (ok, worst margin), and
    (False, nan) when any margin is not finite."""
    if p.pe is None:
        raise ValueError("decay rate has no attached PE triple")
    tau, eps, pbar = p.pe.tau, p.pe.epsilon, p.pe.pbar
    horizon = p.period + tau if p.period is not None else 20.0 * tau
    ts = np.linspace(0.0, horizon, 400)
    margins = window_integral_vec(p, tau, ts) - eps
    pg = np.linspace(-tau, horizon, 1600)
    margins_p = pbar - _rate_values(p, pg)
    if not (np.isfinite(margins).all() and np.isfinite(margins_p).all()):
        return False, math.nan
    worst = float(min(margins.min(), margins_p.min()))
    return worst >= -PASS_TOL, worst


def underline_p(p: DecayRate, h: float, n_grid: int = 512) -> float:
    """inf over t in [0, horizon] of int_t^{t+h} p(r) dr, with the horizon
    one period of p, or 20 max(h, 1) for an aperiodic p.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    if h == 0.0:
        return 0.0
    horizon = p.period if p.period is not None else 20.0 * max(h, 1.0)
    ts = np.linspace(0.0, horizon, n_grid)
    vals = window_integral_vec(p, h, ts + h)
    return max(0.0, _refine_min(
        lambda t: window_integral(p, h, float(t) + h), ts, vals))


def underline_p_gain(p: DecayRate, n_grid: int = 128):
    """pl as a gain-like callable of h on [0, 50] (used to rescale KL
    estimates), each value over underline_p's horizon; a call evaluates
    each distinct h once."""
    from .funcalc import GainFunction

    def fn(h):
        h = np.asarray(h, dtype=float)
        distinct, where = np.unique(h.ravel(), return_inverse=True)
        values = np.array([underline_p(p, v, n_grid=n_grid) for v in distinct.tolist()])
        return values[where].reshape(h.shape)

    return GainFunction(fn, None, probe_max=50.0,
                        label=f"pl[{p.label}]" if p.label else "pl")
