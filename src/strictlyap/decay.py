"""Decay rates p(t): persistency-of-excitation analysis and the xi integral.

The central objects are the sliding-window integral W(t) = int_{t-tau}^t p,
its certified lower bound epsilon, the upper bound pbar, the double integral
xi(t) = int_{t-tau}^t int_s^t p(r) dr ds, and the infimum function
pl(h) = inf_t int_t^{t+h} p.

W and xi come from one primitive, `window_table`: two cumulative Simpson
integrals on a single grid, read at their composite-Simpson nodes and
joined by cubic Hermite pieces with the exact slopes.  `WindowTables` reads
them from such tables on fixed blocks of time, each built whole on first
use, so a time's values do not depend on the batch it comes in.  A rate
owns its lookup: `DecayRate.windows(tau)` keeps the one of the last window
asked, and `with_pe` hands it to the rate it returns.
`window_integral_vec`, `xi_vec`, `check_pe`, every certificate and the PE
constants read W and xi through it: `estimate_pe` and `underline_p` take
their grid minima from the rate's lookup and polish them with the bounded
Brent minimizer on that same lookup, so epsilon is a value of the very W,
built once, that `check_pe` and the certificate read.
Single windows (`simpson`, `window_integral`, `xi`, `xi_nested`) are plain
composite Simpson; no path of the package calls them, and they stay as the
oracles the tests compare the tables with.  The cumulative integrals, the
Hermite pieces and the minimizer come from `_numerics`, which equals
scipy's versions bit for bit without importing scipy.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._numerics import CubicHermite, cumulative_simpson, hermite_values, minimize_brackets
from .errors import ValidationFailure

SIMPSON_SUBINTERVALS = 2048
PE_SAFETY = 0.01  # 1% shrink/inflation between raw and certified values
PASS_TOL = 1.0e-9  # least accepted epsilon; a sampled margin >= -PASS_TOL passes
BLOCK_WINDOWS = 4  # a block of W/xi tables spans this many windows tau
MAX_BLOCKS = 8     # blocks a WindowTables keeps


def _rate_values(p, nodes) -> np.ndarray:
    """Evaluate a rate on an array, broadcasting constant results."""
    return np.broadcast_to(np.asarray(p(nodes), dtype=float), np.shape(nodes))


class NotPersistentlyExcitingError(ValidationFailure):
    """The excitation analysis of a rate failed for the given tau."""


class WindowIntegralTooSmallError(NotPersistentlyExcitingError):
    """The least sampled window integral is not above PASS_TOL."""


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
    defined on [-tau, infinity): a compiled rate gives numpy's inf or nan
    where it is not, also at a float, and what any other function raises
    propagates.

    The rate keeps the W/xi lookup of the last window asked of `windows`;
    it is no field of the constructor, equality or hash.
    """

    fn: Callable
    period: float | None = None
    pe: PETriple | None = None
    label: str = ""
    _windows: WindowTables | None = field(default=None, init=False, compare=False,
                                          repr=False)

    def __call__(self, t):
        if self.period is not None:
            t = np.mod(t, self.period)
        return self.fn(t)

    def windows(self, tau: float) -> WindowTables:
        """The W/xi lookup of window tau: the one kept for the same tau, else
        a new one, which the rate then keeps in its place."""
        look = self._windows
        if look is None or look.tau != tau:
            look = WindowTables(self, tau)
            object.__setattr__(self, "_windows", look)
        return look

    def with_pe(self, pe: PETriple) -> "DecayRate":
        """This rate with the triple pe attached, sharing its lookup."""
        rate = dataclasses.replace(self, pe=pe)
        object.__setattr__(rate, "_windows", self._windows)
        return rate


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
    """Composite Simpson integral of a vectorized callable on [a, b].

    An oracle: this and `window_integral`, `xi` and `xi_nested` call one
    another and nothing else in the package calls them; the tests compare
    the window tables with them, and the benchmark tracer wraps `simpson`,
    `window_integral` and `xi` by name.
    """
    if b == a:
        return 0.0
    x = np.linspace(a, b, n + 1)
    y = _rate_values(fn, x)
    return float((b - a) / n * np.dot(_simpson_weights(n), y))


def window_integral(p: DecayRate, tau: float, t: float) -> float:
    """int_{t-tau}^t p(r) dr, one Simpson sum: an oracle (see `simpson`)."""
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
    naming its time, folded into the period of a periodic p, and tables
    that are not finite (they overflow, or tau is too short for a grid)
    raise it naming tau, with no RuntimeWarning.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    n = SIMPSON_SUBINTERVALS
    h = tau / (2 * n)
    if h == 0.0:
        raise NotPersistentlyExcitingError(f"window tables are not finite for tau={tau!r}")
    m = 2 * n + 2 * max(1, math.ceil((t_hi - t_lo) / (2 * h)))
    x = (t_lo - tau) + h * np.arange(m + 1)
    now, back = slice(2 * n, None, 2), slice(0, m - 2 * n + 1, 2)
    with np.errstate(all="ignore"):
        y = _rate_values(p, x)
        bad = ~np.isfinite(y)
        if bad.any():
            t = x[np.argmax(bad)]           # named as p was evaluated: folded
            t = t if p.period is None else np.mod(t, p.period)
            raise NotPersistentlyExcitingError(f"rate is not finite at t={float(t)!r}")
        C = cumulative_simpson(y, h)
        D = cumulative_simpson(C, h)
        W = C[now] - C[back]
        xi_vals = tau * C[now] - (D[now] - D[back])
        slopes = (y[now] - y[back], tau * y[now] - W)
    try:
        return (CubicHermite(x[now], W, slopes[0]),
                CubicHermite(x[now], xi_vals, slopes[1]))
    except ValueError:
        raise NotPersistentlyExcitingError(
            f"window tables are not finite for tau={tau!r}") from None


class WindowTables:
    """W (column 0) and xi (column 1) of a rate for one window tau, read
    from window tables on fixed blocks of time.  Make one through
    `DecayRate.windows`, so that every reader of the rate shares it.

    Block k spans [kL, (k+1)L], L = BLOCK_WINDOWS * tau, and is
    ``window_table(p, tau, kL, (k+1)L)``, built whole on first use; the
    MAX_BLOCKS built last are kept.  A time t is read from block
    floor(t / L), so its values depend on t alone, not on the other times
    of its batch or the times asked before it, and a float t gives the bits
    of its batch row.  A periodic rate folds t into [0, period) first and
    ends its blocks at the period, so with L >= period its one block is the
    one-period table.  Block k needs the rate on [kL - tau, (k+1)L]: a time
    in [-L, 0) evaluates an aperiodic rate down to -L - tau.  A non-finite
    time raises ValueError naming it.  `rate` is a bare copy of p (its
    function and period), so a rate that keeps this lookup is not in a
    reference cycle with it.
    """

    def __init__(self, p: DecayRate, tau: float):
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.rate, self.tau, self.period = DecayRate(p.fn, p.period), tau, p.period
        self.span = BLOCK_WINDOWS * tau
        # a periodic rate's last block, the one that ends at its period
        self._last = None
        if p.period is not None:
            blocks = p.period / self.span
            if blocks == math.inf:
                raise NotPersistentlyExcitingError(
                    f"period {p.period!r} spans too many windows of tau={tau!r}")
            self._last = max(0, math.ceil(blocks) - 1)
        self.blocks: dict[int, tuple] = {}

    def block(self, k: int) -> tuple:
        """The (W, xi) tables of block k, built whole on first use."""
        tables = self.blocks.get(k)
        if tables is None:
            lo = k * self.span
            hi = lo + self.span
            if self.period is not None:
                hi = min(hi, self.period)
            tables = window_table(self.rate, self.tau, lo, hi)
            if len(self.blocks) >= MAX_BLOCKS:
                del self.blocks[next(iter(self.blocks))]
            self.blocks[k] = tables
        return tables

    def column(self, j: int, t):
        """Column j at t: a float at a float t, else an array of t's shape."""
        if not isinstance(t, float):
            return self(t, (j,))[0]
        s = float(t)
        if s - s != 0.0:        # inf or nan
            raise ValueError(f"query time is not finite: t={s!r}")
        if self.period is not None:
            s %= self.period
        if self._last == 0:
            return (self.blocks.get(0) or self.block(0))[j](s)
        k = math.floor(s / self.span)
        return self.block(k if self._last is None else min(k, self._last))[j](s)

    def __call__(self, t, columns=(0, 1)) -> tuple:
        """The columns at t: floats at a float t, else arrays of t's shape."""
        if isinstance(t, float):
            return tuple(self.column(j, t) for j in columns)
        t = np.asarray(t, dtype=float)
        bad = t[~np.isfinite(t)]
        if bad.size:
            raise ValueError(f"query time is not finite: t={float(bad[0])!r}")
        s = t if self.period is None else np.mod(t, self.period)
        if self._last == 0:
            return hermite_values([self.block(0)[j] for j in columns], s)
        k = np.floor(s / self.span)
        if self._last is not None:
            np.minimum(k, self._last, out=k)
        outs = tuple(np.empty(s.shape) for _ in columns)
        for kk in np.unique(k).tolist():
            rows = k == kk
            tables = self.block(int(kk))
            for out, vals in zip(outs, hermite_values([tables[j] for j in columns], s[rows])):
                out[rows] = vals
        return outs


def window_integral_vec(p: DecayRate, tau: float, t: np.ndarray) -> np.ndarray:
    """Window integral for an array of right endpoints, read from the
    rate's lookup of window tau."""
    return p.windows(tau).column(0, t)


def xi(p: DecayRate, tau: float, t: float) -> float:
    """Double integral int_{t-tau}^t int_s^t p(r) dr ds: an oracle (see
    `simpson`).

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
    """Vectorized xi over an array of times, read from the rate's lookup of
    window tau."""
    return p.windows(tau).column(1, t)


def xi_nested(p: DecayRate, tau: float, t: float, n: int = 256) -> float:
    """Direct nested-quadrature xi, an oracle (see `simpson`) independent of
    the single-integral identity."""
    def inner(s_arr):
        return np.array([simpson(p, s, t, n) for s in np.atleast_1d(s_arr)])
    return simpson(inner, t - tau, t, n)


# ---------------------------------------------------------------------------
# PE constants

def _refine_min(fn: Callable[[list], Sequence[float]], grid: np.ndarray,
                vals: np.ndarray) -> float:
    """Polish the 3 best grid minima with bounded Brent; return the least.

    Each runs scipy's bounded method, bit for bit, on the two grid steps
    around its node, to an absolute tolerance of 1e-11; they run in
    lockstep through `minimize_brackets`, so ``fn`` maps the list of a
    round's points, up to one per bracket, to their values.
    """
    best = float(vals.min())
    brackets = []
    for j in np.argsort(vals)[:3]:
        lo = grid[max(0, j - 1)]
        hi = grid[min(len(grid) - 1, j + 1)]
        if hi > lo:
            brackets.append((lo, hi))
    for _, value in minimize_brackets(fn, brackets, 1.0e-11):
        best = min(best, value)
    return best


def _horizon(p: DecayRate, tau: float, horizon: float | None = None) -> float:
    """The horizon sampled for window tau: ``horizon`` when given, else one
    period and tau for a periodic p, or 20 tau for an aperiodic one.  One
    that is not finite (20 tau overflows for tau above about 9e306) raises
    NotPersistentlyExcitingError naming tau."""
    if horizon is None:
        horizon = p.period + tau if p.period is not None else 20.0 * tau
    if not math.isfinite(horizon):
        raise NotPersistentlyExcitingError(
            f"horizon {horizon!r} is not finite for tau={tau!r}")
    return horizon


def _window_min(look: WindowTables, ts: np.ndarray, shift: float = 0.0) -> float:
    """Least W(t + shift) over t in [ts[0], ts[-1]], with W read from the
    lookup both on the grid ts and at the points Brent polishes.

    The points of a polishing round, one per bracket, are read as one
    batch, which copies no table into the Python lists of its float path.
    """
    return _refine_min(lambda points: look.column(0, np.array(points) + shift).tolist(),
                       ts, look.column(0, ts + shift))


def estimate_pe(p: DecayRate, tau: float, horizon: float | None = None,
                n_grid: int = 512) -> PEEstimate:
    """Estimate (epsilon, pbar) for the window length tau.

    epsilon is the least window integral W over t in [0, horizon]: the
    minima of W on a grid of n_grid times, polished by Brent on the same
    lookup, the rate's for window tau, so it is a value of the W that
    `check_pe` and the certificate read.  pbar is the greatest value of p
    on a grid over [-tau, horizon], polished by Brent on the rate itself.
    Certified values carry a 1% safety margin (epsilon shrunk, pbar
    inflated).  An epsilon not above PASS_TOL raises
    WindowIntegralTooSmallError, any other failure of the rate
    NotPersistentlyExcitingError.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    horizon = _horizon(p, tau, horizon)
    if horizon < tau:
        raise ValueError("horizon must be at least tau")

    eps = _window_min(p.windows(tau), np.linspace(0.0, horizon, n_grid))
    if not eps > PASS_TOL:  # also catches NaN
        raise WindowIntegralTooSmallError(
            f"window integral reaches {eps!r} on [0, {horizon!r}] for tau={tau!r}")

    n_p = max(4 * n_grid, 4096)
    tg = np.linspace(-tau, horizon, n_p + 1)
    pv = _rate_values(p, tg)
    pbar = -_refine_min(lambda ts: [-float(p(t)) for t in ts], tg, -pv)
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
    horizon = _horizon(p, tau)
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
    one period of p, or 20 max(h, 1) for an aperiodic p: the window
    integral W of window h at t + h, its grid minima polished by Brent on
    the same lookup, the rate's for window h.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    if h == 0.0:
        return 0.0
    horizon = _horizon(p, h, p.period if p.period is not None else 20.0 * max(h, 1.0))
    ts = np.linspace(0.0, horizon, n_grid)
    return max(0.0, _window_min(p.windows(h), ts, h))


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
