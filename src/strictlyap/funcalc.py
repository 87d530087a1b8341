"""Calculus of comparison functions (candidate class-K-infinity gains).

A GainFunction bundles a nonnegative scalar map with derivative access and a
probe interval for numeric spot checks.  Membership in the K-infinity class
cannot be proven by sampling, so `check_kinf` reports the worst violation
found on a grid instead of claiming a proof.  Numeric inversion is bracket
doubling followed by bisection, which only needs monotonicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import exprparse

DEFAULT_PROBE_MAX = 1.0e3
DEFAULT_GRID = 10_000
INVERT_TOL = 1.0e-10
_BRACKET_DOUBLINGS = 60


class BracketNotFoundError(RuntimeError):
    """The target value was never reached while doubling the bracket."""


@dataclass(frozen=True)
class GainFunction:
    """Candidate class-K-infinity function with derivative access.

    ``fn`` must accept floats and numpy arrays.  When ``deriv_fn`` is not
    given, the derivative falls back to central differences with step
    ``max(1e-6, 1e-6*s)`` (one-sided at 0).
    """

    fn: Callable
    deriv_fn: Callable | None = None
    probe_max: float = DEFAULT_PROBE_MAX
    label: str = ""

    def __call__(self, s):
        return self.fn(s)

    def deriv(self, s):
        if self.deriv_fn is not None:
            return self.deriv_fn(s)
        h = np.maximum(1.0e-6, 1.0e-6 * np.abs(s))
        lo = np.maximum(np.asarray(s) - h, 0.0)
        hi = np.asarray(s) + h
        return (self.fn(hi) - self.fn(lo)) / (hi - lo)


@dataclass(frozen=True)
class KLFunction:
    """Candidate class-KL function beta(s, t)."""

    fn: Callable
    label: str = ""

    def __call__(self, s, t):
        return self.fn(s, t)


@dataclass(frozen=True)
class SpotCheckReport:
    """Outcome of a sampled class-membership check."""

    name: str
    passed: bool
    worst_violation: float
    location: float
    detail: str = ""


def identity_gain() -> GainFunction:
    return GainFunction(lambda s: s * 1.0, lambda s: np.ones_like(s, dtype=float), label="s")


def linear_gain(c: float, label: str | None = None) -> GainFunction:
    return GainFunction(lambda s: c * s, lambda s: np.full_like(s, c, dtype=float),
                        label=label or f"{c!r}*s")


def gain_from_expr(text: str, probe_max: float = DEFAULT_PROBE_MAX) -> GainFunction:
    """Build a gain from an expression in the variable ``s``.

    Uses the symbolic derivative when the expression is smooth, otherwise
    the finite-difference fallback.  A constant derivative keeps the shape
    of its argument.
    """
    e = exprparse.parse(text)
    extra = e.variables() - {"s"}
    if extra:
        raise ValueError(f"gain expression may only use 's', found {sorted(extra)}")
    fn = exprparse.compile_expr(e, ("s",))
    deriv = None
    if exprparse.is_smooth(e):
        d = exprparse.differentiate(e, "s")
        deriv = exprparse.compile_expr(d, ("s",))
        if not d.variables():
            deriv = partial(np.full_like, fill_value=float(deriv(0.0)), dtype=float)
    return GainFunction(fn, deriv, probe_max=probe_max, label=text)


def check_kinf(g: GainFunction, n_grid: int = DEFAULT_GRID) -> SpotCheckReport:
    """Sampled spot check: g(0)=0, strictly increasing, g ends above start.

    Failures are reported, never raised.
    """
    if n_grid < 2:
        raise ValueError("n_grid must be at least 2")
    s = np.linspace(0.0, g.probe_max, n_grid)
    v = np.asarray(g(s), dtype=float)
    problems = []
    g0 = float(v[0])
    if abs(g0) > 1.0e-12:
        problems.append((-abs(g0), 0.0, f"g(0) = {g0!r} != 0"))
    diffs = np.diff(v)
    j = int(np.argmin(diffs))
    if diffs[j] <= 0.0:
        problems.append((float(diffs[j]), float(s[j + 1]),
                         f"not strictly increasing near s = {s[j + 1]!r}"))
    if v[-1] <= v[0]:
        problems.append((float(v[-1] - v[0]), float(s[-1]), "no growth over probe range"))
    if not problems:
        return SpotCheckReport("kinf", True, float(diffs.min()), float(s[int(np.argmin(diffs)) + 1]))
    worst = min(problems)
    return SpotCheckReport("kinf", False, worst[0], worst[1], worst[2])


def check_kl(beta: KLFunction, s_max: float = 10.0, t_max: float = 10.0,
             t_big: float = 50.0, n: int = 64) -> SpotCheckReport:
    """Sampled spot check of the KL properties of beta."""
    ss = np.linspace(0.0, s_max, n)
    ts = np.linspace(0.0, t_max, n)
    worst = np.inf
    where = 0.0
    msg = ""
    z = np.asarray(beta(np.zeros(n), ts), dtype=float)
    if np.abs(z).max() > 1.0e-12:
        worst, where, msg = -float(np.abs(z).max()), float(ts[int(np.argmax(np.abs(z)))]), "beta(0, t) != 0"
    for t in ts[:: max(1, n // 8)]:
        v = np.asarray(beta(ss, np.full(n, t)), dtype=float)
        d = np.diff(v)
        if d.min() <= 0 and worst > d.min():
            worst, where, msg = float(d.min()), float(t), "not increasing in s"
    for s in ss[1:: max(1, n // 8)]:
        v = np.asarray(beta(np.full(n, s), ts), dtype=float)
        d = np.diff(v)
        if d.max() > 1.0e-12 and worst > -d.max():
            worst, where, msg = -float(d.max()), float(s), "increasing in t"
        big = float(beta(s, t_big))
        base = float(beta(s, 0.0))
        if base > 0 and big >= 1.0e-3 * base and worst > 1.0e-3 * base - big:
            worst, where, msg = float(1.0e-3 * base - big), float(s), "no decay to zero"
    if msg:
        return SpotCheckReport("kl", False, worst, where, msg)
    return SpotCheckReport("kl", True, 0.0, 0.0)


def invert(g: GainFunction, y: float, tol: float = INVERT_TOL) -> float:
    """Solve g(s) = y for s >= 0 by bracket doubling then bisection."""
    if y < 0:
        raise ValueError("target must be nonnegative")
    if y == 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    cap = g.probe_max * 2.0 ** _BRACKET_DOUBLINGS
    while float(g(hi)) < y:
        hi *= 2.0
        if hi > cap:
            raise BracketNotFoundError(
                f"g({hi!r}) still below {y!r}; gain looks bounded on probed range")
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        r = float(g(mid)) - y
        if abs(r) <= tol:
            return mid
        if r < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1.0e-16 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def _invert_array(g: GainFunction, y: np.ndarray) -> np.ndarray:
    """Vectorized bisection; same contract as `invert` per element, NaN for NaN."""
    y = np.asarray(y, dtype=float)
    if (y < 0.0).any():
        raise ValueError("target must be nonnegative")
    out_shape = y.shape
    y = y.ravel()
    lo = np.zeros_like(y)
    hi = np.ones_like(y)
    cap = g.probe_max * 2.0 ** _BRACKET_DOUBLINGS
    for _ in range(_BRACKET_DOUBLINGS + 20):
        low = np.asarray(g(hi)) < y
        if not low.any():
            break
        hi[low] *= 2.0
    else:
        raise BracketNotFoundError("gain looks bounded on probed range")
    if hi.max() > cap:
        raise BracketNotFoundError("gain looks bounded on probed range")
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        below = np.asarray(g(mid)) < y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if float((hi - lo).max()) <= 1.0e-15 * max(1.0, float(hi.max())):
            break
    out = 0.5 * (lo + hi)
    out[y == 0.0] = 0.0
    out[np.isnan(y)] = np.nan
    return out.reshape(out_shape)


def inverse_gain(g: GainFunction) -> GainFunction:
    """Numeric inverse of an increasing gain, as a GainFunction.

    Every argument goes through the vectorized bisection, so a float gives
    a 0-d array.  The derivative uses the inverse-function rule
    1/g'(g^{-1}(y)).
    """
    def fn(y):
        return _invert_array(g, y)

    def deriv(y):
        s = fn(y)
        return 1.0 / g.deriv(s)

    top = float(g(g.probe_max))
    return GainFunction(fn, deriv, probe_max=top, label=f"inv({g.label})" if g.label else "inv")


def compose(outer: GainFunction, inner: GainFunction) -> GainFunction:
    """outer(inner(s)) with chain-rule derivative."""
    def fn(s):
        return outer(inner(s))

    def deriv(s):
        return outer.deriv(inner(s)) * inner.deriv(s)

    label = ""
    if outer.label and inner.label:
        label = f"({outer.label}) o ({inner.label})"
    return GainFunction(fn, deriv, probe_max=inner.probe_max, label=label)


def scale_gain(c: float, g: GainFunction) -> GainFunction:
    """c * g(s) for c > 0."""
    if c <= 0:
        raise ValueError("scale must be positive")
    return GainFunction(lambda s: c * g(s), lambda s: c * g.deriv(s),
                        probe_max=g.probe_max,
                        label=f"{c!r}*({g.label})" if g.label else "")


def rescale_kl(beta: KLFunction, pbar_fn: GainFunction) -> KLFunction:
    """Rescale the decay clock: beta_hat(s, t) = beta(s, pbar_fn(t))."""
    return KLFunction(lambda s, t: beta(s, pbar_fn(t)),
                      label=f"{beta.label or 'beta'}(s, {pbar_fn.label or 'pl'}(t))")
