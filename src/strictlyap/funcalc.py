"""Calculus of comparison functions (candidate class-K-infinity gains).

A GainFunction bundles a nonnegative scalar map with derivative access and a
probe interval for numeric spot checks.  Membership in the K-infinity class
cannot be proven by sampling, so `check_kinf` reports the worst violation
found on a grid instead of claiming a proof.  Numeric inversion is bracket
doubling followed by safeguarded Newton steps that fall back on bisection,
which only needs monotonicity.  An inverse gain answers a target equal to
its last one from its last answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import exprparse

DEFAULT_PROBE_MAX = 1.0e3
DEFAULT_GRID = 10_000
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


def invert(g: GainFunction, y: float) -> float:
    """Solve g(s) = y for s >= 0: `_invert_array` on one target, which is
    the answer that target gets inside any batch."""
    return float(_invert_array(g, y))


def _invert_array(g: GainFunction, y: np.ndarray) -> np.ndarray:
    """Solve g(s) = y for s >= 0 elementwise, each target on its own.

    The bracket doubles from [0, 1] until g(hi) >= y; its last doubling
    leaves g(lo) < y.  Each step then starts from the last iterate x (first
    hi) and goes to the Newton point x - (g(x) - y)/g'(x), overshot by a
    quarter of the tolerance so that a converged iterate closes the bracket
    from the far side, when that point is finite, strictly inside the
    bracket and at most half as far from x as the step before; otherwise it
    bisects.  A target leaves the loop once its bracket is at most
    1e-15 * max(1, hi) wide and gets the midpoint, so its answer does not
    depend on the other targets of its batch.  A negative target raises
    ValueError, a zero one gives 0 and a NaN one NaN.
    """
    y = np.asarray(y, dtype=float)
    if (y < 0.0).any():
        raise ValueError("target must be nonnegative")
    shape, y = y.shape, y.ravel()
    out = np.where(y == 0.0, 0.0, np.nan)
    pos = np.flatnonzero(y > 0.0)
    if pos.size == 0:
        return out.reshape(shape)
    y = y[pos]
    lo = np.zeros_like(y)
    hi = np.ones_like(y)
    for _ in range(_BRACKET_DOUBLINGS + 20):
        f = np.asarray(g(hi), dtype=float) - y      # g(x) - y at the iterate x
        low = f < 0.0
        if not low.any():
            break
        lo[low] = hi[low]
        hi[low] *= 2.0
    else:
        raise BracketNotFoundError("gain looks bounded on probed range")
    if hi.max() > g.probe_max * 2.0 ** _BRACKET_DOUBLINGS:
        raise BracketNotFoundError("gain looks bounded on probed range")
    # the open targets only, compacted whenever one closes
    x = hi
    moved = np.full_like(y, np.inf)     # length of each target's last step
    for _ in range(110):
        tol = 1.0e-15 * np.maximum(1.0, hi)
        closed = hi - lo <= tol
        if closed.any():
            out[pos[closed]] = 0.5 * (lo[closed] + hi[closed])
            keep = ~closed
            pos, y, lo, hi, x, f, moved, tol = (
                a[keep] for a in (pos, y, lo, hi, x, f, moved, tol))
            if pos.size == 0:
                break
        with np.errstate(all="ignore"):
            step = f / np.asarray(g.deriv(x), dtype=float)
            s = x - step - np.copysign(0.25 * tol, step)
            newton = (np.isfinite(s) & (s > lo) & (s < hi)
                      & (np.abs(s - x) <= 0.5 * moved))
        s = np.where(newton, s, 0.5 * (lo + hi))
        f = np.asarray(g(s), dtype=float) - y
        below = f < 0.0
        lo = np.where(below, s, lo)
        hi = np.where(below, hi, s)
        moved = np.abs(s - x)
        x = s
    else:
        out[pos] = 0.5 * (lo + hi)
    return out.reshape(shape)


def inverse_gain(g: GainFunction) -> GainFunction:
    """Numeric inverse of an increasing gain, as a GainFunction.

    Arguments go through `_invert_array`, so a float gives a 0-d array and
    each element the answer it would get alone.  The gain keeps its last
    target and answer: a target of the same shape and equal values (NaN
    equal to NaN, -0.0 to 0.0) gets a copy of the last answer without a new
    inversion, so ``deriv(y)`` followed by ``fn(y)`` inverts ``y`` once.  The
    derivative uses the inverse-function rule 1/g'(g^{-1}(y)).
    """
    last = None     # (target, answer) of the last inversion, both copies

    def fn(y):
        nonlocal last
        y = np.asarray(y, dtype=float)
        prev = last     # one read: target and answer always belong together
        if prev is not None and np.array_equal(prev[0], y, equal_nan=True):
            return prev[1].copy()
        out = _invert_array(g, y)
        last = (y.copy(), out.copy())
        return out

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
