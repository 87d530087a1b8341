"""Calculus of comparison functions (candidate class-K-infinity gains).

A GainFunction bundles a nonnegative scalar map with derivative access and a
probe interval.  Class membership cannot be proven by sampling, so `check_kl`
reports the worst violation found on a grid instead of claiming a proof.
Numeric inversion is bracket doubling followed by safeguarded Newton steps
that fall back on bisection, which only needs monotonicity.  `_invert_array`
takes these steps on numpy arrays and `invert` on Python floats, where a
compiled gain gives what numpy gives, so no float error needs handling.  A
gain built from point-exact expressions (see `exprparse.is_point_exact`)
and the constructions below carries ``point_exact``: its float value and its
batch value agree bit for bit, so the float loop gives the batch answer,
and an inverse gain answers a float, or a batch of at most `FLOAT_BATCH`
targets, one target at a time on floats.  An inverse gain answers an array
of targets equal to its last array from its last answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import exprparse
from .errors import ValidationFailure

DEFAULT_PROBE_MAX = 1.0e3
_BRACKET_DOUBLINGS = 60
# the largest batch of a point-exact gain's targets inverted one by one on
# floats: at 14 targets both routes take about 0.23 ms on the alpha2_tilde
# of the benchmark's sweep problems, and from 16 up one array call is faster
FLOAT_BATCH = 14


class BracketNotFoundError(RuntimeError):
    """The target value was never reached while doubling the bracket."""


class TargetOutOfRangeError(ValidationFailure, ValueError):
    """An inverse gain was asked a target outside the range of its gain:
    a negative one, or one past where the gain looks bounded."""


@dataclass(frozen=True)
class GainFunction:
    """Candidate class-K-infinity function with derivative access.

    ``fn`` must accept floats and numpy arrays.  When ``deriv_fn`` is not
    given, the derivative falls back to central differences with step
    ``max(1e-6, 1e-6*s)`` (one-sided at 0).  ``point_exact`` is derived,
    never configured: `gain_from_expr` and `identity_gain` set it, and each
    construction of this module and of `strictify` passes on the AND of its
    parts.  It promises that the value and the derivative at a float equal,
    bit for bit, the elements of a batch call.
    """

    fn: Callable
    deriv_fn: Callable | None = None
    probe_max: float = DEFAULT_PROBE_MAX
    label: str = ""
    point_exact: bool = False

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
    return GainFunction(lambda s: s * 1.0, lambda s: np.ones_like(s, dtype=float), label="s",
                        point_exact=True)


def gain_from_expr(text: str) -> GainFunction:
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
    exact = exprparse.is_point_exact(e)
    if exprparse.is_smooth(e):
        d = exprparse.differentiate(e, "s")
        exact = exact and exprparse.is_point_exact(d)
        deriv = exprparse.compile_expr(d, ("s",))
        if not d.variables():
            deriv = partial(np.full_like, fill_value=float(deriv(0.0)), dtype=float)
    return GainFunction(fn, deriv, label=text, point_exact=exact)


def check_kl(beta: KLFunction, s_max: float = 10.0, t_max: float = 10.0,
             t_big: float = 50.0, n: int = 64) -> SpotCheckReport:
    """Sampled spot check of the KL properties of beta.

    beta is called once, on the grid of n values of s in [0, s_max] by the
    n values of t in [0, t_max] and t_big; the checks read its rows and
    columns.  A value that is not finite fails the check, naming its first
    (s, t).
    """
    ss = np.linspace(0.0, s_max, n)
    ts = np.linspace(0.0, t_max, n)
    s_grid, t_grid = np.meshgrid(ss, np.append(ts, t_big), indexing="ij")
    with np.errstate(all="ignore"):
        grid = np.asarray(beta(s_grid, t_grid), dtype=float)   # (n, n + 1)
    bad = ~np.isfinite(grid)
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), grid.shape)
        s, t, v = float(ss[i]), float(t_grid[i, j]), float(grid[i, j])
        return SpotCheckReport("kl", False, v, s, f"beta({s!r}, {t!r}) = {v!r} is not finite")
    worst = np.inf
    where = 0.0
    msg = ""
    z = grid[0, :n]                                        # beta(0, t)
    if np.abs(z).max() > 1.0e-12:
        worst, where, msg = -float(np.abs(z).max()), float(ts[int(np.argmax(np.abs(z)))]), "beta(0, t) != 0"
    step = max(1, n // 8)
    for j in range(0, n, step):
        d = np.diff(grid[:, j])
        if d.min() <= 0 and worst > d.min():
            worst, where, msg = float(d.min()), float(ts[j]), "not increasing in s"
    for i in range(1, n, step):
        d = np.diff(grid[i, :n])
        if d.max() > 1.0e-12 and worst > -d.max():
            worst, where, msg = -float(d.max()), float(ss[i]), "increasing in t"
        big, base = float(grid[i, n]), float(grid[i, 0])
        if base > 0 and big >= 1.0e-3 * base and worst > 1.0e-3 * base - big:
            worst, where, msg = float(1.0e-3 * base - big), float(ss[i]), "no decay to zero"
    if msg:
        return SpotCheckReport("kl", False, worst, where, msg)
    return SpotCheckReport("kl", True, 0.0, 0.0)


def invert(g: GainFunction, y: float) -> float:
    """Solve g(s) = y for s >= 0 on Python floats: the loop of
    `_invert_array` written for one target, step by step, so for a
    point-exact g the answer that target gets inside any batch, bit for bit.
    A zero slope bisects, as numpy's inf or nan Newton step does.
    """
    y = float(y)
    if y < 0.0:
        raise ValueError("target must be nonnegative")
    if not y > 0.0:
        return 0.0 if y == 0.0 else math.nan
    fn, deriv = g.fn, g.deriv
    lo, hi = 0.0, 1.0
    for _ in range(_BRACKET_DOUBLINGS + 20):
        f = float(fn(hi)) - y       # g(x) - y at the iterate x
        if not f < 0.0:
            break
        lo = hi
        hi *= 2.0
    else:
        raise BracketNotFoundError("gain looks bounded on probed range")
    if hi > g.probe_max * 2.0 ** _BRACKET_DOUBLINGS:
        raise BracketNotFoundError("gain looks bounded on probed range")
    x = hi
    moved = math.inf
    for _ in range(110):
        tol = 1.0e-15 * max(1.0, hi)
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
        slope = float(deriv(x))
        step = f / slope if slope else math.inf     # s = -inf: numpy's bisection
        s = x - step - math.copysign(0.25 * tol, step)
        if not (math.isfinite(s) and lo < s < hi and abs(s - x) <= 0.5 * moved):
            s = 0.5 * (lo + hi)
        f = float(fn(s)) - y
        if f < 0.0:
            lo = s
        else:
            hi = s
        moved = abs(s - x)
        x = s
    return 0.5 * (lo + hi)


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

    Each target gets the answer it would get alone, and a float target a
    float.  For a point-exact g a float goes through `invert`, and a batch
    of at most `FLOAT_BATCH` targets goes through `invert` one target at a
    time; every other argument goes through `_invert_array`, a float as a
    0-d array.  The gain keeps its last array of targets and its answer: an
    array of the same shape and equal values (NaN equal to NaN, -0.0 to
    0.0) gets a copy of the last answer without a new inversion, so
    ``deriv(y)`` followed by ``fn(y)`` inverts a batch ``y`` once.  A
    negative target, or one the gain looks bounded below, raises
    TargetOutOfRangeError naming g.  The derivative uses the
    inverse-function rule 1/g'(g^{-1}(y)), divided as numpy divides, so a
    zero slope gives inf.  The inverse is probed on [0, g(probe_max)]; a g
    not finite at probe_max raises ValidationFailure naming it.
    """
    last = None     # (target, answer) of the last array inversion, as copies
    name = g.label or "(unnamed)"

    def solve(y):
        nonlocal last
        prev = last     # one read: target and answer always belong together
        y = np.asarray(y, dtype=float)
        if prev is not None and np.array_equal(prev[0], y, equal_nan=True):
            return prev[1].copy()
        if g.point_exact and y.size <= FLOAT_BATCH:
            out = np.array([invert(g, v) for v in y.ravel().tolist()]).reshape(y.shape)
        else:
            out = _invert_array(g, y)
        last = (y.copy(), out.copy())
        return out

    def fn(y):
        try:
            if isinstance(y, float):
                return invert(g, y) if g.point_exact else float(solve(y))
            return solve(y)
        except (ValueError, BracketNotFoundError) as exc:
            raise TargetOutOfRangeError(f"inverse of gain {name}: {exc}") from None

    def deriv(y):
        return np.divide(1.0, g.deriv(fn(y)))

    try:
        top = float(g(g.probe_max))
    except exprparse.FLOAT_ERRORS:      # a gain written by hand may raise on floats
        top = math.inf
    if not math.isfinite(top):
        raise ValidationFailure(f"gain {name} is not finite at the top "
                                f"of its probed range, s = {g.probe_max!r}: its inverse "
                                f"has no finite range")
    return GainFunction(fn, deriv, probe_max=top, label=f"inv({g.label})" if g.label else "inv",
                        point_exact=g.point_exact)


def compose(outer: GainFunction, inner: GainFunction) -> GainFunction:
    """outer(inner(s)) with chain-rule derivative."""
    def fn(s):
        return outer(inner(s))

    def deriv(s):
        return outer.deriv(inner(s)) * inner.deriv(s)

    label = ""
    if outer.label and inner.label:
        label = f"({outer.label}) o ({inner.label})"
    return GainFunction(fn, deriv, probe_max=inner.probe_max, label=label,
                        point_exact=outer.point_exact and inner.point_exact)


def scale_gain(c: float, g: GainFunction) -> GainFunction:
    """c * g(s) for c > 0."""
    if c <= 0:
        raise ValueError("scale must be positive")
    return GainFunction(lambda s: c * g(s), lambda s: c * g.deriv(s),
                        probe_max=g.probe_max,
                        label=f"{c!r}*({g.label})" if g.label else "",
                        point_exact=g.point_exact)


def rescale_kl(beta: KLFunction, pbar_fn: GainFunction) -> KLFunction:
    """Rescale the decay clock: beta_hat(s, t) = beta(s, pbar_fn(t))."""
    return KLFunction(lambda s, t: beta(s, pbar_fn(t)),
                      label=f"{beta.label or 'beta'}(s, {pbar_fn.label or 'pl'}(t))")
