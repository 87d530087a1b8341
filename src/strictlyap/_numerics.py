"""Numpy-only versions of the scipy routines the package relies on.

Each one performs the same floating-point operations in the same order as
its scipy counterpart, so the results are identical bit for bit (the tests
pin every one against scipy with ``np.array_equal``):

- ``halton(d, n, seed)``: ``scipy.stats.qmc.Halton(d, scramble=True,
  seed=seed).random(n)``, Owen-scrambled Halton points (Owen 2017,
  arXiv:1706.02808).  scipy sums each point's digit terms in a loop over
  the points; ``halton`` spends a few array passes per base instead, and
  stays bit-identical because every point gets the same float additions in
  the same order, ``Generator.permuted`` draws the same stream as one
  ``shuffle`` per permutation, and the only terms it leaves out are +0.0
  added to values >= +0.0;
- ``cumulative_simpson(y, dx)``: ``scipy.integrate.cumulative_simpson(y,
  dx=dx, initial=0.0)``;
- ``cumulative_trapezoid(y, x)``: ``scipy.integrate.cumulative_trapezoid(y,
  x, initial=0.0)``;
- ``CubicHermite(x, y, dydx)``: ``scipy.interpolate.CubicHermiteSpline``,
  evaluated as its ``PPoly`` is, extrapolation included;
- ``minimize_brackets(fn, brackets, xatol)``: for each ``(lo, hi)``, the
  ``x`` and ``fun`` of ``scipy.optimize.minimize_scalar(f, bounds=(lo, hi),
  method="bounded", options={"xatol": xatol})``, Brent's bounded minimizer
  on Python floats, run on all the brackets in lockstep with one call of
  ``fn`` per round for all their points.

Importing scipy.stats, scipy.integrate, scipy.interpolate and scipy.optimize
costs over a second, several times the run time of most commands; these few
lines keep them off the run time.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right

import numpy as np

_CHUNK = 8192       # Hermite queries per pass: 64 KiB per temporary


def _primes(d: int) -> list[int]:
    """The first d primes."""
    primes: list[int] = []
    k = 2
    while len(primes) < d:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def halton(d: int, n: int, seed: int) -> np.ndarray:
    """n scrambled Halton points in [0, 1)^d, an array of shape (n, d).

    Per base b (the first d primes), ``ceil(54 / log2 b) - 1`` permutations
    of ``range(b)`` are shuffled by ``default_rng(seed)``, base after base.
    Point k sums the terms ``perm[j][digit_j(k)] * b^-(j+1)`` over the rows
    j in order, from 0.0; a row past the last digit of every index adds
    ``perm[j][0] * b^-(j+1)`` to every point.

    scipy walks the points one by one; here each base costs a few array
    passes, and every point still gets the same additions in the same order:

    - ``permuted(..., axis=1)`` shuffles the rows one after the other, so it
      draws the same stream as one ``shuffle`` per row;
    - each row's terms are tabulated once, ``perm * b2r`` with ``b2r``
      divided down by b row after row, as scipy computes them;
    - with k = q b^r + s (r half the digit count), the low r rows depend on
      s alone and are summed once over the b^r residues; each high row then
      adds its term, read from the digit of q, to a (blocks, b^r) view;
    - a row past the last digit whose ``perm[j][0]`` is 0 is skipped, since
      adding +0.0 to a value >= +0.0 changes nothing.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((d, n))
    for v, base in zip(out, _primes(d)):
        n_rows = math.ceil(54 / math.log2(base)) - 1
        perms = rng.permuted(np.repeat(np.arange(base)[None], n_rows, axis=0), axis=1)
        b2r = [1.0 / base]
        for _ in range(n_rows - 1):
            b2r.append(b2r[-1] / base)
        terms = perms * np.array(b2r)[:, None]
        n_digits, top = 0, max(n - 1, 0)
        while top:
            top //= base
            n_digits += 1
        n_low = n_digits // 2
        width = base ** n_low
        s = np.arange(width)
        low_sum = np.zeros(width)
        for row in terms[:n_low]:
            s, digit = np.divmod(s, base)
            low_sum += row.take(digit)
        grid = np.tile(low_sum, (-(-n // width), 1))
        q = np.arange(grid.shape[0])
        for row in terms[n_low:n_digits]:
            q, digit = np.divmod(q, base)
            grid += row.take(digit)[:, None]
        v[:] = grid.ravel()[:n]
        for term in terms[n_digits:, 0].tolist():
            if term:        # perm[j][0] = 0 would add +0.0
                v += term
    return out.T     # scipy's layout: the transpose of one row per base


def cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Running composite-Simpson integral of samples y spaced dx, from 0.

    Each step's piece is the quadratic through its three nearest samples,
    taken from the left triple (h1) and from the reversed array (h2), which
    alone covers the last step; needs at least 3 samples.
    """
    y = np.asarray(y, dtype=float)
    if y.size < 3:
        raise ValueError("cumulative Simpson needs at least 3 samples")
    d = dx / 3
    h1 = d * (5 * y[:-2] / 4 + 2 * y[1:-1] - y[2:] / 4)
    r = y[::-1]
    h2 = (d * (5 * r[:-2] / 4 + 2 * r[1:-1] - r[2:] / 4))[::-1]
    pieces = np.empty(y.size - 1)
    pieces[:-1:2] = h1[::2]
    pieces[1::2] = h2[::2]
    pieces[-1] = h2[-1]
    # scipy adds the initial 0.0 to the running sum, which turns -0.0 into 0.0
    return np.concatenate(([0.0], np.cumsum(pieces) + 0.0))


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over the increasing times x, from 0."""
    y = np.asarray(y, dtype=float)
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


class CubicHermite:
    """The cubic Hermite interpolant through (x, y) with slopes dydx.

    Coefficients are scipy's, and a query is evaluated as ``PPoly`` does:
    the piece starting at the last knot <= s, clipped to the first and last
    piece (so both ends extrapolate), summed in the power order
    ``((c3 + c2 d) + c1 d^2) + c0 d^3`` with d = s - knot.  A Python float
    is placed by ``bisect_right`` on lists copied on its first use and
    returns a float; anything else is taken as an array and returns an
    array of its shape.  Values, slopes or coefficients that are not finite
    raise ValueError, with no RuntimeWarning.
    """

    def __init__(self, x, y, dydx):
        x, y, dydx = (np.ascontiguousarray(a, dtype=float) for a in (x, y, dydx))
        dx = np.diff(x)
        with np.errstate(all="ignore"):
            slope = np.diff(y) / dx
            t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
            # cubic .. constant; PPoly starts its sum from 0.0, so a -0.0
            # constant enters as 0.0
            coef = (t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1] + 0.0)
        # every value and slope enters a coefficient
        if not all(np.isfinite(c).all() for c in coef):
            raise ValueError("Hermite values, slopes and coefficients must be finite")
        self.knots, self.coef = x, coef
        # the end of each piece; nan keeps queries past the last knot in the
        # last piece
        self._ends = np.append(x[1:-1], np.nan)
        # knots within a quarter step of an even grid let an array query
        # guess its piece to within one, if the step has a finite inverse
        step = float(x[-1] - x[0]) / dx.size
        even = np.abs(x - (x[0] + step * np.arange(x.size))).max() < 0.25 * step
        self._per_step = 1.0 / step if even and 1.0 / step < math.inf else None

    @functools.cached_property
    def _lists(self):
        return (self.knots.tolist(), *(c.tolist() for c in self.coef))

    def locate(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Piece index and offset from its knot of each query in the 1-D
        array s, as ``clip(searchsorted(knots, s, 'right') - 1, 0, len - 2)``.

        On an even grid, ``floor((s - x0) / step - 1/2)`` is that piece or
        the one before, and one comparison with the piece's end settles it.
        """
        x, last = self.knots, self.knots.size - 2
        if self._per_step is None:
            i = np.searchsorted(x, s, side="right")
            i -= 1
            np.clip(i, 0, last, out=i)
        else:
            g = s - x[0]
            g *= self._per_step
            g -= 0.5
            np.fmax(g, 0.0, out=g)       # a nan query lands in piece 0
            np.fmin(g, last, out=g)
            i = g.astype(np.intp)
            i += s >= self._ends.take(i, out=g, mode="clip")
        return i, s - x.take(i, mode="clip")

    def at(self, i: np.ndarray, d: np.ndarray, out: np.ndarray) -> None:
        """Write into out the values at the pieces i and offsets d that
        ``locate`` returned."""
        c0, c1, c2, c3 = self.coef
        c2.take(i, out=out, mode="clip")
        out *= d
        term = c3.take(i, mode="clip")
        out += term
        c1.take(i, out=term, mode="clip")
        d2 = d * d
        term *= d2
        out += term
        c0.take(i, out=term, mode="clip")
        d2 *= d
        term *= d2
        out += term

    def __call__(self, s):
        if isinstance(s, float):
            knots, c0, c1, c2, c3 = self._lists
            # bisect on knots[1:-1]: the clipped piece, also for a nan s
            i = bisect_right(knots, s, 1, len(knots) - 1) - 1
            d = s - knots[i]
            return ((c3[i] + c2[i] * d) + c1[i] * (d * d)) + c0[i] * ((d * d) * d)
        return hermite_values((self,), s)[0]


def hermite_values(tables, s) -> tuple:
    """Each table at the array s, for tables on the same knots.

    s is placed once for all the tables, _CHUNK queries at a time, so that
    the dozen passes over each chunk stay in cache.
    """
    s = np.asarray(s, dtype=float)
    flat = s.ravel()
    outs = [np.empty(flat.size) for _ in tables]
    for a in range(0, flat.size, _CHUNK):
        i, d = tables[0].locate(flat[a:a + _CHUNK])
        for table, out in zip(tables, outs):
            table.at(i, d, out[a:a + _CHUNK])
    return tuple(out.reshape(s.shape) for out in outs)


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_MAX_EVALS = 500


def _unit_sign(v: float) -> float:
    """``np.sign(v) + (v == 0)`` for a finite v: -1.0 below zero, else 1.0."""
    return -1.0 if v < 0.0 else 1.0


def _brent(lo: float, hi: float, xatol: float):
    """Brent's bounded minimizer on [lo, hi] as a generator: it yields each
    point, is sent the objective's value there, and returns (x, fn(x)) at
    a local minimum.

    Golden-section steps, replaced by a parabola through the three best
    points when it falls inside the bracket (Brent, *Algorithms for
    Minimization Without Derivatives*, 1973, ch. 5), until the bracket is
    within about xatol of the best point or 500 evaluations are spent.  The
    steps and comparisons are scipy's ``_minimize_scalar_bounded``, so the
    objective sees the same points.  A NaN value never replaces the best
    point, so only a NaN at the first point is returned.
    """
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"bounds must be finite with lo <= hi, got ({lo!r}, {hi!r})")
    a, b = lo, hi
    xf = fulc = nfc = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = yield xf
    num = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:       # try a parabola through xf, nfc and fulc
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _unit_sign(xm - xf)
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        x = xf + _unit_sign(rat) * max(abs(rat), tol1)
        fu = yield x
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAX_EVALS:
            break
    return xf, fx


def minimize_brackets(fn, brackets, xatol: float) -> list[tuple[float, float]]:
    """(x, f(x)) at a local minimum on each (lo, hi) of ``brackets``, each
    by Brent's bounded method (`_brent`), run in lockstep.

    Each round calls ``fn`` once, with the list of the points the brackets
    still open ask next, and reads a sequence of their values, in order; a
    bracket's points and answer are those it gets alone.
    """
    runs = [_brent(lo, hi, xatol) for lo, hi in brackets]
    points = [next(run) for run in runs]
    found: list = [None] * len(runs)
    open_ = list(range(len(runs)))
    while open_:
        values = fn([points[i] for i in open_])
        still = []
        for i, value in zip(open_, values):
            try:
                points[i] = runs[i].send(value)
                still.append(i)
            except StopIteration as stop:
                found[i] = stop.value
        open_ = still
    return found

