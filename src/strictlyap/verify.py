"""Sampling-based checking and falsification of the decay inequalities.

Every check draws a deterministic batch of points (unit-cube rows from
scrambled Halton for coverage plus seeded uniform noise, sent into the domain
by one map), evaluates a margin whose nonnegativity expresses the
inequality, then polishes the worst point with coordinate descent, which
evaluates every probe it has left, of all its passes, as one batch and
rebuilds that batch after each move.  A passing report means "no violation
found on this domain with this budget", never a proof; an implication region
that kept no sample fails, and so does a non-finite sampled margin, without
refinement.

A margin is a kernel (`MarginKernel`): the inequality written out as one
expression tree over ``t, x1..xn, u1..um``, into which the candidate's V and
derivatives, the field and the gains are substituted as trees, compiled
once by ``exprparse.compile_expr`` so that a shared subtree is computed once
a batch.  Hand-written callables, the rate p(t) and the W/xi columns of a
window lookup enter as input columns read once a batch; inverse gains and
other opaque gains as named calls.  The kernel keeps the float operations
of numpy's array code for the same margin, its row sums in numpy's order
(`row_norm`, `row_dot`), so every margin keeps its bits.  `vdot` and the
certificate checks of `strictify` are kernels of the same builder.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._numerics import cumulative_trapezoid, halton
from .decay import PASS_TOL, DecayRate, _rate_values
from .dynsys import Trajectory
from .errors import ValidationFailure
from .exprparse import BinOp, Call, Expr, Neg, Num, Var, compile_expr, substitute
from .funcalc import GainFunction, KLFunction

DEFAULT_SAMPLES = 10_000
REFINE_PASSES = 8       # coordinate-descent passes, each halving the steps
ISS_POINTS = 200        # points read per held-out run by check_iss_estimate
# rows a margin kernel evaluates at once: on rigid-body's 1e5-row batches
# this cut the traced peak of its contract kernel from 13.0 to 1.9 MiB, and
# its time from 22 to 16 ms (rows of 4096 to 32768 all took 16-17 ms)
KERNEL_ROWS = 8192


class FitFailedError(ValidationFailure):
    """The fitted ISS envelope failed its held-out validation."""


@dataclass(frozen=True)
class SampleDomain:
    """Box of the form t in [t0, t1], |x| <= x_radius, |u| <= u_radius.

    A box is valid by construction: ``t_range`` must be finite and
    increasing and each radius finite and non-negative (0 samples only the
    origin), or ValueError names the field.
    """

    t_range: tuple[float, float] = (0.0, 10.0)
    x_radius: float = 10.0
    u_radius: float = 5.0

    def __post_init__(self):
        t0, t1 = self.t_range
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise ValueError(f"t_range must be finite, got {self.t_range!r}")
        if not t0 < t1:
            raise ValueError(f"t_range must be increasing, got {self.t_range!r}")
        for name in ("x_radius", "u_radius"):
            r = getattr(self, name)
            if not 0.0 <= r < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {r!r}")

    def sample(self, n: int, nx: int, nu: int, seed: int = 0):
        """Deterministic batch: (t, x, u) arrays of shapes (n,), (n,nx), (n,nu).

        Unit-cube rows [t, |x|, x-direction, |u|, u-direction]: a block of
        round(n/2) clipped Halton rows (half to even, so none for n = 1), then
        one of uniform rows drawn column by column.

        scipy.special (ndtri, for the ball directions) is imported here, so
        that a run that samples nothing (`pe`, `verify iss-estimate`) does
        not load it.  It is loaded before the first block is drawn: loaded
        after it, among the block's arrays, it raised the peak RSS of the
        trajectories benchmark by about 1.5 MiB (`BENCH_17.json`).
        """
        from scipy.special import ndtri

        if n < 1:
            raise ValueError(f"sample count must be at least 1, got {n!r}")
        widths = [1, 1, nx] + ([1, nu] if nu else [])
        n_h = int(round(n * 0.5))
        # each block is mapped as soon as it is drawn, which bounds peak memory
        parts = []
        if n_h > 0:
            h = halton(sum(widths), n_h, seed)
            parts.append(self._map(np.clip(h, 1.0e-12, 1.0 - 1.0e-12), nx, ndtri))
        rng = np.random.default_rng(seed + 1)
        parts.append(self._map(np.hstack([rng.random((n - n_h, w)) for w in widths]),
                               nx, ndtri))
        return tuple(np.concatenate(a) for a in zip(*parts))

    def _map(self, c: np.ndarray, nx: int, ndtri: Callable):
        """Send unit-cube rows into the box."""
        t = self.t_range[0] + (self.t_range[1] - self.t_range[0]) * c[:, 0]
        return (t, self._ball(c[:, 1:2 + nx], self.x_radius, ndtri),
                self._ball(c[:, 2 + nx:], self.u_radius, ndtri))

    @staticmethod
    def _ball(c: np.ndarray, radius: float, ndtri: Callable) -> np.ndarray:
        """Uniform in the ball |x| <= radius from rows [|x|, direction],
        the direction by the inverse normal CDF ndtri.  A radius whose d-th
        power overflows scales the root of the fraction instead.
        """
        k, d = c.shape[0], c.shape[1] - 1
        if d <= 0:
            return np.zeros((k, 0))
        if radius <= 0:
            return np.zeros((k, d))
        z = ndtri(np.clip(c[:, 1:], 1.0e-12, 1.0 - 1.0e-12))
        nrm = np.linalg.norm(z, axis=1)
        nrm[nrm == 0.0] = 1.0
        try:
            rad = (c[:, 0] * radius ** d) ** (1.0 / d)
        except OverflowError:
            rad = c[:, 0] ** (1.0 / d) * radius
        return z / nrm[:, None] * rad[:, None]


@dataclass
class InequalityReport:
    """Worst sampled margin of one inequality (positive = slack).

    ``sampled_worst`` is the worst margin among the samples, before
    coordinate descent refines it into ``worst_margin`` (inf when no sample
    was kept); ``n_nonfinite`` counts the samples whose margin was nan or
    inf.
    """

    name: str
    n_samples: int
    worst_margin: float
    worst_point: tuple[float, np.ndarray, np.ndarray]
    passed: bool
    notes: str = ""
    sampled_worst: float = np.nan
    n_nonfinite: int = 0
    margin_fn: Callable | None = field(default=None, repr=False, compare=False)

    def reevaluate(self) -> float:
        """Margin at the recorded worst point; equals worst_margin, since
        every margin evaluates each batch row as that point alone."""
        if self.margin_fn is None:
            raise ValueError(f"report '{self.name}' carries no margin function")
        return float(_at_point(self.margin_fn, *self.worst_point))


def point_text(point) -> str:
    """A worst point (t, x, u) as failure messages print it, x and u as lists."""
    t, x, u = point
    return f"t={float(t)!r}, x={np.asarray(x).tolist()}, u={np.asarray(u).tolist()}"


def _at_point(fn, t, x, u):
    """A batch function of (t, x, u) evaluated at one point; a point outside
    a field's domain gives nan or inf, without a warning."""
    with np.errstate(all="ignore"):
        return fn(np.asarray([t]), np.asarray(x)[None, :], np.asarray(u)[None, :])[0]


def _coordinate_descent(margin_fn, domain: SampleDomain, point, accept=None):
    """Locally minimize the margin around ``point`` (deterministic); probes
    outside the batch mask ``accept`` count as +inf.

    Pass p of `REFINE_PASSES` probes t, x1..xn, u1..um in turn with steps
    halved p times, each +step before -step, and the search moves to the
    first probe that lowers the margin.  One margin batch holds every probe
    left, the rest of this pass and all later ones, around the current
    point (the first batch also holds that point); after a move the batch
    is rebuilt from the probe behind it.  So a descent costs 1 + moves
    margin calls and takes the path that probing one point at a time takes.
    """
    t, x, u = point
    nx = np.size(x)
    z = np.concatenate(([float(t)], np.array(x, dtype=float), np.array(u, dtype=float)))
    d = z.size
    # probe g moves coordinate coord[g] of z = (t, x, u) by delta[g]: pass
    # g // (2d), +step before -step
    steps = np.repeat([0.1 * (domain.t_range[1] - domain.t_range[0]),
                       0.1 * max(domain.x_radius, 1.0e-6),
                       0.1 * max(domain.u_radius, 1.0e-6)], [1, nx, d - 1 - nx])
    signed = np.tile([1.0, -1.0], d) * np.repeat(steps, 2)
    delta = np.concatenate([signed * 0.5 ** p for p in range(REFINE_PASSES)])
    coord = np.tile(np.repeat(np.arange(d), 2), REFINE_PASSES)
    balls = ((1, 1 + nx, domain.x_radius), (1 + nx, d, domain.u_radius))

    def probes(g):
        """Rows (t, x, u) of probes g, g+1, ... around z: t clipped to its
        range, a moved x or u that may leave its ball projected back onto it
        with a norm per row, as for one point."""
        moved = coord[g:]
        rows = np.repeat(z[None, :], moved.size, axis=0)
        rows[np.arange(moved.size), moved] += delta[g:]
        on_t = moved == 0
        rows[on_t, 0] = np.clip(rows[on_t, 0], *domain.t_range)
        for lo, hi, radius in balls:
            i = np.flatnonzero((moved >= lo) & (moved < hi))
            part = rows[i, lo:hi]
            # a sum of squares below radius^2 (1 - 1e-9) is a norm below the
            # radius however either rounds, so only the other rows take the
            # one-point norm
            inside = np.einsum("ij,ij->i", part, part) < radius * radius * (1.0 - 1.0e-9)
            for j in i[~inside]:
                v = rows[j, lo:hi]
                nrm = np.linalg.norm(v)
                if nrm > radius:
                    v *= radius / nrm
        return rows

    def values(rows):
        # contiguous arrays, as one point is passed
        tt, xx, uu = rows[:, 0].copy(), rows[:, 1:1 + nx].copy(), rows[:, 1 + nx:].copy()
        with np.errstate(all="ignore"):
            if accept is None:
                return np.asarray(margin_fn(tt, xx, uu), dtype=float)
            keep = np.asarray(accept(tt, xx, uu), dtype=bool)
            out = np.full(tt.size, np.inf)
            if keep.any():
                out[keep] = margin_fn(tt[keep], xx[keep], uu[keep])
        return out

    rows = np.vstack((z, probes(0)))
    vals = values(rows)
    best, rows, vals, g = float(vals[0]), rows[1:], vals[1:], 0
    while True:
        better = np.flatnonzero(vals < best)
        if better.size == 0:
            break
        j = int(better[0])
        best, z, g = float(vals[j]), rows[j], g + j + 1
        if g == delta.size:
            break
        rows = probes(g)
        vals = values(rows)
    return best, (float(z[0]), z[1:1 + nx].copy(), z[1 + nx:].copy())


def _nonfinite_report(name: str, n_samples: int, bad: np.ndarray, worst: float,
                      point, margin_fn=None) -> InequalityReport:
    """The failed report of margins with ``bad`` marking the non-finite ones,
    the first of which is ``worst`` at ``point``."""
    notes = f"{int(bad.sum())} non-finite margins; first {worst!r} at {point_text(point)}"
    return InequalityReport(name, n_samples, worst, point, False, notes=notes,
                            sampled_worst=worst, n_nonfinite=int(bad.sum()),
                            margin_fn=margin_fn)


def _horizon_note(p: DecayRate) -> str:
    """The note of a check on a rate with no period, sampled on part of its horizon."""
    return "" if p.period is not None else "horizon-limited (aperiodic rate)"


def implication_mask(chi: GainFunction) -> Callable:
    """The batch mask of the ISS premise |x| >= chi(|u|)."""

    def mask_fn(t, x, u):
        return np.linalg.norm(x, axis=1) >= chi(np.linalg.norm(u, axis=1))

    return mask_fn


def _run_check(name: str, margin_fn, domain: SampleDomain, nx: int, nu: int,
               n: int, seed: int, *, mask_fn=None,
               notes: str = "") -> InequalityReport:
    """Sample, mask, evaluate and refine one margin; it passes at >= -PASS_TOL.
    A budget of fewer than 2 samples is refused."""
    if n < 2:
        raise ValueError(f"{name}: sample budget must be at least 2, got {n}")
    t, x, u = domain.sample(n, nx, nu, seed)
    # samples outside a field's domain give nan or inf, which fail by name below
    with np.errstate(all="ignore"):
        if mask_fn is not None:
            keep = mask_fn(t, x, u)
            t, x, u = t[keep], x[keep], u[keep]
        if t.size == 0:
            return InequalityReport(name, 0, np.inf, (0.0, np.zeros(nx), np.zeros(nu)),
                                    False, notes="no samples in implication region",
                                    sampled_worst=np.inf, margin_fn=margin_fn)
        margins = np.asarray(margin_fn(t, x, u), dtype=float)
    bad = ~np.isfinite(margins)
    if bad.any():
        j = int(np.argmax(bad))
        return _nonfinite_report(name, int(t.size), bad, float(margins[j]),
                                 (float(t[j]), x[j], u[j]), margin_fn)
    j = int(np.argmin(margins))
    sampled = float(margins[j])
    worst, point = _coordinate_descent(margin_fn, domain, (float(t[j]), x[j], u[j]), mask_fn)
    return InequalityReport(name, int(t.size), worst, point, worst >= -PASS_TOL,
                            notes=notes, sampled_worst=sampled, margin_fn=margin_fn)


# ---------------------------------------------------------------------------
# Margin kernels

def state_args(n: int, m: int = 0) -> tuple[str, ...]:
    """The argument names ``t, x1..xn, u1..um`` of fields, candidates and margins."""
    return ("t", *(f"x{i+1}" for i in range(n)), *(f"u{j+1}" for j in range(m)))


def row_sum(terms: Sequence[Expr]) -> Expr:
    """The terms added left to right: the order of ``np.add.reduce(a, axis=1)``,
    and so of ``np.linalg.norm(a, axis=1)``, for up to 7 columns."""
    return functools.reduce(lambda a, b: BinOp("+", a, b), terms)


def row_norm(cols: Sequence[Expr]) -> Expr:
    """``np.linalg.norm(a, axis=1)`` of the columns ``cols`` of ``a``: 0 of none."""
    if not cols:
        return Num(0.0)
    return Call("sqrt", (row_sum([BinOp("^", c, Num(2.0)) for c in cols]),))


def row_dot(a: Sequence[Expr], b: Sequence[Expr]) -> Expr:
    """``np.einsum("ij,ij->i", a, b)`` of the columns, for up to 7: the odd
    and the even products each added left to right, in two lanes that start
    at +0.0, then the lanes added (so a sum of -0.0 products is +0.0)."""
    p = [BinOp("*", ai, bi) for ai, bi in zip(a, b)]
    lanes = row_sum(p[0::2]) if len(p) == 1 else BinOp("+", row_sum(p[0::2]),
                                                        row_sum(p[1::2]))
    return BinOp("+", lanes, Num(0.0))


def gain_at(g: GainFunction, arg: Expr, slope: bool = False) -> Expr:
    """The tree of g(arg), or of g'(arg) with ``slope``.  A tree without
    ``s`` is the number the gain fills its arrays with, computed once on
    floats, as its own call does."""
    tree = g.slope if slope else g.tree
    if tree.variables():
        return substitute(tree, "s", arg)
    return Num(float((g.deriv if slope else g)(0.0)))


_NO_INPUT = np.zeros((0, 0))


class MarginKernel:
    """A function of a batch written out as one tree over ``t, x1..xn,
    u1..um`` and compiled once by ``exprparse.compile_expr``, so a subtree
    that occurs more than once, such as ``sin(t)``, is computed once a batch.

    What has no tree enters as input columns, each read once a batch: a
    candidate's or a field's callable written by hand, the rate p(t), folded
    into its period, and the W and xi columns of a lookup.  A margin keeps
    the float operations, and for reductions the order, of numpy's array
    code for it (`row_norm`, `row_dot`), so its rows have their bits.  A
    batch of more than `KERNEL_ROWS` rows is evaluated that many rows at a
    time, which bounds the temporaries; a row's value depends on that row
    alone, so the parts give the bits of one call.
    """

    def __init__(self, n: int, m: int = 0):
        self.n, self.m = n, m
        args = state_args(n, m)
        self.x = [Var(a) for a in args[1:1 + n]]
        self.u = [Var(a) for a in args[1 + n:]]
        self._names: list[str] = []
        self._reads: list[Callable] = []

    def _columns(self, names: Sequence[str], read: Callable) -> list[Expr]:
        """Variables ``names`` whose columns ``read(t, x, u)`` gives."""
        self._names += names
        self._reads.append(read)
        return [Var(name) for name in names]

    def _given(self, fn: Callable, names: list[str], read: Callable, m: int = 0) -> list[Expr]:
        """The trees ``fn`` was compiled from over ``t, x1..xn`` (and
        ``u1..um``); for a function written by hand, the input columns
        ``names``, one a column of ``read(t, x, u)``."""
        trees = (getattr(fn, "expr", None)
                 if getattr(fn, "arg_names", None) == state_args(self.n, m) else None)
        if trees is None:
            return self._columns(names, lambda t, x, u: np.asarray(
                read(t, x, u), dtype=float).T.reshape(len(names), -1))
        return list(trees) if isinstance(trees, tuple) else [trees]

    def value(self, candidate) -> Expr:
        """V(t, x)."""
        return self._given(candidate.V, ["_V"], lambda t, x, u: candidate.V(t, x))[0]

    def time_slope(self, candidate) -> Expr:
        """dV/dt (t, x)."""
        return self._given(candidate.dV_dt, ["_Vt"], lambda t, x, u: candidate.dV_dt(t, x))[0]

    def gradient(self, candidate) -> list[Expr]:
        """grad_x V (t, x), one tree a component."""
        return self._given(candidate.grad_x, [f"_g{i+1}" for i in range(self.n)],
                           lambda t, x, u: candidate.grad_x(t, x))

    def field(self, system) -> list[Expr]:
        """f(t, x, u), one tree a component.  A function written by hand
        whose value is not shaped like ``x``, (k, n), raises ValueError
        naming the system: broadcast against the gradient it would mix the
        rows of a batch, so a verdict would depend on how many points share
        it."""
        def read(t, x, u):
            fx = np.asarray(system.f(t, x, u), dtype=float)
            if fx.shape != np.shape(x):
                raise ValueError(f"system {system.label or '(unnamed)'}: f(t, x, u) has "
                                 f"shape {fx.shape}, expected the shape {np.shape(x)} of x")
            return fx

        return self._given(system.f, [f"_f{i+1}" for i in range(self.n)], read, self.m)

    def vdot(self, candidate, system) -> Expr:
        """dV/dt + grad_x V . f, with a +0.0 time slope left out."""
        dt = self.time_slope(candidate)
        dot = row_dot(self.gradient(candidate), self.field(system))
        if isinstance(dt, Num) and math.copysign(1.0, dt.value) == 1.0 and dt.value == 0.0:
            return dot      # +0.0 + (sum + 0.0) is sum + 0.0
        return BinOp("+", dt, dot)

    def rate(self, p: DecayRate) -> Expr:
        """p(t)."""
        return self._columns(["_p"], lambda t, x, u: (_rate_values(p, t),))[0]

    def windows(self, look, columns: Sequence[int] = (0, 1)) -> list[Expr]:
        """W(t) (column 0) and xi(t) (column 1) of the lookup, one read a batch."""
        names = [("_W", "_xi")[j] for j in columns]
        return self._columns(names, lambda t, x, u: look(t, tuple(columns)))

    def compile(self, tree: Expr) -> Callable:
        """The batch function of ``tree``: (t, x, u) of shapes (k,), (k, n)
        and (k, m) to an array of shape (k,)."""
        fn = compile_expr(tree, (*state_args(self.n, self.m), *self._names))
        reads, m = tuple(self._reads), self.m

        def rows(t, x, u):
            cols = [c for read in reads for c in read(t, x, u)]
            out = fn(t, *x.T, *(u.T if m else ()), *cols)
            if isinstance(out, np.ndarray) and out.shape == np.shape(t):
                return out
            return np.full(np.shape(t), out, dtype=float)

        def kernel(t, x, u=_NO_INPUT):
            x, u = np.asarray(x), np.asarray(u)
            if np.size(t) <= KERNEL_ROWS:
                return rows(t, x, u)
            out = np.empty(np.shape(t))
            for lo in range(0, out.size, KERNEL_ROWS):
                part = slice(lo, lo + KERNEL_ROWS)
                out[part] = rows(t[part], x[part], u[part])
            return out

        return kernel


def vdot_kernel(candidate, system) -> Callable:
    """The kernel (t, x, u) -> dV/dt + grad_x V . f along the system (see
    `MarginKernel.field` for the shape of a field written by hand)."""
    k = MarginKernel(candidate.n, system.m)
    return k.compile(k.vdot(candidate, system))


def vdot(candidate, system, t, x, u):
    """dV/dt + grad_x V . f along the system, vectorized over batches."""
    return vdot_kernel(candidate, system)(t, x, u)


# ---------------------------------------------------------------------------
# Named checks

def check_uppd(candidate, domain: SampleDomain, n: int = DEFAULT_SAMPLES,
               seed: int = 0) -> InequalityReport:
    """Envelope check: a1(|x|) <= V <= a2(|x|), |full grad V| <= a3(|x|)."""
    k = MarginKernel(candidate.n)
    r, v = row_norm(k.x), k.value(candidate)
    squares = [BinOp("^", g, Num(2.0)) for g in k.gradient(candidate)]
    full = Call("sqrt", (BinOp("+", row_sum(squares),
                               BinOp("^", k.time_slope(candidate), Num(2.0))),))
    margin = Call("min", (Call("min", (BinOp("-", v, gain_at(candidate.alpha1, r)),
                                       BinOp("-", gain_at(candidate.alpha2, r), v))),
                          BinOp("-", gain_at(candidate.alpha3, r), full)))
    return _run_check("uppd", k.compile(margin), domain, candidate.n, 0, n, seed)


def check_issp_lyap(candidate, system, p: DecayRate, mu: GainFunction,
                    chi: GainFunction, domain: SampleDomain,
                    n: int = DEFAULT_SAMPLES, seed: int = 0) -> InequalityReport:
    """|x| >= chi(|u|)  =>  Vdot <= -p(t) mu(|x|)."""
    k = MarginKernel(candidate.n, system.m)
    margin = BinOp("-", Neg(k.vdot(candidate, system)),
                   BinOp("*", k.rate(p), gain_at(mu, row_norm(k.x))))
    return _run_check("issp-lyapunov", k.compile(margin), domain, candidate.n, system.m,
                      n, seed, mask_fn=implication_mask(chi), notes=_horizon_note(p))


def check_disp_lyap(candidate, system, p: DecayRate, term_gain: GainFunction,
                    omega: GainFunction, form: str, domain: SampleDomain,
                    n: int = DEFAULT_SAMPLES, seed: int = 0) -> InequalityReport:
    """Dissipation check; ``form`` picks the decay term:

    'state':  Vdot <= -p(t) mu(|x|)   + Omega(|u|)
    'value':  Vdot <= -p(t) mut(V)    + Omega(|u|)
    """
    if form not in ("state", "value"):
        raise ValueError("form must be 'state' or 'value'")
    k = MarginKernel(candidate.n, system.m)
    vd = k.vdot(candidate, system)
    term = gain_at(term_gain, row_norm(k.x) if form == "state" else k.value(candidate))
    margin = BinOp("+", BinOp("-", Neg(vd), BinOp("*", k.rate(p), term)),
                   gain_at(omega, row_norm(k.u)))
    return _run_check(f"disp-lyapunov[{form}]", k.compile(margin), domain,
                      candidate.n, system.m, n, seed, notes=_horizon_note(p))


def check_strict_iss_lyap(candidate, system, mu: GainFunction,
                          chi: GainFunction, domain: SampleDomain,
                          n: int = DEFAULT_SAMPLES, seed: int = 0) -> InequalityReport:
    """Strict version: the ISS(p) check with the rate pinned to 1."""
    one = DecayRate(lambda t: np.ones_like(np.asarray(t, dtype=float)),
                    period=1.0, label="1")
    rep = check_issp_lyap(candidate, system, one, mu, chi, domain, n, seed)
    return dataclasses.replace(rep, name="strict-iss-lyapunov")


# ---------------------------------------------------------------------------
# Trajectory-level ISS estimates

def _running_input_sup(traj: Trajectory) -> np.ndarray:
    if traj.inputs.shape[1] == 0:
        return np.zeros(traj.times.size)
    return np.maximum.accumulate(np.linalg.norm(traj.inputs, axis=1))


def check_iss_estimate(trajs: Sequence[Trajectory], p: DecayRate,
                       beta: KLFunction, gamma: GainFunction) -> InequalityReport:
    """|phi(t0+h)| <= beta(|x0|, int_{t0}^{t0+h} p) + gamma(sup |u|), read at
    ISS_POINTS evenly spaced steps of each run.  A margin that is not
    finite, or read where the clock int p is not, fails the check, counted
    and named with its first point as in `_run_check`."""
    margins, steps = [], []
    for traj in trajs:
        nrm = traj.norms()
        idxs = np.unique(np.linspace(0, traj.times.size - 1, ISS_POINTS).astype(int))
        with np.errstate(all="ignore"):
            r = cumulative_trapezoid(_rate_values(p, traj.times), traj.times)[idxs]
            m = beta(float(nrm[0]), r) + gamma(_running_input_sup(traj)[idxs]) - nrm[idxs]
        margins.append(np.where(np.isfinite(r), m, np.nan))
        steps += [(traj, i) for i in idxs.tolist()]
    m = np.concatenate(margins)
    bad = ~np.isfinite(m)
    j = int(np.argmax(bad)) if bad.any() else int(np.argmin(m))
    traj, i = steps[j]
    worst, point = float(m[j]), (float(traj.times[i]), traj.states[i], traj.inputs[i])
    if bad.any():
        return _nonfinite_report("iss-estimate", m.size, bad, worst, point)
    return InequalityReport("iss-estimate", m.size, worst, point, worst >= -PASS_TOL,
                            sampled_worst=worst)


def _clock(p: DecayRate, traj: Trajectory, run: int) -> np.ndarray:
    """int p from the start of a run to each of its times; a clock that is
    not finite raises FitFailedError naming the run and the first time."""
    with np.errstate(all="ignore"):
        r = cumulative_trapezoid(_rate_values(p, traj.times), traj.times)
    bad = ~np.isfinite(r)
    if bad.any():
        raise FitFailedError(f"the decay clock int p of fit run {run} is not finite "
                             f"from t={float(traj.times[np.argmax(bad)])!r}")
    return r


def fit_iss_envelope(trajs: Sequence[Trajectory], p: DecayRate,
                     holdout: Sequence[Trajectory] | None = None
                     ) -> tuple[KLFunction, GainFunction]:
    """Fit beta(s, r) = C s exp(-lambda r) and a monotone gain from runs.

    Zero-input runs drive the exponential fit; constant-amplitude runs set
    the ultimate-bound hull for gamma.  The fitted pair must pass
    `check_iss_estimate` on the held-out batch.
    """
    runs = list(enumerate(trajs, start=1))
    zero_runs = [(k, tr) for k, tr in runs if float(np.linalg.norm(tr.inputs)) == 0.0]
    forced_runs = [(k, tr) for k, tr in runs if float(np.linalg.norm(tr.inputs)) > 0.0]
    if not zero_runs:
        raise FitFailedError("need at least one zero-input run to fit the decay")

    rs, ys = [], []
    for k, tr in zero_runs:
        x0 = float(tr.norms()[0])
        if x0 <= 0.0:
            continue
        r = _clock(p, tr, k)
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
    for k, tr in forced_runs:
        amp = float(np.linalg.norm(tr.inputs, axis=1).max())
        r = _clock(p, tr, k)
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
    rep = check_iss_estimate(held, p, beta, gamma)
    if not rep.passed:
        raise FitFailedError(
            f"held-out check failed with margin {rep.worst_margin!r} at t={rep.worst_point[0]!r}")
    return beta, gamma
