"""System representation, feedback closure, disturbance signals, RK4.

Integration is classical fixed-step fourth-order Runge-Kutta with the last
step shortened to land exactly on the requested final time; a norm guard
aborts on likely finite escape.  Reproducibility beats adaptivity here, so
no step-size control is attempted.

One state is stepped at a time, on Python floats: the state is a list of
floats and each stage is one call of the field's point kernel
``f.point(t, x1..xn, u1..um) -> tuple``.  Fields built from expressions
(``config.field_from_exprs``) carry one, a fused ``math`` lambda, and
``close_loop`` composes the kernels of a field and its feedback.  Any other
callable gets one adapter that calls ``f(t, x, u)`` on ``(n,)`` arrays.  The
exogenous input is read once per run, on all stage times, and its rows are
converted to floats a chunk of steps at a time; finished states go into one
preallocated array.  The runs of ``simulate`` and ``iss-estimate`` are few
(at most six), too few to step as one batch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exprparse import FLOAT_ERRORS, EvalDomainError

BLOWUP_GUARD = 1.0e8
# math.hypot and np.linalg.norm may differ in the last bits: a state within
# this margin of the guard is measured again by np.linalg.norm's formula
_GUARD_FAST = BLOWUP_GUARD * (1.0 - 1.0e-9)
DEFAULT_STEP = 1.0e-3
_CHUNK = 4096              # RK4 steps whose input rows are converted at a time
_CSV_CHUNK = 4096          # trajectory rows formatted per write


class BlowUpError(RuntimeError):
    """State norm exceeded the guard; possible finite escape time."""

    def __init__(self, time: float, norm: float):
        super().__init__(f"|x| = {norm:.3e} at t = {time!r} exceeds guard {BLOWUP_GUARD:.0e}")
        self.time = time
        self.norm = norm


@dataclass(frozen=True)
class ControlSystem:
    """dx/dt = f(t, x, u) with x in R^n, u in R^m, optionally T-periodic in t."""

    n: int
    m: int
    f: Callable
    period: float | None = None
    label: str = ""

    def __post_init__(self):
        if self.n < 1 or self.m < 0:
            raise ValueError("need n >= 1 and m >= 0")


@dataclass(frozen=True)
class Signal:
    """Input signal: ``t`` of shape (k,) -> u of shape (k, m); optional sup bound."""

    fn: Callable
    m: int
    sup_bound: float | None = None
    label: str = ""

    def __call__(self, t):
        return self.fn(t)

    @staticmethod
    def zero(m: int) -> "Signal":
        return Signal(lambda t: np.zeros((len(t), m)), m, sup_bound=0.0, label="0")

    @staticmethod
    def constant(values: Sequence[float]) -> "Signal":
        v = np.asarray(values, dtype=float)
        return Signal(lambda t: np.tile(v, (len(t), 1)), v.size,
                      sup_bound=float(np.linalg.norm(v)),
                      label=",".join(repr(float(c)) for c in v))

    @staticmethod
    def piecewise(segments: Sequence[tuple[float, "Signal"]], m: int) -> "Signal":
        """Signal switching at breakpoints: list of (t_end, signal); each t takes
        the first segment with t < t_end, the last one regardless of its end."""
        if not segments:
            raise ValueError("need at least one segment")
        ends = np.array([float(b) for b, _ in segments[:-1]])
        sigs = [s for _, s in segments]

        def fn(t):
            t = np.asarray(t, dtype=float)
            seg = np.column_stack([t[:, None] < ends, np.ones(t.shape, bool)]).argmax(axis=1)
            out = np.empty((t.size, m))
            for i, sig in enumerate(sigs):
                out[seg == i] = sig(t[seg == i])
            return out

        bounds = [s.sup_bound for s in sigs]
        sup = None if any(b is None for b in bounds) else max(bounds)
        return Signal(fn, m, sup_bound=sup, label="piecewise")


@dataclass(frozen=True)
class Trajectory:
    """Dense fixed-step solution: times strictly increasing, states finite."""

    times: np.ndarray          # (k,)
    states: np.ndarray         # (k, n)
    inputs: np.ndarray         # (k, m): the rows the RK4 stages applied
    input_used: Signal

    @property
    def x0(self) -> np.ndarray:
        return self.states[0]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)


def _stage(f: Callable, n: int) -> Callable:
    """RK4 stage (t, x, u) -> n floats, with x and u sequences of floats.

    ``f.point`` (t, x1..xn, u1..um) -> tuple is called directly.  A stage it
    cannot evaluate on floats (one of ``FLOAT_ERRORS``) is repeated through
    ``f`` on (n,) arrays, where an expression field retries on 0-d arrays
    under ``np.errstate(all="ignore")``, so an inf or nan reaches the norm
    guard.  A callable without a kernel is always called on (n,) arrays.
    """

    def on_arrays(t, x, u):
        k = np.asarray(f(t, np.array(x), np.array(u)), dtype=float)
        return (k if k.shape == (n,) else np.broadcast_to(k, (n,))).tolist()

    point = getattr(f, "point", None)
    if point is None:
        return on_arrays

    def stage(t, x, u):
        try:
            return point(t, *x, *u)
        except FLOAT_ERRORS:
            return on_arrays(t, x, u)

    return stage


def integrate(system: ControlSystem, x0, t0: float, tf: float, u: Signal,
              step: float = DEFAULT_STEP,
              stop_when: Callable | None = None) -> Trajectory:
    """Fixed-step RK4 from t0 to tf, recording every step.

    ``u`` is called once, on all stage times; its rows are converted to
    Python floats a chunk of steps at a time, and each chunk's states are
    written into one preallocated (steps + 1, n) array.  ``stop_when(t, x)``,
    with x an (n,) array, may end the run early (the point that triggered it
    is still recorded).  Raises EvalDomainError on a non-finite input and
    BlowUpError when |x| exceeds the guard.
    """
    if tf <= t0:
        raise ValueError("tf must exceed t0")
    if step <= 0:
        raise ValueError("step must be positive")
    n = system.n
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    n_steps = max(1, int(np.ceil((tf - t0) / step - 1.0e-12)))
    nodes = np.append(t0 + np.arange(n_steps) * step, tf)     # t0 + k*step, then tf
    grid = np.empty(2 * n_steps + 1)                          # t0, t0 + h/2, t1, ..., tf
    grid[0::2], grid[1::2] = nodes, nodes[:-1] + 0.5 * np.diff(nodes)
    with np.errstate(all="ignore"):
        rows = np.asarray(u(grid), dtype=float).reshape(grid.size, system.m)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise EvalDomainError(f"input is not finite at t={float(grid[bad[0]])!r}: "
                              f"u = {rows[bad[0]]}")
    stage = _stage(system.f, n)
    states = np.empty((n_steps + 1, n))
    states[0] = x0
    x = x0.tolist()
    done, stopped = 0, False
    while done < n_steps and not stopped:
        end = min(done + _CHUNK, n_steps)
        ts = grid[2 * done:2 * end + 1].tolist()
        us = rows[2 * done:2 * end + 1].tolist()
        chunk = []
        for j in range(0, 2 * (end - done), 2):
            t, t_mid, t_next = ts[j:j + 3]
            u0, um, u1 = us[j:j + 3]
            h = t_next - t
            hh = 0.5 * h
            k1 = stage(t, x, u0)
            k2 = stage(t_mid, [a + hh * b for a, b in zip(x, k1)], um)
            k3 = stage(t_mid, [a + hh * b for a, b in zip(x, k2)], um)
            k4 = stage(t_next, [a + h * b for a, b in zip(x, k3)], u1)
            h6 = h / 6.0
            x = [a + h6 * (((p + 2.0 * q) + 2.0 * r) + s)
                 for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
            if not math.hypot(*x) <= _GUARD_FAST:     # also true for nan
                xa = np.array(x)
                nrm = math.sqrt(float(xa @ xa))       # np.linalg.norm's value
                if not nrm <= BLOWUP_GUARD:
                    raise BlowUpError(t_next, nrm)
            chunk.append(x)
            if stop_when is not None and stop_when(t_next, np.array(x)):
                stopped = True
                break
        states[done + 1:done + 1 + len(chunk)] = chunk
        done += len(chunk)
    return Trajectory(nodes[:done + 1], states[:done + 1], rows[0::2][:done + 1], u)


def close_loop(system: ControlSystem, feedback: Callable,
               k_feedback: int | None = None) -> ControlSystem:
    """Substitute the first input channels by a state feedback.

    ``feedback(t, x)`` fills the leading coordinates of the input vector; the
    returned system's input is the remaining disturbance channel.
    """
    probe = np.asarray(feedback(0.0, np.zeros(system.n)), dtype=float)
    k = probe.size if k_feedback is None else k_feedback
    if not 0 < k <= system.m:
        raise ValueError(f"feedback supplies {k} channels, system has m={system.m}")
    m_rest = system.m - k

    def f_closed(t, x, u):
        fb = np.asarray(feedback(t, x), dtype=float)
        return system.f(t, x, np.concatenate([fb, np.asarray(u, dtype=float)], axis=-1))

    f_point, fb_point = getattr(system.f, "point", None), getattr(feedback, "point", None)
    if f_point is not None and fb_point is not None:
        n = system.n

        def point(t, *xu):
            x = xu[:n]
            return f_point(t, *x, *fb_point(t, *x), *xu[n:])

        f_closed.point = point

    label = f"{system.label}+feedback" if system.label else "closed-loop"
    return ControlSystem(system.n, m_rest, f_closed, period=system.period, label=label)


def lyapunov_along(traj: Trajectory, V: Callable) -> dict[str, np.ndarray]:
    """Sample V(t, x(t)) along a trajectory with its finite-difference slope.

    Central differences inside, one-sided at the ends (np.gradient).
    """
    if traj.times.size == 0:
        raise ValueError("empty trajectory")
    v = np.asarray(V(traj.times, traj.states), dtype=float)
    dv = np.gradient(v, traj.times) if traj.times.size > 1 else np.zeros(1)
    return {"t": traj.times, "V": v, "dV_fd": dv}


def write_trajectory_csv(path, traj: Trajectory, extra: dict[str, np.ndarray] | None = None):
    """CSV export: t,x1..xn,u1..um plus optional named columns (V, Vsharp).

    Cells are ``%.17g``; rows end in CRLF like ``csv.writer``'s.  Rows are
    formatted a chunk at a time, so no full copy of the table is made.
    """
    cols = [traj.times[:, None], traj.states, traj.inputs]
    cols += [np.asarray(c, dtype=float)[:, None] for c in (extra or {}).values()]
    width = sum(c.shape[1] for c in cols)
    header = (["t"] + [f"x{i+1}" for i in range(traj.states.shape[1])]
              + [f"u{j+1}" for j in range(traj.inputs.shape[1])] + list(extra or ()))
    row = ",".join(["%.17g"] * width) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for i in range(0, traj.times.size, _CSV_CHUNK):
            block = np.hstack([c[i:i + _CSV_CHUNK] for c in cols])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
