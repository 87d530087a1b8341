"""System representation, feedback closure, disturbance signals, RK4.

Integration is classical fixed-step fourth-order Runge-Kutta with the last
step shortened to land exactly on the requested final time; a norm guard
aborts on likely finite escape.  Reproducibility beats adaptivity here, so
no step-size control is attempted.

One state is stepped at a time: each stage is one call ``f(t, x, u)`` on
an ``(n,)`` array, and the cost of a run is the per-call overhead of its
4 field and 3 input calls per step.  Fields built from expressions
(``config.field_from_exprs``) answer each call with one fused evaluation
on Python floats.  The runs of ``simulate`` and ``iss-estimate`` are few
(at most six), too few for stepping them as one batch to pay off.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

BLOWUP_GUARD = 1.0e8
DEFAULT_STEP = 1.0e-3
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
    """Input signal u(t) -> R^m, optionally with a declared sup bound."""

    fn: Callable
    m: int
    sup_bound: float | None = None
    label: str = ""

    def __call__(self, t):
        return self.fn(t)

    @staticmethod
    def zero(m: int) -> "Signal":
        return Signal(lambda t: np.zeros(m) if np.isscalar(t) else np.zeros((np.shape(t)[0], m)),
                      m, sup_bound=0.0, label="0")

    @staticmethod
    def constant(values: Sequence[float]) -> "Signal":
        v = np.asarray(values, dtype=float)

        def fn(t):
            if np.isscalar(t):
                return v.copy()
            return np.broadcast_to(v, (np.shape(t)[0], v.size)).copy()

        return Signal(fn, v.size, sup_bound=float(np.linalg.norm(v)),
                      label=",".join(repr(float(c)) for c in v))

    @staticmethod
    def piecewise(segments: Sequence[tuple[float, "Signal"]], m: int) -> "Signal":
        """Signal switching at breakpoints: list of (t_end, signal); the last
        segment extends to infinity regardless of its breakpoint."""
        if not segments:
            raise ValueError("need at least one segment")
        ends = [float(b) for b, _ in segments]
        sigs = [s for _, s in segments]

        def fn(t):
            if not np.isscalar(t):
                return np.stack([fn(float(v)) for v in np.asarray(t).ravel()])
            for end, sig in zip(ends[:-1], sigs[:-1]):
                if t < end:
                    return sig(t)
            return sigs[-1](t)

        bounds = [s.sup_bound for s in sigs]
        sup = None if any(b is None for b in bounds) else max(bounds)
        return Signal(fn, m, sup_bound=sup, label="piecewise")


@dataclass(frozen=True)
class Trajectory:
    """Dense fixed-step solution: times strictly increasing, states finite."""

    times: np.ndarray          # (k,)
    states: np.ndarray         # (k, n)
    inputs: np.ndarray         # (k, m)
    input_used: Signal

    @property
    def x0(self) -> np.ndarray:
        return self.states[0]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)


def integrate(system: ControlSystem, x0, t0: float, tf: float, u: Signal,
              step: float = DEFAULT_STEP,
              stop_when: Callable | None = None) -> Trajectory:
    """Fixed-step RK4 from t0 to tf, recording every step.

    ``stop_when(t, x)`` may end the run early (the point that triggered it is
    still recorded).  Raises BlowUpError when |x| exceeds the guard.
    """
    if tf <= t0:
        raise ValueError("tf must exceed t0")
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (system.n,):
        raise ValueError(f"x0 must have shape ({system.n},)")
    f = system.f
    n_steps = int(np.ceil((tf - t0) / step - 1.0e-12))
    times = [t0]
    states = [x]           # each step binds x to a new array; none is mutated
    t = t0
    for k in range(n_steps):
        t_next = tf if k == n_steps - 1 else t0 + (k + 1) * step
        h = t_next - t
        t_mid = t + 0.5 * h
        u0 = np.asarray(u(t), dtype=float)
        um = np.asarray(u(t_mid), dtype=float)
        u1 = np.asarray(u(t_next), dtype=float)
        k1 = np.asarray(f(t, x, u0), dtype=float)
        k2 = np.asarray(f(t_mid, x + 0.5 * h * k1, um), dtype=float)
        k3 = np.asarray(f(t_mid, x + 0.5 * h * k2, um), dtype=float)
        k4 = np.asarray(f(t_next, x + h * k3, u1), dtype=float)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t_next
        nrm = math.sqrt(float(x @ x))      # np.linalg.norm's value
        if not nrm <= BLOWUP_GUARD:        # also true for nan
            raise BlowUpError(t, nrm)
        times.append(t)
        states.append(x)
        if stop_when is not None and stop_when(t, x):
            break
    times = np.asarray(times)
    states = np.asarray(states)
    inputs = np.asarray(u(times), dtype=float).reshape(len(times), system.m)
    return Trajectory(times, states, inputs, u)


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
