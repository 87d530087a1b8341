"""System representation, feedback closure, disturbance signals, RK4.

Integration is classical fixed-step fourth-order Runge-Kutta with the last
step shortened to land exactly on the requested final time; a norm guard
aborts on likely finite escape.  Reproducibility beats adaptivity here, so
no step-size control is attempted.

One state is stepped at a time, on Python floats.  A step is one call of a
function generated once per (n, m), which calls the field's point kernel
``f.point(t, x1..xn, u1..um) -> tuple`` four times on positional floats.
Fields built from expressions (``config.field_from_exprs``) carry a kernel,
the plain-float function that ``exprparse.compile_expr`` generates for all
components at once (each shared subtree, such as ``sin(t)``, computed once),
and ``close_loop`` composes the kernels of a field and its feedback.  Any
other callable gets one adapter, with the kernel's signature, that calls
``f(t, x, u)`` on ``(n,)`` arrays.  A step that
overflows or leaves a domain on floats is repeated through that adapter.
The exogenous input is read once per run, on all stage times, and its rows
are converted to floats a chunk of steps at a time; finished states go into
one preallocated array.  Runs are independent, so their parallelism lives
one level up: ``map_forked`` spreads the few runs of ``simulate`` and
``iss-estimate`` over forked processes, one per CPU, each stepping its
runs one state at a time as above.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import signal
import threading
import traceback
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ValidationFailure
from .exprparse import FLOAT_ERRORS, EvalDomainError

BLOWUP_GUARD = 1.0e8
# math.hypot and np.linalg.norm may differ in the last bits: a state within
# this margin of the guard is measured again by np.linalg.norm's formula
_GUARD_FAST = BLOWUP_GUARD * (1.0 - 1.0e-9)
DEFAULT_STEP = 1.0e-3
_CHUNK = 4096              # RK4 steps whose input rows are converted at a time
_CSV_CHUNK = 4096          # CSV rows formatted per write


class BlowUpError(ValidationFailure):
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


@dataclass(frozen=True)
class Trajectory:
    """Dense fixed-step solution: times strictly increasing, states finite."""

    times: np.ndarray          # (k,)
    states: np.ndarray         # (k, n)
    inputs: np.ndarray         # (k, m): the rows the RK4 stages applied

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)


def _on_arrays(f: Callable, n: int) -> Callable:
    """Adapter (t, x1..xn, u1..um) -> n floats calling ``f(t, x, u)`` on arrays.

    An expression field evaluates an (n,) point on floats and, where that
    raises, on 0-d arrays under ``np.errstate(all="ignore")``, so an inf or
    nan reaches the norm guard.
    """

    def adapter(t, *xu):
        k = np.asarray(f(t, np.array(xu[:n]), np.array(xu[n:])), dtype=float)
        return (k if k.shape == (n,) else np.broadcast_to(k, (n,))).tolist()

    return adapter


# One RK4 step on positional floats; each {name} becomes a list "v0, v1, ..., "
_STEP_SOURCE = """\
def step(f, t, tm, tn, {x}{a}{b}{c}):
    h = tn - t
    hh = 0.5 * h
    {p}= f(t, {x}{a})
    {q}= f(tm, {x_p}{b})
    {r}= f(tm, {x_q}{b})
    {s}= f(tn, {x_r}{c})
    h6 = h / 6.0
    return ({x_next})
"""


@functools.cache
def _rk4_step(n: int, m: int) -> Callable:
    """The RK4 step for n states and m inputs, generated on first use and kept.

    ``step(f, t, tm, tn, x0..x{n-1}, a0.., b0.., c0..) -> tuple`` with a, b,
    c the input rows at t, tm = t + h/2 and tn = t + h, and ``f`` a kernel
    (t, x1..xn, u1..um) -> n floats.  Each component is written out in the
    order of operations of the vector form, so the states are bit for bit
    those of an (n,) array loop.
    """
    def each(fmt: str, k: int) -> str:
        return "".join(fmt.format(i=i) + ", " for i in range(k))

    src = _STEP_SOURCE.format(
        x=each("x{i}", n), a=each("a{i}", m), b=each("b{i}", m), c=each("c{i}", m),
        p=each("p{i}", n), q=each("q{i}", n), r=each("r{i}", n), s=each("s{i}", n),
        x_p=each("x{i} + hh * p{i}", n), x_q=each("x{i} + hh * q{i}", n),
        x_r=each("x{i} + h * r{i}", n),
        x_next=each("x{i} + h6 * (((p{i} + 2.0 * q{i}) + 2.0 * r{i}) + s{i})", n))
    ns: dict = {}
    exec(src, ns)  # noqa: S102 - source built from the template above only
    return ns["step"]


def integrate(system: ControlSystem, x0, t0: float, tf: float, u: Signal,
              step: float = DEFAULT_STEP,
              stop_when: Callable | None = None) -> Trajectory:
    """Fixed-step RK4 from t0 to tf, recording every step.

    ``u`` is called once, on all stage times; its rows are converted to
    Python floats a chunk of steps at a time, and each chunk's states are
    written into one preallocated (steps + 1, n) array.  A step raising one
    of ``FLOAT_ERRORS`` on the field's kernel is repeated through the array
    adapter; a callable without a kernel is called on arrays only, and what
    it raises propagates.  ``stop_when(t, x)``, with x an (n,) array, may end
    the run early (the point that triggered it is still recorded).  Raises
    EvalDomainError on a non-finite input and BlowUpError when |x| exceeds
    the guard.
    """
    if tf <= t0:
        raise ValueError("tf must exceed t0")
    if step <= 0:
        raise ValueError("step must be positive")
    n, m = system.n, system.m
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    n_steps = max(1, int(np.ceil((tf - t0) / step - 1.0e-12)))
    nodes = np.append(t0 + np.arange(n_steps) * step, tf)     # t0 + k*step, then tf
    grid = np.empty(2 * n_steps + 1)                          # t0, t0 + h/2, t1, ..., tf
    grid[0::2], grid[1::2] = nodes, nodes[:-1] + 0.5 * np.diff(nodes)
    with np.errstate(all="ignore"):
        rows = np.asarray(u(grid), dtype=float).reshape(grid.size, m)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise EvalDomainError(f"input is not finite at t={float(grid[bad[0]])!r}: "
                              f"u = {rows[bad[0]]}")
    rk4 = _rk4_step(n, m)
    adapter = _on_arrays(system.f, n)
    kernel = getattr(system.f, "point", adapter)
    states = np.empty((n_steps + 1, n))
    states[0] = x0
    x = x0.tolist()
    done, stopped = 0, False
    while done < n_steps and not stopped:
        end = min(done + _CHUNK, n_steps)
        ts = grid[2 * done:2 * end + 1].tolist()
        us = rows[2 * done:2 * end + 1].ravel().tolist()
        chunk = []
        for j in range(0, 2 * (end - done), 2):
            t_next = ts[j + 2]
            try:
                x = rk4(kernel, *ts[j:j + 3], *x, *us[m * j:m * (j + 3)])
            except FLOAT_ERRORS:
                if kernel is adapter:
                    raise
                x = rk4(adapter, *ts[j:j + 3], *x, *us[m * j:m * (j + 3)])
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
    return Trajectory(nodes[:done + 1], states[:done + 1], rows[0::2][:done + 1])


def close_loop(system: ControlSystem, feedback: Callable) -> ControlSystem:
    """Substitute the first input channels by a state feedback.

    ``feedback(t, x)`` fills the leading coordinates of the input vector, as
    many as it returns at (0, 0); the returned system's input is the
    remaining disturbance channel.
    """
    k = np.asarray(feedback(0.0, np.zeros(system.n)), dtype=float).size
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


def write_trajectory_csv(path, traj: Trajectory, extra: dict[str, np.ndarray] | None = None):
    """CSV export: t,x1..xn,u1..um plus optional named columns (V, Vsharp),
    one row per time, in ``_write_columns``'s byte format."""
    extra = extra or {}
    header = (["t"] + [f"x{i+1}" for i in range(traj.states.shape[1])]
              + [f"u{j+1}" for j in range(traj.inputs.shape[1])] + list(extra))
    _write_columns(path, header, [traj.times, *traj.states.T, *traj.inputs.T,
                                  *(np.asarray(c, dtype=float) for c in extra.values())])


def _write_columns(path, header: Sequence[str], columns: Sequence) -> None:
    """Write the ``header`` row, then one row per index of the equal-length
    ``columns``, in the one CSV format of the package: UTF-8, CRLF row ends,
    and cells as ``csv.writer`` writes them in a row of two or more, except
    that a float is ``%.17g`` and an array cell its values' ``%.17g`` joined
    by spaces.  Float columns go straight into the ``%`` operation that
    formats a chunk of rows; other columns become text cell by cell.
    """
    def text(v) -> str:
        if isinstance(v, np.ndarray):
            s = " ".join(["%.17g"] * v.size) % tuple(v.ravel().tolist())
        else:
            s = "%.17g" % v if isinstance(v, float) else str(v)
        return '"' + s.replace('"', '""') + '"' if any(c in s for c in ',"\r\n') else s

    cols = [c if isinstance(c, np.ndarray) and c.dtype == float
            else np.array(c, dtype=float) if all(isinstance(v, float) for v in c)
            else np.array([text(v) for v in c], dtype=object) for c in columns]
    row = ",".join("%.17g" if c.dtype == float else "%s" for c in cols) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(text, header)) + "\r\n")
        for i in range(0, len(cols[0]), _CSV_CHUNK):
            block = np.column_stack([c[i:i + _CSV_CHUNK] for c in cols])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# Independent runs in forked processes

def map_forked(fn: Callable, items: Sequence) -> Iterator:
    """Yield ``fn(item)`` for each item, in order, with the items spread over
    the CPUs this process may run on.

    The items are cut into one contiguous slice per CPU.  This process runs
    the first slice itself; each other slice goes to a child made by
    ``os.fork``, which sends back each result pickled over a pipe and ends
    with ``os._exit``.  With one CPU, on a platform without ``os.fork`` or
    ``os.sched_getaffinity``, or while another thread runs (forking then is
    unsafe), every item runs here.  ``fn`` runs in a child as it would here,
    but what it changes in memory stays in the child.

    An exception raised by ``fn`` on item k is raised here, with its class,
    args and attributes, after the results before it are yielded; a child's
    traceback text is in its ``__cause__``.  Children still running then
    are killed.  Every child is reaped before the generator returns, raises
    or is closed.
    """
    items = list(items)
    slots = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") \
            and threading.active_count() == 1:
        slots = max(1, min(len(os.sched_getaffinity(0)), len(items)))
    cuts = [len(items) * i // slots for i in range(slots + 1)]
    children = []       # (pid, pipe, item count) of each child not yet reaped
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            children.append((*_fork_slice(fn, items[lo:hi]), hi - lo))
        yield from map(fn, items[:cuts[1]])
        while children:
            pid, pipe, count = children[0]
            for _ in range(count):
                yield _receive(pipe, pid)
            pipe.close()
            os.waitpid(pid, 0)
            del children[0]
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork_slice(fn: Callable, items: list):
    """Fork a child that sends ``(None, fn(item))`` for each item in turn, or
    ``(failure, None)`` for the first item that raises; returns the child's
    pid and the read end of its pipe."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                for item in items:
                    try:
                        data = pickle.dumps((None, fn(item)))
                    except Exception as exc:  # noqa: BLE001 - raised again by _receive
                        pipe.write(_failure(exc))
                        break
                    pipe.write(data)
                    pipe.flush()
        finally:
            os._exit(0)
    os.close(w)
    return pid, open(r, "rb")


def _failure(exc: Exception) -> bytes:
    """``(failure, None)`` pickled, where failure is the class, args,
    attributes and traceback text of exc."""
    tb = "".join(traceback.format_exception(exc))
    try:
        return pickle.dumps(((type(exc), exc.args, vars(exc), tb), None))
    except Exception:  # noqa: BLE001 - e.g. a class defined in a function
        return pickle.dumps(((RuntimeError, (f"{type(exc).__name__}: {exc}",), {}, tb),
                             None))


def _receive(pipe, pid: int):
    """The next result a child sent, or its exception raised here."""
    try:
        failure, value = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):    # the child died while sending
        raise RuntimeError(f"worker process {pid} ended without a result") from None
    if failure is None:
        return value
    cls, args, state, tb = failure
    exc = cls.__new__(cls, *args)       # as pickle does, without __init__
    exc.__dict__.update(state)
    raise exc from RuntimeError(f"raised in worker process {pid}:\n{tb}")
