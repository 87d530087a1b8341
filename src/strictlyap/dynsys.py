"""System representation, feedback closure, disturbance signals, RK4.

Integration is classical fixed-step fourth-order Runge-Kutta with the last
step shortened to land exactly on the requested final time; a norm guard
aborts on likely finite escape.  Reproducibility beats adaptivity here, so
no step-size control is attempted.

One state is stepped at a time, on Python floats, by one generated loop
that takes a whole chunk of steps (``_chunk_loop``) with the state in
local variables.  Fields built from expressions (``config.field_from_exprs``)
carry a point kernel ``f.point(t, x1..xn, u1..um) -> tuple``, the
plain-float function that ``exprparse.compile_expr`` generates for all
components at once, and the loop writes its expressions out in each RK4
stage, on the stage's time, state and input (each shared subtree, such as
``sin(t)``, computed once a stage).  Any other kernel is called once a
stage: ``close_loop``'s composition of a field's and its feedback's
kernels, or, for any other callable, one adapter with the kernel's
signature that calls ``f(t, x, u)`` on ``(n,)`` arrays.  A step that
overflows or leaves a domain on floats is redone in place, inside the same
loop, through that adapter.
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
from .exprparse import _SCALAR_NS, FLOAT_ERRORS, EvalDomainError, body_lines

BLOWUP_GUARD = 1.0e8
# math.hypot and np.linalg.norm may differ in the last bits: a state within
# this margin of the guard is measured again by np.linalg.norm's formula
_GUARD_FAST = BLOWUP_GUARD * (1.0 - 1.0e-9)
DEFAULT_STEP = 1.0e-3
_CHUNK = 4096              # RK4 steps whose input rows are converted at a time
_CSV_CHUNK = 4096          # CSV rows formatted per write


class NonFiniteInputError(EvalDomainError):
    """The input of a run is not finite at a stage time; ``channel`` is the
    index of its first non-finite channel there."""

    def __init__(self, time: float, row: np.ndarray):
        super().__init__(f"input is not finite at t={time!r}: u = {row}")
        self.time = time
        self.channel = int(np.argmax(~np.isfinite(row)))


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

    An expression field evaluates an (n,) point on floats, where
    ``compile_expr`` gives numpy's inf or nan, so they reach the norm guard.
    """

    def adapter(t, *xu):
        k = np.asarray(f(t, np.array(xu[:n]), np.array(xu[n:])), dtype=float)
        return (k if k.shape == (n,) else np.broadcast_to(k, (n,))).tolist()

    return adapter


def _check_norm(t: float, x: tuple) -> None:
    """Raise BlowUpError when |x|, by np.linalg.norm's formula, exceeds the guard."""
    xa = np.array(x)
    nrm = math.sqrt(float(xa @ xa))
    if not nrm <= BLOWUP_GUARD:
        raise BlowUpError(t, nrm)


# The RK4 stages: (output, time, input row, coefficient, previous output)
_STAGES = (("p", "t", "a", "", ""), ("q", "tm", "b", "hh", "p"),
           ("r", "tm", "b", "hh", "q"), ("s", "tn", "c", "h", "r"))
_LOOP_NS = {**_SCALAR_NS, "_hypot": math.hypot, "_GUARD_FAST": _GUARD_FAST,
            "_check_norm": _check_norm, "_array": np.array, "_FLOAT_ERRORS": FLOAT_ERRORS}


def _stage_lines(kernel: Callable, call: str, n: int, m: int, stage: tuple) -> list[str]:
    """Statements setting stage outputs ``{out}0..`` from state, time and input.

    A kernel from ``compile_expr`` is written out: the used stage arguments
    become ``{out}x0..``, the kernel's temporaries ``_{out}0..``.  Any other
    kernel is called as ``call(time, states.., inputs..)``.
    """
    out, time, row, coef, prev = stage
    states = [f"x{i} + {coef} * {prev}{i}" if prev else f"x{i}" for i in range(n)]
    inputs = [f"{row}{k}" for k in range(m)]
    exprs, names = getattr(kernel, "expr", None), getattr(kernel, "arg_names", ())
    if not (isinstance(exprs, tuple) and len(exprs) == n and len(names) == 1 + n + m):
        outs = "".join(f"{out}{i}, " for i in range(n))
        return [f"{outs}= {call}({', '.join([time, *states, *inputs])})"]
    used = set().union(*(e.variables() for e in exprs))
    lines, rename = [], {names[0]: time}
    rename.update(zip(names[1 + n:], inputs))
    for i, name in enumerate(names[1:1 + n]):
        rename[name] = f"{out}x{i}" if prev else states[i]
        if prev and name in used:
            lines.append(f"{out}x{i} = {states[i]}")
    body, results = body_lines(exprs, rename, f"_{out}")
    return lines + body + [f"{out}{i} = {r}" for i, r in enumerate(results)]


def _chunk_loop(kernel: Callable, adapter: Callable, n: int, m: int) -> Callable:
    """The RK4 loop over a chunk of steps, for n states, m inputs and ``kernel``.

    ``run(ts, us, x0..x{n-1}, append, stop_when) -> stopped`` steps the
    state x0.. over a chunk whose stage times are ``ts`` (t0, t0 + h/2, t1,
    ...) and whose input rows, one per stage time, are concatenated in
    ``us``.  Each new state goes to ``append`` as a tuple, after the norm
    guard; ``stop_when(t, x)``, with x an (n,) array, ends the loop after it,
    and the loop returns whether it did.  A step whose kernel stages raise
    one of ``FLOAT_ERRORS`` is redone in place, all four stages, through
    ``adapter``; when the kernel is the adapter, what it raises propagates.
    Each component is written out in the order of operations of the vector
    form, so the states are bit for bit those of an (n,) array loop.

    The source is generated on each call and compiled once per text: it
    names every state and input, so it holds (n, m), and it holds every
    literal of an inlined kernel as its repr, so kernels differing in 0.0
    against -0.0 get loops of their own.
    """
    xs = "".join(f"x{i}, " for i in range(n))
    lines = [f"def run(ts, us, {xs}append, stop_when):",
             "    tn = ts[0]",
             "    for i in range(0, len(ts) - 1, 2):",
             "        t = tn",
             "        tm = ts[i + 1]",
             "        tn = ts[i + 2]"]
    if m:
        rows = "".join(f"{r}{k}, " for r in "abc" for k in range(m))
        lines.append(f"        {rows}= us[{m} * i:{m} * i + {3 * m}]")
    lines += ["        h = tn - t", "        hh = 0.5 * h"]

    def stages(k: Callable, call: str, pad: str) -> list[str]:
        return [pad + line for stage in _STAGES for line in _stage_lines(k, call, n, m, stage)]

    if kernel is adapter:
        lines += stages(kernel, "f", 8 * " ")
    else:
        lines += ["        try:", *stages(kernel, "f", 12 * " "),
                  "        except _FLOAT_ERRORS:", *stages(adapter, "g", 12 * " ")]
    lines += ["        h6 = h / 6.0"]
    lines += [f"        x{i} = x{i} + h6 * (((p{i} + 2.0 * q{i}) + 2.0 * r{i}) + s{i})"
              for i in range(n)]
    lines += [f"        x = ({xs})",
              f"        if not _hypot({xs}) <= _GUARD_FAST:",      # also true for nan
              "            _check_norm(tn, x)",
              "        append(x)",
              "        if stop_when is not None and stop_when(tn, _array(x)):",
              "            return True",
              "    return False"]
    src = "def make(f, g):\n" + "".join(f"    {line}\n" for line in lines)
    return _loop_factory(src + "    return run\n")(kernel, adapter)


@functools.cache
def _loop_factory(src: str) -> Callable:
    """``make(f, g) -> run`` from ``src``, compiled once per text."""
    ns = dict(_LOOP_NS)
    exec(src, ns)  # noqa: S102 - source built by _chunk_loop only
    return ns["make"]


def step_count(t0: float, tf: float, step: float) -> int:
    """The steps `integrate` takes from t0 to tf: ceil((tf - t0)/step), at
    least one, the last one shortened to land on tf.

    Raises ValueError naming the argument when t0, tf or step is not
    finite, when tf <= t0 or step <= 0, and when the stage-time grid, two
    floats a step, would be larger than numpy can index.
    """
    for name, value in (("t0", t0), ("tf", tf), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not tf > t0:
        raise ValueError(f"tf must exceed t0, got t0={t0!r}, tf={tf!r}")
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step!r}")
    count = (tf - t0) / step - 1.0e-12      # inf when tf - t0 overflows
    if not 2.0 * count * np.dtype(float).itemsize < np.iinfo(np.intp).max:
        raise ValueError(f"step {step!r} from t0={t0!r} to tf={tf!r} gives "
                         f"{count:.3g} steps, more than an array can index")
    return max(1, math.ceil(count))


def integrate(system: ControlSystem, x0, t0: float, tf: float, u: Signal,
              step: float = DEFAULT_STEP,
              stop_when: Callable | None = None) -> Trajectory:
    """Fixed-step RK4 from t0 to tf, recording every step.

    ``u`` is called once, on all stage times; its rows are converted to
    Python floats a chunk of steps at a time, and each chunk's states are
    written into one preallocated (steps + 1, n) array.  One loop, built
    once, steps each chunk; a step raising one of ``FLOAT_ERRORS`` on the
    field's kernel is redone inside it through the array adapter.  A
    callable without a kernel is called on arrays only, and what it raises
    propagates.  ``stop_when(t, x)``, with x an (n,) array, may end
    the run early (the point that triggered it is still recorded).  Raises
    NonFiniteInputError on a non-finite input and BlowUpError when |x| exceeds
    the guard; `step_count` refuses a bad time grid with ValueError.
    """
    n_steps = step_count(t0, tf, step)
    n, m = system.n, system.m
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    nodes = np.append(t0 + np.arange(n_steps) * step, tf)     # t0 + k*step, then tf
    grid = np.empty(2 * n_steps + 1)                          # t0, t0 + h/2, t1, ..., tf
    grid[0::2], grid[1::2] = nodes, nodes[:-1] + 0.5 * np.diff(nodes)
    with np.errstate(all="ignore"):
        rows = np.asarray(u(grid), dtype=float).reshape(grid.size, m)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise NonFiniteInputError(float(grid[bad[0]]), rows[bad[0]])
    adapter = _on_arrays(system.f, n)
    run = _chunk_loop(getattr(system.f, "point", adapter), adapter, n, m)
    states = np.empty((n_steps + 1, n))
    states[0] = x0
    x = tuple(x0.tolist())
    done, stopped = 0, False
    while done < n_steps and not stopped:
        end = min(done + _CHUNK, n_steps)
        ts = grid[2 * done:2 * end + 1].tolist()
        us = rows[2 * done:2 * end + 1].ravel().tolist()
        chunk: list = []
        stopped = run(ts, us, *x, chunk.append, stop_when)
        states[done + 1:done + 1 + len(chunk)] = chunk
        done += len(chunk)
        x = chunk[-1]
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
