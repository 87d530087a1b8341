import csv
import dataclasses
import math
import os
import sys
import time
import warnings

import numpy as np
import pytest

from strictlyap import dynsys, exprparse, verify
from strictlyap.config import field_from_exprs, load_problem, signal_from_exprs
from strictlyap.dynsys import ControlSystem, Signal, Trajectory, close_loop, integrate
from strictlyap.fixtures import rigid_body


def _decay_system():
    return ControlSystem(1, 0, lambda t, x, u: -x, period=1.0, label="decay")


class TestIntegrate:
    def test_scalar_linear_closed_form(self):
        tr = integrate(_decay_system(), [1.0], 0.0, 1.0, Signal.zero(0), 1e-3)
        assert tr.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-9)
        assert tr.times[-1] == 1.0

    def test_harmonic_oscillator_period(self):
        sys = ControlSystem(2, 0, lambda t, x, u: np.array([x[1], -x[0]]))
        tr = integrate(sys, [1.0, 0.0], 0.0, 2 * math.pi, Signal.zero(0), 1e-3)
        assert np.linalg.norm(tr.states[-1] - np.array([1.0, 0.0])) < 1e-6

    def test_rigid_body_v_nonincreasing_without_disturbance(self):
        rb = rigid_body()
        tr = integrate(rb.system, [1.0, 1.0, 1.0], 0.0, 5.0, Signal.zero(2), 1e-3)
        v = np.asarray(rb.candidate.V(tr.times, tr.states))
        assert np.all(np.diff(v) <= 1e-9)

    def test_rk4_order(self):
        exact = math.exp(-1.0)
        errs = []
        for step in (0.02, 0.01):
            tr = integrate(_decay_system(), [1.0], 0.0, 1.0, Signal.zero(0), step)
            errs.append(abs(tr.states[-1, 0] - exact))
        ratio = errs[0] / errs[1]
        assert 14.0 <= ratio <= 18.0

    def test_last_step_shortened(self):
        tr = integrate(_decay_system(), [1.0], 0.0, 0.0105, Signal.zero(0), 1e-2)
        assert tr.times[-1] == pytest.approx(0.0105, abs=0)
        assert len(tr.times) == 3  # 0, 0.01, 0.0105

    def test_span_below_one_step_is_one_step(self):
        tr = integrate(_decay_system(), [1.0], 0.0, 1e-16, Signal.zero(0), 1e-3)
        assert tr.times.tolist() == [0.0, 1e-16]

    def test_blow_up_detected(self):
        sys = ControlSystem(1, 0, lambda t, x, u: x ** 2, label="escape")
        with pytest.raises(dynsys.BlowUpError) as ei:
            integrate(sys, [1.0], 0.0, 2.0, Signal.zero(0), 1e-4)
        assert 0.9 < ei.value.time <= 1.1  # escape time of dx = x^2 from 1 is t = 1

    def test_time_shift_consistency_periodic(self):
        T = 2 * math.pi
        sys = ControlSystem(1, 1, lambda t, x, u: -x + np.sin(t) * u, period=T)
        u = Signal(lambda t: np.array([0.5]) if np.isscalar(t)
                   else np.full((len(t), 1), 0.5), 1, sup_bound=0.5)
        a = integrate(sys, [1.0], 0.0, 3.0, u, 1e-3)
        b = integrate(sys, [1.0], T, T + 3.0, u, 1e-3)
        assert np.allclose(a.states, b.states, atol=1e-9)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            integrate(_decay_system(), [1.0], 1.0, 0.5, Signal.zero(0))
        with pytest.raises(ValueError):
            integrate(_decay_system(), [1.0, 2.0], 0.0, 1.0, Signal.zero(0))

    @pytest.mark.parametrize("t0, tf, step, match", [
        (math.nan, 1.0, 1e-3, "t0 must be finite, got nan"),
        (0.0, math.nan, 1e-3, "tf must be finite, got nan"),
        (0.0, math.inf, 1e-3, "tf must be finite, got inf"),
        (0.0, 1.0, math.nan, "step must be finite, got nan"),
        (0.0, 1.0, math.inf, "step must be finite, got inf"),
        (0.0, 1.0, -1e-3, "step must be positive, got -0.001"),
        (0.0, 1.0, 1e-300, r"step 1e-300 from t0=0.0 to tf=1.0 gives 1e\+300 steps"),
        (0.0, 1.0, 5e-324, r"step 5e-324 from t0=0.0 to tf=1.0 gives inf steps"),
        (-1e308, 1e308, 1.0, r"step 1.0 from t0=-1e\+308 .* gives inf steps"),
    ], ids=["t0-nan", "tf-nan", "tf-inf", "step-nan", "step-inf", "step-negative",
            "count-past-index-range", "count-inf", "span-inf"])
    def test_bad_time_grid_is_refused_by_name(self, t0, tf, step, match):
        # counts past numpy's index range only: these are refused before any
        # array is made
        with pytest.raises(ValueError, match=match):
            integrate(_decay_system(), [1.0], t0, tf, Signal.zero(0), step)


class TestCloseLoop:
    def test_rigid_body_structure(self):
        rb = rigid_body()
        closed = close_loop(rb.open_system, rb.feedback)
        assert closed.n == 3 and closed.m == 2
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = rng.uniform(0, 2 * math.pi)
            x = rng.normal(size=3)
            u = rng.normal(size=2)
            assert np.allclose(closed.f(t, x, u), rb.system.f(t, x, u), atol=1e-12)

    def test_zero_feedback_identity(self):
        sys = ControlSystem(1, 2, lambda t, x, u: np.atleast_1d(u[..., 0] + u[..., 1]))
        closed = close_loop(sys, lambda t, x: np.zeros(1))
        assert closed.m == 1
        assert closed.f(0.0, np.zeros(1), np.array([2.0]))[0] == 2.0

    def test_scalar_feedback(self):
        sys = ControlSystem(1, 2, lambda t, x, u: np.atleast_1d(u[..., 0] + u[..., 1]))
        closed = close_loop(sys, lambda t, x: -x)
        val = closed.f(0.0, np.array([3.0]), np.array([1.0]))
        assert val[0] == pytest.approx(-2.0)

    def test_dimension_mismatch(self):
        sys = ControlSystem(1, 1, lambda t, x, u: -x)
        with pytest.raises(ValueError):
            close_loop(sys, lambda t, x: np.zeros(2))


class TestLyapunovAlong:
    def test_matches_chain_rule(self):
        tr = integrate(_decay_system(), [1.0], 0.0, 2.0, Signal.zero(0), 1e-3)
        dv = np.gradient(0.5 * tr.states[:, 0] ** 2, tr.times)
        expected = -tr.states[:, 0] ** 2
        assert np.abs(dv[1:-1] - expected[1:-1]).max() < 1e-5

    def test_rigid_body_matches_analytic_derivative(self):
        rb = rigid_body()
        tr = integrate(rb.system, [1.0, -1.0, 2.0], 0.0, 3.0, Signal.zero(2), 1e-3)
        dv = np.gradient(rb.candidate.V(tr.times, tr.states), tr.times)
        analytic = verify.vdot(rb.candidate, rb.system, tr.times, tr.states,
                               np.zeros((len(tr.times), 2)))
        sel = np.abs(analytic[1:-1]) > 1e-2
        rel = np.abs(dv[1:-1][sel] - analytic[1:-1][sel]) / np.abs(analytic[1:-1][sel])
        assert rel.max() < 1e-4


def _counting(sig: Signal):
    """``sig`` with a record of the time batches it is called on."""
    calls = []

    def fn(t):
        calls.append(np.array(t))
        return sig(t)

    return Signal(fn, sig.m), calls


class TestInputGrid:
    def test_signal_called_once_per_run(self):
        rb = rigid_body()
        u, calls = _counting(rb.sim.runs[1].signal)
        tr = integrate(rb.system, [1.0, -1.0, 2.0], 0.0, 0.0105, u, 1e-3)
        assert len(calls) == 1
        grid = calls[0]
        assert grid.shape == (2 * 11 + 1,)
        assert np.array_equal(grid[0::2], tr.times)
        assert grid[-1] == 0.0105 and grid[-2] == 0.01 + 0.5 * (0.0105 - 0.01)

    def test_signal_called_once_with_stop_when(self):
        u, calls = _counting(Signal.constant([0.5]))
        sys = ControlSystem(1, 1, lambda t, x, u: -x + u)
        tr = integrate(sys, [1.0], 0.0, 1.0, u, 1e-2, stop_when=lambda t, x: t >= 0.3)
        assert len(calls) == 1
        assert len(tr.times) == 31 and tr.inputs.shape == (31, 1)
        assert np.array_equal(tr.times, calls[0][0:62:2])

    def test_recorded_inputs_are_the_applied_rows(self):
        seen = []

        def f(t, x, u):
            seen.append(u.copy())
            return -x + u

        tr = integrate(ControlSystem(1, 1, f), [1.0], 0.0, 3.0,
                       signal_from_exprs(["exp(t)"]), 1e-3)
        applied = np.array(seen[0::4] + seen[-1:])    # k1 of every step, then k4's end
        assert np.array_equal(applied, tr.inputs)


class TestSignals:
    def test_vectorized_constant(self):
        c = Signal.constant([1.0, -2.0])
        out = c(np.linspace(0, 1, 4))
        assert out.shape == (4, 2)
        assert np.all(out[:, 1] == -2.0)

    def test_declared_sup_bound_holds(self):
        rb = rigid_body()
        sig = rb.sim.runs[1].signal
        ts = np.linspace(0, 60, 2001)
        norms = np.linalg.norm(sig(ts), axis=1)
        assert norms.max() <= sig.sup_bound + 1e-12


def test_trajectory_csv_schema(tmp_path):
    rb = rigid_body()
    tr = integrate(rb.system, [1.0, 0.0, 0.0], 0.0, 0.01, Signal.zero(2), 1e-3)
    path = tmp_path / "traj.csv"
    v = np.asarray(rb.candidate.V(tr.times, tr.states))
    dynsys.write_trajectory_csv(path, tr, {"V": v})
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,u1,u2,V"
    assert len(lines) == len(tr.times) + 1


# ---------------------------------------------------------------------------
# Bit identity with the per-component field path and the unfused RK4 step

def _per_component_field(texts, n, m):
    """One compiled callable per component, called on numpy scalars."""
    args = ("t", *(f"x{i+1}" for i in range(n)), *(f"u{j+1}" for j in range(m)))
    fns = [exprparse.compile_expr(txt, args) for txt in texts]
    return lambda t, x, u: np.array([fn(t, *x, *u) for fn in fns])


def _per_component_signal(texts):
    fns = [exprparse.compile_expr(txt, ("t",)) for txt in texts]
    return lambda t: np.array([fn(t) for fn in fns])


def _unfused_rk4(f, x0, t0, tf, u, step):
    """The RK4 loop with a norm from np.linalg and a copy per state."""
    x = np.asarray(x0, dtype=float).copy()
    n_steps = int(np.ceil((tf - t0) / step - 1.0e-12))
    states = [x.copy()]
    t = t0
    for k in range(n_steps):
        t_next = tf if k == n_steps - 1 else t0 + (k + 1) * step
        h = t_next - t
        u0, um, u1 = u(t), u(t + 0.5 * h), u(t_next)
        k1 = np.asarray(f(t, x, u0), dtype=float)
        k2 = np.asarray(f(t + 0.5 * h, x + 0.5 * h * k1, um), dtype=float)
        k3 = np.asarray(f(t + 0.5 * h, x + 0.5 * h * k2, um), dtype=float)
        k4 = np.asarray(f(t_next, x + h * k3, u1), dtype=float)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t_next
        nrm = float(np.linalg.norm(x))
        assert np.isfinite(nrm) and nrm <= dynsys.BLOWUP_GUARD
        states.append(x.copy())
    return np.asarray(states)


class TestBitIdentity:
    @pytest.mark.parametrize("run", [0, 1])
    def test_rigid_body_runs_match_per_component_path(self, run):
        rb = rigid_body()
        field = _per_component_field([rb.expressions[f"f{i+1}"] for i in range(3)], 3, 2)
        sim = rb.sim.runs[run]
        if run == 0:
            u_ref = lambda t: np.zeros(2)
        else:
            u_ref = _per_component_signal(["0.1*sin(3*t)", "0.1*cos(5*t)"])
        tr = integrate(rb.system, sim.x0, 0.0, 2.0, sim.signal, 1.0e-3)
        ref = _unfused_rk4(field, sim.x0, 0.0, 2.0, u_ref, 1.0e-3)
        assert tr.states.shape == (2001, 3)
        assert np.array_equal(tr.states, ref)

    def test_generic_lambda_gets_arrays(self):
        seen = []

        def f(t, x, u):
            seen.append((type(x), x.shape, u.shape))
            return np.array([x[1], -x[0]])

        tr = integrate(ControlSystem(2, 0, f), [1.0, 0.0], 0.0, 0.01, Signal.zero(0), 1e-3)
        assert len(tr.times) == 11
        assert set(seen) == {(np.ndarray, (2,), (0,))}

    def test_expression_field_without_inputs(self):
        # m = 0: -x1 on Python floats equals -x on arrays, bit for bit
        expr = integrate(field_from_exprs(["-x1"], 1, 0), [1.0], 0.0, 1.0,
                         Signal.zero(0), 1e-3)
        generic = integrate(_decay_system(), [1.0], 0.0, 1.0, Signal.zero(0), 1e-3)
        assert expr.inputs.shape == (1001, 0)
        assert np.array_equal(expr.states, generic.states)
        assert expr.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_empty_signal_batches(self):
        sig = signal_from_exprs([])
        assert sig(np.linspace(0.0, 1.0, 4)).shape == (4, 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("text, x0", [("x1^400", 10.0), ("1/(x1 - x1)", 1.0),
                                          ("x1^2", 1e160)])
    def test_float_overflow_still_trips_the_guard(self, text, x0):
        # Python floats raise where numpy scalars give inf, or give inf as
        # a square does: either way a blow-up
        with pytest.raises(dynsys.BlowUpError) as ei:
            integrate(field_from_exprs([text], 1, 0), [x0], 0.0, 1.0,
                      Signal.zero(0), 1e-3)
        assert ei.value.time == 1e-3


# ---------------------------------------------------------------------------
# The float RK4 loop against the ndarray loop it replaced

def _ndarray_rk4(system, x0, t0, tf, u, step, stop_when=None):
    """The RK4 loop on (n,) arrays: every stage is np.asarray(f(t, x, u))."""
    x = np.asarray(x0, dtype=float).copy()
    f = system.f
    n_steps = max(1, int(np.ceil((tf - t0) / step - 1.0e-12)))
    nodes = np.append(t0 + np.arange(n_steps) * step, tf)
    grid = np.empty(2 * n_steps + 1)
    grid[0::2], grid[1::2] = nodes, nodes[:-1] + 0.5 * np.diff(nodes)
    ts = grid.tolist()
    rows = np.asarray(u(grid), dtype=float).reshape(grid.size, system.m)
    states = [x]
    for k in range(n_steps):
        t, t_mid, t_next = ts[2 * k:2 * k + 3]
        h = t_next - t
        u0, um, u1 = rows[2 * k:2 * k + 3]
        k1 = np.asarray(f(t, x, u0), dtype=float)
        k2 = np.asarray(f(t_mid, x + 0.5 * h * k1, um), dtype=float)
        k3 = np.asarray(f(t_mid, x + 0.5 * h * k2, um), dtype=float)
        k4 = np.asarray(f(t_next, x + h * k3, u1), dtype=float)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        nrm = math.sqrt(float(x @ x))
        if not nrm <= dynsys.BLOWUP_GUARD:
            raise dynsys.BlowUpError(t_next, nrm)
        states.append(x)
        if stop_when is not None and stop_when(t_next, x):
            break
    k = len(states)
    return nodes[:k], np.asarray(states), rows[0::2][:k]


def _assert_same(traj, ref):
    times, states, inputs = ref
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.inputs, inputs)


STEP = 2.0 ** -10          # tf = k * STEP is exactly k steps
CHUNK = dynsys._CHUNK


def _stop_at(call):
    """stop_when that fires on its ``call``-th call (never for None)."""
    calls = []

    def stop_when(t, x):
        calls.append(t)
        return len(calls) == call

    return stop_when


class TestChunkedLoop:
    @pytest.mark.parametrize("k", [CHUNK, CHUNK + 1, 3 * CHUNK + 123],
                             ids=["one-chunk", "chunk-plus-one", "ragged-last-chunk"])
    def test_matches_ndarray_loop(self, k):
        rb = rigid_body()
        run = rb.sim.runs[1]
        tr = integrate(rb.system, run.x0, 0.0, k * STEP, run.signal, STEP)
        assert tr.times.size == k + 1
        _assert_same(tr, _ndarray_rk4(rb.system, run.x0, 0.0, k * STEP, run.signal, STEP))

    @pytest.mark.parametrize("fire", [1, CHUNK, CHUNK + 1, None],
                             ids=["first-step", "last-of-chunk", "first-of-next", "never"])
    def test_stop_when_matches_ndarray_loop(self, fire):
        rb = rigid_body()
        run = rb.sim.runs[1]
        k = 2 * CHUNK + 7
        tr = integrate(rb.system, run.x0, 0.0, k * STEP, run.signal, STEP,
                       stop_when=_stop_at(fire))
        assert tr.times.size == (k if fire is None else fire) + 1
        _assert_same(tr, _ndarray_rk4(rb.system, run.x0, 0.0, k * STEP, run.signal,
                                      STEP, stop_when=_stop_at(fire)))

    def test_stop_when_gets_an_array(self):
        rb = rigid_body()
        seen = []

        def stop_when(t, x):
            seen.append((type(x), x.shape))
            return False

        integrate(rb.system, [1.0, -1.0, 2.0], 0.0, 10 * STEP, Signal.zero(2), STEP,
                  stop_when=stop_when)
        assert seen == [(np.ndarray, (3,))] * 10


class TestGeneratedStep:
    @pytest.mark.parametrize("x1, raises_at", [(0.0, 0.0), (STEP / 2, STEP / 2),
                                               (STEP, STEP)],
                             ids=["stage-1", "stages-2-3", "stage-4"])
    def test_step_retried_through_arrays(self, x1, raises_at):
        # x1' = -1 reaches x1 = 0 inside the first step, where the written
        # kernel's -1/x1^2 divides by zero on floats; the step is repeated
        # through the array adapter, where exp(-1/x1^2) is exp(-inf) = 0
        system = field_from_exprs(["-1", "exp(-1/x1^2)"], 2, 0)
        raised = []

        def point(t, x1, x2):
            try:
                return -1.0, math.exp(-1.0 / (x1 * x1))
            except ZeroDivisionError:
                raised.append(t)
                raise

        def field(t, x, u):
            return system.f(t, x, u)

        field.point = point
        written = dataclasses.replace(system, f=field)
        k = 8
        tr = integrate(written, [x1, 0.0], 0.0, k * STEP, Signal.zero(0), STEP)
        assert raised[0] == raises_at     # the first float stage to raise
        _assert_same(tr, _ndarray_rk4(system, [x1, 0.0], 0.0, k * STEP, Signal.zero(0),
                                      STEP))

    @pytest.mark.parametrize("texts, m, x0", [
        (["-x1 + sin(t)*u1"], 1, [1.0]),
        (["-x1*cos(t)"], 0, [1.0]),
        (["x2", "-x1 + x3", "-x1*x3"], 0, [1.0, -0.5, 0.25]),
    ], ids=["n1-m1", "n1-m0", "n3-m0"])
    def test_shapes_match_ndarray_loop(self, texts, m, x0):
        system = field_from_exprs(texts, len(texts), m)
        u = signal_from_exprs(["cos(3*t)"][:m])
        k = 300
        tr = integrate(system, x0, 0.0, k * STEP, u, STEP)
        assert tr.states.shape == (k + 1, len(texts)) and tr.inputs.shape == (k + 1, m)
        _assert_same(tr, _ndarray_rk4(system, x0, 0.0, k * STEP, u, STEP))

    @pytest.mark.parametrize("offset, steps", [(0.0, [99, 100]), (STEP / 2, [100]),
                                               (STEP, [100, 101])],
                             ids=["zero-at-step-100", "zero-inside-step-100", "zero-at-step-101"])
    def test_inlined_stages_raising_mid_chunk(self, monkeypatch, offset, steps):
        # as above, but x1 reaches 0 near step 100 and the field is the
        # expression kernel itself, written out in the loop: only the steps
        # that raise go through the adapter, at their four stage times
        system = field_from_exprs(["-1", "exp(-1/x1^2)"], 2, 0)
        redone, on_arrays = [], dynsys._on_arrays

        def counting(f, n):
            adapter = on_arrays(f, n)

            def counted(t, *xu):
                redone.append(t)
                return adapter(t, *xu)

            return counted

        monkeypatch.setattr(dynsys, "_on_arrays", counting)
        x0, k = [100 * STEP + offset, 0.0], 300
        tr = integrate(system, x0, 0.0, k * STEP, Signal.zero(0), STEP)
        assert redone == [STEP * (j + d) for j in steps for d in (0.0, 0.5, 0.5, 1.0)]
        _assert_same(tr, _ndarray_rk4(system, x0, 0.0, k * STEP, Signal.zero(0), STEP))

    @pytest.mark.parametrize("text, x0, blows_up", [
        ("1", dynsys.BLOWUP_GUARD - 200 * STEP, True),
        ("0", dynsys.BLOWUP_GUARD, False),
        ("x1^2", 1.0, True),
    ], ids=["crosses-the-guard", "on-the-guard", "escape"])
    def test_guard_trip_mid_chunk(self, text, x0, blows_up):
        # |x| passes the fast hypot bound inside the chunk; the exact norm
        # decides, as in the array loop
        system = field_from_exprs([text], 1, 0)
        k = 2 * CHUNK
        if not blows_up:
            tr = integrate(system, [x0], 0.0, k * STEP, Signal.zero(0), STEP)
            _assert_same(tr, _ndarray_rk4(system, [x0], 0.0, k * STEP, Signal.zero(0),
                                          STEP))
            return
        with pytest.raises(dynsys.BlowUpError) as got:
            integrate(system, [x0], 0.0, k * STEP, Signal.zero(0), STEP)
        with pytest.raises(dynsys.BlowUpError) as ref:
            _ndarray_rk4(system, [x0], 0.0, k * STEP, Signal.zero(0), STEP)
        assert (got.value.time, got.value.norm) == (ref.value.time, ref.value.norm)
        assert 0.0 < got.value.time < CHUNK * STEP

    def test_signed_zero_literals_get_loops_of_their_own(self):
        # Expr equality has Num(0.0) == Num(-0.0); the loops are told apart
        # by their source, so each field keeps its own sign of zero
        fields = [field_from_exprs([exprparse.BinOp("*", exprparse.Var("x1"),
                                                    exprparse.Num(z))], 1, 0)
                  for z in (0.0, -0.0)]
        assert fields[0].f.point.expr == fields[1].f.point.expr
        signs = []
        for system in fields:
            tr = integrate(system, [-0.0], 0.0, 4 * STEP, Signal.zero(0), STEP)
            _, states, _ = _ndarray_rk4(system, [-0.0], 0.0, 4 * STEP, Signal.zero(0),
                                        STEP)
            assert np.signbit(tr.states).tolist() == np.signbit(states).tolist()
            signs.append(np.signbit(tr.states[-1, 0]))
        assert signs == [True, False]

    def test_generated_code_is_cached_within_the_bound(self):
        # fields that differ only in a literal each get a kernel and an RK4
        # loop of their own text; every cache of generated code in the
        # package keeps at most COMPILED_SOURCES entries
        bound = exprparse.COMPILED_SOURCES
        for k in range(bound + 10):
            system = field_from_exprs([f"-(1 + {k}*1e-3)*x1 + u1"], 1, 1)
            integrate(system, [1.0], 0.0, 0.01, Signal.constant([0.0]))
        sizes = {f"{name}.{attr}": fn.cache_info().currsize
                 for name, mod in list(sys.modules.items())
                 if name == "strictlyap" or name.startswith("strictlyap.")
                 for attr, fn in vars(mod).items() if hasattr(fn, "cache_info")}
        assert "strictlyap.exprparse.compiled" in sizes
        assert all(size <= bound for size in sizes.values()), sizes

    def test_callable_without_kernel_is_called_four_times_per_step(self):
        calls = []

        def f(t, x, u):
            calls.append(t)
            return -x + u

        k = 37
        tr = integrate(ControlSystem(1, 1, f), [1.0], 0.0, k * STEP, Signal.constant([0.5]),
                       STEP)
        assert tr.times.size == k + 1
        assert len(calls) == 4 * k

    def test_callable_without_kernel_is_never_retried(self):
        calls = []

        def f(t, x, u):
            calls.append(t)
            raise ZeroDivisionError("raised by the field itself")

        with pytest.raises(ZeroDivisionError, match="by the field itself"):
            integrate(ControlSystem(1, 0, f), [1.0], 0.0, 1.0, Signal.zero(0), STEP)
        assert calls == [0.0]


RB_OPEN_CONFIG = """\
[problem]
name = rigid-body-ini
n = 3
m = 4
mode = disp-value
tau = 3.141592653589793
period = 6.283185307179586

[system]
f1 = "u1 + u3 - cos(t)"
f2 = "u2 + u4"
f3 = "(x1 + sin(t))*x2"
feedback1 = "-x1 - x2*x3 + cos(t)"
feedback2 = "-(1 + sin(t)*x1 + sin(t)^2)*x2 - (2*sin(t) + cos(t))*x3"

[lyapunov]
V = "0.5*(x1^2 + (x2 + sin(t)*x3)^2 + x3^2)"
alpha1 = "((3 - sqrt(5))/4)*s^2"
alpha2 = "((3 + sqrt(5))/4)*s^2"
alpha3 = "4*s + 2*s^2"

[decay]
p = "sin(t)^2"
period = 3.141592653589793

[gains]
mu_tilde = "s"
omega = "0.5*s^2"

[sim]
x0.1 = 1 1 1
u.1.1 = "0.1*sin(3*t)"
u.1.2 = "0.1*cos(5*t)"
"""


class TestKernelPaths:
    def test_wrapped_field_matches_kernel(self):
        # the benchmark tracer wraps system.f the same way: no kernel, arrays in
        rb = rigid_body()
        f = rb.system.f
        wrapped = dataclasses.replace(rb.system, f=lambda t, x, u: f(t, x, u))
        assert hasattr(f, "point") and not hasattr(wrapped.f, "point")
        run = rb.sim.runs[1]
        tr = integrate(rb.system, run.x0, 0.0, 2.0, run.signal, 1e-3)
        ref = integrate(wrapped, run.x0, 0.0, 2.0, run.signal, 1e-3)
        _assert_same(tr, (ref.times, ref.states, ref.inputs))
        _assert_same(ref, _ndarray_rk4(wrapped, run.x0, 0.0, 2.0, run.signal, 1e-3))

    def test_ini_feedback_matches_generic_composition(self, tmp_path):
        path = tmp_path / "rb.ini"
        path.write_text(RB_OPEN_CONFIG, encoding="utf-8")
        problem = load_problem(path)
        fb = problem.feedback
        generic = close_loop(problem.open_system, lambda t, x: fb(t, x))
        assert hasattr(problem.system.f, "point") and not hasattr(generic.f, "point")
        run = problem.sim.runs[0]
        tr = integrate(problem.system, run.x0, 0.0, 2.0, run.signal, 1e-3)
        ref = integrate(generic, run.x0, 0.0, 2.0, run.signal, 1e-3)
        _assert_same(tr, (ref.times, ref.states, ref.inputs))
        _assert_same(tr, _ndarray_rk4(problem.system, run.x0, 0.0, 2.0, run.signal, 1e-3))


def _csv_writer_reference(path, header, rows):
    """What csv.writer writes for ``rows``, with a float cell as %.17g and an
    array cell as its values' %.17g joined by spaces."""
    def cell(v):
        if isinstance(v, np.ndarray):
            return " ".join(f"{c:.17g}" for c in v)
        return f"{v:.17g}" if isinstance(v, float) else v

    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows([cell(v) for v in row] for row in rows)


def _trajectory_reference(path, traj, extra):
    _csv_writer_reference(
        path, ["t"] + [f"x{i+1}" for i in range(traj.states.shape[1])]
        + [f"u{j+1}" for j in range(traj.inputs.shape[1])] + list(extra),
        ([traj.times[i], *traj.states[i], *traj.inputs[i],
          *(col[i] for col in extra.values())] for i in range(traj.times.size)))


@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize("k", [1, 4097, 9000])
def test_trajectory_csv_matches_csv_writer(tmp_path, m, k):
    rng = np.random.default_rng(k + m)
    states = rng.normal(size=(k, 3)) * 10.0 ** rng.integers(-300, 300, size=(k, 3))
    states[0, 0], states[-1, 1] = np.inf, -np.inf
    v = rng.random(k)
    v[k // 2] = np.nan
    traj = Trajectory(np.linspace(0.0, 1.0, k), states, rng.normal(size=(k, m)))
    extra = {"V": v, "Vsharp": -v}
    dynsys.write_trajectory_csv(tmp_path / "fast.csv", traj, extra)
    _trajectory_reference(tmp_path / "ref.csv", traj, extra)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    dynsys.write_trajectory_csv(tmp_path / "bare.csv", traj)
    _trajectory_reference(tmp_path / "bare_ref.csv", traj, {})
    assert (tmp_path / "bare.csv").read_bytes() == (tmp_path / "bare_ref.csv").read_bytes()


_STRINGS = ["a,b", 'say "hi"', "two words", "", "plain", '",', "line\nbreak"]
_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -1e300, 1e-300, -1e-300]


@pytest.mark.parametrize("k", [0, 1, 4096, 4097, 9000])
def test_mixed_cells_match_csv_writer(tmp_path, k):
    # the columns of the CLI's files: strings, ints, floats as a list and as
    # an array, a column mixing the three, and array cells (verify's x and u)
    rng = np.random.default_rng(k)
    floats = (rng.normal(size=k) * 10.0 ** rng.integers(-300, 300, size=k)).tolist()
    floats[::2] = [_SPECIAL[i % len(_SPECIAL)] for i in range(len(floats[::2]))]
    mixed = _STRINGS + [7, -3, 0] + _SPECIAL
    vectors = [rng.normal(size=i % 4) for i in range(k)]
    columns = [[_STRINGS[i % len(_STRINGS)] for i in range(k)], [i - k // 2 for i in range(k)],
               floats, np.array(floats[::-1]), [mixed[i % len(mixed)] for i in range(k)],
               vectors]
    header = ["name", "n,count", 'q"uote', "", "plain", "x"]
    dynsys._write_columns(tmp_path / "fast.csv", header, columns)
    _csv_writer_reference(tmp_path / "ref.csv", header, zip(*columns))
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestMapForked:
    @staticmethod
    def _assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_results_in_order_from_contiguous_slices(self, set_cpus):
        set_cpus(3)
        got = list(dynsys.map_forked(lambda i: (i * i, os.getpid()), range(7)))
        assert [v for v, _ in got] == [i * i for i in range(7)]
        pids = [pid for _, pid in got]
        assert pids[:2] == [os.getpid()] * 2           # this process: items 0, 1
        assert len({*pids[2:4]}) == 1 and len({*pids[4:]}) == 1
        assert len({*pids}) == 3
        self._assert_no_child()

    def test_one_cpu_forks_nothing(self, set_cpus, monkeypatch):
        set_cpus(1)

        def no_fork():
            raise AssertionError("forked on one CPU")

        monkeypatch.setattr(os, "fork", no_fork)
        assert list(dynsys.map_forked(lambda i: i + 1, [1, 2, 3])) == [2, 3, 4]

    def test_child_exception_keeps_class_args_and_attributes(self, set_cpus):
        set_cpus(2)

        def fn(i):
            if i == 1:
                raise dynsys.BlowUpError(2.5, 1.0e9)
            return i

        results = dynsys.map_forked(fn, [0, 1])
        assert next(results) == 0
        with pytest.raises(dynsys.BlowUpError) as info:
            next(results)
        exc = info.value
        assert (exc.time, exc.norm) == (2.5, 1.0e9)
        assert str(exc) == str(dynsys.BlowUpError(2.5, 1.0e9))
        assert "Traceback" in str(exc.__cause__)
        self._assert_no_child()

    def test_child_exception_that_cannot_be_pickled(self, set_cpus):
        set_cpus(2)

        class Local(Exception):
            pass

        def fn(i):
            if i:
                raise Local("not importable")
            return i

        with pytest.raises(RuntimeError, match="^Local: not importable$"):
            list(dynsys.map_forked(fn, [0, 1]))
        self._assert_no_child()

    def test_result_that_cannot_be_pickled_raises(self, set_cpus):
        set_cpus(2)
        with pytest.raises(Exception, match="pickle"):
            list(dynsys.map_forked(lambda i: (lambda: i), [0, 1]))
        self._assert_no_child()

    def test_failure_here_kills_the_children(self, set_cpus):
        set_cpus(2)

        def fn(i):
            if i == 0:
                raise ValueError("first run fails")
            time.sleep(60)

        t0 = time.monotonic()
        with pytest.raises(ValueError, match="first run fails"):
            list(dynsys.map_forked(fn, [0, 1]))
        assert time.monotonic() - t0 < 30
        self._assert_no_child()

    def test_closing_early_reaps_the_children(self, set_cpus):
        set_cpus(3)
        results = dynsys.map_forked(lambda i: time.sleep(60 * i) or i, [0, 1, 2])
        assert next(results) == 0
        results.close()
        self._assert_no_child()

    def test_warning_as_error_in_a_child_reaches_the_caller(self, set_cpus):
        # python -W error::RuntimeWarning must fail on a warning of any run
        set_cpus(2)

        def fn(i):
            return float(np.exp(np.array([1000.0 * i]))[0])

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="overflow"):
                list(dynsys.map_forked(fn, [0, 1]))
        self._assert_no_child()
