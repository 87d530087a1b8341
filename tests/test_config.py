"""The point and batch conventions of the expression-backed builders.

A point (x of shape (n,)) is evaluated on Python floats by one fused call; a
batch (t of shape (k,), x of shape (k, n)) by one fused array call.  Both
must give exactly what one compiled callable per component gives.
"""

import numpy as np
import pytest

from strictlyap import exprparse
from strictlyap.config import candidate_from_exprs, field_from_exprs
from strictlyap.dynsys import close_loop
from strictlyap.fixtures import rigid_body

N_POINTS = 200


def _args(n, m=0):
    return ("t", *(f"x{i+1}" for i in range(n)), *(f"u{j+1}" for j in range(m)))


def _numpy_scalar_path(texts, n, m=0):
    """One compiled callable per component, called on numpy scalars."""
    fns = [exprparse.compile_expr(txt, _args(n, m)) for txt in texts]

    def f(t, x, u=np.zeros(0)):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return np.array([float(fn(t, *x, *u)) for fn in fns])

    return f


def _stacked_batch(texts, n):
    """One compiled callable per component on arrays, stacked as columns."""
    fns = [exprparse.compile_expr(txt, _args(n)) for txt in texts]

    def f(t, x):
        cols = [np.broadcast_to(np.asarray(fn(t, *x.T), dtype=float), (len(x),))
                for fn in fns]
        return np.stack(cols, axis=1)

    return f


def _derivative_texts(v_text, n):
    e = exprparse.parse(v_text)
    return (exprparse.to_text(exprparse.differentiate(e, "t")),
            [exprparse.to_text(exprparse.differentiate(e, f"x{i+1}")) for i in range(n)])


@pytest.fixture(scope="module")
def rb():
    return rigid_body()


@pytest.fixture(scope="module")
def points(rb):
    return rb.domain.sample(N_POINTS, 3, 2, seed=7)


class TestPointCalls:
    def test_candidate_matches_numpy_scalar_path(self, rb, points):
        v_text = rb.expressions["V"]
        dt_text, grad_texts = _derivative_texts(v_text, 3)
        v_ref = _numpy_scalar_path([v_text], 3)
        dt_ref = _numpy_scalar_path([dt_text], 3)
        grad_ref = _numpy_scalar_path(grad_texts, 3)
        cand = rb.candidate
        for t, x in zip(*points[:2]):
            t = float(t)
            v = cand.V(t, x)
            assert type(v) is float and v == v_ref(t, x)[0]
            assert cand.dV_dt(t, x) == dt_ref(t, x)[0]
            g = cand.grad_x(t, x)
            assert g.shape == (3,) and (g == grad_ref(t, x)).all()

    def test_field_and_feedback_match_numpy_scalar_path(self, rb, points):
        field_ref = _numpy_scalar_path([rb.expressions[f"f{i+1}"] for i in range(3)], 3, 2)
        fb_ref = _numpy_scalar_path([rb.expressions["feedback1"],
                                     rb.expressions["feedback2"]], 3)
        for t, x, u in zip(*points):
            t = float(t)
            f = rb.system.f(t, x, u)
            assert f.shape == (3,) and (f == field_ref(t, x, u)).all()
            fb = rb.feedback(t, x)
            assert fb.shape == (2,) and (fb == fb_ref(t, x)).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_float_overflow_gives_the_numpy_scalar_value(self):
        # floats raise on overflow; the point call repeats on numpy scalars
        cand = candidate_from_exprs("x1^400", 1, "s", "s", "s")
        x = np.array([10.0])
        assert cand.V(0.0, x) == np.inf
        _, grad_texts = _derivative_texts("x1^400", 1)
        assert (cand.grad_x(0.0, x) == _numpy_scalar_path(grad_texts, 1)(0.0, x)).all()


class TestBatchCalls:
    def test_grad_matches_stacked_components(self, rb, points):
        t, x, _ = points
        _, grad_texts = _derivative_texts(rb.expressions["V"], 3)
        got = rb.candidate.grad_x(t, x)
        assert got.shape == (N_POINTS, 3)
        assert np.array_equal(got, _stacked_batch(grad_texts, 3)(t, x))

    def test_constant_components_broadcast(self):
        cand = candidate_from_exprs("x1 + 0.5*x2^2", 2, "s", "s", "s")
        t = np.linspace(0.0, 1.0, 5)
        x = np.arange(10.0).reshape(5, 2)
        g = cand.grad_x(t, x)
        assert np.array_equal(g, np.stack([np.ones(5), x[:, 1]], axis=1))
        assert np.array_equal(cand.grad_x(0.5, x), g)   # scalar t is broadcast
        assert np.array_equal(cand.dV_dt(t, x), np.zeros(5))

    def test_field_batch_shape(self, rb, points):
        t, x, u = points
        f = rb.system.f(t, x, u)
        assert f.shape == (N_POINTS, 3)
        ref = np.stack([rb.system.f(float(ti), xi, ui) for ti, xi, ui in zip(t, x, u)])
        assert np.allclose(f, ref, rtol=1e-14, atol=1e-14)


class TestCloseLoop:
    def test_point_and_batch(self, rb, points):
        t, x, u = points
        closed = close_loop(rb.open_system, rb.feedback)
        assert closed.m == 2
        for ti, xi, ui in zip(t[:20], x[:20], u[:20]):
            ti = float(ti)
            got = closed.f(ti, xi, ui)
            full = np.concatenate([rb.feedback(ti, xi), ui])
            assert got.shape == (3,)
            assert np.array_equal(got, rb.open_system.f(ti, xi, full))
        got = closed.f(t, x, u)
        full = np.concatenate([rb.feedback(t, x), u], axis=1)
        assert got.shape == (N_POINTS, 3)
        assert np.array_equal(got, rb.open_system.f(t, x, full))
        # the feedback cancels the cos(t) drift of the open loop
        assert np.allclose(got, rb.system.f(t, x, u), atol=1e-12)

    def test_feedback_on_every_channel(self):
        open_sys = field_from_exprs(["u1", "x1 + u2"], 2, 2)
        fb = field_from_exprs(["-x1", "-x2"], 2, 0).f
        closed = close_loop(open_sys, fb)
        assert closed.m == 0
        x = np.array([[1.0, 2.0], [3.0, -4.0]])
        assert np.array_equal(closed.f(0.0, x[0], np.zeros(0)), [-1.0, -1.0])
        assert np.array_equal(closed.f(np.zeros(2), x, np.zeros((2, 0))),
                              [[-1.0, -1.0], [-3.0, 7.0]])
