"""The point and batch conventions of the expression-backed builders, and
the number keys of an INI config.

A point (x of shape (n,)) is evaluated on Python floats by one fused call; a
batch (t of shape (k,), x of shape (k, n)) by one fused array call.  Both
must give exactly what one compiled callable per component gives.
"""

import re

import numpy as np
import pytest

from strictlyap import cli, exprparse
from strictlyap.config import ConfigError, candidate_from_exprs, field_from_exprs
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


def _derivatives(v_text, n):
    """dV/dt and the gradient of V, as `differentiate` builds them."""
    e = exprparse.parse(v_text)
    return (exprparse.differentiate(e, "t"),
            [exprparse.differentiate(e, f"x{i+1}") for i in range(n)])


@pytest.fixture(scope="module")
def rb():
    return rigid_body()


@pytest.fixture(scope="module")
def points(rb):
    return rb.domain.sample(N_POINTS, 3, 2, seed=7)


class TestPointCalls:
    def test_candidate_matches_numpy_scalar_path(self, rb, points):
        v_text = rb.expressions["V"]
        dt, grads = _derivatives(v_text, 3)
        v_ref = _numpy_scalar_path([v_text], 3)
        dt_ref = _numpy_scalar_path([dt], 3)
        grad_ref = _numpy_scalar_path(grads, 3)
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
        _, grads = _derivatives("x1^400", 1)
        assert (cand.grad_x(0.0, x) == _numpy_scalar_path(grads, 1)(0.0, x)).all()


class TestBatchCalls:
    def test_dv_dt_is_the_tree_differentiate_builds(self, rb):
        """The rigid-body dV/dt is 0.5 * ((2.0 * B) * (cos(t) * x3)) as
        built; the left-nested product its print once read back as differs
        from it in the last bit at about a third of the points."""
        rng = np.random.default_rng(5)
        t, x = rng.uniform(0.0, 10.0, 2000), rng.uniform(-3.0, 3.0, (2000, 3))
        built, _ = _derivatives(rb.expressions["V"], 3)
        flat = "0.5 * 2.0 * (x2 + sin(t) * x3)^1.0 * cos(t) * x3"
        got = rb.candidate.dV_dt(t, x)
        assert np.array_equal(got, exprparse.compile_expr(built, _args(3))(t, *x.T))
        assert not np.array_equal(got, exprparse.compile_expr(flat, _args(3))(t, *x.T))

    def test_grad_matches_stacked_components(self, rb, points):
        t, x, _ = points
        _, grads = _derivatives(rb.expressions["V"], 3)
        got = rb.candidate.grad_x(t, x)
        assert got.shape == (N_POINTS, 3)
        assert np.array_equal(got, _stacked_batch(grads, 3)(t, x))

    @pytest.mark.parametrize("v, n, keys", [("abs(x1)", 1, "dV_dx1"),
                                             ("max(x1, x2)", 2, "dV_dx1..dV_dx2")])
    def test_non_smooth_v_without_derivatives_is_config_error(self, v, n, keys):
        with pytest.raises(ConfigError) as exc:
            candidate_from_exprs(v, n, "s", "s", "s")
        assert str(exc.value) == f"V uses abs/max/min; supply dV_dt and {keys}"

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


# every number key a config may hold, each with a valid value
NUMBERS_CONFIG = """\
[problem]
n = 1
m = 1
mode = issp
tau = 1.0
period = 1.0
factor = 0.125
seed = 3

[system]
f1 = "-x1 + u1"

[lyapunov]
V = "0.5*x1^2"
alpha1 = "0.5*s^2"
alpha2 = "0.5*s^2"
alpha3 = "s"

[decay]
p = "1"
period = 1.0

[gains]
mu = "0.5*s^2"
chi = "2*s"

[domains]
t_min = 0.0
t_max = 2.0
x_radius = 6.0
u_radius = 2.0
samples = 500

[sim]
t0 = 0.0
tf = 1.0
step = 0.01
x0.1 = 1.0
"""


@pytest.mark.parametrize("section, key, kind", [
    *(("problem", key, "a number") for key in ("tau", "period", "factor")),
    ("decay", "period", "a number"),
    *(("domains", key, "a number") for key in ("t_min", "t_max", "x_radius", "u_radius")),
    *(("sim", key, "a number") for key in ("t0", "tf", "step")),
    *(("problem", key, "an integer") for key in ("n", "m", "seed")),
    ("domains", "samples", "an integer"),
])
def test_number_key_that_is_no_number_is_named(tmp_path, capsys, section, key, kind):
    head, _, rest = NUMBERS_CONFIG.partition(f"[{section}]\n")
    body, sep, tail = rest.partition("\n[")
    edited, k = re.subn(rf"^{key} = .*$", f"{key} = abc", body, flags=re.M)
    assert k == 1
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"{head}[{section}]\n{edited}{sep}{tail}", encoding="utf-8")
    assert cli.main(["pe", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: [{section}] {key} must be {kind}, got 'abc'\n"


@pytest.mark.parametrize("value", ["abc", "1.0 abc"])
def test_initial_state_that_is_no_number_is_named(tmp_path, capsys, value):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(NUMBERS_CONFIG.replace("x0.1 = 1.0", f"x0.1 = {value}"), encoding="utf-8")
    assert cli.main(["pe", "--config", str(cfg)]) == 2
    assert (capsys.readouterr().err
            == f"config error: [sim] x0.1 must be 1 finite numbers, got {value!r}\n")


def test_numbers_config_loads(tmp_path):
    cfg = tmp_path / "good.ini"
    cfg.write_text(NUMBERS_CONFIG, encoding="utf-8")
    assert cli.main(["pe", "--config", str(cfg)]) == 0
