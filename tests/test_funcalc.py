import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strictlyap import funcalc as fc
from strictlyap.decay import DecayRate, underline_p_gain


def test_invert_identity():
    assert fc.invert(fc.identity_gain(), 5.0) == pytest.approx(5.0, abs=1e-9)


def test_invert_quadratic():
    g = fc.gain_from_expr("2*s + s^2")
    assert fc.invert(g, 3.0) == pytest.approx(1.0, abs=1e-9)


def test_invert_rigid_body_alpha2_tilde():
    # alpha2 = mu = identity with tau = pi, pbar = 1 gives the linear gain
    # (3 pi / 2) s; its inverse at 3 pi / 2 is 1
    g = fc.linear_gain(3 * math.pi / 2)
    assert fc.invert(g, 3 * math.pi / 2) == pytest.approx(1.0, abs=1e-9)


def test_invert_zero():
    assert fc.invert(fc.gain_from_expr("s^3"), 0.0) == 0.0


def test_invert_bracket_not_found():
    bounded = fc.GainFunction(np.tanh, probe_max=10.0)
    with pytest.raises(fc.BracketNotFoundError):
        fc.invert(bounded, 2.0)


def test_invert_array_matches_scalar():
    g = fc.gain_from_expr("s + s^3")
    inv = fc.inverse_gain(g)
    ys = np.linspace(0.0, 30.0, 17)
    got = inv(ys)
    for y, s in zip(ys, got):
        assert abs(float(g(s)) - y) <= 1e-8
        assert s == pytest.approx(fc.invert(g, float(y)), abs=1e-8)


@pytest.mark.parametrize("text", ["s + s^3", "2*s + s^2", "s"])
def test_inverse_gain_float_equals_batch_element(text):
    # one path for every input: a float is a batch of one, bit for bit
    inv = fc.inverse_gain(fc.gain_from_expr(text))
    for y in (0.0, 1.0e-3, 0.3, 1.7, 12.5, 900.0):
        got = inv(y)
        assert np.shape(got) == ()
        assert float(got) == inv(np.array([y]))[0]
        assert float(inv.deriv(y)) == np.broadcast_to(inv.deriv(np.array([y])), (1,))[0]


@pytest.mark.parametrize("y", [-1.0, np.array([2.0, -1.0e-12])])
def test_inverse_gain_rejects_negative_target(y):
    inv = fc.inverse_gain(fc.gain_from_expr("s + s^3"))
    with pytest.raises(ValueError, match="target must be nonnegative"):
        inv(y)


def test_inverse_gain_keeps_nan():
    inv = fc.inverse_gain(fc.gain_from_expr("s + s^3"))
    assert np.isnan(inv(np.nan))
    got = inv(np.array([2.0, np.nan, 0.0]))
    assert np.isnan(got[1]) and got[2] == 0.0
    assert got[0] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("text, c", [("s", 1.0), ("2*s", 2.0), ("3*s + 1", 3.0)])
def test_constant_derivative_keeps_argument_shape(text, c):
    g = fc.gain_from_expr(text)
    assert np.array_equal(g.deriv(np.zeros(3)), [c, c, c])
    assert g.deriv(np.zeros((2, 4))).shape == (2, 4)
    assert float(g.deriv(0.7)) == c


def test_linear_gains_are_shape_agnostic():
    for g, c in ((fc.identity_gain(), 1.0), (fc.linear_gain(2.5), 2.5)):
        assert float(g.deriv(3.0)) == c
        assert np.array_equal(g.deriv(np.array([0.0, 4.0])), [c, c])
        assert g.deriv(np.zeros((2, 3))).shape == (2, 3)


def test_underline_p_gain_float_and_array():
    pl = underline_p_gain(DecayRate(lambda t: np.sin(t) ** 2, period=math.pi), n_grid=64)
    assert float(pl(math.pi)) == pl(np.array([math.pi]))[0]
    assert pl(np.array([[1.0, 2.0]])).shape == (1, 2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=1, max_size=4),
       st.floats(min_value=0.0, max_value=0.95))
def test_invert_roundtrip_random_monotone_polynomial(coeffs, frac):
    g = fc.GainFunction(lambda s: sum(c * s ** (k + 1) for k, c in enumerate(coeffs)),
                        probe_max=100.0)
    # keep y small enough that the 1e-10 residual target is representable
    y = frac * float(g(5.0))
    s = fc.invert(g, y, tol=1e-10)
    assert abs(float(g(s)) - y) <= 1e-10


def test_compose_identity():
    i = fc.identity_gain()
    assert float(fc.compose(i, i)(7.0)) == 7.0


def test_compose_square_after_double():
    sq = fc.gain_from_expr("s^2")
    dbl = fc.gain_from_expr("2*s")
    c = fc.compose(sq, dbl)
    assert float(c(3.0)) == pytest.approx(36.0, abs=1e-12)
    assert float(c.deriv(3.0)) == pytest.approx(24.0, abs=1e-9)


def test_compose_associative():
    a = fc.gain_from_expr("s^2")
    b = fc.gain_from_expr("2*s")
    c = fc.gain_from_expr("s + s^3")
    left = fc.compose(fc.compose(a, b), c)
    right = fc.compose(a, fc.compose(b, c))
    for s in np.linspace(0.0, 4.0, 33):
        assert float(left(s)) == pytest.approx(float(right(s)), abs=1e-12)


def test_check_kinf_identity_passes():
    rep = fc.check_kinf(fc.identity_gain(), 1000)
    assert rep.passed


def test_check_kinf_sine_fails():
    g = fc.GainFunction(np.sin, probe_max=math.pi)
    rep = fc.check_kinf(g, 1000)
    assert not rep.passed
    assert rep.location > math.pi / 2  # decreasing branch

def test_check_kinf_cubic_passes():
    rep = fc.check_kinf(fc.gain_from_expr("s + s^3", probe_max=50.0), 2000)
    assert rep.passed


def test_check_kinf_offset_fails():
    g = fc.GainFunction(lambda s: s + 1.0, probe_max=10.0)
    assert not fc.check_kinf(g, 100).passed


def test_deriv_finite_difference_fallback():
    g = fc.GainFunction(lambda s: s ** 2, probe_max=10.0)
    assert float(g.deriv(3.0)) == pytest.approx(6.0, rel=1e-5)


def test_rescale_kl_identity_clock():
    beta = fc.KLFunction(lambda s, t: s * np.exp(-t))
    hat = fc.rescale_kl(beta, fc.identity_gain())
    for s, t in [(1.0, 0.5), (2.0, 3.0)]:
        assert float(hat(s, t)) == pytest.approx(s * math.exp(-t), abs=1e-12)


def test_rescale_kl_sin_squared_window():
    # any length-pi window of sin^2 integrates to pi/2
    beta = fc.KLFunction(lambda s, t: s * np.exp(-t))
    p = DecayRate(lambda t: np.sin(t) ** 2, period=math.pi, label="sin^2")
    pl = underline_p_gain(p)
    hat = fc.rescale_kl(beta, pl)
    assert float(hat(1.0, math.pi)) == pytest.approx(math.exp(-math.pi / 2), rel=1e-6)
    assert float(hat(0.0, 2.0)) == 0.0


def test_rescale_kl_preserves_kl_checks():
    beta = fc.KLFunction(lambda s, t: 2.0 * s * np.exp(-0.5 * t))
    p = DecayRate(lambda t: 1.0 + 0.5 * np.sin(t), period=2 * math.pi)
    pl = underline_p_gain(p, n_grid=64)
    hat = fc.rescale_kl(beta, pl)
    assert fc.check_kl(hat, s_max=5.0, t_max=20.0, t_big=40.0, n=24).passed


def test_check_kl_flags_growth():
    bad = fc.KLFunction(lambda s, t: s * (1.0 + t))
    assert not fc.check_kl(bad, n=16).passed
