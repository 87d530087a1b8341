import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strictlyap import decay, exprparse as ep, funcalc as fc
from strictlyap.decay import DecayRate, underline_p_gain
from strictlyap.strictify import (DEFAULT_FACTOR_ISS, _decay_gain, build_alpha2_tilde,
                                  build_w)


def test_invert_identity():
    assert fc.invert(fc.identity_gain(), 5.0) == pytest.approx(5.0, abs=1e-9)


def test_invert_quadratic():
    g = fc.gain_from_expr("2*s + s^2")
    assert fc.invert(g, 3.0) == pytest.approx(1.0, abs=1e-9)


def test_invert_rigid_body_alpha2_tilde():
    # alpha2 = mu = identity with tau = pi, pbar = 1 gives the linear gain
    # (3 pi / 2) s; its inverse at 3 pi / 2 is 1
    g = fc.scale_gain(3 * math.pi / 2, fc.identity_gain())
    assert fc.invert(g, 3 * math.pi / 2) == pytest.approx(1.0, abs=1e-9)


def test_invert_zero():
    assert fc.invert(fc.gain_from_expr("s^3"), 0.0) == 0.0


def test_invert_nan_gives_nan():
    assert math.isnan(fc.invert(fc.gain_from_expr("s^3"), math.nan))


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


@pytest.mark.parametrize("text", ["s + s^3", "2*s + s^2", "s"])
def test_inverse_gain_float_equals_batch_element(text):
    # one path for every input: a float is a batch of one, bit for bit
    inv = fc.inverse_gain(fc.gain_from_expr(text))
    for y in (0.0, 1.0e-3, 0.3, 1.7, 12.5, 900.0):
        got = inv(y)
        assert np.shape(got) == () and np.shape(inv(y)) == ()     # bisected, then reused
        assert float(got) == inv(np.array([y]))[0]
        assert float(inv.deriv(y)) == np.broadcast_to(inv.deriv(np.array([y])), (1,))[0]


@pytest.mark.parametrize("y", [-1.0, np.array([2.0, -1.0e-12])])
def test_inverse_gain_rejects_negative_target(y):
    inv = fc.inverse_gain(fc.gain_from_expr("s + s^3"))
    for _ in range(2):      # a target that raised is never stored
        with pytest.raises(ValueError, match="target must be nonnegative"):
            inv(y)


def test_inverse_gain_keeps_nan():
    inv = fc.inverse_gain(fc.gain_from_expr("s + s^3"))
    assert np.isnan(inv(np.nan))
    got = inv(np.array([2.0, np.nan, 0.0]))
    assert np.isnan(got[1]) and got[2] == 0.0
    assert got[0] == pytest.approx(1.0, abs=1e-14)


def _bisection_oracle(g, y):
    """The plain bisection the Newton inversion replaced: doubling from
    [0, 1], then halving the bracket to 1e-15 * max(1, hi)."""
    y = np.asarray(y, dtype=float).ravel()
    lo, hi = np.zeros_like(y), np.ones_like(y)
    for _ in range(80):
        low = np.asarray(g(hi)) < y
        if not low.any():
            break
        hi[low] *= 2.0
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        below = np.asarray(g(mid)) < y
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        if float((hi - lo).max()) <= 1.0e-15 * max(1.0, float(hi.max())):
            break
    out = 0.5 * (lo + hi)
    out[y == 0.0] = 0.0
    out[np.isnan(y)] = np.nan
    return out


INVERSION_GAINS = [
    "s^2",            # zero slope at 0
    "s + s^3",
    "max(s, s^2)",    # finite-difference derivative
    "2*s",            # constant np.full_like derivative
    "exp(s) - 1",
]


def _inversion_targets():
    draws = np.random.default_rng(5).uniform(0.0, 50.0, 200)
    return np.concatenate([[0.0, np.nan, 1.0e-300, 1.0e-8, 1.0e6], draws])


@pytest.mark.parametrize("text", INVERSION_GAINS)
def test_invert_array_is_batch_invariant(text):
    # each target stops on its own bracket, so an answer does not depend on
    # the batch around it, bit for bit
    g = fc.gain_from_expr(text)
    ys = _inversion_targets()
    batch = fc._invert_array(g, ys)
    alone = np.array([fc._invert_array(g, ys[i:i + 1])[0] for i in range(ys.size)])
    assert np.array_equal(batch, alone, equal_nan=True)
    assert np.array_equal(fc._invert_array(g, ys[::-1]), batch[::-1], equal_nan=True)
    assert np.array_equal(fc._invert_array(g, ys.reshape(5, 41)), batch.reshape(5, 41),
                          equal_nan=True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text", INVERSION_GAINS)
def test_invert_array_agrees_with_bisection(text):
    g = fc.gain_from_expr(text)
    ys = _inversion_targets()
    got = fc._invert_array(g, ys)
    ref = np.array([_bisection_oracle(g, y)[0] for y in ys])
    assert got[0] == 0.0 and np.isnan(got[1])
    assert np.all(np.abs(got[2:] - ref[2:]) <= 1.0e-15 * np.maximum(1.0, ref[2:]))


def test_invert_array_converges_where_newton_crawls():
    # Newton from above shrinks s^9 by 8/9 a step and, with a finite-difference
    # slope near 0, s*abs(s) by far less; bisecting whenever a Newton step is
    # not at most half the one before still closes each bracket
    ys = np.array([1.0e-300, 1.0e-100, 1.0e-20, 0.3])
    for text in ("s^9", "s*abs(s)"):
        g = fc.gain_from_expr(text)
        got = fc._invert_array(g, ys)
        ref = np.array([_bisection_oracle(g, y)[0] for y in ys])
        assert np.all(np.abs(got - ref) <= 1.0e-15 * np.maximum(1.0, ref))


def test_invert_array_rejects_negative_and_bounded():
    g = fc.gain_from_expr("s + s^3")
    with pytest.raises(ValueError, match="target must be nonnegative"):
        fc._invert_array(g, np.array([0.0, np.nan, 2.0, -1.0e-300]))
    bounded = fc.GainFunction(np.tanh, probe_max=10.0)
    with pytest.raises(fc.BracketNotFoundError):
        fc._invert_array(bounded, np.array([0.0, np.nan, 0.5, 2.0]))


def test_both_solvers_refuse_a_bracket_past_the_probed_range():
    # the bracket [0, 1] holds the target, but 1 is past probe_max * 2^60
    g = dataclasses.replace(fc.identity_gain(), probe_max=1.0e-20)
    with pytest.raises(fc.BracketNotFoundError, match="gain looks bounded"):
        fc.invert(g, 0.5)
    with pytest.raises(fc.BracketNotFoundError, match="gain looks bounded"):
        fc._invert_array(g, np.array([0.0, 0.5]))


@pytest.mark.parametrize("y", [-1.0, np.array([2.0, -1.0e-12]), 5.0, np.array([0.5, 5.0]),
                               np.array([2.0, -1.0, 2.0, 0.0, -1.0])])
@pytest.mark.parametrize("exact", [True, False])
def test_inverse_gain_names_the_gain_of_a_target_out_of_range(y, exact):
    # a negative target, or one past the bounded gain 2 tanh(s), on both routes
    g = fc.GainFunction(lambda s: 2.0 * np.tanh(s), lambda s: 2.0 / np.cosh(s) ** 2,
                        probe_max=10.0, label="2*tanh(s)", point_exact=exact)
    match = "target must be nonnegative" if np.min(y) < 0 else "gain looks bounded"
    with pytest.raises(fc.TargetOutOfRangeError, match=rf"^inverse of gain 2\*tanh\(s\): {match}"):
        fc.inverse_gain(g)(y)


def _counting(monkeypatch):
    """Count the inversions behind every inverse gain from here on: the
    shape of each `_invert_array` batch, and "float" for each target that
    `invert` solves on floats."""
    calls = []
    original, original_invert = fc._invert_array, fc.invert

    def counted(g, y):
        calls.append(np.shape(y))
        return original(g, y)

    def counted_invert(g, y):
        calls.append("float")
        return original_invert(g, y)

    monkeypatch.setattr(fc, "_invert_array", counted)
    monkeypatch.setattr(fc, "invert", counted_invert)
    return calls, original


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


def test_issp_w_inverts_a_repeated_argument_once(monkeypatch):
    # w = (factor/tau) mu o alpha2_tilde^-1 as strictify_issp builds it; the
    # contract margin calls w.deriv(V) and then w(V) on one batch, here a
    # refinement batch of a point-exact gain, solved one target at a time
    mu, alpha2 = fc.gain_from_expr("s + s^3"), fc.gain_from_expr("2*s^2")
    a2t = build_alpha2_tilde(alpha2, mu, 1.5, 0.8)
    calls, original = _counting(monkeypatch)
    w = build_w(fc.compose(mu, fc.inverse_gain(a2t)), 1.5, 0.8)
    v = np.array([0.0, 0.2, 1.3, 7.0])
    del calls[:]
    slope, value = w.deriv(v), w(v)
    assert calls == ["float"] * 4
    s = original(a2t, v)
    c = DEFAULT_FACTOR_ISS / 1.5
    assert np.array_equal(slope, c * (mu.deriv(s) * (1.0 / a2t.deriv(s))))
    assert np.array_equal(value, c * mu(s))


def test_reused_answers_are_fresh_bisections_and_copies(monkeypatch):
    g = fc.gain_from_expr("s + s^3")
    inv = fc.inverse_gain(g)
    calls, original = _counting(monkeypatch)
    y = np.linspace(0.5, 30.0, fc.FLOAT_BATCH + 1)     # a batch for `_invert_array`
    for _ in range(2):       # the caller owns what it gets, bisected or reused
        got = inv(y)
        assert _bits(got) == _bits(original(g, y))
        got[:] = -1.0
    assert _bits(inv.deriv(y)) == _bits(1.0 / g.deriv(original(g, y)))
    assert len(calls) == 1
    y[1] = 3.0                               # the target changes in place
    assert _bits(inv(y)) == _bits(original(g, y))
    assert len(calls) == 2


def test_reuse_keeps_nan_and_signed_zero_answers(monkeypatch):
    # the float route: a small batch and a float each target on floats,
    # every answer the bits of the array route's element
    g = fc.gain_from_expr("s + s^3")
    inv = fc.inverse_gain(g)
    calls, original = _counting(monkeypatch)
    plus, minus = np.array([0.0, np.nan, 2.0]), np.array([-0.0, np.nan, 2.0])
    assert _bits(inv(plus)) == _bits(original(g, plus))
    assert _bits(inv(minus)) == _bits(original(g, minus))   # equal target, reused
    for y in (np.nan, np.nan, -0.0, 0.0):     # floats are never reused
        got = inv(y)
        assert type(got) is float and _bits(got) == _bits(original(g, y))
    assert calls == ["float"] * 7


def test_raising_target_keeps_the_last_answer(monkeypatch):
    g = fc.gain_from_expr("s + s^3")
    inv = fc.inverse_gain(g)
    calls, original = _counting(monkeypatch)
    good = inv(2.0)
    assert type(good) is float and _bits(good) == _bits(original(g, 2.0))
    with pytest.raises(ValueError, match="target must be nonnegative"):
        inv(-2.0)
    assert _bits(inv(2.0)) == _bits(good)
    assert calls == ["float"] * 3     # floats are inverted anew, never reused
    del calls[:]
    batch = inv(np.array([2.0]))
    with pytest.raises(ValueError, match="target must be nonnegative"):
        inv(np.array([-2.0]))
    assert _bits(inv(np.array([2.0]))) == _bits(batch)    # the last array's answer
    assert calls == ["float"] * 2


# repeated targets, both zeros and NaNs: 4 distinct targets in 10
_REPEATED = np.array([[2.0, -0.0, 0.0, np.nan, 2.0], [0.0, np.nan, 7.5, -0.0, 2.0]])


@pytest.mark.parametrize("exact", [True, False])
def test_repeated_targets_are_solved_once_each(monkeypatch, exact):
    # the float route for a point-exact gain, the array route otherwise;
    # either gives each element the bits the array route gives it
    g = dataclasses.replace(fc.gain_from_expr("s + s^3"), point_exact=exact)
    inv = fc.inverse_gain(g)
    calls, original = _counting(monkeypatch)
    got = inv(_REPEATED)
    assert calls == (["float"] * 4 if exact else [(4,)])
    ref = original(g, _REPEATED)
    assert _bits(got) == _bits(ref)
    for a, b in zip(got.ravel(), ref.ravel()):
        assert _bits(a) == _bits(b)


def test_float_route_counts_distinct_targets(monkeypatch):
    g = fc.gain_from_expr("s + s^3")
    inv = fc.inverse_gain(g)
    calls, original = _counting(monkeypatch)
    y = np.repeat(np.linspace(0.5, 30.0, fc.FLOAT_BATCH), 3)[::-1].copy()
    assert y.size > fc.FLOAT_BATCH
    assert _bits(inv(y)) == _bits(original(g, y))
    assert calls == ["float"] * fc.FLOAT_BATCH
    del calls[:]
    more = np.append(y, 31.0)                    # one distinct target too many
    assert _bits(inv(more)) == _bits(original(g, more))
    assert calls == [(fc.FLOAT_BATCH + 1,)]


def _inverted_gains(monkeypatch, problems):
    """The gains the certificate routes of ``problems`` invert, one per
    label, recorded at `strictify.inverse_gain`."""
    from strictlyap import strictify
    from strictlyap.config import strictify_problem
    from strictlyap.decay import estimate_pe
    from strictlyap.errors import ValidationFailure

    seen = {}
    original = strictify.inverse_gain

    def recorded(g):
        seen.setdefault(g.label, g)
        return original(g)

    monkeypatch.setattr(strictify, "inverse_gain", recorded)
    for problem in problems:
        if problem.rate.pe is None:
            problem.rate = problem.rate.with_pe(
                estimate_pe(problem.rate, problem.tau).triple(certified=True))
        try:    # the gains are built before any check samples
            strictify_problem(problem, n_samples=200)
        except ValidationFailure:
            pass
    return list(seen.values())


def test_float_inversion_is_the_batch_element(monkeypatch, sweep_problems):
    # every gain that the fixtures and the benchmark's sweep problems invert
    # (alpha2_tilde of scalar-linear, of counterexample-elw and of the 12 issp
    # problems) is point-exact, and `invert` gives its `_invert_array`
    # element bit for bit
    from strictlyap.fixtures import FIXTURES, get_fixture

    problems = [get_fixture(name) for name in FIXTURES] + sweep_problems(0) + sweep_problems(1)
    gains = _inverted_gains(monkeypatch, problems)
    assert len(gains) == 14 and all(g.point_exact for g in gains)
    assert all(g.fn is None and not isinstance(g.tree, ep.Apply) for g in gains)   # trees
    rng = np.random.default_rng(27)
    ys = np.concatenate([rng.uniform(0.0, 50.0, 10_000), 10.0 ** rng.uniform(-8.0, 3.0, 10_000)])
    for g in gains:
        batch = fc._invert_array(g, ys)
        floats = np.array([fc.invert(g, y) for y in ys.tolist()])
        assert np.array_equal(floats.view(np.uint64), batch.view(np.uint64)), g.label


@pytest.mark.parametrize("text", ["exp(s) - 1", "s + tanh(s)"])
def test_inexact_gain_never_enters_the_float_loop(monkeypatch, text):
    # probe_max 50: exp(1000) overflows on a float
    g = dataclasses.replace(fc.gain_from_expr(text), probe_max=50.0)
    inv = fc.inverse_gain(g)
    loops = []
    original = fc.invert

    def counted(g, y):
        loops.append(y)
        return original(g, y)

    monkeypatch.setattr(fc, "invert", counted)
    assert not g.point_exact and not inv.point_exact
    ys = np.array([0.3, 1.7, 12.5])
    assert np.array_equal(inv(ys), fc._invert_array(g, ys))
    assert np.shape(inv(2.0)) == () and float(inv(2.0)) == fc._invert_array(g, 2.0)
    w = fc.scale_gain(0.5, fc.compose(fc.identity_gain(), inv))
    assert not w.point_exact
    w(np.array([4.0]))
    w.deriv(5.0)
    assert loops == []


def test_point_exact_is_the_and_of_the_parts():
    exact, inexact = fc.gain_from_expr("s + s^3"), fc.gain_from_expr("s + tanh(s)")
    assert fc.identity_gain().point_exact and exact.point_exact
    assert not fc.GainFunction(np.tanh).point_exact
    assert not fc.gain_from_expr("s^4").point_exact
    assert fc.gain_from_expr("s*abs(s)").point_exact     # finite-difference slope
    for a, b in ((exact, exact), (exact, inexact), (inexact, exact)):
        both = a.point_exact and b.point_exact
        assert fc.compose(a, b).point_exact is both
        assert build_alpha2_tilde(a, b, 1.5, 0.8).point_exact is both
        assert _decay_gain(0.5, a, b).point_exact is both
    for g in (exact, inexact):
        assert fc.scale_gain(2.0, g).point_exact is g.point_exact
        assert fc.inverse_gain(g).point_exact is g.point_exact


def test_float_error_target_takes_the_array_route(monkeypatch):
    # g'(1) = 0 for (s - 1)^3 + 1: the Newton step at the first iterate
    # would divide by zero on floats, where numpy bisects; the float loop
    # bisects there too, and alone gives the array route's bits
    g = fc.gain_from_expr("(s - 1)^3 + 1")
    inv = fc.inverse_gain(g)
    calls, original = _counting(monkeypatch)
    got = inv(1.0)
    assert calls == ["float"] and type(got) is float
    assert _bits(got) == _bits(original(g, 1.0))


@pytest.mark.parametrize("text, c", [("s", 1.0), ("2*s", 2.0), ("3*s + 1", 3.0)])
def test_constant_derivative_keeps_argument_shape(text, c):
    g = fc.gain_from_expr(text)
    assert np.array_equal(g.deriv(np.zeros(3)), [c, c, c])
    assert g.deriv(np.zeros((2, 4))).shape == (2, 4)
    assert float(g.deriv(0.7)) == c


def test_linear_gains_are_shape_agnostic():
    for g, c in ((fc.identity_gain(), 1.0), (fc.scale_gain(2.5, fc.identity_gain()), 2.5)):
        assert float(g.deriv(3.0)) == c
        assert np.array_equal(g.deriv(np.array([0.0, 4.0])), [c, c])
        assert g.deriv(np.zeros((2, 3))).shape == (2, 3)


def test_underline_p_gain_float_and_array():
    pl = underline_p_gain(DecayRate(lambda t: np.sin(t) ** 2, period=math.pi), n_grid=64)
    assert float(pl(math.pi)) == pl(np.array([math.pi]))[0]
    assert pl(np.array([[1.0, 2.0]])).shape == (1, 2)


def test_underline_p_gain_evaluates_each_distinct_h_once(monkeypatch):
    p = DecayRate(lambda t: 1.0 + 0.5 * np.sin(t), period=2 * math.pi)
    h = np.array([[2.0, 0.5, 2.0], [0.0, 0.5, 2.0]])
    expected = [[decay.underline_p(p, float(v), n_grid=64) for v in row] for row in h]
    calls = []
    original = decay.underline_p

    def counted(p, h, n_grid):
        calls.append(h)
        return original(p, h, n_grid=n_grid)

    monkeypatch.setattr(decay, "underline_p", counted)
    got = underline_p_gain(p, n_grid=64)(h)
    assert sorted(calls) == [0.0, 0.5, 2.0]
    assert np.array_equal(got, expected)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=1, max_size=4),
       st.floats(min_value=0.0, max_value=0.95))
def test_invert_roundtrip_random_monotone_polynomial(coeffs, frac):
    g = fc.GainFunction(lambda s: sum(c * s ** (k + 1) for k, c in enumerate(coeffs)),
                        probe_max=100.0)
    # y below g(5) keeps the root inside [0, 5], where 1e-10 is above rounding
    y = frac * float(g(5.0))
    s = fc.invert(g, y)
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


def test_deriv_finite_difference_fallback():
    g = fc.GainFunction(lambda s: s ** 2, probe_max=10.0)
    assert float(g.deriv(3.0)) == pytest.approx(6.0, rel=1e-5)


@dataclasses.dataclass
class _Cube:
    """A gain written by hand whose instances cannot be hashed."""

    def __call__(self, s):
        return s * s * s


def test_opaque_gain_need_not_be_hashable():
    # the generated code names an opaque callable by its identity
    assert _Cube.__hash__ is None
    g = fc.GainFunction(_Cube(), probe_max=10.0)
    assert float(g.deriv(2.0)) == pytest.approx(12.0, rel=1e-5)
    assert fc.invert(g, 8.0) == pytest.approx(2.0, rel=1e-12)
    h = fc.compose(fc.gain_from_expr("2*s"), g)
    assert h(2.0) == 16.0 and np.array_equal(h(np.array([1.0, 2.0])), [2.0, 16.0])
    assert float(h.deriv(2.0)) == pytest.approx(24.0, rel=1e-5)
    assert fc.invert(h, 16.0) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("exact", [True, False])
def test_refused_target_inside_a_tree_is_solved_once(monkeypatch, exact):
    # the inverse of the bounded 2 tanh(s) refuses 5.0 and 4.0 (it answers
    # 2.0, where tanh rounds to 1); as a part of a tree it raises at once,
    # not again after the float fallback runs the tree on numpy scalars,
    # both in a compiled gain and in the Newton loop of invert (which
    # brackets through 1.0, 2.0 and 4.0)
    g = fc.GainFunction(lambda s: 2.0 * np.tanh(s), lambda s: 2.0 / np.cosh(s) ** 2,
                        probe_max=10.0, label="2*tanh(s)", point_exact=exact)
    inv = fc.inverse_gain(g)
    solve = "float" if exact else (1,)
    calls, _ = _counting(monkeypatch)
    with pytest.raises(fc.TargetOutOfRangeError, match="gain looks bounded"):
        fc.compose(fc.gain_from_expr("3*s"), inv)(5.0)
    assert calls == [solve]
    calls.clear()
    with pytest.raises(fc.TargetOutOfRangeError, match="gain looks bounded"):
        fc.invert(fc.compose(inv, fc.identity_gain()), 100.0)
    assert calls == ["float", solve, solve, solve]


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


def test_check_kl_fails_a_value_not_finite_by_name():
    nan = fc.check_kl(fc.KLFunction(lambda s, t: np.full(np.shape(s), np.nan)), n=8)
    assert not nan.passed and math.isnan(nan.worst_violation)
    assert nan.detail == "beta(0.0, 0.0) = nan is not finite"
    pole = fc.check_kl(fc.KLFunction(lambda s, t: s / (t - 50.0)), n=8)
    assert not pole.passed and pole.detail == "beta(0.0, 50.0) = nan is not finite"


# ---------------------------------------------------------------------------
# The closure constructions that gains were before they were trees, kept as
# the oracle of the trees: each tree gain equals its closure bit for bit.

class _Closure:
    """A gain as a chain of closures; without ``deriv_fn``, its slope is the
    central difference with step max(1e-6, 1e-6 s), one-sided at 0."""

    def __init__(self, fn, deriv_fn=None):
        self.fn, self.deriv_fn = fn, deriv_fn

    def __call__(self, s):
        return self.fn(s)

    def deriv(self, s):
        if self.deriv_fn is not None:
            return self.deriv_fn(s)
        h = np.maximum(1.0e-6, 1.0e-6 * np.abs(s))
        lo = np.maximum(np.asarray(s) - h, 0.0)
        hi = np.asarray(s) + h
        return (self.fn(hi) - self.fn(lo)) / (hi - lo)


def _closure_from_expr(text):
    e = ep.parse(text)
    fn, deriv = ep.compile_expr(e, ("s",)), None
    if ep.is_smooth(e):
        d = ep.differentiate(e, "s")
        deriv = ep.compile_expr(d, ("s",))
        if not d.variables():
            deriv = functools.partial(np.full_like, fill_value=float(deriv(0.0)), dtype=float)
    return _Closure(fn, deriv)


def _closure_compose(outer, inner):
    return _Closure(lambda s: outer(inner(s)), lambda s: outer.deriv(inner(s)) * inner.deriv(s))


def _closure_scale(c, g):
    return _Closure(lambda s: c * g(s), lambda s: c * g.deriv(s))


def _closure_alpha2_tilde(alpha2, mu, tau, pbar):
    c = max(tau * pbar / 2.0, 1.0)
    return _Closure(lambda s: c * (alpha2(s) + mu(s) + s),
                    lambda s: c * (alpha2.deriv(s) + mu.deriv(s) + 1.0))


class _Oracles:
    """Pairs each gain built through the constructions of `strictify` with
    its closure: a tree gain from text with the closure of its text, an
    opaque gain with itself, an inverse gain with the inverse of its gain's
    closure, and a construction with the construction of its parts'
    closures."""

    def __init__(self, monkeypatch):
        from strictlyap import strictify

        self.pairs = {}     # id(gain) -> (gain, closure)
        real = {name: getattr(strictify, name) for name in
                ("compose", "scale_gain", "inverse_gain", "build_alpha2_tilde", "_decay_gain")}

        def paired(name, closure_of):
            def construction(*args):
                gain = real[name](*args)
                self.pairs[id(gain)] = (gain, closure_of(*args))
                return gain
            monkeypatch.setattr(strictify, name, construction)

        paired("compose", lambda a, b: _closure_compose(self.of(a), self.of(b)))
        paired("scale_gain", lambda c, g: _closure_scale(c, self.of(g)))
        paired("build_alpha2_tilde", lambda a2, mu, tau, pbar: _closure_alpha2_tilde(
            self.of(a2), self.of(mu), tau, pbar))
        paired("inverse_gain", lambda g: real["inverse_gain"](fc.GainFunction(
            self.of(g), self.of(g).deriv, probe_max=g.probe_max, label=g.label,
            point_exact=g.point_exact)))
        paired("_decay_gain", lambda eps, w, a1: _closure_scale(
            eps, _closure_compose(self.of(w), self.of(a1))))

    def of(self, g):
        if id(g) in self.pairs:
            return self.pairs[id(g)][1]
        if g.fn is not None:
            return g
        closure = _closure_from_expr(g.label)
        self.pairs[id(g)] = (g, closure)
        return closure


_POINTS = np.concatenate([[0.0, 1.0e-300, 1.0e-9, 0.37, 1.0, 2.5, 17.0, 900.0],
                          np.geomspace(1.0e-6, 50.0, 41)])


def _assert_equals_closure(gain, closure):
    for f, g in ((gain, closure), (gain.deriv, closure.deriv)):
        with np.errstate(all="ignore"):
            batch = np.asarray(f(_POINTS), dtype=float)
            assert _bits(batch) == _bits(np.asarray(g(_POINTS), dtype=float)), gain.label
            assert batch.shape == _POINTS.shape
            for s in _POINTS.tolist():
                assert _bits(np.float64(f(s))) == _bits(np.float64(g(s))), (gain.label, s)


def test_every_gain_of_the_fixtures_and_sweep_equals_its_closure(monkeypatch, sweep_problems):
    from strictlyap.config import strictify_problem
    from strictlyap.decay import estimate_pe
    from strictlyap.errors import ValidationFailure
    from strictlyap.fixtures import FIXTURES, get_fixture

    oracles = _Oracles(monkeypatch)
    problems = [get_fixture(name) for name in FIXTURES] + sweep_problems(0) + sweep_problems(1)
    for problem in problems:
        for g in (problem.candidate.alpha1, problem.candidate.alpha2, problem.candidate.alpha3,
                  problem.mu, problem.chi, problem.omega, problem.mu_tilde):
            if g is not None:
                oracles.of(g)
        if problem.rate.pe is None:
            problem.rate = problem.rate.with_pe(
                estimate_pe(problem.rate, problem.tau).triple(certified=True))
        try:    # the gains are built before any check samples
            strictify_problem(problem, n_samples=200)
        except ValidationFailure:
            pass
    trees = [g for g, _ in oracles.pairs.values() if g.fn is None]
    assert len(trees) > 100 and "s" in {g.label for g in trees}    # a constant derivative
    assert any(g.label.startswith("inv(") for g, _ in oracles.pairs.values())
    for gain, closure in oracles.pairs.values():
        _assert_equals_closure(gain, closure)


@pytest.mark.parametrize("outer, inner", [("s*abs(s)", "2*s + s^2"), ("s^2", "s*abs(s)"),
                                          ("3*s", "s/3"), ("s + tanh(s)", "sqrt(s) + s")])
def test_constructions_of_non_smooth_and_linear_gains_equal_their_closures(outer, inner):
    # finite-difference slopes, constant derivatives and their compositions
    a, b = fc.gain_from_expr(outer), fc.gain_from_expr(inner)
    ca, cb = _closure_from_expr(outer), _closure_from_expr(inner)
    pairs = [(a, ca), (b, cb), (fc.compose(a, b), _closure_compose(ca, cb)),
             (fc.compose(b, a), _closure_compose(cb, ca)),
             (fc.scale_gain(0.3, a), _closure_scale(0.3, ca)),
             (build_alpha2_tilde(a, b, 1.5, 0.8), _closure_alpha2_tilde(ca, cb, 1.5, 0.8)),
             (_decay_gain(0.7, a, b), _closure_scale(0.7, _closure_compose(ca, cb)))]
    inv = fc.inverse_gain(b)
    pairs.append((fc.compose(a, inv), _closure_compose(ca, inv)))
    for gain, closure in pairs:
        assert gain.fn is None
        _assert_equals_closure(gain, closure)
