import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strictlyap import exprparse as ep


def ev(text, **env):
    return ep.parse(text).eval(env)


class TestParse:
    def test_sin_squared(self):
        e = ep.parse("sin(t)^2")
        assert isinstance(e, ep.BinOp) and e.op == "^"
        assert isinstance(e.left, ep.Call) and e.left.func == "sin"

    def test_negated_group(self):
        e = ep.parse("-(x1 + u1*cos(t))")
        assert isinstance(e, ep.Neg)
        assert ev("-(x1 + u1*cos(t))", x1=1.0, u1=2.0, t=0.0) == -3.0

    def test_remark_q_expression(self):
        e = ep.parse("max(0, u1 - abs(x1))^3")
        assert ev("max(0, u1 - abs(x1))^3", u1=2.0, x1=1.0) == 1.0
        assert ev("max(0, u1 - abs(x1))^3", u1=0.5, x1=1.0) == 0.0

    def test_precedence(self):
        assert ev("2 + 3*4") == 14.0
        assert ev("2*3^2") == 18.0
        assert ev("-3^2") == -9.0          # ^ binds tighter than unary minus
        assert ev("2^-1") == 0.5
        assert ev("2^3^2") == 512.0        # right-assoc
        assert ev("8 - 3 - 2") == 3.0
        assert ev("8/4/2") == 1.0

    def test_constants(self):
        assert ev("pi") == math.pi
        assert ev("e") == math.e

    def test_whitespace_insensitive(self):
        assert ev(" sin( t )^ 2", t=1.0) == ev("sin(t)^2", t=1.0)

    def test_syntax_error_position(self):
        with pytest.raises(ep.ExpressionSyntaxError) as ei:
            ep.parse("sin(t) +")
        assert ei.value.column == 9

    def test_syntax_error_line(self):
        with pytest.raises(ep.ExpressionSyntaxError) as ei:
            ep.parse("1 +\n* 2")
        assert ei.value.line == 2

    def test_unknown_identifier(self):
        with pytest.raises(ep.UnknownIdentifierError):
            ep.parse("foo + 1")
        with pytest.raises(ep.UnknownIdentifierError):
            ep.parse("sinh(t)")

    def test_arity_error(self):
        with pytest.raises(ep.ArityError):
            ep.parse("max(1)")
        with pytest.raises(ep.ArityError):
            ep.parse("sin(1, 2)")


class TestEval:
    def test_sin_squared_at_pi_half(self):
        assert ev("sin(t)^2", t=math.pi / 2) == pytest.approx(1.0, abs=1e-12)

    def test_product(self):
        assert ev("x1*x2", x1=1.0, x2=1.0) == 1.0

    def test_rigid_body_delta2(self):
        # second backstepping law at t = 0, state (0, 1, 0)
        text = "-(1 + sin(t)*x1 + sin(t)^2)*x2 - (2*sin(t) + cos(t))*x3"
        assert ev(text, t=0.0, x1=0.0, x2=1.0, x3=0.0) == -1.0

    def test_unbound_variable(self):
        with pytest.raises(ep.UnboundVariableError):
            ev("x1 + x2", x1=1.0)

    def test_domain_errors(self):
        with pytest.raises(ep.EvalDomainError):
            ev("log(t)", t=-1.0)
        with pytest.raises(ep.EvalDomainError):
            ev("1/t", t=0.0)
        with pytest.raises(ep.EvalDomainError):
            ev("t^0.5", t=-2.0)

    def test_deterministic(self):
        vals = {ev("sin(t)*exp(x1)", t=0.37, x1=1.1) for _ in range(5)}
        assert len(vals) == 1


class TestRoundTrip:
    CORPUS = [
        "sin(t)^2",
        "-(x1 + u1*cos(t))",
        "max(0, u1 - abs(x1))^3",
        "0.5*(x1^2 + (x2 + sin(t)*x3)^2 + x3^2)",
        "-x1 - x2*x3 + cos(t)",
        "2^-3",
        "1 - (2 - 3)",
        "x1/(x2/4)",
        "-x1^2",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_print_parse_same_value(self, text):
        e = ep.parse(text)
        e2 = ep.parse(ep.to_text(e))
        rng = np.random.default_rng(0)
        for _ in range(20):
            env = {v: rng.uniform(0.1, 2.0) for v in e.variables()}
            assert e2.eval(env) == pytest.approx(e.eval(env), abs=1e-12)

    @pytest.mark.parametrize("text", ["1e400*t", "-1e400*t"])
    def test_infinite_literal_round_trip(self, text):
        e = ep.parse(text)
        assert ep.parse(ep.to_text(e)) == e
        assert ep.parse(ep.to_text(e)).eval({"t": 2.0}) == e.eval({"t": 2.0})

    def test_folded_nan_round_trip(self):
        d = ep.differentiate(ep.parse("1e400*t - 1e400*t"), "t")
        assert isinstance(d, ep.Num) and math.isnan(d.value)
        back = ep.parse(ep.to_text(d))
        assert math.isnan(back.eval({}))
        assert math.isnan(ep.compile_expr(back, ("t",))(0.0))
        assert ep.to_text(ep.parse(ep.to_text(back))) == ep.to_text(back)

    # operands nested on the right, as differentiate builds them, keep their
    # grouping
    @pytest.mark.parametrize("text", ["x1*(x2*x3)", "x1 + (x2 + x3)", "x1 + (x2 - x3)",
                                      "x1/(x2*x3)", "x1*(x2/x3)", "x1 - (x2 + x3)",
                                      "x1^x2^x3", "(x1^x2)^x3", "-x1*-(x2*x3)"])
    def test_print_parse_gives_the_same_tree(self, text):
        e = ep.parse(text)
        assert ep.parse(ep.to_text(e)) == e

    def test_right_operand_of_equal_precedence_keeps_parentheses(self):
        assert ep.to_text(ep.parse("x1*(x2*x3)")) == "x1 * (x2 * x3)"
        assert ep.to_text(ep.parse("(x1*x2)*x3")) == "x1 * x2 * x3"
        assert ep.to_text(ep.parse("x1^(x2^x3)")) == "x1^x2^x3"

    def test_candidate_with_an_infinite_coefficient_loads(self):
        from strictlyap.config import candidate_from_exprs

        c = candidate_from_exprs("1e400*x1^2", 1, "s^2", "s^2", "s")
        assert c.V(0.0, np.array([1.0])) == math.inf
        assert c.grad_x(0.0, np.array([1.0]))[0] == math.inf


# random AST strategy for the round-trip property
def _exprs(depth, ops="+-*"):
    leaf = st.one_of(
        st.floats(min_value=0.1, max_value=5.0).map(lambda v: ep.Num(round(v, 3))),
        st.sampled_from(["t", "s", "x1", "x2", "u1"]).map(ep.Var),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1, ops)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(ops), sub, sub).map(lambda o: ep.BinOp(o[0], o[1], o[2])),
        sub.map(ep.Neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "tanh"]), sub).map(
            lambda o: ep.Call(o[0], (o[1],))),
        st.tuples(st.sampled_from(["max", "min"]), sub, sub).map(
            lambda o: ep.Call(o[0], (o[1], o[2]))),
    )


@settings(max_examples=60, deadline=None)
@given(_exprs(3))
def test_roundtrip_property(e):
    text = ep.to_text(e)
    e2 = ep.parse(text)
    rng = np.random.default_rng(1)
    for _ in range(5):
        env = {v: rng.uniform(0.0, 3.0) for v in ("t", "s", "x1", "x2", "u1")}
        assert e2.eval(env) == pytest.approx(e.eval(env), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(_exprs(3, ops="+-*/^"))
def test_print_parse_gives_the_same_tree_property(e):
    assert ep.parse(ep.to_text(e)) == e


def _v_derivatives(problem):
    """V's derivatives in t and each state, as `differentiate` builds them."""
    v = ep.parse(problem.expressions["V"])
    if not ep.is_smooth(v):
        return []
    return [ep.differentiate(v, var)
            for var in ("t", *(f"x{i+1}" for i in range(problem.system.n)))]


def test_v_derivatives_print_and_parse_back(sweep_problems):
    from strictlyap.fixtures import FIXTURES

    problems = [build() for build in FIXTURES.values()]
    problems += sweep_problems(0) + sweep_problems(1)
    trees = [d for problem in problems for d in _v_derivatives(problem)]
    assert len(trees) > len(problems)
    for d in trees:
        assert ep.parse(ep.to_text(d)) == d, ep.to_text(d)


class TestWalk:
    def test_children_of_each_node_type(self):
        e = ep.parse("-x1 + max(t, 2)")
        neg, call = e.children()
        assert isinstance(neg, ep.Neg) and neg.children() == (ep.Var("x1"),)
        assert call.children() == (ep.Var("t"), ep.Num(2.0))
        assert ep.Num(2.0).children() == () and ep.Var("t").children() == ()

    def test_walk_visits_every_node_once(self):
        e = ep.parse("x1*(x2 + sin(x1)) - 3")
        assert len(list(e.walk())) == 8
        assert e.variables() == {"x1", "x2"}
        assert ep.parse("2*pi").variables() == set()

    @pytest.mark.parametrize("text, smooth", [
        ("x1^2 + sin(t)", True), ("2", True), ("-abs(x1)", False),
        ("exp(max(x1, 0))", False), ("x1/(1 + min(t, 1))", False),
    ])
    def test_is_smooth(self, text, smooth):
        assert ep.is_smooth(ep.parse(text)) is smooth


class TestDifferentiate:
    def test_power_rule(self):
        d = ep.differentiate(ep.parse("x1^2"), "x1")
        assert d.eval({"x1": 3.0}) == 6.0
        assert "2" in ep.to_text(d) and "x1" in ep.to_text(d)

    def test_product_with_time(self):
        d = ep.differentiate(ep.parse("sin(t)*x3"), "t")
        assert d.eval({"t": 0.0, "x3": 2.0}) == 2.0

    def test_non_smooth_rejected(self):
        with pytest.raises(ep.NonSmoothPrimitiveError):
            ep.differentiate(ep.parse("abs(x1)"), "x1")
        with pytest.raises(ep.NonSmoothPrimitiveError):
            ep.differentiate(ep.parse("max(0, x1)^3"), "x1")

    SMOOTH = [
        "sin(t)^2",
        "0.5*(x1^2 + (x2 + sin(t)*x3)^2 + x3^2)",
        "exp(-t)*x1 + tanh(x2)",
        "sqrt(x1^2 + 1)",
        "log(2 + x1^2)/(1 + x2^2)",
        "t^3 - 2*t + cos(t)*sin(t)",
        "x1^x2",
    ]

    # pairs whose variable occurs in the expression, so that no case is skipped
    SMOOTH_PAIRS = [(var, text) for var, text in itertools.product(("t", "x1", "x2"), SMOOTH)
                    if var in ep.parse(text).variables()]

    @pytest.mark.parametrize("var,text", SMOOTH_PAIRS)
    def test_matches_finite_differences(self, var, text):
        e = ep.parse(text)
        d = ep.differentiate(e, var)
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(100):
            env = {v: rng.uniform(0.3, 2.0) for v in e.variables()}
            hi = dict(env, **{var: env[var] + h})
            lo = dict(env, **{var: env[var] - h})
            fd = (e.eval(hi) - e.eval(lo)) / (2 * h)
            sym = d.eval(env)
            assert sym == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_zero_one_folding(self):
        d = ep.differentiate(ep.parse("x1 + 5"), "x1")
        assert isinstance(d, ep.Num) and d.value == 1.0
        d = ep.differentiate(ep.parse("3*x1"), "x1")
        assert isinstance(d, ep.Num) and d.value == 3.0


class TestCompile:
    def test_scalar_and_vector_agree(self):
        f = ep.compile_expr("sin(t)^2 + x1*u1", ("t", "x1", "u1"))
        t = np.linspace(0, 5, 11)
        x = np.linspace(-1, 1, 11)
        u = np.linspace(0, 2, 11)
        vec = f(t, x, u)
        for i in range(11):
            assert f(float(t[i]), float(x[i]), float(u[i])) == pytest.approx(vec[i], abs=1e-14)

    def test_missing_argument_rejected(self):
        with pytest.raises(ep.UnboundVariableError):
            ep.compile_expr("x1 + x2", ("x1",))

    def test_parse_over_checks_a_text_or_a_tree(self):
        tree = ep.parse("x1 + t")
        assert ep.parse_over("x1 + t", ("t", "x1")) == tree
        assert ep.parse_over(tree, ["x1", "t", "u1"]) is tree
        message = "expression uses ['u1', 'x2'] not among arguments ['t', 'x1']"
        for e in ("x2 + u1 + x1", ep.parse("x2 + u1 + x1")):
            with pytest.raises(ep.UnboundVariableError) as info:
                ep.parse_over(e, ("t", "x1"))
            assert str(info.value) == message

    def test_scalar_domain_error(self):
        # math.log refuses -1: the float call gives the batch row's nan
        f = ep.compile_expr("log(t)", ("t",))
        with np.errstate(invalid="ignore"):
            row = f(np.array([-1.0]))
        assert math.isnan(row[0])
        for value in (f(-1.0), f.math(-1.0)):
            assert type(value) is float and math.isnan(value)
        # the float path is the generated function itself, with no wrapper
        assert f.math.__code__.co_filename == "<generated>"


class TestFusedCompile:
    TEXTS = ["sin(t)^2 + x1*u1", "-(1 + sin(t)*x1 + sin(t)^2)*x2", "2.5",
             "max(0, u1 - abs(x1))^3", "x2/(1 + x1^2) - tanh(u1)"]
    ARGS = ("t", "x1", "x2", "u1")

    def test_agrees_with_per_component_on_floats(self):
        fused = ep.compile_expr(self.TEXTS, self.ARGS)
        singles = [ep.compile_expr(txt, self.ARGS) for txt in self.TEXTS]
        rng = np.random.default_rng(3)
        for row in rng.normal(size=(50, 4)) * 3.0:
            args = row.tolist()
            out = fused(*args)
            assert isinstance(out, tuple)
            assert out == tuple(f(*args) for f in singles)

    def test_agrees_with_per_component_on_arrays(self):
        fused = ep.compile_expr(self.TEXTS, self.ARGS)
        singles = [ep.compile_expr(txt, self.ARGS) for txt in self.TEXTS]
        cols = list(np.random.default_rng(4).normal(size=(4, 200)) * 3.0)
        for a, b in zip(fused(*cols), (f(*cols) for f in singles)):
            assert np.array_equal(a, b)

    def test_exposes_expressions_and_arguments(self):
        fused = ep.compile_expr(self.TEXTS, self.ARGS)
        assert fused.expr == tuple(ep.parse(txt) for txt in self.TEXTS)
        assert fused.arg_names == self.ARGS

    def test_single_and_empty_sequences(self):
        assert ep.compile_expr(["x1 + 1"], ("x1",))(2.0) == (3.0,)
        assert ep.compile_expr([], ("t",))(0.5) == ()
        assert ep.compile_expr([], ("t",)).math(0.5) == ()
        # no arguments at all
        assert ep.compile_expr("2.5*pi", ())() == 2.5 * math.pi
        s = math.sin(0.5)
        assert ep.compile_expr(["1", "sin(0.5)^2"], ())() == (1.0, s * s)

    def test_scalar_domain_error_and_missing_argument(self):
        fused = ep.compile_expr(["t", "log(t)"], ("t",))
        with np.errstate(invalid="ignore"):
            row = [c[0] for c in fused(np.array([-1.0]))]
        for values in (fused(-1.0), fused.math(-1.0)):
            assert [type(v) for v in values] == [float, float]
            assert values[0] == row[0] == -1.0
            assert math.isnan(values[1]) and math.isnan(row[1])
        with pytest.raises(ep.UnboundVariableError):
            ep.compile_expr(["x1", "x2"], ("x1",))


class TestEmitter:
    def test_signed_zeros_stay_apart(self):
        # Num(0.0) == Num(-0.0): numbering on Expr equality would merge them
        x1 = ep.Var("x1")
        plus, minus = ep.BinOp("*", x1, ep.Num(0.0)), ep.BinOp("*", x1, ep.Num(-0.0))
        both = ep.compile_expr(ep.BinOp("+", plus, minus), ("x1",))
        assert math.copysign(1.0, both(-1.0)) == 1.0     # -0.0 + 0.0
        assert math.copysign(1.0, both(np.array([-1.0]))[0]) == 1.0
        pair = ep.compile_expr([plus, minus], ("x1",))
        assert [math.copysign(1.0, v) for v in pair(1.0)] == [1.0, -1.0]
        assert [math.copysign(1.0, v[0]) for v in pair(np.array([1.0]))] == [1.0, -1.0]

    def test_shared_subtree_computed_once(self, monkeypatch):
        # the rigid-body closed loop names sin(t) four times
        from strictlyap.fixtures import rigid_body

        texts = [rigid_body().expressions[f"f{i}"] for i in (1, 2, 3)]
        args = ("t", "x1", "x2", "x3", "u1", "u2")
        reference = ep.compile_expr(texts, args)
        calls = []

        def sin(a):
            calls.append(a)
            return math.sin(a)

        monkeypatch.setitem(ep._SCALAR_NS, "sin", sin)
        f = ep.compile_expr(texts, args)
        point = (0.3, 1.0, -1.0, 2.0, 0.1, 0.2)
        assert f.math(*point) == reference.math(*point)
        assert calls == [0.3]
        for value, text in zip(f(*point), texts):
            env = dict(zip(args, point))
            assert value == pytest.approx(ep.parse(text).eval(env), rel=1e-15, abs=1e-15)

    def test_small_powers_are_products(self, monkeypatch):
        def no_pow(a, b):
            raise AssertionError("small powers must not call _pow")

        monkeypatch.setitem(ep._SCALAR_NS, "_pow", no_pow)
        monkeypatch.setitem(ep._VECTOR_NS, "_pow", no_pow)
        f = ep.compile_expr("x1^1 + (x1 + 1)^2 + cos(x1)^3", ("x1",))
        y = 1.0 + 1.0
        c = math.cos(1.0)
        assert f(1.0) == (1.0 + y * y) + (c * c) * c
        assert f(np.array([1.0]))[0] == f(1.0)
        with pytest.raises(AssertionError):
            ep.compile_expr("x1^4", ("x1",))(1.0)

    def test_fractional_power_of_negative_base_raises(self):
        # a float ** would give a complex number: the float call gives the
        # batch row's nan
        f = ep.compile_expr("x1^2.5", ("x1",))
        assert math.isnan(f(-2.0)) and math.isnan(f.math(-2.0))
        with np.errstate(invalid="ignore"):
            assert np.isnan(f(np.array([-2.0]))[0])
        assert ep.compile_expr("x1^2", ("x1",))(-3.0) == 9.0

    def test_square_overflows_to_inf_on_both_paths(self):
        # a product overflows to inf where Python's float ** raised
        f = ep.compile_expr("x1^2", ("x1",))
        assert f(1e200) == math.inf and f.math(1e200) == math.inf
        with np.errstate(over="ignore"):
            assert f(np.array([1e200]))[0] == f(1e200)

    @pytest.mark.parametrize("text", ["1e400*t", "-1e400*t"])
    def test_non_finite_literal(self, text):
        # 1e400 parses to Num(inf), whose repr names no binding
        f = ep.compile_expr(text, ("t",))
        ts = [2.0, -0.5]
        expected = [ep.parse(text).eval({"t": t}) for t in ts]
        assert [f(t) for t in ts] == [f.math(t) for t in ts] == expected
        assert f(np.array(ts)).tolist() == expected

    def test_non_finite_constants_from_folding(self):
        # constant folding in differentiate (Num(a) * Num(b)) can make
        # Num(-inf) and Num(nan)
        t = ep.Var("t")
        f = ep.compile_expr([ep.BinOp("*", ep.Num(-math.inf), t),
                             ep.BinOp("+", ep.Num(math.nan), t)], ("t",))
        neg, nan = f(1.0)
        assert neg == -math.inf and math.isnan(nan)
        neg, nan = f(np.array([1.0]))
        assert neg[0] == -math.inf and math.isnan(nan[0])


# ---------------------------------------------------------------------------
# A point and a batch of one compile give the same bits

# exp, log, tan and tanh are left out: math and numpy may differ in their
# last bits (no fixture or sweep expression uses them)
_DIFFERING = {"exp", "log", "tan", "tanh"}
_ARGS = ("t", "s", "x1", "x2", "x3", "u1", "u2", "u3", "u4")
_N_POINTS = 10_000


def _fixture_texts(problem) -> list[str]:
    texts = list(problem.expressions.values())
    v = ep.parse(problem.expressions["V"])
    if ep.is_smooth(v):
        n = problem.system.n
        texts += [ep.to_text(ep.differentiate(v, var))
                  for var in ("t", *(f"x{i+1}" for i in range(n)))]
    if problem.vsharp_coefficient_text:
        texts.append(problem.vsharp_coefficient_text)
    for run in problem.sim.runs:
        if run.signal.label != "0":
            texts += run.signal.label.split(", ")
    return texts


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.fixture(scope="module")
def halton_points():
    from strictlyap._numerics import halton

    return 8.0 * halton(len(_ARGS), _N_POINTS, seed=16) - 4.0


def _assert_point_equals_batch(texts, points):
    used = set()
    for text in texts:
        e = ep.parse(text)
        assert not e.variables() - set(_ARGS)
        used |= {name for name in _DIFFERING if name + "(" in text}
    assert not used, f"{sorted(used)} may differ between math and numpy"
    cols = list(points.T)
    rows = points.tolist()
    for compiled in [ep.compile_expr(texts, _ARGS),
                     *(ep.compile_expr(text, _ARGS) for text in texts)]:
        fused = isinstance(compiled.expr, tuple)
        batch = compiled(*cols) if fused else (compiled(*cols),)
        batch = np.stack([np.broadcast_to(np.asarray(b, dtype=float), (len(rows),))
                          for b in batch], axis=1)
        point = [compiled.math(*row) for row in rows]
        point = np.array(point if fused else [[v] for v in point], dtype=float)
        assert point.shape == batch.shape
        mismatch = np.flatnonzero((_bits(point) != _bits(batch)).any(axis=1))
        assert mismatch.size == 0, (compiled.expr, rows[mismatch[0]])


@pytest.mark.parametrize("name", ["rigid-body", "counterexample-elw", "scalar-linear"])
def test_fixture_point_equals_batch(name, halton_points):
    from strictlyap.fixtures import get_fixture

    _assert_point_equals_batch(_fixture_texts(get_fixture(name)), halton_points)


def test_sweep_point_equals_batch(sweep_problems, halton_points):
    texts = {t: None for problem in sweep_problems(0) for t in _fixture_texts(problem)}
    _assert_point_equals_batch(list(texts), halton_points)


@pytest.mark.parametrize("text, exact", [
    ("2.5", True), ("s", True), ("-s", True),
    ("s + 1", True), ("s - 1", True), ("3*s", True), ("s/2", True),
    ("s^1", True), ("s^2", True), ("(s + 1)^3", True), ("0.5*s^2 + s", True),
    ("abs(s)", True), ("sqrt(s)", True), ("sqrt(abs(s)) + s/3", True),
    ("s^4", False), ("s^0.5", False), ("s^s", False), ("s^(1 + 1)", False), ("s^-2", False),
    ("exp(s)", False), ("log(s + 1)", False), ("tan(s)", False), ("tanh(s)", False),
    ("sin(s)", False), ("cos(s)", False), ("max(s, 1)", False), ("min(s, 2*s)", False),
    ("s + 2*exp(s)", False), ("-tanh(s)", False), ("sqrt(s^4)", False),
])
def test_is_point_exact(text, exact):
    assert ep.is_point_exact(ep.parse(text)) is exact


def _same_value(a: float, b: float) -> bool:
    """Equal bit for bit, or both NaN."""
    return _bits(a) == _bits(b) or (math.isnan(a) and math.isnan(b))


def _package_texts(source, tmp_path, sweep_inis) -> list[str]:
    """Every expression of ``source``: the three fixtures, the README INI or
    the benchmark's 12 seed-0 sweep INIs."""
    from strictlyap.config import load_problem
    from strictlyap.fixtures import FIXTURES, get_fixture

    if source == "fixtures":
        problems = [get_fixture(name) for name in FIXTURES]
    elif source == "readme":
        readme = Path(__file__).resolve().parent.parent / "README.md"
        ini = tmp_path / "readme.ini"
        ini.write_text(re.search(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"),
                                 re.S).group(1), encoding="utf-8")
        problems = [load_problem(ini)]
    else:
        problems = [load_problem(ini) for ini in sweep_inis(0)]
    return list({t: None for problem in problems for t in _fixture_texts(problem)})


# where math raises (domain, division by zero, overflow) and numpy does not,
# and where Python's max and min differ from numpy's: a NaN operand, and a
# tie of signed zeros (numpy gives the second operand)
_EDGE_POINTS = [("log(x1)", -1.0), ("log(x1)", 0.0), ("1/x1", 0.0), ("x1/x1", 0.0),
                ("exp(x1)", 1000.0), ("x1^2.5", -2.0), ("sqrt(x1)", -1.0),
                *((text, x) for text in ("max(0, x1)", "min(x1, 0)")
                  for x in (math.nan, math.inf, -math.inf, 0.0, -0.0))]


@pytest.mark.parametrize("source", ["fixtures", "readme", "sweep-seed-0", "edge-points"])
def test_float_call_is_the_batch_row(source, tmp_path, sweep_inis, halton_points):
    """A call on floats, dispatched or through ``.math``, returns Python
    floats equal to the batch row, also where ``math`` refuses the value."""
    if source == "edge-points":
        cases = [(text, [[x] + [0.0] * (len(_ARGS) - 1)]) for text, x in _EDGE_POINTS]
        args = ("x1", *(a for a in _ARGS if a != "x1"))
    else:
        extremes = [[v] * len(_ARGS) for v in (0.0, 1.0e200, -1.0e200)]
        rows = extremes + halton_points[:64].tolist()
        cases = [(text, rows) for text in _package_texts(source, tmp_path, sweep_inis)]
        args = _ARGS
    assert cases
    for text, rows in cases:
        f = ep.compile_expr(text, args)
        with np.errstate(all="ignore"):
            batch = np.broadcast_to(np.asarray(f(*np.array(rows).T), dtype=float),
                                    (len(rows),))
        for row, expected in zip(rows, batch.tolist()):
            for value in (f(*row), f.math(*row)):
                assert type(value) is float, (text, row)
                assert _same_value(value, expected), (text, row, value, expected)
