import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strictlyap import exprparse as ep


def ev(text, **env):
    return ep.evaluate(ep.parse(text), env)


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
            assert ep.evaluate(e2, env) == pytest.approx(ep.evaluate(e, env), abs=1e-12)


# random AST strategy for the round-trip property
def _exprs(depth):
    leaf = st.one_of(
        st.floats(min_value=0.1, max_value=5.0).map(lambda v: ep.Num(round(v, 3))),
        st.sampled_from(["t", "s", "x1", "x2", "u1"]).map(ep.Var),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*"), sub, sub).map(lambda o: ep.BinOp(o[0], o[1], o[2])),
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
        assert ep.evaluate(e2, env) == pytest.approx(ep.evaluate(e, env), abs=1e-12)


class TestDifferentiate:
    def test_power_rule(self):
        d = ep.differentiate(ep.parse("x1^2"), "x1")
        assert ep.evaluate(d, {"x1": 3.0}) == 6.0
        assert "2" in ep.to_text(d) and "x1" in ep.to_text(d)

    def test_product_with_time(self):
        d = ep.differentiate(ep.parse("sin(t)*x3"), "t")
        assert ep.evaluate(d, {"t": 0.0, "x3": 2.0}) == 2.0

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
            fd = (ep.evaluate(e, hi) - ep.evaluate(e, lo)) / (2 * h)
            sym = ep.evaluate(d, env)
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

    def test_scalar_domain_error(self):
        f = ep.compile_expr("log(t)", ("t",))
        with pytest.raises(ep.EvalDomainError):
            f(-1.0)


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

    def test_scalar_domain_error_and_missing_argument(self):
        fused = ep.compile_expr(["t", "log(t)"], ("t",))
        with pytest.raises(ep.EvalDomainError):
            fused(-1.0)
        with pytest.raises(ep.UnboundVariableError):
            ep.compile_expr(["x1", "x2"], ("x1",))
