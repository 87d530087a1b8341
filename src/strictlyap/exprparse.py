"""Tiny scalar expression language: parsing, evaluation, symbolic derivatives.

The grammar covers number literals, the variables ``t``, ``s``, ``x1..xn``,
``u1..um``, the binary operators ``+ - * / ^`` (with ``^`` right-associative
and binding tighter than unary minus), the calls ``sin cos tan exp log sqrt
abs max min tanh`` and the constants ``pi`` and ``e``.  Everything the rest
of the package consumes (vector fields, Lyapunov candidates, decay rates,
gains, signals) is declared in this language.

``Expr.walk`` visits every node through its ``children()``, and ``Expr.eval``
is the reference scalar evaluator with strict error reporting.
``parse_over`` is the one checked parse: the tree of a text or a tree whose
variables are all among given argument names, else UnboundVariableError;
``compile_expr`` and the config loader both check variables through it.  The trees
`differentiate` builds are compiled as built.  ``parse(to_text(e)) == e`` for
every tree whose literals are finite and not negative (only folding makes
others; they read back as the same value, ``-2.0`` as ``Neg(Num(2.0))``).
``compile_expr`` turns an expression, or a sequence of them (the components
of a vector field, returned as a tuple), into one generated ``def`` whose
source is compiled (`compiled` keeps the code of recent texts) and bound
twice: to the ``math`` functions for plain floats and to the numpy
functions for arrays, dispatched per call.  A float call that ``math``
refuses (``FLOAT_ERRORS``) runs again on numpy scalars and gives its batch
row's values, inf or nan, so no caller handles these errors; an error of an
`Apply` callable itself propagates (`passing`).  The float path alone is
the ``math`` attribute; both carry the expressions and argument names as
``expr`` and ``arg_names``.  The emitter, `body_lines`, numbers the
subtrees by value, so a subtree that occurs more than once is computed
once, and writes a constant exponent of 1, 2 or 3 as ``a``, ``a*a`` and
``(a*a)*a``.  A point and a batch of one compile therefore give the same
bits wherever the float operations and the ``math`` functions agree with
numpy.  The emitter gives statements and
result texts, with variables renamed and temporaries prefixed as asked, so
the integrator writes a field's expressions out in its RK4 loop, and
`funcalc` a gain's in its inversion loop, the way ``compile_expr`` writes
them in its function, with the same bits.  An `Apply` node calls a Python
callable the language cannot write, by a name the caller binds.
IEEE 754 rounds ``+ - * /`` and ``sqrt`` correctly, so both paths
agree on them, on the small powers, on unary minus and on ``abs``; a tree
built from these alone is *point-exact* (`is_point_exact`).  ``exp log tan
tanh`` and the other powers are not correctly rounded and differ in the
last bits between ``math`` and numpy.  ``sin cos`` agree on common builds,
but IEEE does not guarantee it, so neither is point-exact.  ``max min``
follow numpy's rule on floats too (a NaN operand wins, a tie gives the
second operand), so they agree as well; they are left out of the
point-exact set only because adding them would move gains onto the float
inversion route, which was measured on the set as it stands.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Collection, Iterator, Mapping, Sequence

import numpy as np


class ExpressionError(Exception):
    """Base class for parse/eval failures.  A parse error carries its 1-based
    line and column and names them in its message; any other carries None."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message if line is None
                         else f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ExpressionSyntaxError(ExpressionError):
    pass


class UnknownIdentifierError(ExpressionError):
    pass


class ArityError(ExpressionError):
    pass


class UnboundVariableError(ExpressionError):
    pass


class EvalDomainError(ExpressionError):
    pass


class NonSmoothPrimitiveError(ExpressionError):
    """Raised when differentiating through abs/max/min."""


_VAR_RE = re.compile(r"^(t|s|x[0-9]+|u[0-9]+)$")

_FUNCTIONS: dict[str, int] = {
    "sin": 1, "cos": 1, "tan": 1, "exp": 1, "log": 1, "sqrt": 1,
    "abs": 1, "tanh": 1, "max": 2, "min": 2,
}
_CONSTANTS = {"pi": math.pi, "e": math.e}
_NON_SMOOTH = {"abs", "max", "min"}


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Expr:
    """Immutable expression node."""

    def eval(self, env: Mapping[str, float]) -> float:
        raise NotImplementedError

    def children(self) -> tuple[Expr, ...]:
        """The operands of this node; a leaf has none."""
        return ()

    def walk(self) -> Iterator[Expr]:
        """Every node of the tree, this one first, then each child's walk in
        order; one generator, so a node costs the same at any depth."""
        stack = [self]
        while stack:
            e = stack.pop()
            yield e
            stack.extend(reversed(e.children()))

    def variables(self) -> set[str]:
        return {e.name for e in self.walk() if isinstance(e, Var)}

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def eval(self, env):
        return self.value


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def eval(self, env):
        try:
            return float(env[self.name])
        except KeyError:
            raise UnboundVariableError(f"unbound variable '{self.name}'") from None


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def eval(self, env):
        return -self.arg.eval(env)

    def children(self):
        return (self.arg,)


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr

    def eval(self, env):
        a = self.left.eval(env)
        b = self.right.eval(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            if b == 0.0:
                raise EvalDomainError("division by zero")
            return a / b
        # power: guard the cases where float ** would go complex or raise
        if a < 0.0 and b != round(b):
            raise EvalDomainError("negative base with fractional exponent")
        try:
            return float(a ** b)
        except (OverflowError, ZeroDivisionError) as exc:
            raise EvalDomainError(str(exc)) from None

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple[Expr, ...]

    def eval(self, env):
        vals = [a.eval(env) for a in self.args]
        f = self.func
        try:
            if f == "abs":
                return abs(vals[0])
            if f == "max":
                return max(vals[0], vals[1])
            if f == "min":
                return min(vals[0], vals[1])
            return getattr(math, f)(*vals)
        except ValueError as exc:
            raise EvalDomainError(f"{f}: {exc}") from None

    def children(self):
        return self.args


@dataclass(frozen=True)
class Apply(Expr):
    """``fn(arg)`` for a Python callable the language cannot write, such as
    an opaque gain inside a gain's tree, for `body_lines` to call by name.
    ``exact`` promises that fn at a float equals its batch element bit for
    bit (see `is_point_exact`).  It has no text and no symbolic derivative."""

    fn: Callable
    arg: Expr
    exact: bool = False

    def children(self):
        return (self.arg,)


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""(?P<num>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^(),])
      | (?P<ws>\s+)
      | (?P<bad>.)""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | end
    text: str
    line: int
    column: int


def _tokenize(text: str) -> Iterator[_Token]:
    line, col_base = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok = m.group()
        col = m.start() - col_base + 1
        if kind == "ws":
            nl = tok.count("\n")
            if nl:
                line += nl
                col_base = m.start() + tok.rfind("\n") + 1
            continue
        if kind == "bad":
            raise ExpressionSyntaxError(f"unexpected character {tok!r}", line, col)
        yield _Token(kind, tok, line, col)
    yield _Token("end", "", line, len(text) - col_base + 1)


# ---------------------------------------------------------------------------
# Parser (recursive descent; ^ right-assoc > unary - > * / > + -)

class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def _advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def _expect(self, text: str) -> _Token:
        tok = self.cur
        if tok.kind != "op" or tok.text != text:
            raise ExpressionSyntaxError(
                f"expected {text!r}, found {tok.text or 'end of input'!r}",
                tok.line, tok.column)
        return self._advance()

    def parse(self) -> Expr:
        e = self._sum()
        tok = self.cur
        if tok.kind != "end":
            raise ExpressionSyntaxError(
                f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
        return e

    def _sum(self) -> Expr:
        e = self._term()
        while self.cur.kind == "op" and self.cur.text in "+-":
            op = self._advance().text
            e = BinOp(op, e, self._term())
        return e

    def _term(self) -> Expr:
        e = self._unary()
        while self.cur.kind == "op" and self.cur.text in "*/":
            op = self._advance().text
            e = BinOp(op, e, self._unary())
        return e

    def _unary(self) -> Expr:
        if self.cur.kind == "op" and self.cur.text == "-":
            self._advance()
            return Neg(self._unary())
        if self.cur.kind == "op" and self.cur.text == "+":
            self._advance()
            return self._unary()
        return self._power()

    def _power(self) -> Expr:
        base = self._atom()
        if self.cur.kind == "op" and self.cur.text == "^":
            self._advance()
            # right-assoc; allow a signed exponent like 2^-3
            return BinOp("^", base, self._unary())
        return base

    def _atom(self) -> Expr:
        tok = self.cur
        if tok.kind == "num":
            self._advance()
            return Num(float(tok.text))
        if tok.kind == "name":
            self._advance()
            name = tok.text
            if self.cur.kind == "op" and self.cur.text == "(":
                if name not in _FUNCTIONS:
                    raise UnknownIdentifierError(
                        f"unknown function '{name}'", tok.line, tok.column)
                self._advance()
                args = [self._sum()]
                while self.cur.kind == "op" and self.cur.text == ",":
                    self._advance()
                    args.append(self._sum())
                self._expect(")")
                if len(args) != _FUNCTIONS[name]:
                    raise ArityError(
                        f"{name} takes {_FUNCTIONS[name]} argument(s), got {len(args)}",
                        tok.line, tok.column)
                return Call(name, tuple(args))
            if name in _CONSTANTS:
                return Num(_CONSTANTS[name])
            if name in _FUNCTIONS:
                raise ExpressionSyntaxError(
                    f"function '{name}' used without arguments", tok.line, tok.column)
            if not _VAR_RE.match(name):
                raise UnknownIdentifierError(
                    f"unknown identifier '{name}'", tok.line, tok.column)
            return Var(name)
        if tok.kind == "op" and tok.text == "(":
            self._advance()
            e = self._sum()
            self._expect(")")
            return e
        raise ExpressionSyntaxError(
            f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.column)


def parse(text: str) -> Expr:
    """Parse an expression string into an AST."""
    return _Parser(text).parse()


def parse_over(e: Expr | str, arg_names: Sequence[str]) -> Expr:
    """The tree of ``e``, a text or a tree, whose variables are all among
    ``arg_names``; UnboundVariableError names the others."""
    tree = parse(e) if isinstance(e, str) else e
    missing = tree.variables() - set(arg_names)
    if missing:
        raise UnboundVariableError(
            f"expression uses {sorted(missing)} not among arguments {list(arg_names)}")
    return tree


# ---------------------------------------------------------------------------
# Printing (round-trips through parse; see the module docstring)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
# Non-finite literals (folded from, say, 1e400) have no name in the grammar:
# 1e999 reads back as inf, and inf - inf is nan
_NON_FINITE_TEXT = {"inf": "1e999", "-inf": "-1e999", "nan": "(1e999 - 1e999)"}


def to_text(e: Expr) -> str:
    """Serialize an AST back to parseable text."""
    if isinstance(e, Num):
        text = repr(e.value)
        return _NON_FINITE_TEXT.get(text, text)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = to_text(e.arg)
        if _prec(e.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(to_text(a) for a in e.args)})"
    if isinstance(e, BinOp):
        lp, rp = _prec(e.left), _prec(e.right)
        p = _PREC[e.op]
        left = to_text(e.left)
        right = to_text(e.right)
        # '^' is right-assoc, the others left-assoc: parenthesize accordingly
        if lp < p or (e.op == "^" and lp <= p):
            left = f"({left})"
        if rp < p or (e.op != "^" and rp <= p):
            right = f"({right})"
        return f"{left} {e.op} {right}" if e.op != "^" else f"{left}^{right}"
    raise TypeError(f"not an Expr: {e!r}")


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg) or (isinstance(e, Num) and e.value < 0):
        return _PREC["neg"]
    return 9


# ---------------------------------------------------------------------------
# Symbolic differentiation with 0/1 folding

def differentiate(e: Expr, var: str) -> Expr:
    """Symbolic d/d``var``; raises NonSmoothPrimitiveError for abs/max/min."""
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0) if e.name == var else Num(0.0)
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg, var))
    if isinstance(e, BinOp):
        a, b = e.left, e.right
        if e.op in "+-":
            da, db = differentiate(a, var), differentiate(b, var)
            return _add(da, _neg(db) if e.op == "-" else db)
        if e.op == "*":
            da, db = differentiate(a, var), differentiate(b, var)
            return _add(_mul(da, b), _mul(a, db))
        if e.op == "/":
            da, db = differentiate(a, var), differentiate(b, var)
            num = _add(_mul(da, b), _neg(_mul(a, db)))
            return _div(num, BinOp("^", b, Num(2.0)))
        # power
        if var not in b.variables():
            # a^c -> c * a^(c-1) * a'
            da = differentiate(a, var)
            if isinstance(b, Num):
                expo = Num(b.value - 1.0)
            else:
                expo = BinOp("-", b, Num(1.0))
            return _mul(_mul(b, BinOp("^", a, expo)), da)
        # general a^b via a^b * (b' log a + b a'/a)
        da, db = differentiate(a, var), differentiate(b, var)
        inner = _add(_mul(db, Call("log", (a,))), _mul(b, _div(da, a)))
        return _mul(e, inner)
    if isinstance(e, Call):
        if e.func in _NON_SMOOTH:
            raise NonSmoothPrimitiveError(
                f"'{e.func}' is not differentiable; use finite differences")
        (arg,) = e.args
        darg = differentiate(arg, var)
        outer = {
            "sin": lambda a: Call("cos", (a,)),
            "cos": lambda a: _neg(Call("sin", (a,))),
            "tan": lambda a: _div(Num(1.0), BinOp("^", Call("cos", (a,)), Num(2.0))),
            "exp": lambda a: Call("exp", (a,)),
            "log": lambda a: _div(Num(1.0), a),
            "sqrt": lambda a: _div(Num(1.0), _mul(Num(2.0), Call("sqrt", (a,)))),
            "tanh": lambda a: _add(Num(1.0), _neg(BinOp("^", Call("tanh", (a,)), Num(2.0)))),
        }[e.func](arg)
        return _mul(outer, darg)
    raise TypeError(f"not an Expr: {e!r}")


def substitute(e: Expr, var: str, value: Expr) -> Expr:
    """The tree ``e`` with every variable ``var`` replaced by the tree ``value``."""
    if isinstance(e, Var):
        return value if e.name == var else e
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, var, value))
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute(e.left, var, value), substitute(e.right, var, value))
    if isinstance(e, Call):
        return Call(e.func, tuple(substitute(a, var, value) for a in e.args))
    if isinstance(e, Apply):
        return Apply(e.fn, substitute(e.arg, var, value), e.exact)
    return e


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 1.0


def _add(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    if isinstance(b, Neg):
        return BinOp("-", a, b.arg)
    return BinOp("+", a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_zero(a) or _is_zero(b):
        return Num(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return Num(0.0)
    if _is_one(b):
        return a
    return BinOp("/", a, b)


# ---------------------------------------------------------------------------
# Compilation to fast callables

def _scalar_pow(a, b):
    if a < 0.0 and b != round(b):      # a float ** would give a complex number
        raise ValueError("negative base with fractional exponent")
    return a ** b


def _scalar_max(a, b):
    """np.maximum's rule on floats: a NaN operand (the first) wins, a tie gives b."""
    return a if a != a or a > b else b


def _scalar_min(a, b):
    """np.minimum's rule on floats: a NaN operand (the first) wins, a tie gives b."""
    return a if a != a or a < b else b


_SCALAR_NS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
    "log": math.log, "sqrt": math.sqrt, "tanh": math.tanh,
    "abs": abs, "max": _scalar_max, "min": _scalar_min, "_pow": _scalar_pow,
}
_VECTOR_NS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "tanh": np.tanh,
    "abs": np.abs, "max": np.maximum, "min": np.minimum,
    "_pow": np.power,
}
# A literal is emitted as its repr; the non-finite ones name these floats
_SCALAR_NS["_inf"] = _VECTOR_NS["_inf"] = math.inf
_SCALAR_NS["_nan"] = _VECTOR_NS["_nan"] = math.nan
_NON_FINITE = {"inf": "_inf", "-inf": "(-_inf)", "nan": "_nan"}


# Constant exponents written as products on both paths: np.power(a, 2.0)
# is a*a, and the float path avoids a Python call and the guard's round()
_SMALL_POWERS = {2.0: "({} * {})", 3.0: "(({} * {}) * {})"}


def body_lines(exprs: Sequence[Expr], names: Mapping[str, str], prefix: str,
               calls: dict | None = None) -> tuple[list[str], list[str]]:
    """Statements and result texts that evaluate ``exprs`` in line.

    Each variable ``v`` is written as ``names.get(v, v)``, and each
    temporary as ``prefix`` and a number.  The callable of an `Apply` node
    is written as its name in ``calls``, which maps ``id(fn)`` to ``(name,
    fn)``; one it does not hold yet is added as ``_call`` and a number, in
    first-use order, for the caller to bind (keyed by identity, so a
    callable need not be hashable).  One post-order pass numbers the
    distinct subtrees, keyed on their emitted text with operands as
    references (so ``x1*0.0`` and ``x1*-0.0`` stay apart, which ``Expr``
    equality would merge).  A subtree referenced more than once, such as the
    base of a small power, becomes a temporary computed once, in first-use
    order, by one of the statements; the rest are inlined.
    """
    numbers: dict[str, int] = {}
    nodes: list[tuple[str, list]] = []   # (format, operands: leaf text or number)
    uses: list[int] = []

    def ref(r) -> str:
        return f"{prefix}{r}" if isinstance(r, int) else r

    def visit(e: Expr):
        if isinstance(e, Num):
            text = repr(e.value)
            return _NON_FINITE.get(text, f"({text})")
        if isinstance(e, Var):
            return names.get(e.name, e.name)
        if isinstance(e, Neg):
            fmt, ops = "(-{})", [visit(e.arg)]
        elif isinstance(e, Apply):
            name, _ = calls.setdefault(id(e.fn), (f"_call{len(calls)}", e.fn))
            fmt, ops = name + "({})", [visit(e.arg)]
        elif isinstance(e, BinOp) and e.op == "^":
            expo = e.right.value if isinstance(e.right, Num) else None
            if expo == 1.0:
                return visit(e.left)
            if expo in _SMALL_POWERS:
                fmt = _SMALL_POWERS[expo]
                ops = [visit(e.left)] * fmt.count("{}")
            else:
                fmt, ops = "_pow({}, {})", [visit(e.left), visit(e.right)]
        elif isinstance(e, BinOp):
            fmt, ops = f"({{}} {e.op} {{}})", [visit(e.left), visit(e.right)]
        elif isinstance(e, Call):
            fmt = f"{e.func}({', '.join(['{}'] * len(e.args))})"
            ops = [visit(a) for a in e.args]
        else:
            raise TypeError(f"not an Expr: {e!r}")
        key = fmt.format(*map(ref, ops))
        if key not in numbers:
            numbers[key] = len(nodes)
            nodes.append((fmt, ops))
            uses.append(0)
            for r in ops:
                if isinstance(r, int):
                    uses[r] += 1
        return numbers[key]

    roots = [visit(x) for x in exprs]
    for r in roots:
        if isinstance(r, int):
            uses[r] += 1
    lines: list[str] = []
    text: list[str] = []
    for k, (fmt, ops) in enumerate(nodes):
        t = fmt.format(*(text[r] if isinstance(r, int) else r for r in ops))
        if uses[k] > 1:
            lines.append(f"{prefix}{k} = {t}")
            t = f"{prefix}{k}"
        text.append(t)
    return lines, [text[r] if isinstance(r, int) else r for r in roots]


def _source(exprs: Sequence[Expr], arg_names: tuple[str, ...], fused: bool,
            calls: dict) -> str:
    """Source of ``def _f(*arg_names)`` returning ``exprs`` (a tuple if fused),
    from `body_lines` with temporaries ``_0, _1, ...``; the callables of
    `Apply` nodes are named in ``calls``."""
    lines, out = body_lines(exprs, {}, "_", calls)
    body = [f"def _f({', '.join(arg_names)}):", *("    " + line for line in lines),
            f"    return ({''.join(o + ', ' for o in out)})" if fused
            else f"    return {out[0]}"]
    return "\n".join(body) + "\n"


# What a plain-float evaluation raises where numpy gives inf or nan.
FLOAT_ERRORS = (ArithmeticError, ValueError)


# generated sources whose code objects `compiled` keeps: the 12 generated
# problems of the benchmark's `sweep` look up 198 texts, 98 of them distinct
COMPILED_SOURCES = 256


@functools.lru_cache(maxsize=COMPILED_SOURCES)
def compiled(src: str):
    """The code object of the generated source ``src``.  The last
    COMPILED_SOURCES texts are kept, so a process that builds a problem
    again, or gains of the same texts, compiles none of them again."""
    return compile(src, "<generated>", "exec")


def passing(fn: Callable) -> Callable:
    """``fn`` for the float path of generated code that calls it (an
    `Apply`): an error of FLOAT_ERRORS it raises is marked ``from_call``, so
    the code's float fallback lets it propagate instead of evaluating the
    whole tree again (`from_call`)."""
    def call(x):
        try:
            return fn(x)
        except FLOAT_ERRORS as err:
            err.from_call = True
            raise
    return call


def from_call(err: BaseException) -> bool:
    """True when ``err`` came out of a callable bound through `passing`,
    not out of the float operations of the generated code."""
    return getattr(err, "from_call", False)


def compile_expr(e: Expr | str | Sequence[Expr | str],
                 arg_names: tuple[str, ...]) -> Callable:
    """Compile ``e`` to a positional callable over ``arg_names``.

    Each expression, a text or a tree, goes through `parse_over`, so a
    variable outside ``arg_names`` raises UnboundVariableError naming the
    first expression's strays.  The result takes plain floats (fast ``math`` path) or numpy arrays
    (vectorized path); both run one generated function, and a sequence of
    expressions gives a tuple (see the module docstring).  The callable of
    an `Apply` node is called on both paths.  A float call whose float
    operations raise one of FLOAT_ERRORS runs once more on numpy scalars, warnings
    off, and returns numpy's values as Python floats; an error the callable
    of an `Apply` raises propagates.  ``call.math`` is the
    float path alone, for Python floats.
    """
    fused = not isinstance(e, (Expr, str))
    exprs = tuple(parse_over(x, arg_names) for x in (e if fused else (e,)))
    calls: dict = {}
    code = compiled(_source(exprs, arg_names, fused, calls))
    ns_s = {**_SCALAR_NS, **{name: passing(fn) for name, fn in calls.values()}}
    ns_v = {**_VECTOR_NS, **dict(calls.values())}
    exec(code, ns_s)  # noqa: S102 - source emitted by _source only
    exec(code, ns_v)  # noqa: S102
    fn_s, fn_v = ns_s["_f"], ns_v["_f"]

    def on_numpy(args):
        with np.errstate(all="ignore"):
            out = fn_v(*map(np.float64, args))
        return tuple(map(float, out)) if fused else float(out)

    def point(*args):
        try:
            return fn_s(*args)
        except FLOAT_ERRORS as err:
            if from_call(err):
                raise
            return on_numpy(args)

    def call(*args):
        for a in args:
            if isinstance(a, np.ndarray):
                return fn_v(*args)
        try:
            return fn_s(*args)
        except FLOAT_ERRORS as err:
            if from_call(err):
                raise
            return on_numpy(args)

    for f in (call, point):
        f.expr = exprs if fused else exprs[0]  # type: ignore[attr-defined]
        f.arg_names = arg_names  # type: ignore[attr-defined]
    call.math = point  # type: ignore[attr-defined]
    return call


_POINT_EXACT_CALLS = {"abs", "sqrt"}


def _point_exact_node(e: Expr, also: Collection[str]) -> bool:
    if isinstance(e, BinOp) and e.op == "^":
        return isinstance(e.right, Num) and e.right.value in (1.0, 2.0, 3.0)
    if isinstance(e, Apply):
        return e.exact
    return not isinstance(e, Call) or e.func in _POINT_EXACT_CALLS or e.func in also


def is_point_exact(e: Expr, also: Collection[str] = ()) -> bool:
    """True when the tree uses only literals, variables, unary minus,
    ``+ - * /``, the constant exponents 1, 2 and 3, the calls ``abs``
    and ``sqrt``, the calls named in ``also`` and `Apply` nodes marked
    exact: its compiled value at floats equals a batch row bit for bit (the
    module docstring says why ``max min`` are left out unless named)."""
    return all(_point_exact_node(n, also) for n in e.walk())


def is_smooth(e: Expr) -> bool:
    """True when no abs/max/min appears anywhere in the tree."""
    return not any(isinstance(n, Call) and n.func in _NON_SMOOTH for n in e.walk())
