"""Problem assembly: expression-backed systems, candidates and INI configs.

A Problem bundles everything one strictification run needs: the (closed)
system, the Lyapunov candidate with envelope gains, the decay rate, the
route gains, sampling domain and simulation plan.  Configs are flat INI
files whose values are expressions in the package grammar; the built-in
fixtures are such INI sections, kept as dicts, and read by the same loader.
The loader reads each value once, where it is used: a number or a word
through `_value`, which converts it and holds it to its rule, an expression
through `_expression`, which parses it and checks its variables with
``exprparse.parse_over`` (a gain through ``gain_from_expr``).  The checked
trees go on to the compiles.  A failure is a ConfigError led by
``[section] key`` (the CLI's by ``--option``).  A key or section that no
read takes, and any ``[DEFAULT]`` key, is refused after the rest has loaded.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from itertools import count, takewhile
from typing import Callable, Sequence

import numpy as np

from . import exprparse, strictify
from .decay import DecayRate, PETriple
from .dynsys import DEFAULT_STEP, ControlSystem, Signal, close_loop, step_count
from .funcalc import GainFunction, gain_from_expr
from .strictify import LyapunovCandidate
from .verify import DEFAULT_SAMPLES, SampleDomain

# mode -> (strictify route, its gain fields in call order); the route's own
# signature holds its default factor.  The route is named, not bound, so that
# wrappers installed on the strictify module at run time are the ones called.
ROUTES = {
    "issp": ("strictify_issp", ("chi", "mu")),
    "disp-state": ("strictify_from_state_form", ("mu", "omega")),
    "disp-value": ("strictify_disp", ("mu_tilde", "omega")),
}
MODES = tuple(ROUTES)


class ConfigError(Exception):
    """Malformed problem configuration."""


# (what a value must be, the test of it): the rules the INI reader and the
# CLI options hold their values to
_POSITIVE = ("positive and finite", lambda v: 0.0 < v < math.inf)
_FINITE = ("finite", math.isfinite)
_FACTOR = ("in (0, 1/4]", lambda v: 0.0 < v <= 0.25)
_NON_NEGATIVE = ("non-negative", lambda v: v >= 0)
_AT_LEAST_1 = ("at least 1", lambda v: v >= 1)
_SAMPLES = ("at least 2", lambda v: v >= 2)     # one sample can never pass
_MODE = (f"one of {MODES}", MODES.__contains__)


def _hold(name: str, value, rule: tuple) -> None:
    if not rule[1](value):
        raise ConfigError(f"{name} must be {rule[0]}, got {value!r}")


def check_run_settings(seed: int | None, samples: int | None) -> None:
    """--seed and --samples, each given, held to the rules of the INI keys."""
    for name, value, rule in (("seed", seed, _NON_NEGATIVE), ("samples", samples, _SAMPLES)):
        if value is not None:
            _hold(f"--{name}", value, rule)


# ---------------------------------------------------------------------------
# Expression-backed callables with the (t, x, u) batch convention

def _state_args(n: int, m: int = 0) -> tuple[str, ...]:
    return ("t", *(f"x{i+1}" for i in range(n)), *(f"u{j+1}" for j in range(m)))


def _columns(values, shape) -> np.ndarray:
    """The components of a fused array call as the columns of (*shape, len)."""
    out = np.empty((*shape, len(values)))
    for j, v in enumerate(values):
        out[..., j] = v
    return out


_NO_INPUT = np.zeros(0)


def _vector_field(exprs: Sequence[str | exprparse.Expr], n: int, m: int = 0) -> Callable:
    """One fused compile of ``exprs`` over t, x1..xn, u1..um as f(t, x[, u]).

    A point (x of shape (n,)) is one call of the float path ``f.point``,
    the compile's ``math`` (t, x1..xn, u1..um) -> tuple, which the
    integrator also writes out in its loop; it gives shape (len(exprs),).
    A batch (x of shape (k, n), u of shape (k, m)) gives (k, len(exprs)).
    """
    fused = exprparse.compile_expr(exprs, _state_args(n, m))
    point = getattr(fused, "math", fused)   # a wrapped compile may carry none

    def f(t, x, u=_NO_INPUT):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.ndim == 1:
            return np.array(point(float(t), *x.tolist(), *u.tolist()))
        return _columns(fused(t, *x.T, *u.T), (len(x),))

    f.point = point
    return f


def field_from_exprs(texts: Sequence[str | exprparse.Expr], n: int, m: int,
                     period: float | None = None, label: str = "") -> ControlSystem:
    """Vector field from n component expressions over t, x1..xn, u1..um."""
    if len(texts) != n:
        raise ConfigError(f"need {n} component expressions, got {len(texts)}")
    return ControlSystem(n, m, _vector_field(texts, n, m), period=period, label=label)


def feedback_from_exprs(texts: Sequence[str | exprparse.Expr], n: int) -> Callable:
    """State feedback (t, x) -> leading input channels."""
    return _vector_field(texts, n)


def _scalar_field(e: str | exprparse.Expr, n: int):
    """Scalar field V(t, x): a float at a point, shape (k,) on a batch."""
    fn = exprparse.compile_expr(e, _state_args(n))
    point = getattr(fn, "math", fn)

    def g(t, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(point(float(t), *x.tolist()))
        return np.broadcast_to(np.asarray(fn(t, *x.T), dtype=float), (len(x),))

    return g


def candidate_from_exprs(v_text: str | exprparse.Expr, n: int, alpha1: str | GainFunction,
                         alpha2: str | GainFunction, alpha3: str | GainFunction,
                         period: float | None = None,
                         dv_dt_text: str | exprparse.Expr | None = None,
                         grad_texts: Sequence[str | exprparse.Expr] | None = None,
                         label: str = "") -> LyapunovCandidate:
    """Candidate from a V expression, a text or a tree; missing derivatives
    are compiled as built."""
    e = exprparse.parse_over(v_text, _state_args(n))
    if dv_dt_text is None or grad_texts is None:
        if not exprparse.is_smooth(e):
            raise ConfigError("V uses abs/max/min; supply dV_dt and "
                              + ("dV_dx1" if n == 1 else f"dV_dx1..dV_dx{n}"))
    dv_dt = dv_dt_text if dv_dt_text is not None else exprparse.differentiate(e, "t")
    grad = (grad_texts if grad_texts is not None
            else [exprparse.differentiate(e, f"x{i+1}") for i in range(n)])

    def as_gain(g):
        return gain_from_expr(g) if isinstance(g, str) else g

    return LyapunovCandidate(n=n, V=_scalar_field(e, n), dV_dt=_scalar_field(dv_dt, n),
                             grad_x=_vector_field(grad, n),
                             alpha1=as_gain(alpha1), alpha2=as_gain(alpha2),
                             alpha3=as_gain(alpha3), period=period,
                             label=label or str(v_text))


def rate_from_expr(e: str | exprparse.Expr, period: float | None = None,
                   pe: PETriple | None = None, label: str = "") -> DecayRate:
    """Decay rate p(t) from an expression, a text or a tree."""
    fn = exprparse.compile_expr(e, ("t",))
    return DecayRate(fn, period=period, pe=pe, label=label or str(e))


def signal_from_exprs(exprs: Sequence[str | exprparse.Expr], label: str = "") -> Signal:
    """Input u(t) from one expression, a text or a tree, per channel."""
    fused = exprparse.compile_expr(exprs, ("t",))

    def fn(t):
        t = np.asarray(t, dtype=float)
        return _columns(fused(t), t.shape)

    return Signal(fn, len(exprs), label=label or ", ".join(map(str, exprs)))


# ---------------------------------------------------------------------------
# The assembled problem

@dataclass
class SimRun:
    """One RK4 run; ``inputs`` are the ``[sim]`` keys of its input channels."""

    x0: np.ndarray
    signal: Signal
    inputs: tuple[str, ...] = ()


@dataclass
class SimSpec:
    """RK4 runs from t0 to tf with a fixed step; a `[sim]` key left out of
    an INI takes its default here."""

    t0: float = 0.0
    tf: float = 10.0
    step: float = DEFAULT_STEP
    runs: list[SimRun] = field(default_factory=list)


@dataclass
class Problem:
    name: str
    system: ControlSystem                 # after feedback closure
    candidate: LyapunovCandidate
    rate: DecayRate
    mode: str
    tau: float
    domain: SampleDomain
    factor: float | None = None
    mu: GainFunction | None = None
    chi: GainFunction | None = None
    mu_tilde: GainFunction | None = None
    omega: GainFunction | None = None
    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    sim: SimSpec = field(default_factory=SimSpec)
    open_system: ControlSystem | None = None
    feedback: Callable | None = None
    expressions: dict[str, str] = field(default_factory=dict)
    xi_closed_form: Callable | None = None
    vsharp_coefficient_text: str = ""


# ---------------------------------------------------------------------------
# INI ingestion

def _strip(v: str) -> str:
    v = v.strip()
    if len(v) >= 2 and v[0] == v[-1] and v[0] in "'\"":
        return v[1:-1]
    return v


class _Section:
    """An INI section that records the keys read from it, so that `_build`
    can refuse the keys no read took."""

    def __init__(self, proxy: configparser.SectionProxy):
        self.name, self._proxy, self.read = proxy.name, proxy, set()

    def __contains__(self, key: str) -> bool:
        return key in self._proxy

    def __getitem__(self, key: str) -> str:
        self.read.add(key)
        return self._proxy[key]


_REQUIRED = object()


def _value(section: _Section, key: str, convert: Callable = float,
           rule: tuple | None = _FINITE, fallback=_REQUIRED):
    """``convert(section[key])`` held to ``rule``; ``fallback`` if absent, a
    required key without one.  ``_strip`` converts a text.  Each failure is
    a config error led by ``[section] key``."""
    if key not in section:
        if fallback is _REQUIRED:
            raise ConfigError(f"[{section.name}] {key} is required")
        return fallback
    try:
        value = convert(section[key])
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise ConfigError(f"[{section.name}] {key} must be {kind}, "
                          f"got {section[key]!r}") from None
    if rule is not None:
        _hold(f"[{section.name}] {key}", value, rule)
    return value


def _expression(section: _Section, key: str, args: tuple[str, ...] | None,
                texts: dict[str, str] | None = None):
    """The tree of the required expression at ``key`` checked over ``args``,
    or its gain when ``args`` is None; its text also goes in ``texts`` when
    given.  A failure is a config error led by ``[section] key: ``."""
    text = _value(section, key, _strip, None)
    if texts is not None:
        texts[key] = text
    try:
        return gain_from_expr(text) if args is None else exprparse.parse_over(text, args)
    except (ValueError, exprparse.ExpressionError) as exc:
        raise ConfigError(f"[{section.name}] {key}: {exc}") from None


def _parser() -> configparser.ConfigParser:
    """The reader of configs: keys keep their case, and a ';' or '%' in a
    value is part of it."""
    cp = configparser.ConfigParser(inline_comment_prefixes=None, interpolation=None)
    cp.optionxform = str
    return cp


def load_problem(path) -> Problem:
    """Parse an INI problem description; see the README for the schema."""
    cp = _parser()
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        return _build(cp)
    except (configparser.Error, KeyError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _numbered(section: _Section, pattern: str) -> list[int]:
    """1, 2, .. for as long as ``pattern.format(k)`` is a key of ``section``."""
    return list(takewhile(lambda k: pattern.format(k) in section, count(1)))


# the required sections first
_SECTIONS = ("problem", "system", "lyapunov", "decay", "gains", "domains", "sim")
_GAINS = ("mu", "chi", "mu_tilde", "omega")


def _build(cp: configparser.ConfigParser) -> Problem:
    """The Problem of a parsed INI.  A key left out takes its default from
    the setting's one owner: the times from ``strictify.default_t_range``,
    the radii and the box's rules from ``SampleDomain``, the budget from
    ``verify.DEFAULT_SAMPLES``, the plan from ``SimSpec``, the factor from
    the route's signature; a missing optional section is empty.  Each
    value is read and checked by `_value` or `_expression`, which name its
    key; a ``[DEFAULT]`` key, then a section or key that no read takes, is
    refused last, the first in file order."""
    for section in _SECTIONS[:4]:
        if section not in cp:
            raise ConfigError(f"missing [{section}] section")
    for section in _SECTIONS[4:]:
        if section not in cp:
            cp.add_section(section)
    sections = {section: _Section(cp[section]) for section in _SECTIONS}
    prob, sys_sec, lyap, dec, gs, ds, ss = sections.values()
    for key in ("n", "m", "tau"):   # all present before any is judged
        _value(prob, key, str, None)
    n = _value(prob, "n", int, _AT_LEAST_1)
    m = _value(prob, "m", int, _NON_NEGATIVE)
    mode = _value(prob, "mode", _strip, _MODE, "disp-value")
    tau = _value(prob, "tau", rule=_POSITIVE)
    period = _value(prob, "period", rule=_POSITIVE, fallback=None)
    seed = _value(prob, "seed", int, _NON_NEGATIVE, Problem.seed)
    samples = _value(ds, "samples", int, _SAMPLES, DEFAULT_SAMPLES)
    factor = _value(prob, "factor", rule=_FACTOR, fallback=None)
    name = _value(prob, "name", _strip, None, "problem")

    expressions: dict[str, str] = {}
    x_args, xu_args = _state_args(n), _state_args(n, m)
    f_trees = [_expression(sys_sec, f"f{i+1}", xu_args, expressions) for i in range(n)]
    fb_trees = [_expression(sys_sec, f"feedback{k}", x_args, expressions)
                for k in _numbered(sys_sec, "feedback{}")]

    open_system = field_from_exprs(f_trees, n, m, period=period, label=name)
    feedback = feedback_from_exprs(fb_trees, n) if fb_trees else None
    system = close_loop(open_system, feedback) if fb_trees else open_system

    v = _expression(lyap, "V", x_args, expressions)
    dv_dt = _expression(lyap, "dV_dt", x_args) if "dV_dt" in lyap else None
    grads = ([_expression(lyap, f"dV_dx{i+1}", x_args) for i in range(n)]
             if "dV_dx1" in lyap else None)
    alphas = [_expression(lyap, f"alpha{i}", None, expressions) for i in (1, 2, 3)]
    try:
        candidate = candidate_from_exprs(v, n, *alphas, period=period, dv_dt_text=dv_dt,
                                         grad_texts=grads, label=name)
    except ConfigError as exc:      # V is not smooth, and a derivative is missing
        raise ConfigError(f"[lyapunov] {exc}") from None

    p = _expression(dec, "p", ("t",), expressions)    # compiled once its period is read
    p_period = _value(dec, "period", rule=_POSITIVE, fallback=None)
    rate = rate_from_expr(p, period=p_period, label=expressions["p"])

    t_min, t_max = strictify.default_t_range(candidate, system, rate, tau)
    t_min = _value(ds, "t_min", fallback=t_min)
    t_max = _value(ds, "t_max", fallback=t_max)
    if not math.isfinite(t_max):    # the default max(P, tau) + tau overflows
        raise ConfigError(f"[domains] t_max is required: its default is {t_max!r}")
    radii = {k: _value(ds, k, rule=None) for k in ("x_radius", "u_radius") if k in ds}
    try:
        domain = SampleDomain((t_min, t_max), **radii)
    except ValueError as exc:   # the type's rules, in the INI's keys
        detail = (f"t_max must exceed t_min, got t_min={t_min!r}, t_max={t_max!r}"
                  if str(exc).startswith("t_range") else exc)
        raise ConfigError(f"[domains] {detail}") from None

    sim = SimSpec()
    sim.t0 = _value(ss, "t0", fallback=sim.t0)
    sim.tf = _value(ss, "tf", fallback=sim.tf)
    sim.step = _value(ss, "step", rule=_POSITIVE, fallback=sim.step)
    try:
        step_count(sim.t0, sim.tf, sim.step)
    except ValueError as exc:
        raise ConfigError(f"[sim] {exc}") from None
    for k in _numbered(ss, "x0.{}"):
        raw = _value(ss, f"x0.{k}", _strip, None).replace(",", " ")
        try:
            x0 = np.array([float(v) for v in raw.split()])
            valid = x0.size == n and np.isfinite(x0).all()
        except ValueError:      # a word that is no number
            valid = False
        if not valid:
            raise ConfigError(f"[sim] x0.{k} must be {n} finite numbers, got {raw!r}")
        keys = [f"u.{k}.{j+1}" for j in range(system.m)]
        texts: dict[str, str] = {}
        trees = {key: _expression(ss, key, ("t",), texts) for key in keys if key in ss}
        signal = (signal_from_exprs([trees.get(key, "0") for key in keys],
                                    label=", ".join(texts.get(key, "0") for key in keys))
                  if trees else Signal.zero(system.m))
        sim.runs.append(SimRun(x0, signal, tuple(keys)))
    if not sim.runs:
        sim.runs.append(SimRun(np.zeros(n), Signal.zero(system.m)))

    gains = {g: _expression(gs, g, None, expressions) for g in _GAINS if g in gs}
    problem = Problem(name=name, system=system, candidate=candidate, rate=rate,
                      mode=mode, tau=tau, factor=factor, domain=domain,
                      samples=samples, seed=seed, sim=sim, open_system=open_system,
                      feedback=feedback, expressions=expressions, **gains)
    require_gains(problem, ROUTES[mode][1], f"mode '{mode}' requires")
    for key in cp.defaults():   # which configparser copies into every section
        raise ConfigError(f"[DEFAULT] unknown key {key!r}")
    for section in cp.sections():   # in file order
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in sections[section].read:
                raise ConfigError(f"[{section}] unknown key {key!r}")
    return problem


def strictify_problem(problem: Problem, n_samples: int | None = None,
                      seed: int | None = None):
    """Run the route that ``ROUTES`` maps ``problem.mode`` to; return the certificate.

    The decay rate must already carry its PE triple (the CLI attaches one
    from estimate_pe when the problem comes from a config file).
    """
    route, gains = ROUTES[problem.mode]
    factor = {} if problem.factor is None else {"factor": problem.factor}
    return getattr(strictify, route)(
        problem.candidate, problem.system, problem.rate,
        *(getattr(problem, g) for g in gains), domain=problem.domain,
        n_samples=n_samples if n_samples is not None else problem.samples,
        seed=seed if seed is not None else problem.seed, **factor)


def require_gains(problem: Problem, names, who: str) -> None:
    """A config error naming the gains in ``names`` that ``problem`` lacks."""
    missing = [g for g in names if getattr(problem, g) is None]
    if missing:
        raise ConfigError(f"{who} gains: {', '.join(missing)}")
