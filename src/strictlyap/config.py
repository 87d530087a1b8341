"""Problem assembly: expression-backed systems, candidates and INI configs.

A Problem bundles everything one strictification run needs: the (closed)
system, the Lyapunov candidate with envelope gains, the decay rate, the
route gains, sampling domain and simulation plan.  Configs are flat INI
files whose values are expressions in the package grammar; the built-in
fixtures are such INI sections, kept as dicts, and read by the same loader.
The loader reads each expression once, through `_expression`: the text is
parsed and its variables checked by ``exprparse.parse_over`` (a gain by
``gain_from_expr``), and a failure is a ConfigError led by ``[section] key``
where that key is read.  The checked trees go on to the compiles.  A key or
section that no read takes is refused after the rest has loaded.
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


def check_run_settings(seed: int | None, samples: int | None, prefix: str = "") -> None:
    """The sampling rules, seed >= 0 and samples >= 2, for each value given;
    ``prefix`` ("--" for an option) goes before the name in the message."""
    if seed is not None and seed < 0:
        raise ConfigError(f"{prefix}seed must be non-negative, got {seed}")
    if samples is not None and samples < 2:
        raise ConfigError(f"{prefix}samples must be at least 2, got {samples}")


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
            raise ConfigError(
                "V uses abs/max/min; supply dV_dt and gradient expressions")
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


def rate_from_expr(text: str, period: float | None = None,
                   pe: PETriple | None = None) -> DecayRate:
    fn = exprparse.compile_expr(text, ("t",))
    return DecayRate(fn, period=period, pe=pe, label=text)


def signal_from_exprs(texts: Sequence[str]) -> Signal:
    fused = exprparse.compile_expr(texts, ("t",))

    def fn(t):
        t = np.asarray(t, dtype=float)
        return _columns(fused(t), t.shape)

    return Signal(fn, len(texts), label=", ".join(texts))


# ---------------------------------------------------------------------------
# The assembled problem

@dataclass
class SimRun:
    x0: np.ndarray
    signal: Signal


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


_POSITIVE = ("positive and finite", lambda v: 0.0 < v < math.inf)
_FINITE = ("finite", math.isfinite)
_FACTOR = ("in (0, 1/4]", lambda v: 0.0 < v <= 0.25)


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

    def get(self, key: str, fallback: str) -> str:
        return self[key] if key in self else fallback


def _required(section: _Section, key: str) -> str:
    """``section[key]`` without its quotes; a config error naming both if absent."""
    if key not in section:
        raise ConfigError(f"[{section.name}] {key} is required")
    return _strip(section[key])


def _parsed(section: _Section, key: str, convert: Callable, fallback=None):
    """``convert(section[key])``, ``fallback`` if absent; a value that does
    not convert is a config error naming its key."""
    if key not in section:
        return fallback
    try:
        return convert(section[key])
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise ConfigError(f"[{section.name}] {key} must be {kind}, "
                          f"got {section[key]!r}") from None


def _number(section: _Section, key: str, fallback: float | None = None,
            rule: tuple = _FINITE) -> float | None:
    """``section[key]`` as a float held to ``rule``; ``fallback`` if absent."""
    if key not in section:
        return fallback
    value = _parsed(section, key, float)
    if not rule[1](value):
        raise ConfigError(f"[{section.name}] {key} must be {rule[0]}, got {value!r}")
    return value


def _expression(section: _Section, key: str, args: tuple[str, ...] | None,
                texts: dict[str, str] | None = None):
    """The tree of the required expression at ``key`` checked over ``args``,
    or its gain when ``args`` is None; its text also goes in ``texts`` when
    given.  A failure is a config error led by ``[section] key: ``."""
    text = _required(section, key)
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
    expression is read and checked by `_expression`, which names its key;
    a section or key that no read takes is refused last, the first in file
    order."""
    for section in _SECTIONS[:4]:
        if section not in cp:
            raise ConfigError(f"missing [{section}] section")
    for section in _SECTIONS[4:]:
        if section not in cp:
            cp.add_section(section)
    sections = {section: _Section(cp[section]) for section in _SECTIONS}
    prob, sys_sec, lyap, dec, gs, ds, ss = sections.values()
    for key in ("n", "m", "tau"):
        _required(prob, key)
    n, m = _parsed(prob, "n", int), _parsed(prob, "m", int)
    if n < 1:
        raise ConfigError(f"[problem] n must be at least 1, got {n}")
    if m < 0:
        raise ConfigError(f"[problem] m must be non-negative, got {m}")
    mode = _strip(prob.get("mode", "disp-value"))
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    tau = _number(prob, "tau", rule=_POSITIVE)
    period = _number(prob, "period", rule=_POSITIVE)
    seed = _parsed(prob, "seed", int, Problem.seed)
    samples = _parsed(ds, "samples", int, DEFAULT_SAMPLES)
    check_run_settings(seed, samples)
    factor = _number(prob, "factor", rule=_FACTOR)
    name = _strip(prob.get("name", "problem"))

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
    candidate = candidate_from_exprs(v, n, *alphas, period=period, dv_dt_text=dv_dt,
                                     grad_texts=grads, label=name)

    _expression(dec, "p", ("t",), expressions)    # compiled once its period is read
    p_period = _number(dec, "period", rule=_POSITIVE)
    rate = rate_from_expr(expressions["p"], period=p_period)

    t_min, t_max = strictify.default_t_range(candidate, system, rate, tau)
    t_min, t_max = _number(ds, "t_min", t_min), _number(ds, "t_max", t_max)
    if not math.isfinite(t_max):    # the default max(P, tau) + tau overflows
        raise ConfigError(f"[domains] t_max is required: its default is {t_max!r}")
    radii = {k: _parsed(ds, k, float) for k in ("x_radius", "u_radius") if k in ds}
    try:
        domain = SampleDomain((t_min, t_max), **radii)
    except ValueError as exc:   # the type's rules, in the INI's keys
        detail = (f"t_max must exceed t_min, got t_min={t_min!r}, t_max={t_max!r}"
                  if str(exc).startswith("t_range") else exc)
        raise ConfigError(f"[domains] {detail}") from None

    sim = SimSpec()
    sim.t0 = _number(ss, "t0", sim.t0)
    sim.tf = _number(ss, "tf", sim.tf)
    sim.step = _number(ss, "step", sim.step, _POSITIVE)
    try:
        step_count(sim.t0, sim.tf, sim.step)
    except ValueError as exc:
        raise ConfigError(f"[sim] {exc}") from None
    for k in _numbered(ss, "x0.{}"):
        raw = _strip(ss[f"x0.{k}"]).replace(",", " ")
        try:
            x0 = np.array([float(v) for v in raw.split()])
            valid = x0.size == n and np.isfinite(x0).all()
        except ValueError:      # a word that is no number
            valid = False
        if not valid:
            raise ConfigError(f"[sim] x0.{k} must be {n} finite numbers, got {raw!r}")
        keys = [f"u.{k}.{j+1}" for j in range(system.m)]
        texts: dict[str, str] = {}
        for key in keys:
            if key in ss:
                _expression(ss, key, ("t",), texts)
        signal = (signal_from_exprs([texts.get(key, "0") for key in keys])
                  if texts else Signal.zero(system.m))
        sim.runs.append(SimRun(x0, signal))
    if not sim.runs:
        sim.runs.append(SimRun(np.zeros(n), Signal.zero(system.m)))

    gains = {g: _expression(gs, g, None, expressions) for g in _GAINS if g in gs}
    problem = Problem(name=name, system=system, candidate=candidate, rate=rate,
                      mode=mode, tau=tau, factor=factor, domain=domain,
                      samples=samples, seed=seed, sim=sim, open_system=open_system,
                      feedback=feedback, expressions=expressions, **gains)
    require_gains(problem, ROUTES[mode][1], f"mode '{mode}' requires")
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
