"""Problem assembly: expression-backed systems, candidates and INI configs.

A Problem bundles everything one strictification run needs: the (closed)
system, the Lyapunov candidate with envelope gains, the decay rate, the
route gains, sampling domain and simulation plan.  Configs are flat INI
files whose values are expressions in the package grammar; the built-in
fixtures construct the same bundle programmatically.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
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


def _vector_field(texts: Sequence[str], n: int, m: int = 0) -> Callable:
    """One fused compile of ``texts`` over t, x1..xn, u1..um as f(t, x[, u]).

    A point (x of shape (n,)) is one call of the float path ``f.point``,
    the compile's ``math`` (t, x1..xn, u1..um) -> tuple, which the
    integrator also writes out in its loop; it gives shape (len(texts),).
    A batch (x of shape (k, n), u of shape (k, m)) gives (k, len(texts)).
    """
    fused = exprparse.compile_expr(texts, _state_args(n, m))
    point = getattr(fused, "math", fused)   # a wrapped compile may carry none

    def f(t, x, u=_NO_INPUT):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.ndim == 1:
            return np.array(point(float(t), *x.tolist(), *u.tolist()))
        return _columns(fused(t, *x.T, *u.T), (len(x),))

    f.point = point
    return f


def field_from_exprs(texts: Sequence[str], n: int, m: int,
                     period: float | None = None, label: str = "") -> ControlSystem:
    """Vector field from n component expressions over t, x1..xn, u1..um."""
    if len(texts) != n:
        raise ConfigError(f"need {n} component expressions, got {len(texts)}")
    return ControlSystem(n, m, _vector_field(texts, n, m), period=period, label=label)


def feedback_from_exprs(texts: Sequence[str], n: int) -> Callable:
    """State feedback (t, x) -> leading input channels."""
    return _vector_field(texts, n)


def _scalar_field(text: str, n: int):
    """Scalar field V(t, x): a float at a point, shape (k,) on a batch."""
    fn = exprparse.compile_expr(text, _state_args(n))
    point = getattr(fn, "math", fn)

    def g(t, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(point(float(t), *x.tolist()))
        return np.broadcast_to(np.asarray(fn(t, *x.T), dtype=float), (len(x),))

    return g


def candidate_from_exprs(v_text: str, n: int, alpha1: str | GainFunction,
                         alpha2: str | GainFunction, alpha3: str | GainFunction,
                         period: float | None = None, dv_dt_text: str | None = None,
                         grad_texts: Sequence[str] | None = None,
                         label: str = "") -> LyapunovCandidate:
    """Candidate from a V expression; missing derivatives are symbolic."""
    e = exprparse.parse(v_text)
    if dv_dt_text is None or grad_texts is None:
        if not exprparse.is_smooth(e):
            raise ConfigError(
                "V uses abs/max/min; supply dV_dt and gradient expressions")
    dv_dt_text = dv_dt_text or exprparse.to_text(exprparse.differentiate(e, "t"))
    if grad_texts is None:
        grad_texts = [exprparse.to_text(exprparse.differentiate(e, f"x{i+1}"))
                      for i in range(n)]
    v_fn = _scalar_field(v_text, n)
    dt_fn = _scalar_field(dv_dt_text, n)
    grad = _vector_field(grad_texts, n)

    def as_gain(g):
        return gain_from_expr(g) if isinstance(g, str) else g

    return LyapunovCandidate(n=n, V=v_fn, dV_dt=dt_fn, grad_x=grad,
                             alpha1=as_gain(alpha1), alpha2=as_gain(alpha2),
                             alpha3=as_gain(alpha3), period=period,
                             label=label or v_text)


def rate_from_expr(text: str, period: float | None = None,
                   pe: PETriple | None = None) -> DecayRate:
    fn = exprparse.compile_expr(text, ("t",))
    return DecayRate(fn, period=period, pe=pe, label=text)


def signal_from_exprs(texts: Sequence[str], sup_bound: float | None = None) -> Signal:
    fused = exprparse.compile_expr(texts, ("t",))

    def fn(t):
        t = np.asarray(t, dtype=float)
        return _columns(fused(t), t.shape)

    return Signal(fn, len(texts), sup_bound=sup_bound, label=", ".join(texts))


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


def _required(section, key: str) -> str:
    """``section[key]`` without its quotes; a config error naming both if absent."""
    if key not in section:
        raise ConfigError(f"[{section.name}] {key} is required")
    return _strip(section[key])


def _number(section, key: str, fallback: float | None = None,
            rule: tuple = _FINITE) -> float | None:
    """``section[key]`` as a float held to ``rule``; ``fallback`` if absent."""
    if key not in section:
        return fallback
    value = float(section[key])
    if not rule[1](value):
        raise ConfigError(f"[{section.name}] {key} must be {rule[0]}, got {value!r}")
    return value


def load_problem(path) -> Problem:
    """Parse an INI problem description; see the README for the schema."""
    cp = configparser.ConfigParser(inline_comment_prefixes=None, interpolation=None)
    cp.optionxform = str
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path!r}")
    try:
        return _build(cp)
    except (configparser.Error, KeyError, ValueError, exprparse.ExpressionError) as exc:
        raise ConfigError(str(exc)) from exc


def _build(cp: configparser.ConfigParser) -> Problem:
    """The Problem of a parsed INI.  A key left out takes its default from
    the setting's one owner: the times from ``strictify.default_t_range``,
    the radii and the box's rules from ``SampleDomain``, the budget from
    ``verify.DEFAULT_SAMPLES``, the plan from ``SimSpec``, the factor from
    the route's signature; a missing optional section is empty."""
    for section in ("problem", "system", "lyapunov", "decay"):
        if section not in cp:
            raise ConfigError(f"missing [{section}] section")
    for section in ("gains", "domains", "sim"):
        if section not in cp:
            cp.add_section(section)
    prob = cp["problem"]
    for key in ("n", "m", "tau"):
        _required(prob, key)
    n, m = prob.getint("n"), prob.getint("m")
    mode = _strip(prob.get("mode", "disp-value"))
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    tau = _number(prob, "tau", rule=_POSITIVE)
    period = _number(prob, "period", rule=_POSITIVE)
    seed = prob.getint("seed", fallback=Problem.seed)
    samples = cp["domains"].getint("samples", fallback=DEFAULT_SAMPLES)
    check_run_settings(seed, samples)
    factor = _number(prob, "factor", rule=_FACTOR)
    name = _strip(prob.get("name", "problem"))

    sys_sec = cp["system"]
    f_texts = [_required(sys_sec, f"f{i+1}") for i in range(n)]
    expressions = {f"f{i+1}": txt for i, txt in enumerate(f_texts)}
    fb_texts = []
    k = 1
    while f"feedback{k}" in sys_sec:
        fb_texts.append(_strip(sys_sec[f"feedback{k}"]))
        expressions[f"feedback{k}"] = fb_texts[-1]
        k += 1

    open_system = field_from_exprs(f_texts, n, m, period=period, label=name)
    feedback = feedback_from_exprs(fb_texts, n) if fb_texts else None
    system = close_loop(open_system, feedback) if fb_texts else open_system

    lyap = cp["lyapunov"]
    v_text = _required(lyap, "V")
    expressions["V"] = v_text
    dv_dt = _strip(lyap["dV_dt"]) if "dV_dt" in lyap else None
    grads = [_required(lyap, f"dV_dx{i+1}") for i in range(n)] if "dV_dx1" in lyap else None
    a_texts = {k: _required(lyap, k) for k in ("alpha1", "alpha2", "alpha3")}
    expressions.update(a_texts)
    candidate = candidate_from_exprs(v_text, n, a_texts["alpha1"], a_texts["alpha2"],
                                     a_texts["alpha3"], period=period,
                                     dv_dt_text=dv_dt, grad_texts=grads, label=name)

    dec = cp["decay"]
    p_text = _required(dec, "p")
    expressions["p"] = p_text
    p_period = _number(dec, "period", rule=_POSITIVE)
    rate = rate_from_expr(p_text, period=p_period)

    gs = cp["gains"]
    given = {g: _strip(gs[g]) for g in ("mu", "chi", "mu_tilde", "omega") if g in gs}
    expressions.update(given)

    ds = cp["domains"]
    t_min, t_max = strictify.default_t_range(candidate, system, rate, tau)
    t_min, t_max = _number(ds, "t_min", t_min), _number(ds, "t_max", t_max)
    if not math.isfinite(t_max):    # the default max(P, tau) + tau overflows
        raise ConfigError(f"[domains] t_max is required: its default is {t_max!r}")
    radii = {k: ds.getfloat(k) for k in ("x_radius", "u_radius") if k in ds}
    try:
        domain = SampleDomain((t_min, t_max), **radii)
    except ValueError as exc:   # the type's rules, in the INI's keys
        detail = (f"t_max must exceed t_min, got t_min={t_min!r}, t_max={t_max!r}"
                  if str(exc).startswith("t_range") else exc)
        raise ConfigError(f"[domains] {detail}") from None

    ss, sim = cp["sim"], SimSpec()
    sim.t0 = _number(ss, "t0", sim.t0)
    sim.tf = _number(ss, "tf", sim.tf)
    sim.step = _number(ss, "step", sim.step, _POSITIVE)
    try:
        step_count(sim.t0, sim.tf, sim.step)
    except ValueError as exc:
        raise ConfigError(f"[sim] {exc}") from None
    k = 1
    while f"x0.{k}" in ss:
        raw = _strip(ss[f"x0.{k}"]).replace(",", " ")
        x0 = np.array([float(v) for v in raw.split()])
        if x0.size != n or not np.isfinite(x0).all():
            raise ConfigError(f"[sim] x0.{k} must be {n} finite numbers, got {raw!r}")
        texts = [_strip(ss.get(f"u.{k}.{j+1}", "0")) for j in range(system.m)]
        sim.runs.append(SimRun(x0, signal_from_exprs(texts)))
        k += 1
    if not sim.runs:
        sim.runs.append(SimRun(np.zeros(n), Signal.zero(system.m)))

    problem = Problem(name=name, system=system, candidate=candidate, rate=rate,
                      mode=mode, tau=tau, factor=factor, domain=domain,
                      samples=samples, seed=seed, sim=sim, open_system=open_system,
                      feedback=feedback, expressions=expressions,
                      **{g: gain_from_expr(v) for g, v in given.items()})
    require_gains(problem, ROUTES[mode][1], f"mode '{mode}' requires")
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
