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
from .dynsys import ControlSystem, Signal
from .funcalc import GainFunction, gain_from_expr
from .strictify import DEFAULT_FACTOR_DIS, DEFAULT_FACTOR_ISS, LyapunovCandidate
from .verify import SampleDomain

# mode -> (strictify route, its gain fields in call order, default factor).
# The route is named, not bound, so that wrappers installed on the strictify
# module at run time are the ones called.
ROUTES = {
    "issp": ("strictify_issp", ("chi", "mu"), DEFAULT_FACTOR_ISS),
    "disp-state": ("strictify_from_state_form", ("mu", "omega"), DEFAULT_FACTOR_ISS),
    "disp-value": ("strictify_disp", ("mu_tilde", "omega"), DEFAULT_FACTOR_DIS),
}
MODES = tuple(ROUTES)


class ConfigError(Exception):
    """Malformed problem configuration."""


# ---------------------------------------------------------------------------
# Expression-backed callables with the (t, x, u) batch convention

def _state_args(n: int, m: int = 0) -> tuple[str, ...]:
    return ("t", *(f"x{i+1}" for i in range(n)), *(f"u{j+1}" for j in range(m)))


def _split(t, x):
    """Batch arguments (t, x1..xn) for x of shape (k, n); a scalar t is broadcast."""
    if np.ndim(t) == 0:
        t = np.full(x.shape[0], float(t))
    return (t, *x.T)


def _columns(values, shape) -> np.ndarray:
    """The components of a fused array call as the columns of (*shape, len)."""
    out = np.empty((*shape, len(values)))
    for j, v in enumerate(values):
        out[..., j] = v
    return out


_NO_INPUT = np.zeros(0)


def _scalar_call(point, fused, t, x, u=_NO_INPUT):
    """One call of ``point``, the plain-float function of ``fused``, at a point.

    Floats raise on division by zero, domain errors and a general power
    that overflows, where numpy gives inf or nan (a product that overflows
    gives inf on both), which the integrator's blow-up guard reports;
    such a call is repeated through ``fused`` on 0-d arrays, which take the
    numpy path.
    """
    try:
        return point(float(t), *x.tolist(), *u.tolist())
    except exprparse.FLOAT_ERRORS:
        with np.errstate(all="ignore"):
            return fused(*(np.asarray(v) for v in (t, *x, *u)))


def _vector_field(texts: Sequence[str], n: int, m: int = 0) -> Callable:
    """One fused compile of ``texts`` over t, x1..xn, u1..um as f(t, x[, u]).

    A point (x of shape (n,)) is one call on Python floats and gives shape
    (len(texts),); a batch (x of shape (k, n), u of shape (k, m)) gives
    (k, len(texts)).  ``f.point`` is the plain-float kernel
    (t, x1..xn, u1..um) -> tuple that the integrator calls directly.
    """
    fused = exprparse.compile_expr(texts, _state_args(n, m))
    point = getattr(fused, "math", fused)   # a wrapped compile may carry none

    def f(t, x, u=_NO_INPUT):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.ndim == 1:
            return np.array(_scalar_call(point, fused, t, x, u))
        return _columns(fused(*_split(t, x), *u.T), (len(x),))

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
            return float(_scalar_call(point, fn, t, x))
        return np.broadcast_to(np.asarray(fn(*_split(t, x)), dtype=float), (len(x),))

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
    t0: float = 0.0
    tf: float = 10.0
    step: float = 1.0e-3
    runs: list[SimRun] = field(default_factory=list)


@dataclass
class Problem:
    name: str
    system: ControlSystem                 # after feedback closure
    candidate: LyapunovCandidate
    rate: DecayRate
    mode: str
    tau: float
    factor: float | None = None
    mu: GainFunction | None = None
    chi: GainFunction | None = None
    mu_tilde: GainFunction | None = None
    omega: GainFunction | None = None
    domain: SampleDomain = field(default_factory=SampleDomain)
    samples: int = 10_000
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
_NON_NEGATIVE = ("non-negative and finite", lambda v: 0.0 <= v < math.inf)
_FINITE = ("finite", math.isfinite)
_FACTOR = ("in (0, 1/4]", lambda v: 0.0 < v <= 0.25)


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
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    try:
        return _build(cp)
    except (configparser.Error, KeyError, ValueError, exprparse.ExpressionError) as exc:
        raise ConfigError(str(exc)) from exc


def _build(cp: configparser.ConfigParser) -> Problem:
    for section in ("problem", "system", "lyapunov"):
        if section not in cp:
            raise ConfigError(f"missing [{section}] section")
    prob = cp["problem"]
    for key in ("n", "m"):
        if key not in prob:
            raise ConfigError(f"[problem] {key} is required")
    n = prob.getint("n")
    m = prob.getint("m")
    mode = _strip(prob.get("mode", "disp-value"))
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    tau = _number(prob, "tau", rule=_POSITIVE)
    if tau is None:
        raise ConfigError("[problem] tau is required")
    period = _number(prob, "period", rule=_POSITIVE)
    seed = prob.getint("seed", fallback=0)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    factor = _number(prob, "factor", rule=_FACTOR)
    name = _strip(prob.get("name", "problem"))

    sys_sec = cp["system"]
    f_texts = [_strip(sys_sec[f"f{i+1}"]) for i in range(n)]
    expressions = {f"f{i+1}": txt for i, txt in enumerate(f_texts)}
    fb_texts = []
    k = 1
    while f"feedback{k}" in sys_sec:
        fb_texts.append(_strip(sys_sec[f"feedback{k}"]))
        expressions[f"feedback{k}"] = fb_texts[-1]
        k += 1

    open_system = field_from_exprs(f_texts, n, m, period=period, label=name)
    feedback = None
    system = open_system
    if fb_texts:
        from .dynsys import close_loop
        feedback = feedback_from_exprs(fb_texts, n)
        system = close_loop(open_system, feedback)

    lyap = cp["lyapunov"]
    v_text = _strip(lyap["V"])
    expressions["V"] = v_text
    dv_dt = _strip(lyap["dV_dt"]) if "dV_dt" in lyap else None
    grads = None
    if f"dV_dx1" in lyap:
        grads = [_strip(lyap[f"dV_dx{i+1}"]) for i in range(n)]
    a_texts = {k: _strip(lyap[k]) for k in ("alpha1", "alpha2", "alpha3")}
    expressions.update(a_texts)
    candidate = candidate_from_exprs(v_text, n, a_texts["alpha1"], a_texts["alpha2"],
                                     a_texts["alpha3"], period=period,
                                     dv_dt_text=dv_dt, grad_texts=grads, label=name)

    dec = cp["decay"]
    p_text = _strip(dec["p"])
    expressions["p"] = p_text
    p_period = _number(dec, "period", rule=_POSITIVE)
    rate = rate_from_expr(p_text, period=p_period)

    gains: dict[str, GainFunction | None] = {g: None for g in ("mu", "chi", "mu_tilde", "omega")}
    if "gains" in cp:
        for key in gains:
            if key in cp["gains"]:
                txt = _strip(cp["gains"][key])
                expressions[key] = txt
                gains[key] = gain_from_expr(txt)
    _require_gains(mode, gains)

    domain = SampleDomain()
    samples = 10_000
    if "domains" in cp:
        ds = cp["domains"]
        t_min = _number(ds, "t_min", 0.0)
        t_max = _number(ds, "t_max",
                        strictify.default_domain(candidate, system, rate, tau).t_range[1])
        if not t_max > t_min:
            raise ConfigError(f"[domains] t_max must exceed t_min, "
                              f"got t_min={t_min!r}, t_max={t_max!r}")
        domain = SampleDomain((t_min, t_max),
                              _number(ds, "x_radius", 10.0, _NON_NEGATIVE),
                              _number(ds, "u_radius", 5.0, _NON_NEGATIVE))
        samples = ds.getint("samples", fallback=10_000)
        if samples < 2:
            raise ConfigError(f"samples must be at least 2, got {samples}")

    sim = SimSpec()
    m_closed = system.m
    if "sim" in cp:
        ss = cp["sim"]
        sim.t0 = _number(ss, "t0", 0.0)
        sim.tf = _number(ss, "tf", 10.0)
        sim.step = _number(ss, "step", 1.0e-3, _POSITIVE)
        if not sim.tf > sim.t0:
            raise ConfigError(f"[sim] tf must exceed t0, got t0={sim.t0!r}, tf={sim.tf!r}")
        k = 1
        while f"x0.{k}" in ss:
            raw = _strip(ss[f"x0.{k}"]).replace(",", " ")
            x0 = np.array([float(v) for v in raw.split()])
            if x0.size != n or not np.isfinite(x0).all():
                raise ConfigError(f"[sim] x0.{k} must be {n} finite numbers, got {raw!r}")
            texts = []
            for j in range(m_closed):
                key = f"u.{k}.{j+1}"
                texts.append(_strip(ss[key]) if key in ss else "0")
            sim.runs.append(SimRun(x0, signal_from_exprs(texts)))
            k += 1
    if not sim.runs:
        sim.runs.append(SimRun(np.zeros(n), Signal.zero(m_closed)))

    return Problem(name=name, system=system, candidate=candidate, rate=rate,
                   mode=mode, tau=tau, factor=factor, mu=gains["mu"],
                   chi=gains["chi"], mu_tilde=gains["mu_tilde"],
                   omega=gains["omega"], domain=domain, samples=samples,
                   seed=seed, sim=sim, open_system=open_system,
                   feedback=feedback, expressions=expressions)


def strictify_problem(problem: Problem, n_samples: int | None = None,
                      seed: int | None = None):
    """Run the route that ``ROUTES`` maps ``problem.mode`` to; return the certificate.

    The decay rate must already carry its PE triple (the CLI attaches one
    from estimate_pe when the problem comes from a config file).
    """
    route, gains, default_factor = ROUTES[problem.mode]
    factor = problem.factor if problem.factor is not None else default_factor
    return getattr(strictify, route)(
        problem.candidate, problem.system, problem.rate,
        *(getattr(problem, g) for g in gains), factor, domain=problem.domain,
        n_samples=n_samples if n_samples is not None else problem.samples,
        seed=seed if seed is not None else problem.seed)


def _require_gains(mode: str, gains: dict) -> None:
    missing = [g for g in ROUTES[mode][1] if gains.get(g) is None]
    if missing:
        raise ConfigError(f"mode '{mode}' requires gains: {', '.join(missing)}")
