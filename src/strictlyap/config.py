"""Problem assembly: expression-backed systems, candidates and INI configs.

A Problem bundles everything one strictification run needs: the (closed)
system, the Lyapunov candidate with envelope gains, the decay rate, the
route gains, sampling domain and simulation plan.  Configs are flat INI
files whose values are expressions in the package grammar; the built-in
fixtures construct the same bundle programmatically.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import exprparse
from .decay import DecayRate, PETriple
from .dynsys import ControlSystem, Signal
from .funcalc import GainFunction, gain_from_expr
from .strictify import LyapunovCandidate
from .verify import SampleDomain

MODES = ("issp", "disp-state", "disp-value")


class ConfigError(Exception):
    """Malformed problem configuration."""


# ---------------------------------------------------------------------------
# Expression-backed callables with the (t, x, u) batch convention

def _state_args(n: int, m: int = 0) -> tuple[str, ...]:
    return ("t", *(f"x{i+1}" for i in range(n)), *(f"u{j+1}" for j in range(m)))


def _split(t, x):
    """Normalize to per-column argument tuples; returns (args, batched)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return (t, *x), False
    if np.ndim(t) == 0:
        t = np.full(x.shape[0], float(t))
    return (t, *(x[:, i] for i in range(x.shape[1]))), True


def field_from_exprs(texts: Sequence[str], n: int, m: int,
                     period: float | None = None, label: str = "") -> ControlSystem:
    """Vector field from n component expressions over t, x1..xn, u1..um."""
    if len(texts) != n:
        raise ConfigError(f"need {n} component expressions, got {len(texts)}")
    args = _state_args(n, m)
    fns = [exprparse.compile_expr(txt, args) for txt in texts]

    def f(t, x, u):
        xa, batched = _split(t, x)
        u = np.asarray(u, dtype=float)
        if not batched:
            a = (*xa, *u)
            return np.array([fn(*a) for fn in fns])
        a = (*xa, *(u[:, j] for j in range(u.shape[1])))
        k = len(xa[0])
        return np.stack([np.broadcast_to(np.asarray(fn(*a), dtype=float), (k,))
                         for fn in fns], axis=1)

    return ControlSystem(n, m, f, period=period, label=label)


def feedback_from_exprs(texts: Sequence[str], n: int) -> Callable:
    """State feedback (t, x) -> leading input channels."""
    args = _state_args(n)
    fns = [exprparse.compile_expr(txt, args) for txt in texts]

    def fb(t, x):
        a, batched = _split(t, x)
        if not batched:
            return np.array([fn(*a) for fn in fns])
        k = len(a[0])
        return np.stack([np.broadcast_to(np.asarray(fn(*a), dtype=float), (k,))
                         for fn in fns], axis=1)

    return fb


def _scalar_field(text: str, n: int):
    fn = exprparse.compile_expr(text, _state_args(n))

    def g(t, x):
        a, batched = _split(t, x)
        v = fn(*a)
        if batched:
            return np.broadcast_to(np.asarray(v, dtype=float), (len(a[0]),))
        return float(v)

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
    part_fns = [_scalar_field(g, n) for g in grad_texts]

    def grad(t, x):
        cols = [p(t, x) for p in part_fns]
        if np.ndim(cols[0]) == 0:
            return np.array(cols)
        return np.stack(cols, axis=1)

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
    fns = [exprparse.compile_expr(txt, ("t",)) for txt in texts]
    m = len(texts)

    def fn(t):
        if np.isscalar(t):
            return np.array([f(t) for f in fns])
        t = np.asarray(t, dtype=float)
        return np.stack([np.broadcast_to(np.asarray(f(t), dtype=float), t.shape)
                         for f in fns], axis=1)

    return Signal(fn, m, sup_bound=sup_bound, label=", ".join(texts))


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
    if "problem" not in cp:
        raise ConfigError("missing [problem] section")
    prob = cp["problem"]
    n = prob.getint("n")
    m = prob.getint("m")
    mode = _strip(prob.get("mode", "disp-value"))
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    tau = prob.getfloat("tau")
    if tau is None or tau <= 0:
        raise ConfigError("tau must be a positive number")
    period = prob.getfloat("period", fallback=None)
    seed = prob.getint("seed", fallback=0)
    factor = prob.getfloat("factor", fallback=None)
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
    p_period = dec.getfloat("period", fallback=None)
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
        t_min = ds.getfloat("t_min", fallback=0.0)
        t_max = ds.getfloat("t_max", fallback=max(period or 0.0, tau) + tau)
        domain = SampleDomain((t_min, t_max),
                              ds.getfloat("x_radius", fallback=10.0),
                              ds.getfloat("u_radius", fallback=5.0))
        samples = ds.getint("samples", fallback=10_000)
        if samples < 1:
            raise ConfigError(f"samples must be at least 1, got {samples}")

    sim = SimSpec()
    m_closed = system.m
    if "sim" in cp:
        ss = cp["sim"]
        sim.t0 = ss.getfloat("t0", fallback=0.0)
        sim.tf = ss.getfloat("tf", fallback=10.0)
        sim.step = ss.getfloat("step", fallback=1.0e-3)
        k = 1
        while f"x0.{k}" in ss:
            raw = _strip(ss[f"x0.{k}"]).replace(",", " ")
            x0 = np.array([float(v) for v in raw.split()])
            if x0.size != n:
                raise ConfigError(f"x0.{k} must have {n} entries")
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
    """Run the route selected by ``problem.mode`` and return the certificate.

    The decay rate must already carry its PE triple (the CLI attaches one
    from estimate_pe when the problem comes from a config file).
    """
    from . import strictify as st

    n = n_samples if n_samples is not None else problem.samples
    sd = seed if seed is not None else problem.seed
    kw = dict(domain=problem.domain, n_samples=n, seed=sd)
    if problem.mode == "issp":
        factor = problem.factor if problem.factor is not None else st.DEFAULT_FACTOR_ISS
        return st.strictify_issp(problem.candidate, problem.system, problem.rate,
                                 problem.chi, problem.mu, factor, **kw)
    if problem.mode == "disp-state":
        factor = problem.factor if problem.factor is not None else st.DEFAULT_FACTOR_ISS
        return st.strictify_from_state_form(problem.candidate, problem.system,
                                            problem.rate, problem.mu, problem.omega,
                                            factor, **kw)
    factor = problem.factor if problem.factor is not None else st.DEFAULT_FACTOR_DIS
    return st.strictify_disp(problem.candidate, problem.system, problem.rate,
                             problem.mu_tilde, problem.omega, factor, **kw)


def _require_gains(mode: str, gains: dict) -> None:
    needed = {
        "issp": ("mu", "chi"),
        "disp-state": ("mu", "omega"),
        "disp-value": ("mu_tilde", "omega"),
    }[mode]
    missing = [g for g in needed if gains.get(g) is None]
    if missing:
        raise ConfigError(f"mode '{mode}' requires gains: {', '.join(missing)}")
