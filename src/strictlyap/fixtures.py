"""Built-in example problems.

`rigid-body`: velocity tracking for a rotating rigid body after feedback
transformation.  The error dynamics are driven toward the reference through
the backstepping control laws; with the squared-sine decay rate the closed
loop admits a dissipation inequality whose strictification has the closed
form coefficient 1 + pi/32 - sin(2t)/32.

`counterexample-elw`: a one-dimensional system whose drift grows linearly in
time.  It admits a strict implication-form Lyapunov function, yet no
dissipation-form one, exhibiting exactly the gap that the uniform
boundedness assumption closes.

`scalar-linear`: a leaky integrator toy, useful as the smallest end-to-end
run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exprparse
from ._numerics import cumulative_trapezoid
from .config import (Problem, SimRun, SimSpec, candidate_from_exprs,
                     feedback_from_exprs, field_from_exprs, rate_from_expr,
                     signal_from_exprs)
from .decay import (DecayRate, NotPersistentlyExcitingError, PETriple, _rate_values,
                    estimate_pe)
from .dynsys import Signal
from .strictify import _horizon_growth
from .verify import SampleDomain

PI = math.pi
ADMISSIBILITY_HORIZON = 40.0   # reference cross integral: sups over H, 2H and 4H
ADMISSIBILITY_TAUS = (PI, PI / 2.0, 2.0 * PI, 4.0 * PI)   # PE windows, in order


def rigid_body() -> Problem:
    """Three-state tracking errors, two disturbance channels, mode disp-value."""
    n, m_open = 3, 4
    f_open = [
        "u1 + u3 - cos(t)",
        "u2 + u4",
        "(x1 + sin(t))*x2",
    ]
    fb = [
        "-x1 - x2*x3 + cos(t)",
        "-(1 + sin(t)*x1 + sin(t)^2)*x2 - (2*sin(t) + cos(t))*x3",
    ]
    # closed loop written out directly (feedback cancels the cos drift)
    f_closed = [
        "-x1 - x2*x3 + u1",
        "-(1 + sin(t)*x1 + sin(t)^2)*x2 - (2*sin(t) + cos(t))*x3 + u2",
        "(x1 + sin(t))*x2",
    ]
    period = 2.0 * PI
    open_system = field_from_exprs(f_open, n, m_open, period=period,
                                   label="rigid-body-open")
    system = field_from_exprs(f_closed, n, 2, period=period, label="rigid-body")
    feedback = feedback_from_exprs(fb, n)

    v_text = "0.5*(x1^2 + (x2 + sin(t)*x3)^2 + x3^2)"
    alpha1 = "((3 - sqrt(5))/4)*s^2"
    alpha2 = "((3 + sqrt(5))/4)*s^2"
    alpha3 = "4*s + 2*s^2"
    candidate = candidate_from_exprs(v_text, n, alpha1, alpha2, alpha3,
                                     period=period, label="rigid-body")

    rate = rate_from_expr("sin(t)^2", period=PI,
                          pe=PETriple(PI, PI / 2.0, 1.0))

    from .funcalc import gain_from_expr
    expressions = {f"f{i+1}": txt for i, txt in enumerate(f_closed)}
    expressions.update({f"feedback{i+1}": txt for i, txt in enumerate(fb)})
    expressions.update({"V": v_text, "alpha1": alpha1, "alpha2": alpha2,
                        "alpha3": alpha3, "p": "sin(t)^2",
                        "mu_tilde": "s", "omega": "0.5*s^2", "mu": alpha1})

    sim = SimSpec(t0=0.0, tf=60.0, step=1.0e-3, runs=[
        SimRun(np.array([1.0, -1.0, 2.0]), Signal.zero(2)),
        SimRun(np.array([1.0, 1.0, 1.0]),
               signal_from_exprs(["0.1*sin(3*t)", "0.1*cos(5*t)"], sup_bound=0.15)),
    ])

    return Problem(
        name="rigid-body",
        system=system,
        candidate=candidate,
        rate=rate,
        mode="disp-value",
        tau=PI,
        factor=0.125,
        mu=gain_from_expr(alpha1),        # state-form decay term, for Step-3 runs
        mu_tilde=gain_from_expr("s"),
        omega=gain_from_expr("0.5*s^2"),
        chi=None,
        domain=SampleDomain((0.0, 2.0 * PI), 5.0, 2.0),
        samples=100_000,
        seed=2026,
        sim=sim,
        open_system=open_system,
        feedback=feedback,
        expressions=expressions,
        xi_closed_form=lambda t: (PI / 4.0) * (PI - np.sin(2.0 * np.asarray(t))),
        vsharp_coefficient_text="1 + pi/32 - sin(2*t)/32",
    )


def counterexample_elw() -> Problem:
    """Aperiodic drift -x + (1+t) q(u - |x|) with q(r) = max(0, r)^3.

    Strict implication-form Lyapunov function: V = x^2 with mu(s) = s^2,
    chi = identity.  The dissipation form fails on every fixed gain pair;
    the sampled margin drifts down linearly with the time horizon.
    """
    n, m = 1, 1
    f_text = "-x1 + (1 + t)*max(0, u1 - abs(x1))^3"
    system = field_from_exprs([f_text], n, m, period=None, label="counterexample-elw")

    v_text = "x1^2"
    candidate = candidate_from_exprs(v_text, n, "s^2", "s^2", "2*s",
                                     period=None, label="counterexample-elw")
    rate = rate_from_expr("1", period=1.0, pe=PETriple(1.0, 1.0, 1.0))

    from .funcalc import gain_from_expr
    expressions = {"f1": f_text, "V": v_text, "alpha1": "s^2", "alpha2": "s^2",
                   "alpha3": "2*s", "p": "1", "mu": "s^2", "chi": "s",
                   "omega": "s^2"}

    sim = SimSpec(t0=0.0, tf=10.0, step=1.0e-3, runs=[
        SimRun(np.array([1.0]), Signal.zero(1)),
    ])

    return Problem(
        name="counterexample-elw",
        system=system,
        candidate=candidate,
        rate=rate,
        mode="disp-state",
        tau=1.0,
        factor=None,
        mu=gain_from_expr("s^2"),
        chi=gain_from_expr("s"),
        omega=gain_from_expr("s^2"),
        domain=SampleDomain((0.0, 10.0), 5.0, 2.0),
        samples=20_000,
        seed=7,
        sim=sim,
        expressions=expressions,
    )


def scalar_linear() -> Problem:
    """Leaky integrator dx = -x + u with V = x^2/2; the smallest fixture."""
    n, m = 1, 1
    system = field_from_exprs(["-x1 + u1"], n, m, period=1.0, label="scalar-linear")
    candidate = candidate_from_exprs("0.5*x1^2", n, "0.5*s^2", "0.5*s^2", "s",
                                     period=1.0, label="scalar-linear")
    rate = rate_from_expr("1", period=1.0, pe=PETriple(1.0, 1.0, 1.0))

    from .funcalc import gain_from_expr
    expressions = {"f1": "-x1 + u1", "V": "0.5*x1^2", "alpha1": "0.5*s^2",
                   "alpha2": "0.5*s^2", "alpha3": "s", "p": "1",
                   "mu": "0.5*s^2", "chi": "2*s", "mu_tilde": "s",
                   "omega": "0.5*s^2"}

    sim = SimSpec(t0=0.0, tf=10.0, step=1.0e-3, runs=[
        SimRun(np.array([1.0]), Signal.zero(1)),
        SimRun(np.array([2.0]), signal_from_exprs(["0.5*sin(t)"], sup_bound=0.5)),
    ])

    return Problem(
        name="scalar-linear",
        system=system,
        candidate=candidate,
        rate=rate,
        mode="issp",
        tau=1.0,
        factor=0.25,
        mu=gain_from_expr("0.5*s^2"),
        chi=gain_from_expr("2*s"),
        mu_tilde=gain_from_expr("s"),
        omega=gain_from_expr("0.5*s^2"),
        domain=SampleDomain((0.0, 2.0), 8.0, 2.0),
        samples=8_000,
        seed=11,
        sim=sim,
        expressions=expressions,
    )


FIXTURES = {
    "rigid-body": rigid_body,
    "counterexample-elw": counterexample_elw,
    "scalar-linear": scalar_linear,
}


def get_fixture(name: str) -> Problem:
    try:
        builder = FIXTURES[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; available: {sorted(FIXTURES)}") from None
    return builder()


# ---------------------------------------------------------------------------
# Reference-trajectory admissibility for the rigid-body family

@dataclass(frozen=True)
class AdmissibilityResult:
    admissible: bool
    reason: str
    tau: float | None = None
    epsilon: float | None = None
    sup_cross_integral: float | None = None


def check_reference_admissibility(w1r_text: str, w2r_text: str) -> AdmissibilityResult:
    """Admissibility of a reference (w1r, w2r, .): the running cross integral
    int_0^t w1r w2r must stay bounded and w1r^2 + w2r^2 must be persistently
    exciting for some window length on the ladder.

    Boundedness is judged by horizon doubling: growth of the running sup
    across [0,H] -> [0,2H] -> [0,4H], H = ADMISSIBILITY_HORIZON, by the rule
    of `strictify._horizon_growth`, or a sup that is not finite, marks the
    reference inadmissible; so does a w1r or w2r not finite on those grids,
    named with its first such time.  The windows are tried in the order of
    ADMISSIBILITY_TAUS.
    """
    f1, f2 = (exprparse.compile_expr(text, ("t",)) for text in (w1r_text, w2r_text))
    sups = []
    for k in (1.0, 2.0, 4.0):
        t = np.linspace(0.0, k * ADMISSIBILITY_HORIZON, 32_001)
        with np.errstate(all="ignore"):
            y = [_rate_values(f, t) for f in (f1, f2)]
            for text, v in zip((w1r_text, w2r_text), y):
                bad = ~np.isfinite(v)
                if bad.any():
                    return AdmissibilityResult(
                        False, f"reference {text!r} is not finite at "
                               f"t={float(t[np.argmax(bad)])!r}")
            sups.append(float(np.abs(cumulative_trapezoid(y[0] * y[1], t)).max()))
    s1, s2, s4 = sups
    if not all(map(math.isfinite, sups)) or _horizon_growth(s1, s2, s4):
        return AdmissibilityResult(False,
                                   f"cross integral grows without bound "
                                   f"(sup {s1:.6g} -> {s2:.6g} -> {s4:.6g})",
                                   sup_cross_integral=s4)

    pe_rate = DecayRate(lambda t: _rate_values(f1, t) ** 2 + _rate_values(f2, t) ** 2,
                        label=f"({w1r_text})^2 + ({w2r_text})^2")
    for tau in ADMISSIBILITY_TAUS:
        try:
            est = estimate_pe(pe_rate, float(tau), horizon=4.0 * ADMISSIBILITY_HORIZON,
                              n_grid=256)
        except NotPersistentlyExcitingError:
            continue
        return AdmissibilityResult(True, "admissible", tau=float(tau),
                                   epsilon=est.epsilon, sup_cross_integral=s4)
    return AdmissibilityResult(False,
                               "w1r^2 + w2r^2 is not persistently exciting "
                               f"for any window on the ladder {list(ADMISSIBILITY_TAUS)}",
                               sup_cross_integral=s4)
