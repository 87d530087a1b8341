"""Built-in example problems.

Each fixture is the sections of an INI config, kept in `SECTIONS` and read
by the loader of `--config` files.  Its function then sets what the schema
cannot express: the given PE triple, a forced run's sup bound and, for
rigid-body, the open loop, its feedback and the closed form of V#.

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

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import config, exprparse
from ._numerics import cumulative_trapezoid
from .config import Problem, feedback_from_exprs, field_from_exprs
from .decay import (DecayRate, NotPersistentlyExcitingError, PETriple,
                    WindowIntegralTooSmallError, _rate_values, estimate_pe)
from .strictify import _horizon_growth

PI = math.pi
ADMISSIBILITY_HORIZON = 40.0   # reference cross integral: sups over H, 2H and 4H
ADMISSIBILITY_TAUS = (PI, PI / 2.0, 2.0 * PI, 4.0 * PI)   # PE windows, in order

_RIGID_BODY_ALPHA1 = "((3 - sqrt(5))/4)*s^2"
SECTIONS = {
    # the closed loop written out directly (the feedback cancels the cos drift)
    "rigid-body": {
        "problem": {"name": "rigid-body", "n": 3, "m": 2, "mode": "disp-value",
                    "tau": PI, "period": 2.0 * PI, "factor": 0.125, "seed": 2026},
        "system": {"f1": "-x1 - x2*x3 + u1",
                   "f2": "-(1 + sin(t)*x1 + sin(t)^2)*x2 - (2*sin(t) + cos(t))*x3 + u2",
                   "f3": "(x1 + sin(t))*x2"},
        "lyapunov": {"V": "0.5*(x1^2 + (x2 + sin(t)*x3)^2 + x3^2)",
                     "alpha1": _RIGID_BODY_ALPHA1, "alpha2": "((3 + sqrt(5))/4)*s^2",
                     "alpha3": "4*s + 2*s^2"},
        "decay": {"p": "sin(t)^2", "period": PI},
        # mu, the state-form decay term, for Step-3 runs
        "gains": {"mu": _RIGID_BODY_ALPHA1, "mu_tilde": "s", "omega": "0.5*s^2"},
        "domains": {"t_min": 0.0, "t_max": 2.0 * PI, "x_radius": 5.0, "u_radius": 2.0,
                    "samples": 100_000},
        "sim": {"t0": 0.0, "tf": 60.0, "step": 1.0e-3, "x0.1": "1 -1 2",
                "x0.2": "1 1 1", "u.2.1": "0.1*sin(3*t)", "u.2.2": "0.1*cos(5*t)"},
    },
    "counterexample-elw": {
        "problem": {"name": "counterexample-elw", "n": 1, "m": 1, "mode": "disp-state",
                    "tau": 1.0, "seed": 7},
        "system": {"f1": "-x1 + (1 + t)*max(0, u1 - abs(x1))^3"},
        "lyapunov": {"V": "x1^2", "alpha1": "s^2", "alpha2": "s^2", "alpha3": "2*s"},
        "decay": {"p": "1", "period": 1.0},
        "gains": {"mu": "s^2", "chi": "s", "omega": "s^2"},
        "domains": {"t_min": 0.0, "t_max": 10.0, "x_radius": 5.0, "u_radius": 2.0,
                    "samples": 20_000},
        "sim": {"t0": 0.0, "tf": 10.0, "step": 1.0e-3, "x0.1": "1"},
    },
    "scalar-linear": {
        "problem": {"name": "scalar-linear", "n": 1, "m": 1, "mode": "issp",
                    "tau": 1.0, "period": 1.0, "factor": 0.25, "seed": 11},
        "system": {"f1": "-x1 + u1"},
        "lyapunov": {"V": "0.5*x1^2", "alpha1": "0.5*s^2", "alpha2": "0.5*s^2",
                     "alpha3": "s"},
        "decay": {"p": "1", "period": 1.0},
        "gains": {"mu": "0.5*s^2", "chi": "2*s", "mu_tilde": "s", "omega": "0.5*s^2"},
        "domains": {"t_min": 0.0, "t_max": 2.0, "x_radius": 8.0, "u_radius": 2.0,
                    "samples": 8_000},
        "sim": {"t0": 0.0, "tf": 10.0, "step": 1.0e-3, "x0.1": "1", "x0.2": "2",
                "u.2.1": "0.5*sin(t)"},
    },
}


def _load(name: str, pe: PETriple, sup_bounds: dict[int, float] | None = None) -> Problem:
    """The fixture's sections read as a config, with its given PE triple and
    the declared sup bound of each forced run (keyed by its index)."""
    cp = config._parser()
    cp.read_dict(SECTIONS[name])
    problem = config._build(cp)
    problem.rate = problem.rate.with_pe(pe)
    for k, bound in (sup_bounds or {}).items():
        run = problem.sim.runs[k]
        run.signal = dataclasses.replace(run.signal, sup_bound=bound)
    return problem


def rigid_body() -> Problem:
    """Three-state tracking errors, two disturbance channels, mode disp-value."""
    problem = _load("rigid-body", PETriple(PI, PI / 2.0, 1.0), {1: 0.15})
    feedback = ["-x1 - x2*x3 + cos(t)",
                "-(1 + sin(t)*x1 + sin(t)^2)*x2 - (2*sin(t) + cos(t))*x3"]
    problem.open_system = field_from_exprs(
        ["u1 + u3 - cos(t)", "u2 + u4", "(x1 + sin(t))*x2"], 3, 4,
        period=2.0 * PI, label="rigid-body-open")
    problem.feedback = feedback_from_exprs(feedback, 3)
    problem.expressions.update({f"feedback{i+1}": t for i, t in enumerate(feedback)})
    problem.xi_closed_form = lambda t: (PI / 4.0) * (PI - np.sin(2.0 * np.asarray(t)))
    problem.vsharp_coefficient_text = "1 + pi/32 - sin(2*t)/32"
    return problem


def counterexample_elw() -> Problem:
    """Aperiodic drift -x + (1+t) q(u - |x|) with q(r) = max(0, r)^3.

    Strict implication-form Lyapunov function: V = x^2 with mu(s) = s^2,
    chi = identity.  The dissipation form fails on every fixed gain pair;
    the sampled margin drifts down linearly with the time horizon.
    """
    return _load("counterexample-elw", PETriple(1.0, 1.0, 1.0))


def scalar_linear() -> Problem:
    """Leaky integrator dx = -x + u with V = x^2/2; the smallest fixture."""
    return _load("scalar-linear", PETriple(1.0, 1.0, 1.0), {1: 0.5})


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
    ADMISSIBILITY_TAUS while the window integral is too small; any other
    failure of w1r^2 + w2r^2 (not finite at t < 0, say) ends the check.
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
        except WindowIntegralTooSmallError:
            continue
        except NotPersistentlyExcitingError as exc:
            return AdmissibilityResult(False, f"w1r^2 + w2r^2 of reference "
                                              f"({w1r_text!r}, {w2r_text!r}): {exc}",
                                       sup_cross_integral=s4)
        return AdmissibilityResult(True, "admissible", tau=float(tau),
                                   epsilon=est.epsilon, sup_cross_integral=s4)
    return AdmissibilityResult(False,
                               "w1r^2 + w2r^2 is not persistently exciting "
                               f"for any window on the ladder {list(ADMISSIBILITY_TAUS)}",
                               sup_cross_integral=s4)
