"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from strictlyap import cli, decay, exprparse, verify
from strictlyap.config import candidate_from_exprs, strictify_problem
from strictlyap.decay import DecayRate, estimate_pe
from strictlyap.dynsys import ControlSystem, Signal, integrate
from strictlyap.fixtures import counterexample_elw, rigid_body
from strictlyap.funcalc import GainFunction, gain_from_expr, identity_gain, scale_gain
from strictlyap.strictify import (dis_to_issp_chi, strictify_disp,
                                  strictify_issp)
from strictlyap.verify import SampleDomain

PI = math.pi


def _report(num: int, name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {name}" + (f" ({detail})" if detail else ""),
          flush=True)
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def rb_problem():
    return rigid_body()


@pytest.fixture(scope="module")
def rb_certificate(rb_problem):
    return strictify_problem(rb_problem)


def test_c01_xi_closed_form(rb_problem):
    t0 = time.monotonic()
    ts = np.linspace(0.0, 4 * PI, 100)
    xi = decay.xi_vec(rb_problem.rate, PI, ts)
    closed = (PI / 4.0) * (PI - np.sin(2.0 * ts))
    err_xi = float(np.abs(xi - closed).max())
    coeff = 1.0 + xi / (8.0 * PI)
    coeff_closed = 1.0 + PI / 32.0 - np.sin(2.0 * ts) / 32.0
    err_coeff = float(np.abs(coeff - coeff_closed).max())
    elapsed = time.monotonic() - t0
    _report(1, "rigid-body xi reproduction",
            err_xi <= 1e-6 and err_coeff <= 1e-6 and elapsed < 1.0,
            f"xi err {err_xi:.2e}, coeff err {err_coeff:.2e}, {elapsed:.2f}s")


def test_c02_pe_values(capsys):
    t0 = time.monotonic()
    code = cli.main(["pe", "--example", "rigid-body"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    with capsys.disabled():
        eps = float([l for l in out.splitlines()
                     if l.startswith("epsilon (raw)")][0].split(":")[1])
        pbar = float([l for l in out.splitlines()
                      if l.startswith("pbar (raw)")][0].split(":")[1])
        _report(2, "excitation constants from the pe command",
                code == 0 and abs(eps - PI / 2) <= 1e-6
                and abs(pbar - 1.0) <= 1e-9 and elapsed < 1.0,
                f"eps {eps!r}, pbar {pbar!r}, {elapsed:.2f}s")


def test_c03_strict_dis_contract(rb_problem, rb_certificate):
    t0 = time.monotonic()
    cert = rb_certificate
    dom = SampleDomain((0.0, 2 * PI), 5.0, 2.0)
    t, x, u = dom.sample(100_000, 3, 2, seed=2026)
    alpha1 = gain_from_expr("((3 - sqrt(5))/4)*s^2")
    w = cert.w
    assert abs(float(w(1.0)) - 1.0 / (8 * PI)) < 1e-15
    r = np.linalg.norm(x, axis=1)
    uu = np.linalg.norm(u, axis=1)
    margin = (-cert.vdot_sharp(t, x, u) - (PI / 2) * np.asarray(w(alpha1(r)))
              + 1.25 * 0.5 * uu ** 2)
    worst = float(margin.min())
    elapsed = time.monotonic() - t0
    _report(3, "strict dissipation contract at 1e5 samples",
            worst >= -1e-9 and elapsed < 30.0,
            f"worst margin {worst:.3e}, {elapsed:.1f}s")


def test_c04_bounds_and_slope_invariants():
    rng = np.random.default_rng(404)
    checked = 0
    for i in range(20):
        om = float(rng.choice([0.5, 1.0, 2.0]))
        a = float(rng.uniform(0.0, 0.5))
        b = float(rng.uniform(0.5, 2.0))
        period = PI / om
        p = DecayRate(lambda t, a=a, b=b, om=om: a + b * np.sin(om * np.asarray(t)) ** 2,
                      period=period, label=f"{a:.2f}+{b:.2f}sin^2({om}t)")
        tau = float(rng.choice([period, 2 * period]))
        p = p.with_pe(estimate_pe(p, tau, n_grid=128).triple())
        c = float(rng.uniform(0.5, 2.0))
        if i % 2 == 0:
            # implication route: dx = -c p(t) (x - u), mu(s) = c s^2 / 2
            system = ControlSystem(
                1, 1, lambda t, x, u, c=c, p=p: -c * np.asarray(p(t))[..., None] * (x - u),
                period=period)
            candidate = candidate_from_exprs("0.5*x1^2", 1, "0.5*s^2", "0.5*s^2",
                                             "s", period=period)
            cert = strictify_issp(candidate, system, p,
                                  chi=gain_from_expr("2*s"),
                                  mu=scale_gain(c, gain_from_expr("0.5*s^2")),
                                  domain=SampleDomain((0.0, 2 * tau), 5.0, 1.5),
                                  n_samples=2000, seed=100 + i)
        else:
            # dissipation route: dx = -p(t) x + p(t) u, mu_tilde = id
            system = ControlSystem(
                1, 1, lambda t, x, u, p=p: -np.asarray(p(t))[..., None] * (x - 0.5 * u),
                period=period)
            candidate = candidate_from_exprs("0.5*x1^2", 1, "0.5*s^2", "0.5*s^2",
                                             "s", period=period)
            omega = GainFunction(lambda s, pb=p.pe.pbar: pb * 0.5 * np.asarray(s) ** 2,
                                 label="pbar*s^2/2")
            factor = min(0.125, 0.9 / (2.0 * tau * p.pe.pbar))
            cert = strictify_disp(candidate, system, p, identity_gain(), omega,
                                  factor=factor,
                                  domain=SampleDomain((0.0, 2 * tau), 5.0, 1.5),
                                  n_samples=2000, seed=100 + i)
        # coefficient bound at 500 random (t, x) per certificate
        t = rng.uniform(0.0, 4 * tau, 500)
        x = rng.normal(size=(500, 1)) * 2.0
        coef = 1.0 + np.asarray(cert.xi_fn(t)) * np.asarray(
            cert.w.deriv(cert.candidate.V(t, x)))
        assert float(coef.min()) >= 1.0 - 1e-9
        assert float(coef.max()) <= 1.25 + 1e-9
        # slope bound on the issued w
        s = np.linspace(0.0, 100.0, 1000)
        slopes = np.asarray(cert.w.deriv(s), dtype=float)
        bound = 1.0 / (2.0 * cert.pe.tau ** 2 * cert.pe.pbar)
        assert float(slopes.min()) >= -1e-9
        assert float(slopes.max()) <= bound + 1e-9
        checked += 1
    _report(4, "coefficient and slope bounds on 20 randomized certificates",
            checked == 20, f"{checked} certificates")


def test_c05_window_integral_bounds():
    rng = np.random.default_rng(505)
    for _ in range(10):
        om = float(rng.uniform(0.4, 3.0))
        a = float(rng.uniform(0.0, 1.0))
        b = float(rng.uniform(0.3, 2.0))
        phi = float(rng.uniform(0.0, PI))
        period = PI / om
        p = DecayRate(lambda t, a=a, b=b, om=om, phi=phi:
                      a + b * np.sin(om * np.asarray(t) + phi) ** 2,
                      period=period)
        tau = period
        est = estimate_pe(p, tau, n_grid=128)
        ts = rng.uniform(0.0, 30.0, 200)
        xs = decay.xi_vec(p, tau, ts)
        assert float(xs.min()) >= -1e-9
        assert float(xs.max()) <= tau ** 2 * est.pbar / 2 + 1e-9
        hs = np.linspace(0.0, 4 * tau, 9)
        vals = [decay.underline_p(p, float(h), n_grid=96) for h in hs]
        assert all(y >= x - 1e-9 for x, y in zip(vals, vals[1:]))
        for k in range(1, 6):
            assert decay.underline_p(p, k * tau, n_grid=96) >= k * est.epsilon - 1e-6
    _report(5, "window-integral bounds over 10 randomized periodic rates", True,
            "xi range and accumulation checks")


def test_c06_simulation_decay(rb_problem, rb_certificate):
    cert = rb_certificate
    rng = np.random.default_rng(606)
    hit_times = []
    for _ in range(20):
        d = rng.normal(size=3)
        x0 = d / np.linalg.norm(d) * rng.uniform(0.5, 3.0)

        def stop(t, x):
            return float(cert.v_sharp(t, x)) < 0.5e-4

        tr = integrate(rb_problem.system, x0, 0.0, 60.0, Signal.zero(2), 1e-3,
                       stop_when=stop)
        vs = np.asarray(cert.v_sharp(tr.times, tr.states), dtype=float)
        assert float(np.diff(vs).max()) <= 1e-7, "V# increased along a trajectory"
        below = np.nonzero(vs < 1e-4)[0]
        assert below.size > 0 and tr.times[below[0]] < 60.0
        hit_times.append(float(tr.times[below[0]]))
    _report(6, "closed-loop decay of V# along 20 RK4 runs", True,
            f"V# < 1e-4 by t = {max(hit_times):.2f} at the latest")


def test_c07_counterexample_separation():
    ce = counterexample_elw()
    strict = verify.check_strict_iss_lyap(ce.candidate, ce.system, ce.mu, ce.chi,
                                          ce.domain, n=20000, seed=ce.seed)
    margins = {}
    for t_max in (10.0, 100.0):
        dom = dataclasses.replace(ce.domain, t_range=(0.0, t_max))
        rep = verify.check_disp_lyap(ce.candidate, ce.system, ce.rate, ce.mu,
                                     ce.omega, "state", dom, n=20000, seed=ce.seed)
        margins[t_max] = rep.worst_margin
    x = np.array([[1.0]])
    u = np.array([[2.0]])
    probe_gap = (float(verify.vdot(ce.candidate, ce.system, np.array([10.0]), x, u)[0])
                 - float(verify.vdot(ce.candidate, ce.system, np.array([0.0]), x, u)[0]))
    ok = (strict.passed and margins[100.0] <= margins[10.0] - 100.0
          and abs(probe_gap - 20.0) <= 1e-9)
    _report(7, "strict/dissipative separation on the counterexample", ok,
            f"strict margin {strict.worst_margin:.2e}, dis margins "
            f"{margins[10.0]:.1f} vs {margins[100.0]:.1f}, probe gap {probe_gap!r}")


def test_c08_derivative_cross_checks(rb_problem, rb_certificate):
    rng = np.random.default_rng(808)
    n_checked = 0
    from strictlyap.fixtures import FIXTURES
    for name in sorted(FIXTURES):
        problem = FIXTURES[name]()
        for key, text in sorted(problem.expressions.items()):
            e = exprparse.parse(text)
            if not exprparse.is_smooth(e):
                continue  # abs/max expressions use the documented FD fallback
            for var in sorted(e.variables()):
                d = exprparse.differentiate(e, var)
                h = 1e-6
                for _ in range(100):
                    env = {v: rng.uniform(0.2, 2.0) for v in e.variables()}
                    hi = dict(env, **{var: env[var] + h})
                    lo = dict(env, **{var: env[var] - h})
                    fd = (e.eval(hi) - e.eval(lo)) / (2 * h)
                    sym = d.eval(env)
                    assert abs(sym - fd) <= 1e-6 * max(abs(sym), abs(fd), 1e-2), \
                        f"{name}:{key} d/d{var}"
                n_checked += 1

    # analytic d/dt V# against finite differences along a trajectory
    cert = rb_certificate
    tr = integrate(rb_problem.system, np.array([1.0, -1.0, 2.0]), 0.0, 6.0,
                   Signal.zero(2), 1e-3)
    vs = np.asarray(cert.v_sharp(tr.times, tr.states), dtype=float)
    fd = np.gradient(vs, tr.times)
    analytic = np.asarray(cert.vdot_sharp(tr.times, tr.states,
                                          np.zeros((len(tr.times), 2))), dtype=float)
    sel = np.abs(analytic[2:-2]) >= 1e-2
    rel = (np.abs(fd[2:-2][sel] - analytic[2:-2][sel])
           / np.abs(analytic[2:-2][sel]))
    worst = float(rel.max())
    _report(8, "symbolic and analytic derivatives against finite differences",
            worst <= 1e-4, f"{n_checked} expression derivatives; "
                           f"worst V#-dot relative gap {worst:.2e}")


def test_c09_integrator_order():
    sys1 = ControlSystem(1, 0, lambda t, x, u: -x, label="decay")
    exact = math.exp(-1.0)
    errs = []
    for step in (0.02, 0.01):
        tr = integrate(sys1, [1.0], 0.0, 1.0, Signal.zero(0), step)
        errs.append(abs(float(tr.states[-1, 0]) - exact))
    ratio = errs[0] / errs[1]
    _report(9, "fourth-order error reduction under step halving",
            14.0 <= ratio <= 18.0, f"ratio {ratio:.2f}")


def test_c10_step3_implication():
    rng = np.random.default_rng(1010)
    for i in range(10):
        a = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(0.0, 1.0))
        system = ControlSystem(
            1, 1, lambda t, x, u, a=a, b=b: -a * x - b * x ** 3 + u, period=1.0)
        candidate = candidate_from_exprs("0.5*x1^2", 1, "0.5*s^2", "0.5*s^2", "s",
                                         period=1.0)
        mu = GainFunction(lambda s, a=a, b=b: 0.5 * a * np.asarray(s) ** 2
                          + b * np.asarray(s) ** 4,
                          deriv_fn=lambda s, a=a, b=b: a * np.asarray(s)
                          + 4 * b * np.asarray(s) ** 3,
                          label="a s^2/2 + b s^4")
        omega = GainFunction(lambda s, a=a: np.asarray(s) ** 2 / (2 * a),
                             label="s^2/(2a)")
        one = DecayRate(lambda t: np.ones_like(np.asarray(t, dtype=float)),
                        period=1.0)
        dom = SampleDomain((0.0, 3.0), 4.0, 1.5)
        dis = verify.check_disp_lyap(candidate, system, one, mu, omega, "state",
                                     dom, n=4000, seed=900 + i)
        assert dis.passed, f"premise failed on system {i}"
        om_f = float(rng.uniform(0.5, 2.0))
        p = DecayRate(lambda t, om=om_f: np.sin(om * np.asarray(t)) ** 2,
                      period=PI / om_f)
        p = p.with_pe(estimate_pe(p, PI / om_f, n_grid=128).triple())
        chi = dis_to_issp_chi(mu, omega)
        halved = scale_gain(1.0 / (2.0 * p.pe.pbar), mu)
        issp = verify.check_issp_lyap(candidate, system, p, halved, chi, dom,
                                      n=4000, seed=900 + i)
        assert issp.passed, f"derived implication failed on system {i}"
    _report(10, "derived threshold keeps the rate-dependent check passing", True,
            "10 randomized systems")
