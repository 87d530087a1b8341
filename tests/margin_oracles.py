"""The margins as numpy closures, one array call per part: how every
sampled check evaluated its margin before margins became generated
kernels.  The kernel tests compare each kernel with its closure here, bit
for bit."""

import numpy as np

from strictlyap.decay import _rate_values


def vdot(candidate, system, t, x, u):
    dt = np.asarray(candidate.dV_dt(t, x), dtype=float)
    g = np.asarray(candidate.grad_x(t, x), dtype=float)
    fx = np.asarray(system.f(t, x, u), dtype=float)
    return dt + np.einsum("ij,ij->i", g, fx)


def uppd(candidate):
    a1, a2, a3 = candidate.alpha1, candidate.alpha2, candidate.alpha3

    def margin_fn(t, x, u):
        r = np.linalg.norm(x, axis=1)
        v = np.asarray(candidate.V(t, x), dtype=float)
        g = np.asarray(candidate.grad_x(t, x), dtype=float)
        gt = np.asarray(candidate.dV_dt(t, x), dtype=float)
        full = np.sqrt((g ** 2).sum(axis=1) + gt ** 2)
        return np.minimum(np.minimum(v - a1(r), a2(r) - v), a3(r) - full)

    return margin_fn


def issp(candidate, system, p, mu):
    def margin_fn(t, x, u):
        r = np.linalg.norm(x, axis=1)
        return -vdot(candidate, system, t, x, u) - _rate_values(p, t) * mu(r)

    return margin_fn


def disp(candidate, system, p, term_gain, omega, form):
    def margin_fn(t, x, u):
        if form == "state":
            term = term_gain(np.linalg.norm(x, axis=1))
        else:
            term = term_gain(np.asarray(candidate.V(t, x), dtype=float))
        uu = np.linalg.norm(u, axis=1)
        return (-vdot(candidate, system, t, x, u)
                - _rate_values(p, t) * term + omega(uu))

    return margin_fn


def dvsharp(windows, w, t, v, vd):
    W, xi = windows(t)
    return (1.0 + xi * w.deriv(v)) * vd + (windows.tau * windows.rate(t) - W) * w(v)


def vdot_sharp(cert):
    def fn(t, x, u):
        return dvsharp(cert._windows, cert.w, t, cert.candidate.V(t, x),
                       vdot(cert.candidate, cert.system, t, x, u))

    return fn


def contract(cert):
    def contract_fn(t, x, u):
        margin = -vdot_sharp(cert)(t, x, u) - cert.decay(np.linalg.norm(x, axis=1))
        if cert.kind == "strict-DIS":
            margin = margin + cert.gain_margin * cert.omega(np.linalg.norm(u, axis=1))
        return margin

    return contract_fn


def bounds(cert):
    def bounds_fn(t, x, u):
        q = cert._windows.column(1, t) * cert.w.deriv(cert.candidate.V(t, x))
        return np.minimum(q, 0.25 - q)

    return bounds_fn
