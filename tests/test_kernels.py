"""Margin kernels: each equals, bit for bit, the numpy closure it replaced
(`margin_oracles`), on batches of 1 and 40 rows and on a full sampled batch,
for every fixture, every sweep problem of the benchmark and the candidates
and systems written by hand in the tests; and numpy still sums rows in the
orders the kernels write out."""

import itertools

import numpy as np
import pytest

import margin_oracles as mo
from strictlyap import verify
from strictlyap.config import strictify_problem
from strictlyap.decay import estimate_pe
from strictlyap.exprparse import BinOp, Num, Var, compile_expr
from strictlyap.fixtures import counterexample_elw, rigid_body, scalar_linear
from strictlyap.funcalc import gain_from_expr, identity_gain
from strictlyap.verify import SampleDomain
from test_verify import ONE, _leaky, _leaky_candidate, _norm_sq_candidate


def _batches(domain, n, nx, nu, seed=21):
    t, x, u = domain.sample(n, nx, nu, seed)
    return [(t[:k], x[:k], u[:k]) for k in (1, 40)] + [(t, x, u)]


def _assert_same(kernel, oracle, batches):
    for t, x, u in batches:
        with np.errstate(all="ignore"):
            got = kernel(t, x, u)
            want = np.broadcast_to(np.asarray(oracle(t, x, u), dtype=float), t.shape)
        assert got.shape == t.shape
        assert got.tobytes() == want.tobytes(), f"{t.size} rows"


def _oracle(report, problem, cert):
    c, s, p = problem.candidate, problem.system, problem.rate
    return {
        "uppd": lambda: mo.uppd(c),
        "issp-lyapunov": lambda: mo.issp(c, s, p, problem.mu),
        "disp-lyapunov[state]": lambda: mo.disp(c, s, p, problem.mu, problem.omega, "state"),
        "disp-lyapunov[value]": lambda: mo.disp(c, s, p, cert.mu_tilde, problem.omega,
                                                "value"),
        "coefficient-bounds": lambda: mo.bounds(cert),
        "strict-iss-contract": lambda: mo.contract(cert),
        "strict-dis-contract": lambda: mo.contract(cert),
    }[report.name]()


def _assert_certificate_kernels(problem):
    if problem.rate.pe is None:
        problem.rate = problem.rate.with_pe(
            estimate_pe(problem.rate, problem.tau).triple(certified=True))
    cert = strictify_problem(problem)
    n, m = problem.system.n, problem.system.m
    full = _batches(problem.domain, problem.samples, n, m)
    for report in cert.validation.reports:
        nu = 0 if report.name in ("uppd", "coefficient-bounds") else m
        batches = full if nu else _batches(problem.domain, problem.samples, n, 0)
        _assert_same(report.margin_fn, _oracle(report, problem, cert), batches)
        assert report.reevaluate() == report.worst_margin
    c, s = problem.candidate, problem.system
    _assert_same(lambda t, x, u: verify.vdot(c, s, t, x, u),
                 lambda t, x, u: mo.vdot(c, s, t, x, u), full)
    _assert_same(cert.vdot_sharp, mo.vdot_sharp(cert), full)
    _assert_same(lambda t, x, u: cert.sharp_candidate().dV_dt(t, x),
                 lambda t, x, u: mo.dvsharp(cert._windows, cert.w, t, c.V(t, x),
                                            c.dV_dt(t, x)), full)


@pytest.mark.parametrize("fixture", [rigid_body, scalar_linear])
def test_fixture_certificate_kernels_equal_their_closures(fixture):
    _assert_certificate_kernels(fixture())


@pytest.mark.parametrize("seed", [0, 1])
def test_sweep_certificate_kernels_equal_their_closures(sweep_problems, seed):
    for problem in sweep_problems(seed):
        _assert_certificate_kernels(problem)


def test_counterexample_kernels_equal_their_closures():
    # the counterexample issues no certificate: its premise fails by design
    ce = counterexample_elw()
    c, s = ce.candidate, ce.system
    batches = _batches(ce.domain, ce.samples, c.n, s.m)
    strict = verify.check_strict_iss_lyap(c, s, ce.mu, ce.chi, ce.domain, 500, 3)
    _assert_same(strict.margin_fn, mo.issp(c, s, ONE, ce.mu), batches)
    dis = verify.check_disp_lyap(c, s, ce.rate, ce.mu, ce.omega, "state", ce.domain, 500, 3)
    _assert_same(dis.margin_fn, mo.disp(c, s, ce.rate, ce.mu, ce.omega, "state"), batches)
    _assert_same(lambda t, x, u: verify.vdot(c, s, t, x, u),
                 lambda t, x, u: mo.vdot(c, s, t, x, u), batches)


def test_hand_written_candidates_and_systems_enter_as_columns():
    dom = SampleDomain((0.0, 2.0), 6.0, 2.0)
    sq = _norm_sq_candidate()
    rep = verify.check_uppd(sq, dom, 500, 1)
    _assert_same(rep.margin_fn, mo.uppd(sq), _batches(dom, 4000, 2, 0))
    assert rep.reevaluate() == rep.worst_margin
    c, s, batches = _leaky_candidate(), _leaky(), _batches(dom, 4000, 1, 1)
    mu, chi, omega = gain_from_expr("0.5*s^2"), gain_from_expr("2*s"), gain_from_expr("s^2")
    reports = [
        (verify.check_issp_lyap(c, s, ONE, mu, chi, dom, 500, 1), mo.issp(c, s, ONE, mu)),
        (verify.check_disp_lyap(c, s, ONE, identity_gain(), omega, "value", dom, 500, 1),
         mo.disp(c, s, ONE, identity_gain(), omega, "value")),
        (verify.check_disp_lyap(c, s, ONE, mu, omega, "state", dom, 500, 1),
         mo.disp(c, s, ONE, mu, omega, "state")),
    ]
    for rep, oracle in reports:
        _assert_same(rep.margin_fn, oracle, batches)
        assert rep.reevaluate() == rep.worst_margin


def test_sharp_candidate_enters_as_columns():
    # V# is a method, its dV_dt a kernel and its gradient a closure: a
    # candidate of callables, and its gains opaque
    rb = rigid_body()
    cert = strictify_problem(rb, n_samples=2000)
    sharp = cert.sharp_candidate()
    rep = verify.check_uppd(sharp, rb.domain, 500, 4)
    _assert_same(rep.margin_fn, mo.uppd(sharp), _batches(rb.domain, 4000, 3, 0))
    mu = gain_from_expr("0.1*s^2")
    rep = verify.check_strict_iss_lyap(sharp, rb.system, mu, gain_from_expr("4*s"),
                                       rb.domain, 500, 4)
    _assert_same(rep.margin_fn, mo.issp(sharp, rb.system, ONE, mu),
                 _batches(rb.domain, 4000, 3, 2))
    assert rep.reevaluate() == rep.worst_margin


# ---------------------------------------------------------------------------
# The row sums kernels write out, pinned to numpy's

def _trees(n):
    """Every way to add terms 0..n-1 as one binary tree, up to commutation."""
    def split(items):
        if len(items) == 1:
            yield items[0]
            return
        for i in range(1, len(items)):
            for left in split(items[:i]):
                for right in split(items[i:]):
                    yield (left, right)

    seen = set()
    for perm in itertools.permutations(range(n)):
        for tree in split(list(perm)):
            key = _canon(tree)
            if key not in seen:
                seen.add(key)
                yield tree


def _canon(tree):
    if isinstance(tree, int):
        return str(tree)
    return "(" + " ".join(sorted((_canon(tree[0]), _canon(tree[1])))) + ")"


def _text(tree):
    return f"p{tree + 1}" if isinstance(tree, int) else f"({_text(tree[0])} + {_text(tree[1])})"


def _total(tree, terms):
    return terms[tree] if isinstance(tree, int) else (_total(tree[0], terms)
                                                      + _total(tree[1], terms))


def _order_now(terms, want, after=lambda s: s):
    """The orders of adding ``terms`` that give ``want`` (through
    ``after``), as text, for up to 5 terms.  Each sum is taken plus 0.0,
    which only turns a -0.0 sum into +0.0, as numpy's einsum does."""
    if len(terms) > 5:
        return "an order of 6 or more terms not searched"
    found = [_text(t) for t in _trees(len(terms))
             if after(_total(t, terms) + 0.0).tobytes() == want.tobytes()]
    return " or ".join(found) or "no order of the terms alone"


@pytest.mark.parametrize("n", range(1, 8))      # fixtures and sweep problems use 1 and 3
def test_numpy_sums_rows_in_the_order_kernels_write(n):
    rng = np.random.default_rng(n)
    a, b = (rng.normal(size=(2000, n)) * 10.0 ** rng.integers(-8, 8, size=(2000, n))
            for _ in range(2))
    a[0], b[0] = -0.0, 1.0      # a row of -0.0 products
    xs, us = [Var(f"x{i+1}") for i in range(n)], [Var(f"u{i+1}") for i in range(n)]
    args = tuple(v.name for v in xs + us)

    def kernel(tree):
        return np.broadcast_to(compile_expr(tree, args)(*a.T, *b.T), (2000,))

    squares, products = [a[:, i] * a[:, i] for i in range(n)], [a[:, i] * b[:, i]
                                                                for i in range(n)]
    pinned = [
        ("np.linalg.norm(a, axis=1)", np.linalg.norm(a, axis=1),
         kernel(verify.row_norm(xs)), squares, np.sqrt),
        ("(a**2).sum(axis=1)", (a ** 2).sum(axis=1),
         kernel(verify.row_sum([BinOp("^", x, Num(2.0)) for x in xs])), squares,
         lambda s: s),
        ('np.einsum("ij,ij->i", a, b)', np.einsum("ij,ij->i", a, b),
         kernel(verify.row_dot(xs, us)), products, lambda s: s),
    ]
    for what, want, got, terms, after in pinned:
        assert got.tobytes() == want.tobytes(), (
            f"numpy {np.__version__} now adds the {n} terms of {what} as "
            f"{_order_now(terms, want, after)}; the kernels write them as "
            f"verify.row_norm, row_sum and row_dot do")
