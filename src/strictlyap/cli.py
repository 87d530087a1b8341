"""Command-line entry point.

    strictlyap pe        [--config FILE | --example NAME] [--out DIR] ...
    strictlyap strictify [--config FILE | --example NAME] [--out DIR] ...
    strictlyap verify CHECK [--config FILE | --example NAME] ...
    strictlyap simulate  [--config FILE | --example NAME] ...
    strictlyap example NAME [--reference "w1r; w2r; w3r"] [--out DIR]

Exit codes: 0 = all requested checks passed, 1 = a validation failed (a
check reported FAIL, or an ``errors.ValidationFailure`` was raised),
2 = configuration or usage error, 3 = internal error (any other exception;
its type, message and traceback go to stderr).  Files written under ``--out``
are CSV in ``dynsys._write_columns``'s format, deterministic for a fixed
config and seed.  ``simulate`` and ``verify iss-estimate`` run their
independent runs through ``dynsys.map_forked``, in up to one process per
CPU, with the output of the runs one after another.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import decay as decay_mod
from . import exprparse
from . import verify as verify_mod
from .config import (ROUTES, ConfigError, Problem, check_run_settings, load_problem,
                     require_gains, strictify_problem)
from .decay import estimate_pe
from .dynsys import (BlowUpError, NonFiniteInputError, Signal, _write_columns, integrate,
                     map_forked, write_trajectory_csv)
from .errors import ValidationFailure
from .exprparse import EvalDomainError, ExpressionError
from .fixtures import FIXTURES, check_reference_admissibility, get_fixture
from .strictify import UnboundedSupError, ValidationFailedError, construct_omega

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

VERIFY_CHECKS = ("uppd", "issp", "disp-state", "disp-value", "strict-iss",
                 "iss-estimate")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # looked up at each call, so the parser, built once, holds no entry
        return globals()[f"cmd_{args.command}"](args)
    except (ConfigError, ExpressionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="strictlyap", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    def subcommand(name, text, source=True):
        sp = sub.add_parser(name, help=text)
        if source:
            g = sp.add_mutually_exclusive_group()
            g.add_argument("--config", type=Path, help="problem config (INI)")
            g.add_argument("--example", choices=sorted(FIXTURES), help="built-in fixture")
        sp.add_argument("--out", type=Path, default=None, help="directory for CSV output")
        if name != "pe":        # the PE estimate samples nothing
            sp.add_argument("--seed", type=int, help="override the sampling seed")
            sp.add_argument("--samples", type=int, help="override the sample count")
        sp.set_defaults(seed=None, samples=None)
        return sp

    subcommand("pe", "estimate the excitation constants of p")
    subcommand("strictify", "build and validate the strict certificate")
    subcommand("verify", "run one named inequality check").add_argument(
        "check", help=f"one of {', '.join(VERIFY_CHECKS)}")
    subcommand("simulate", "integrate the configured runs")
    sp = subcommand("example", "run a built-in fixture end to end", source=False)
    sp.add_argument("name", choices=sorted(FIXTURES))
    sp.add_argument("--reference", default=None,
                    help="rigid-body only: 'w1r; w2r; w3r' reference expressions")
    return p


def _load(args) -> Problem:
    if getattr(args, "example", None):
        problem = get_fixture(args.example)
    elif getattr(args, "config", None):
        problem = load_problem(args.config)
    else:
        raise ConfigError("supply --config FILE or --example NAME")
    return _override(problem, args)


def _override(problem: Problem, args) -> Problem:
    """Apply --seed and --samples, held to the rules of the config keys."""
    check_run_settings(args.seed, args.samples)
    if args.seed is not None:
        problem.seed = args.seed
    if args.samples is not None:
        problem.samples = args.samples
    return problem


def _outdir(args) -> Path | None:
    """The --out directory, made if missing; a config error if it cannot be."""
    if args.out is None:
        return None
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {str(args.out)!r} is not a usable directory: "
                          f"{exc.strerror}") from None
    return args.out


def _write_csv(path: Path, header: list[str], rows) -> None:
    _write_columns(path, header, list(zip(*rows)) or [()] * len(header))


def _ensure_pe(problem: Problem) -> None:
    """Attach a certified triple estimated from the configured tau."""
    if problem.rate.pe is None:
        est = estimate_pe(problem.rate, problem.tau)
        problem.rate = problem.rate.with_pe(est.triple(certified=True))


# ---------------------------------------------------------------------------
# Subcommands

def cmd_pe(args) -> int:
    return _pe(_load(args), _outdir(args))


def _pe(problem: Problem, out: Path | None) -> int:
    est = estimate_pe(problem.rate, problem.tau)
    print(f"decay rate: {problem.rate.label or '(callable)'}")
    print(f"tau: {est.tau:.17g}")
    print(f"epsilon (raw): {est.epsilon:.17g}")
    print(f"pbar (raw): {est.pbar:.17g}")
    print(f"epsilon (certified, 1% margin): {est.epsilon_certified:.17g}")
    print(f"pbar (certified, 1% margin): {est.pbar_certified:.17g}")
    print(f"horizon: {est.horizon:.17g}")
    print(f"horizon-limited: {'yes' if est.horizon_limited else 'no'}")
    if out is not None:
        ts = np.linspace(0.0, est.horizon, 513)
        ws = decay_mod.window_integral_vec(problem.rate, est.tau, ts)
        _write_csv(out / "pe_window.csv", ["t", "window_integral"],
                   zip(ts.tolist(), ws.tolist()))
    return EXIT_OK


def cmd_strictify(args) -> int:
    return _strictify(_load(args), _outdir(args))[0]


def _strictify(problem: Problem, out: Path | None):
    """Build, print and write the certificate: (exit code, certificate or None)."""
    _ensure_pe(problem)
    try:
        cert = strictify_problem(problem)
    except ValidationFailedError as exc:
        print("strictification failed:")
        print(f"  {exc}")
        if exc.report.n_samples:
            _diagnose_omega(problem)
        return EXIT_FAIL, None
    except ValidationFailure as exc:
        print(f"strictification failed: {exc}")
        return EXIT_FAIL, None

    for line in cert.report_lines():
        print(line)
    if problem.xi_closed_form is not None:
        ts = np.linspace(0.0, 4.0 * np.pi, 101)
        dev = float(np.abs(cert.xi_fn(ts) - problem.xi_closed_form(ts)).max())
        print(f"vsharp coefficient: {problem.vsharp_coefficient_text}")
        print(f"xi closed-form max deviation: {dev:.3e}")
        if not dev <= 1.0e-6:       # also true for nan
            print("xi closed-form validation: FAIL")
            return EXIT_FAIL, cert
        print("xi closed-form validation: PASS")
    if out is not None:
        t1 = problem.domain.t_range[1]
        ts = np.linspace(0.0, t1, 513)
        xi_vals = np.asarray(cert.xi_fn(ts), dtype=float)
        # for linear w the last column is the multiplicative V# coefficient
        coeff = 1.0 + xi_vals * float(cert.w(1.0))
        _write_csv(out / "xi.csv",
                   ["t", "xi", "window_integral", "one_plus_xi_w_at_1"],
                   zip(ts.tolist(), xi_vals.tolist(),
                       np.asarray(cert.window_fn(ts), dtype=float).tolist(),
                       coeff.tolist()))
        _write_csv(out / "checks.csv",
                   ["name", "n_samples", "worst_margin", "passed"],
                   [(r.name, r.n_samples, float(r.worst_margin), int(r.passed))
                    for r in cert.validation.reports])
    return (EXIT_OK if cert.passed else EXIT_FAIL), cert


def _diagnose_omega(problem: Problem) -> None:
    """After a dissipation failure, test whether any envelope could work."""
    if problem.mu is None or problem.chi is None:
        return
    try:
        construct_omega(problem.system, problem.candidate, problem.mu,
                        problem.chi, seed=problem.seed)
    except UnboundedSupError as exc:
        print(f"  diagnosis: unbounded-sup - {exc}")
        print("  the uniform local boundedness premise fails; no envelope exists")
    else:
        print("  diagnosis: a dominating envelope exists; the configured gain "
              "pair is too tight")


def cmd_verify(args) -> int:
    name = args.check
    if name not in VERIFY_CHECKS:
        raise ConfigError(f"unknown check {name!r}; available: {', '.join(VERIFY_CHECKS)}")
    if name == "iss-estimate" and args.samples is not None:
        raise ConfigError("--samples does not apply to iss-estimate, which reads "
                          f"{verify_mod.ISS_POINTS} points per held-out run")
    problem = _load(args)
    out = _outdir(args)
    reports = _run_named_check(problem, name)
    for rep in reports:
        print(f"{rep.name}: margin={rep.worst_margin:.6e} n={rep.n_samples} "
              f"{'PASS' if rep.passed else 'FAIL'}")
        t, x, u = rep.worst_point
        print(f"  worst point: t={t:.17g} x={np.asarray(x).tolist()} "
              f"u={np.asarray(u).tolist()}")
        if rep.notes:
            print(f"  notes: {rep.notes}")
    if out is not None:
        _write_csv(out / "verify.csv",
                   ["name", "n_samples", "worst_margin", "passed", "t", "x", "u"],
                   [(r.name, r.n_samples, float(r.worst_margin), int(r.passed),
                     float(r.worst_point[0]), np.atleast_1d(r.worst_point[1]),
                     np.atleast_1d(r.worst_point[2]))
                    for r in reports])
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def _run_named_check(problem: Problem, name: str):
    c, s, d = problem.candidate, problem.system, problem.domain
    n, seed = problem.samples, problem.seed
    if name == "uppd":
        return [verify_mod.check_uppd(c, d, n, seed)]
    if name in ROUTES:
        require_gains(problem, ROUTES[name][1], "check needs")
    if name == "issp":
        return [verify_mod.check_issp_lyap(c, s, problem.rate, problem.mu,
                                           problem.chi, d, n, seed)]
    if name == "disp-state":
        return [verify_mod.check_disp_lyap(c, s, problem.rate, problem.mu,
                                           problem.omega, "state", d, n, seed)]
    if name == "disp-value":
        return [verify_mod.check_disp_lyap(c, s, problem.rate, problem.mu_tilde,
                                           problem.omega, "value", d, n, seed)]
    if name == "strict-iss":
        require_gains(problem, ("mu", "chi"), "check needs")
        return [verify_mod.check_strict_iss_lyap(c, s, problem.mu, problem.chi,
                                                 d, n, seed)]
    # iss-estimate: fit an envelope on generated runs, check on the holdout
    return [_iss_estimate_report(problem)]


def _iss_estimate_report(problem: Problem):
    sim = problem.sim
    n, m = problem.system.n, problem.system.m
    rng = np.random.default_rng(problem.seed)
    tf = min(sim.tf, sim.t0 + 20.0)
    starts = []           # three zero-input runs, then three constant inputs
    for scale in (1.0, 0.6, 0.3):
        x0 = rng.normal(size=n)
        x0 *= scale * 0.5 * problem.domain.x_radius / max(np.linalg.norm(x0), 1e-12)
        starts.append((x0, Signal.zero(m)))
    for amp in (0.2, 0.5, 1.0):
        x0 = rng.normal(size=n)
        x0 *= 0.3 * problem.domain.x_radius / max(np.linalg.norm(x0), 1e-12)
        starts.append((x0, Signal.constant([amp] + [0.0] * (m - 1)) if m
                       else Signal.zero(0)))
    trajs = list(map_forked(
        lambda start: integrate(problem.system, start[0], sim.t0, tf, start[1],
                                sim.step), starts))
    fit_batch, hold_batch = trajs[0:2] + trajs[3:5], [trajs[2], trajs[5]]
    beta, gamma = verify_mod.fit_iss_envelope(fit_batch, problem.rate,
                                              holdout=hold_batch)
    rep = verify_mod.check_iss_estimate(hold_batch, problem.rate, beta, gamma)
    print(f"fitted beta: {beta.label}")
    print(f"fitted gamma: {gamma.label}")
    return rep


def cmd_simulate(args) -> int:
    problem = _load(args)
    out = _outdir(args)
    cert = None
    try:
        _ensure_pe(problem)
        cert = strictify_problem(problem)
    except (ValidationFailure, ConfigError) as exc:
        print(f"V# unavailable: {exc}")  # simulate still runs; only V is reported
    return _simulate(problem, out, cert)


def _simulate(problem: Problem, out: Path | None, cert) -> int:
    """Integrate the configured runs; V# is reported when ``cert`` is given.

    The runs go through ``map_forked``, so they run in up to one process per
    CPU.  Output is that of the runs one after another: lines in run order,
    and run k's CSV, written under a temporary name, renamed into place once
    its line is printed, so a run that raises leaves no file of a later run.
    """
    sim = problem.sim
    runs = list(enumerate(sim.runs, start=1))

    def part(k: int) -> Path:
        return out / f"sim_{k}.csv.part"

    def one(k_run) -> tuple[int, str]:
        k, run = k_run
        try:
            traj = integrate(problem.system, run.x0, sim.t0, sim.tf, run.signal,
                             sim.step)
        except BlowUpError as exc:
            return EXIT_FAIL, f"run {k}: blow-up at t = {exc.time:.6g} (|x| = {exc.norm:.3e})"
        except NonFiniteInputError as exc:
            key = f", [sim] {run.inputs[exc.channel]}" if run.inputs else ""
            raise EvalDomainError(f"{exc} (run {k}{key})") from None
        with np.errstate(all="ignore"):     # V may be inf or nan at a step time
            v = np.asarray(problem.candidate.V(traj.times, traj.states), dtype=float)
            extra = {"V": v}
            if cert is not None:
                extra["Vsharp"] = np.asarray(cert.v_sharp(traj.times, traj.states),
                                             dtype=float)
        if out is not None:
            write_trajectory_csv(part(k), traj, extra)
        return EXIT_OK, (f"run {k}: x0={run.x0.tolist()} final |x| = "
                         f"{float(np.linalg.norm(traj.states[-1])):.6e} "
                         f"V(tf) = {float(v[-1]):.6e}")

    code = EXIT_OK
    try:
        with contextlib.closing(map_forked(one, runs)) as results:
            for (k, _), (run_code, line) in zip(runs, results):
                print(line)
                if out is not None and run_code == EXIT_OK:
                    os.replace(part(k), out / f"sim_{k}.csv")
                code = max(code, run_code)
    finally:
        if out is not None:
            for k, _ in runs:
                part(k).unlink(missing_ok=True)
    return code


def _reference(args) -> list[str] | None:
    """The three parts of rigid-body's reference, each an expression in t
    (also w3r, which enters no admissibility condition); None for another
    fixture, which takes no --reference."""
    if args.name != "rigid-body":
        if args.reference is not None:
            raise ConfigError("--reference only applies to rigid-body")
        return None
    parts = [p.strip() for p in (args.reference or "sin(t); 0; 0").split(";")]
    if len(parts) != 3:
        raise ConfigError("--reference must be three ';'-separated expressions")
    for part, text in zip(("w1r", "w2r", "w3r"), parts):
        try:
            exprparse.parse_over(text, ("t",))
        except ExpressionError as exc:
            raise ConfigError(f"--reference {part}: {exc}") from None
    return parts


def cmd_example(args) -> int:
    problem = _override(get_fixture(args.name), args)
    parts = _reference(args)    # before --out is made and anything is printed
    out = _outdir(args)

    print(f"fixture: {problem.name}")
    if parts is not None:
        res = check_reference_admissibility(parts[0], parts[1])
        print(f"reference: ({parts[0]}, {parts[1]}, {parts[2]})")
        if not res.admissible:
            print(f"admissibility-failed: {res.reason}")
            return EXIT_FAIL
        print(f"admissible: tau = {res.tau:.17g}, epsilon = {res.epsilon:.17g}")
        if args.reference is not None and args.reference.replace(" ", "") != "sin(t);0;0":
            print("constructions below use the default reference; rerun without "
                  "--reference for the built-in closed loop")
            return EXIT_OK

    if args.name == "counterexample-elw":
        return _example_counterexample(problem)

    code = _pe(problem, out)
    if code != EXIT_OK:
        return code
    code, cert = _strictify(problem, out)
    if code != EXIT_OK:
        return code
    problem.sim.tf = min(problem.sim.tf, 10.0)
    return _simulate(problem, out, cert)


def _example_counterexample(problem: Problem) -> int:
    """Expected story: the strict implication check passes, the dissipation
    margin diverges with the horizon, and no envelope can exist."""
    rep = verify_mod.check_strict_iss_lyap(problem.candidate, problem.system,
                                           problem.mu, problem.chi,
                                           problem.domain, problem.samples,
                                           problem.seed)
    print(f"strict-iss check: margin={rep.worst_margin:.6e} "
          f"{'PASS' if rep.passed else 'FAIL'}")
    ok = rep.passed
    margins = {}
    for t_max in (10.0, 100.0):
        dom = dataclasses.replace(problem.domain, t_range=(0.0, t_max))
        dis = verify_mod.check_disp_lyap(problem.candidate, problem.system,
                                         problem.rate, problem.mu, problem.omega,
                                         "state", dom, problem.samples, problem.seed)
        margins[t_max] = dis.worst_margin
        print(f"dissipation margin on t in [0, {t_max:g}]: {dis.worst_margin:.6e}")
    diverges = margins[100.0] <= margins[10.0] - 100.0
    print(f"margin divergence (>= 100 lower on the long horizon): "
          f"{'yes' if diverges else 'no'}")
    ok = ok and diverges
    try:
        construct_omega(problem.system, problem.candidate, problem.mu,
                        problem.chi, seed=problem.seed)
        print("envelope construction unexpectedly succeeded")
        ok = False
    except UnboundedSupError as exc:
        print(f"unbounded-sup (expected): {exc}")
    print(f"counterexample behaves as documented: {'yes' if ok else 'no'}")
    return EXIT_OK if ok else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
