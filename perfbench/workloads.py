"""The three benchmark workloads: their inputs, operations and output checks.

A workload function makes its inputs from the workload seed (fixture builds or
generated INI files; this is the set-up a user pays) and returns the list of
operations.  An operation is one CLI command or one library call; it returns
its deterministic text output and may write files into its own directory.
Every operation has a check that returns the reasons it failed, if any.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import strictlyap as sl
from strictlyap import cli

PI = math.pi
MASKED_CHECKS = {"issp-lyapunov", "strict-iss-contract"}   # implication mask
CHECK_LINE = re.compile(r"^check\.(\S+): margin=(\S+) n=(\d+) (PASS|FAIL)$")
XI_CSV_ROWS = 513            # cmd_strictify tabulates xi on 513 times
VSHARP_RISE_TOL = 1.0e-7     # largest allowed rise of V# along a zero-input run
VSHARP_STOP = 0.5e-4         # zero-input runs stop once V# falls below this
ISS_HOLDOUT_POINTS = 2 * 200  # iss-estimate: 2 held-out runs x n_h points


@dataclass(frozen=True)
class Size:
    """Input size; `FULL` is the benchmark, `TINY` the self-test."""

    fixture_samples: int | None   # None keeps each fixture's own count
    sweep_problems: int
    sweep_samples: int
    simulate_example: str
    zero_runs: int
    cert_samples: int


FULL = Size(None, 12, 2000, "rigid-body", 6, 2000)
TINY = Size(2000, 2, 500, "scalar-linear", 1, 500)


@dataclass
class Op:
    name: str
    run: Callable[[Path], str]
    check: Callable[[str, Path], list[str]]


def digest(text: str, out: Path) -> str:
    """sha256 of the text output and of every file the operation wrote."""
    h = hashlib.sha256(text.encode())
    for path in sorted(out.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Operations

def cli_op(argv: list[str], out: bool = False) -> Callable[[Path], str]:
    """One CLI command; the text output is its exit code and stdout."""

    def run(out_dir: Path) -> str:
        args = argv + (["--out", str(out_dir)] if out else [])
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(args)
        return f"exit={code}\n{buf.getvalue()}"

    return run


def _lines(text: str) -> list[str]:
    return text.splitlines()


def _value(text: str, prefix: str) -> float | None:
    for line in _lines(text):
        if line.startswith(prefix):
            return float(line[len(prefix):].split()[0])
    return None


def _exit_ok(text: str) -> list[str]:
    first = _lines(text)[0] if text else ""
    return [] if first == "exit=0" else [f"expected exit 0, got {first!r}"]


def _check_reports(text: str, samples: int) -> list[str]:
    """Every check line passed on a nonempty, finite, full-size sample."""
    reasons = []
    reports = [m.groups() for m in map(CHECK_LINE.match, _lines(text)) if m]
    if len(reports) < 4:
        reasons.append(f"expected at least 4 check lines, found {len(reports)}")
    for name, margin, n, verdict in reports:
        n = int(n)
        if verdict != "PASS":
            reasons.append(f"check {name} failed")
        if not math.isfinite(float(margin)):
            reasons.append(f"check {name} has non-finite margin {margin}")
        if n == 0:
            reasons.append(f"check {name} ran on n=0 samples")
        elif name not in MASKED_CHECKS and n != samples:
            reasons.append(f"check {name} ran on {n} of {samples} samples")
        elif n > samples:
            reasons.append(f"check {name} kept {n} of {samples} samples")
    if "validation: PASS" not in _lines(text):
        reasons.append("no 'validation: PASS'")
    return reasons


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def check_strictify(samples: int, closed_form: bool) -> Callable[[str, Path], list[str]]:
    def check(text: str, out: Path) -> list[str]:
        reasons = _exit_ok(text) + _check_reports(text, samples)
        if closed_form:
            dev = _value(text, "xi closed-form max deviation:")
            if dev is None or not dev <= 1.0e-6:
                reasons.append(f"xi closed-form deviation {dev} exceeds 1e-6")
            if "xi closed-form validation: PASS" not in _lines(text):
                reasons.append("no 'xi closed-form validation: PASS'")
        n_stdout = [int(m.group(3)) for m in map(CHECK_LINE.match, _lines(text)) if m]
        if not (out / "checks.csv").is_file() or not (out / "xi.csv").is_file():
            return reasons + ["checks.csv or xi.csv missing"]
        n_csv = [int(row[1]) for row in _csv_rows(out / "checks.csv")]
        if n_csv != n_stdout:
            reasons.append(f"checks.csv sample counts {n_csv} differ from stdout {n_stdout}")
        xi_rows = _csv_rows(out / "xi.csv")
        if len(xi_rows) != XI_CSV_ROWS:
            reasons.append(f"xi.csv has {len(xi_rows)} rows, expected {XI_CSV_ROWS}")
        elif not all(math.isfinite(float(v)) for row in xi_rows for v in row):
            reasons.append("xi.csv holds a non-finite value")
        return reasons

    return check


def check_pe(text: str, out: Path) -> list[str]:
    reasons = _exit_ok(text)
    eps = _value(text, "epsilon (raw):")
    pbar = _value(text, "pbar (raw):")
    if eps is None or not abs(eps - PI / 2.0) <= 1.0e-6:
        reasons.append(f"epsilon {eps} is not pi/2 within 1e-6")
    if pbar is None or not abs(pbar - 1.0) <= 1.0e-9:
        reasons.append(f"pbar {pbar} is not 1 within 1e-9")
    return reasons


def check_counterexample(text: str, out: Path) -> list[str]:
    reasons = _exit_ok(text)
    if "counterexample behaves as documented: yes" not in _lines(text):
        reasons.append("counterexample does not behave as documented")
    strict = _value(text, "strict-iss check: margin=")
    if strict is None or not math.isfinite(strict):
        # an empty implication region reports margin=inf
        reasons.append(f"strict-iss margin {strict} is not finite")
    for line in _lines(text):
        if line.startswith("dissipation margin on"):
            if not math.isfinite(float(line.rsplit(":", 1)[1])):
                reasons.append(f"non-finite margin in {line!r}")
    return reasons


def _n_steps(sim) -> int:
    """Rows integrate records without a stop condition, minus the first."""
    return int(np.ceil((sim.tf - sim.t0) / sim.step - 1.0e-12))


def check_simulate(problem) -> Callable[[str, Path], list[str]]:
    def check(text: str, out: Path) -> list[str]:
        reasons = _exit_ok(text)
        rows = _n_steps(problem.sim) + 1
        for k, run in enumerate(problem.sim.runs, start=1):
            path = out / f"sim_{k}.csv"
            if not path.is_file():
                reasons.append(f"{path.name} missing")
                continue
            with open(path, encoding="utf-8") as fh:
                header = fh.readline().strip().split(",")
            if "Vsharp" not in header:
                reasons.append(f"{path.name} has no Vsharp column")
                continue
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            if data.shape[0] != rows:
                reasons.append(f"{path.name} has {data.shape[0]} rows, expected {rows}")
            if not np.isfinite(data).all():
                reasons.append(f"{path.name} holds a non-finite value")
            if run.signal.sup_bound == 0.0:
                rise = float(np.diff(data[:, header.index("Vsharp")]).max())
                if rise > VSHARP_RISE_TOL:
                    reasons.append(f"V# rises by {rise:.3e} along zero-input run {k}")
        return reasons

    return check


def check_iss_estimate(text: str, out: Path) -> list[str]:
    reasons = _exit_ok(text)
    m = re.search(r"^iss-estimate: margin=(\S+) n=(\d+) (PASS|FAIL)$", text, re.M)
    if m is None:
        return reasons + ["no iss-estimate report line"]
    margin, n, verdict = float(m.group(1)), int(m.group(2)), m.group(3)
    if verdict != "PASS":
        reasons.append("iss-estimate failed")
    if not math.isfinite(margin):
        reasons.append(f"iss-estimate margin {margin} is not finite")
    if n != ISS_HOLDOUT_POINTS:
        reasons.append(f"iss-estimate ran on {n} of {ISS_HOLDOUT_POINTS} points")
    return reasons


# ---------------------------------------------------------------------------
# Workloads

def _seed_args(problem, seed: int, size: Size) -> list[str]:
    args = ["--seed", str(problem.seed + seed)]
    if size.fixture_samples is not None:
        args += ["--samples", str(size.fixture_samples)]
    return args


def fixtures(seed: int, size: Size, work: Path) -> list[Op]:
    """The three built-in fixtures through the CLI."""
    rb = sl.get_fixture("rigid-body")
    lin = sl.get_fixture("scalar-linear")
    ce = sl.get_fixture("counterexample-elw")

    def samples(p):
        return size.fixture_samples or p.samples

    return [
        Op("pe rigid-body", cli_op(["pe", "--example", "rigid-body"]), check_pe),
        Op("strictify rigid-body",
           cli_op(["strictify", "--example", "rigid-body", *_seed_args(rb, seed, size)],
                  out=True),
           check_strictify(samples(rb), closed_form=True)),
        Op("strictify scalar-linear",
           cli_op(["strictify", "--example", "scalar-linear", *_seed_args(lin, seed, size)],
                  out=True),
           check_strictify(samples(lin), closed_form=False)),
        Op("example counterexample-elw",
           cli_op(["example", "counterexample-elw", *_seed_args(ce, seed, size)]),
           check_counterexample),
    ]


def sweep_config(i: int, rng: np.random.Generator, seed: int, samples: int) -> str:
    """INI text of sweep problem ``i``, certifiable by construction.

    The rate is p = a + b sin^2(om t), periodic with P = pi/om; every third
    problem adds c sin^2(sqrt2 om t), which makes it aperiodic.  Even
    problems take the issp route (dx = -k p (x - u), mu = k s^2/2, chi = 2s),
    odd ones the disp-value route (dx = -p (x - u/2), mu_tilde = s,
    Omega = pmax s^2/2).  The route, tau in {P, 2P}, om and aperiodicity
    depend on i only, so that the cost of a sweep does not depend on the
    seed; the seed draws the coefficients.
    """
    om = (0.5, 1.0, 2.0)[(i // 4) % 3]
    period = PI / om
    tau = period if (i // 2) % 2 == 0 else 2.0 * period
    aperiodic = i % 3 == 2
    issp = i % 2 == 0
    a = float(rng.uniform(0.0, 0.5))
    b = float(rng.uniform(0.5, 2.0))
    p = f"{a!r} + {b!r}*sin({om!r}*t)^2"
    pmax = a + b
    if aperiodic:
        c = float(rng.uniform(0.2, 0.6))
        p += f" + {c!r}*sin({math.sqrt(2.0) * om!r}*t)^2"
        pmax += c
    period_line = [] if aperiodic else [f"period = {period!r}"]
    problem = [f"name = sweep-{i}", "n = 1", "m = 1",
               f"mode = {'issp' if issp else 'disp-value'}", f"tau = {tau!r}",
               f"seed = {1000 * seed + i}", *period_line]
    if issp:
        k = float(rng.uniform(0.5, 2.0))
        f = f"-{k!r}*({p})*(x1 - u1)"
        gains = [f'mu = "{0.5 * k!r}*s^2"', 'chi = "2*s"']
    else:
        f = f"-({p})*(x1 - 0.5*u1)"
        gains = ['mu_tilde = "s"', f'omega = "{0.5 * pmax!r}*s^2"']
        # slope gate w' <= 1/(2 tau^2 pbar) with the certified pbar = 1.01 pmax
        problem.append(f"factor = {min(0.125, 0.9 / (2.0 * tau * 1.01 * pmax))!r}")
    sections = {
        "problem": problem,
        "system": [f'f1 = "{f}"'],
        "lyapunov": ['V = "0.5*x1^2"', 'alpha1 = "0.5*s^2"', 'alpha2 = "0.5*s^2"',
                     'alpha3 = "s"'],
        "decay": [f'p = "{p}"', *period_line],
        "gains": gains,
        "domains": [f"t_max = {2.0 * tau!r}", "x_radius = 5.0", "u_radius = 1.5",
                    f"samples = {samples}"],
    }
    return "\n".join(f"[{name}]\n" + "\n".join(body) + "\n"
                     for name, body in sections.items())


def sweep(seed: int, size: Size, work: Path) -> list[Op]:
    """Generated INI problems through `strictify --config`."""
    rng = np.random.default_rng([seed, 0x5EED])
    ops = []
    for i in range(size.sweep_problems):
        path = work / f"sweep-{i}.ini"
        path.write_text(sweep_config(i, rng, seed, size.sweep_samples), encoding="utf-8")
        ops.append(Op(f"strictify sweep-{i}",
                      cli_op(["strictify", "--config", str(path)], out=True),
                      check_strictify(size.sweep_samples, closed_form=False)))
    return ops


def _array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def trajectories(seed: int, size: Size, work: Path) -> list[Op]:
    """simulate --out, V#-stopped zero-input runs and iss-estimate."""
    sim_problem = sl.get_fixture(size.simulate_example)
    rb = sl.get_fixture("rigid-body")
    lin = sl.get_fixture("scalar-linear")
    state = {}
    tf, step = 60.0, 1.0e-3
    full_rows = int(np.ceil(tf / step - 1.0e-12)) + 1

    def certify(out: Path) -> str:
        cert = sl.strictify_problem(rb, n_samples=size.cert_samples, seed=rb.seed + seed)
        state["cert"] = cert
        ts = np.linspace(0.0, 4.0 * PI, 101)
        dev = float(np.abs(cert.xi_fn(ts) - rb.xi_closed_form(ts)).max())
        return "\n".join(["exit=0", *cert.report_lines(),
                          f"xi closed-form max deviation: {dev:.3e}"])

    def check_certify(text: str, out: Path) -> list[str]:
        reasons = _check_reports(text, size.cert_samples)
        dev = _value(text, "xi closed-form max deviation:")
        if dev is None or not dev <= 1.0e-6:
            reasons.append(f"xi closed-form deviation {dev} exceeds 1e-6")
        return reasons

    # zero-input initial states on the sphere |x0| = 2 (so V(0, x0) = 2):
    # the seed turns the direction, which barely changes the run length
    rng = np.random.default_rng([seed, 0x606])
    dirs = rng.normal(size=(size.zero_runs, rb.system.n))
    starts = 2.0 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)

    def zero_runs(out: Path) -> str:
        cert = state["cert"]
        state["runs"] = [
            sl.integrate(rb.system, x0, 0.0, tf, sl.Signal.zero(rb.system.m), step,
                         stop_when=lambda t, x: float(cert.v_sharp(t, x)) < VSHARP_STOP)
            for x0 in starts]
        return "\n".join(f"x0={x0.tolist()} rows={tr.times.size} t_end={tr.times[-1]!r} "
                         f"trajectory={_array_digest(tr.times, tr.states)}"
                         for x0, tr in zip(starts, state["runs"]))

    def check_zero_runs(text: str, out: Path) -> list[str]:
        reasons = []
        for k, traj in enumerate(state.pop("runs"), start=1):
            vs = np.asarray(state["cert"].v_sharp(traj.times, traj.states), dtype=float)
            if not np.isfinite(vs).all():
                reasons.append(f"non-finite V# along run {k}")
            rise = float(np.diff(vs).max())
            if rise > VSHARP_RISE_TOL:
                reasons.append(f"V# rises by {rise:.3e} along run {k}")
            if not vs[-1] < VSHARP_STOP and traj.times.size != full_rows:
                reasons.append(f"run {k} has {traj.times.size} of {full_rows} rows "
                               "and no stop fired")
        return reasons

    return [
        Op(f"simulate {size.simulate_example}",
           cli_op(["simulate", "--example", size.simulate_example,
                   "--seed", str(sim_problem.seed + seed)], out=True),
           check_simulate(sim_problem)),
        Op("certify rigid-body", certify, check_certify),
        Op("zero-input runs", zero_runs, check_zero_runs),
        Op("verify iss-estimate scalar-linear",
           cli_op(["verify", "iss-estimate", "--example", "scalar-linear",
                   "--seed", str(lin.seed + seed)]),
           check_iss_estimate),
    ]


WORKLOADS = {"fixtures": fixtures, "sweep": sweep, "trajectories": trajectories}
