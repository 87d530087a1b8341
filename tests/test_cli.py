import argparse
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import strictlyap
from strictlyap import cli, exprparse, fixtures, funcalc, strictify
from strictlyap.config import ConfigError, SimSpec, load_problem, strictify_problem
from strictlyap.dynsys import DEFAULT_STEP, BlowUpError, integrate, write_trajectory_csv
from strictlyap.strictify import default_domain
from strictlyap.verify import SampleDomain

README = Path(__file__).resolve().parent.parent / "README.md"

SCALAR_CONFIG = """\
[problem]
name = leaky
n = 1
m = 1
mode = issp
tau = 1.0
seed = 5
period = 1.0

[system]
f1 = "-x1 + u1"

[lyapunov]
V = "0.5*x1^2"
alpha1 = "0.5*s^2"
alpha2 = "0.5*s^2"
alpha3 = "s"

[decay]
p = "1"
period = 1.0

[gains]
mu = "0.5*s^2"
chi = "2*s"

[domains]
t_max = 2.0
x_radius = 6.0
u_radius = 2.0
samples = 3000

[sim]
t0 = 0.0
tf = 5.0
step = 0.001
x0.1 = 1.0
u.1.1 = "0"
x0.2 = -0.5
u.2.1 = "0.2*sin(t)"
"""

# two states and two inputs, so that a radius enters the ball sampler
# squared; dV/dt = -|x|^2 + x.u <= -V + |u|^2/2
TWO_STATE_CONFIG = """\
[problem]
n = 2
m = 2
mode = disp-value
tau = 1.0
period = 1.0

[system]
f1 = "-x1 + u1"
f2 = "-x2 + u2"

[lyapunov]
V = "0.5*x1^2 + 0.5*x2^2"
alpha1 = "0.5*s^2"
alpha2 = "0.5*s^2"
alpha3 = "s"

[decay]
p = "1"
period = 1.0

[gains]
mu_tilde = "s"
omega = "0.5*s^2"

[domains]
t_max = 2.0
x_radius = 1.0
u_radius = 1.0
samples = 500
"""


@pytest.fixture
def scalar_config(tmp_path):
    path = tmp_path / "leaky.ini"
    path.write_text(SCALAR_CONFIG, encoding="utf-8")
    return path


def _edit_case(old, new, match):
    """SCALAR_CONFIG with ``old`` replaced by ``new``, and the error it raises."""
    return pytest.param(old, new, match, id=f"{old}-{new}")


class TestConfigLoading:
    def test_full_round_trip(self, scalar_config):
        problem = load_problem(scalar_config)
        assert problem.name == "leaky"
        assert problem.system.n == 1 and problem.system.m == 1
        assert problem.mode == "issp"
        assert len(problem.sim.runs) == 2
        assert problem.domain.x_radius == 6.0
        # the loaded problem strictifies end to end
        problem.rate = problem.rate.with_pe(
            __import__("strictlyap").estimate_pe(problem.rate, problem.tau).triple())
        cert = strictify_problem(problem)
        assert cert.passed

    def test_missing_section(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[system]\nf1 = -x1\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_problem(p)

    def test_bad_expression_reported(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(SCALAR_CONFIG.replace('"-x1 + u1"', '"-x1 + )"'), encoding="utf-8")
        with pytest.raises(ConfigError):
            load_problem(p)

    def test_bad_mode(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(SCALAR_CONFIG.replace("mode = issp", "mode = magic"),
                     encoding="utf-8")
        with pytest.raises(ConfigError):
            load_problem(p)

    @pytest.mark.parametrize("mode, needed", [("issp", ("mu", "chi")),
                                              ("disp-state", ("mu", "omega")),
                                              ("disp-value", ("mu_tilde", "omega"))],
                             ids=["issp", "disp-state", "disp-value"])
    def test_missing_gain_for_mode(self, tmp_path, mode, needed):
        gains = {"mu": "0.5*s^2", "chi": "2*s", "mu_tilde": "s", "omega": "0.5*s^2"}
        p = tmp_path / "bad.ini"
        for gain in needed:
            given = "\n".join(f'{k} = "{v}"' for k, v in gains.items() if k != gain)
            text = (SCALAR_CONFIG.replace("mode = issp", f"mode = {mode}")
                    .replace('mu = "0.5*s^2"\nchi = "2*s"', given))
            assert given in text
            p.write_text(text, encoding="utf-8")
            with pytest.raises(ConfigError, match=f"mode '{mode}' requires gains: {gain}$"):
                load_problem(p)

    @pytest.mark.parametrize("old, new, match", [
        _edit_case("n = 1\n", "n = 0\n", r"\[problem\] n must be at least 1, got 0"),
        _edit_case("m = 1\n", "m = -1\n", r"\[problem\] m must be non-negative, got -1"),
        _edit_case("tau = 1.0", "tau = nan",
                   r"\[problem\] tau must be positive and finite, got nan"),
        _edit_case("tau = 1.0", "tau = inf",
                   r"\[problem\] tau must be positive and finite, got inf"),
        _edit_case("seed = 5\nperiod = 1.0", "seed = 5\nperiod = 0",
                   r"\[problem\] period must be positive and finite, got 0.0"),
        _edit_case("seed = 5\nperiod = 1.0", "seed = 5\nperiod = -2",
                   r"\[problem\] period must be positive and finite, got -2.0"),
        _edit_case('p = "1"\nperiod = 1.0', 'p = "1"\nperiod = 0',
                   r"\[decay\] period must be positive and finite, got 0.0"),
        _edit_case('p = "1"\nperiod = 1.0', 'p = "1"\nperiod = -1',
                   r"\[decay\] period must be positive and finite, got -1.0"),
        _edit_case("seed = 5\n", "seed = 5\nfactor = 0.5\n",
                   r"\[problem\] factor must be in \(0, 1/4\], got 0.5"),
        _edit_case("seed = 5\n", "seed = 5\nfactor = nan\n",
                   r"\[problem\] factor must be in \(0, 1/4\], got nan"),
        _edit_case("x_radius = 6.0", "x_radius = nan",
                   r"\[domains\] x_radius must be non-negative and finite, got nan"),
        _edit_case("u_radius = 2.0", "u_radius = -1",
                   r"\[domains\] u_radius must be non-negative and finite, got -1.0"),
        _edit_case("t_max = 2.0", "t_max = nan", r"\[domains\] t_max must be finite, got nan"),
        _edit_case("t_max = 2.0", "t_max = 2.0\nt_min = 2.0",
                   r"\[domains\] t_max must exceed t_min, got t_min=2.0, t_max=2.0"),
        _edit_case("x0.1 = 1.0", "x0.1 = nan",
                   r"\[sim\] x0.1 must be 1 finite numbers, got 'nan'"),
        _edit_case("mode = issp", "mode = bogus",
                   r"^\[problem\] mode must be one of \('issp', 'disp-state', 'disp-value'\), "
                   r"got 'bogus'$"),
        _edit_case("seed = 5\n", "seed = -1\n",
                   r"^\[problem\] seed must be non-negative, got -1$"),
        _edit_case("samples = 3000", "samples = 1",
                   r"^\[domains\] samples must be at least 2, got 1$"),
    ])
    def test_out_of_range_number_is_config_error(self, tmp_path, capsys, old, new, match):
        assert old in SCALAR_CONFIG
        cfg = tmp_path / "bad.ini"
        cfg.write_text(SCALAR_CONFIG.replace(old, new), encoding="utf-8")
        with pytest.raises(ConfigError, match=match) as exc:
            load_problem(cfg)
        assert cli.main(["strictify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {exc.value}\n"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_problem(tmp_path / "absent.ini")

    @pytest.mark.parametrize("key", ["n", "m", "tau"])
    def test_missing_dimension_is_config_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "bad.ini"
        text = re.sub(rf"\n{key} = [^\n]*\n", "\n", SCALAR_CONFIG)
        assert text != SCALAR_CONFIG
        cfg.write_text(text, encoding="utf-8")
        assert cli.main(["strictify", "--config", str(cfg)]) == 2
        assert f"config error: [problem] {key} is required" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["system", "lyapunov", "decay"])
    def test_missing_section_is_named(self, tmp_path, capsys, section):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(re.sub(rf"\[{section}\]\n[^\[]*", "", SCALAR_CONFIG), encoding="utf-8")
        assert cli.main(["strictify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.strip() == f"config error: missing [{section}] section"


class TestCommands:
    def test_pe_on_fixture(self, capsys):
        assert cli.main(["pe", "--example", "rigid-body"]) == 0
        out = capsys.readouterr().out
        eps = float([l for l in out.splitlines() if l.startswith("epsilon (raw)")][0].split(":")[1])
        assert eps == pytest.approx(np.pi / 2, abs=1e-6)

    def test_pe_writes_window_csv(self, scalar_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["pe", "--config", str(scalar_config), "--out", str(out)]) == 0
        lines = (out / "pe_window.csv").read_text().splitlines()
        assert lines[0] == "t,window_integral"
        assert len(lines) == 514

    def test_strictify_config(self, scalar_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["strictify", "--config", str(scalar_config),
                         "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "kind: strict-ISS" in text
        assert "validation: PASS" in text
        assert (out / "xi.csv").exists() and (out / "checks.csv").exists()

    def test_verify_check_names(self, scalar_config, capsys):
        assert cli.main(["verify", "uppd", "--config", str(scalar_config)]) == 0
        assert cli.main(["verify", "issp", "--config", str(scalar_config)]) == 0
        assert cli.main(["verify", "nonsense", "--config", str(scalar_config)]) == 2

    def test_verify_unknown_check_creates_no_directory(self, tmp_path, capsys):
        out = tmp_path / "vout"
        assert cli.main(["verify", "nonsense", "--example", "scalar-linear",
                         "--out", str(out)]) == 2
        assert "unknown check 'nonsense'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["", "sub"])
    @pytest.mark.parametrize("argv", [["pe", "--example", "rigid-body"],
                                      ["strictify", "--example", "scalar-linear"]])
    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys, argv, sub):
        # a file, or a path under one, cannot be made a directory
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n", encoding="utf-8")
        out = blocker / sub if sub else blocker
        assert cli.main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: --out {str(out)!r} ")
        assert "Traceback" not in captured.err
        assert captured.out == ""             # refused before any work
        assert blocker.read_text(encoding="utf-8") == "keep\n"

    def test_iss_estimate_refuses_samples(self, tmp_path, capsys):
        # the held-out check reads verify.ISS_POINTS points per run, whatever
        # the budget, so a --samples it would ignore is refused
        out = tmp_path / "vout"
        assert cli.main(["verify", "iss-estimate", "--example", "scalar-linear",
                         "--samples", "5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("config error: --samples does not apply to "
                                "iss-estimate, which reads 200 points per held-out run\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("check, example, name, n, m", [
        ("uppd", "rigid-body", "uppd", 3, 0),
        ("issp", None, "issp-lyapunov", 1, 1),
    ], ids=["uppd-rigid-body", "issp-scalar-config"])
    def test_verify_writes_verify_csv(self, scalar_config, tmp_path, capsys,
                                      check, example, name, n, m):
        out = tmp_path / "out"
        source = ["--example", example] if example else ["--config", str(scalar_config)]
        assert cli.main(["verify", check, *source, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        margin, count = re.search(r"margin=(\S+) n=(\d+)", text).groups()
        point = re.search(r"worst point: t=(\S+) x=\[(.*)\] u=\[(.*)\]", text)
        t = float(point.group(1))
        x, u = ([float(v) for v in g.split(",") if v] for g in point.group(2, 3))
        assert (len(x), len(u)) == (n, m)
        header, row, end = (out / "verify.csv").read_bytes().split(b"\r\n")
        assert header == b"name,n_samples,worst_margin,passed,t,x,u" and end == b""
        cells = row.decode().split(",")
        assert cells[:2] == [name, count] and cells[3:5] == ["1", f"{t:.17g}"]
        assert float(cells[2]) == pytest.approx(float(margin), rel=1e-6)
        assert cells[5] == " ".join(f"{v:.17g}" for v in x)
        # no input: the u cell is empty and the row ends in a comma
        assert cells[6] == ("" if m == 0 else f"{u[0]:.17g}")

    def test_verify_failure_exit_code(self, capsys):
        # the counterexample cannot satisfy the dissipation form
        assert cli.main(["verify", "disp-state", "--example",
                         "counterexample-elw", "--samples", "4000"]) == 1

    def test_simulate_writes_trajectories(self, scalar_config, tmp_path, capsys):
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", str(scalar_config),
                         "--out", str(out)]) == 0
        header = (out / "sim_1.csv").read_text().splitlines()[0]
        assert header == "t,x1,u1,V,Vsharp"
        data = np.loadtxt(out / "sim_1.csv", delimiter=",", skiprows=1)
        # V# non-increasing for the zero-input run
        assert np.all(np.diff(data[:, 4]) <= 1e-9)

    def test_example_counterexample_story(self, capsys):
        assert cli.main(["example", "counterexample-elw", "--samples", "8000"]) == 0
        out = capsys.readouterr().out
        assert "strict-iss check" in out and "PASS" in out
        assert "unbounded-sup (expected)" in out

    def test_example_scalar_linear(self, capsys, tmp_path):
        code = cli.main(["example", "scalar-linear", "--out", str(tmp_path / "e")])
        assert code == 0

    def test_example_rigid_body_inadmissible_reference(self, capsys):
        assert cli.main(["example", "rigid-body",
                         "--reference", "sin(t); sin(t); 0"]) == 1
        assert "admissibility-failed" in capsys.readouterr().out

    def test_example_rigid_body_zero_reference(self, capsys):
        assert cli.main(["example", "rigid-body", "--reference", "0; 0; 0"]) == 1

    @pytest.mark.parametrize("w3r", ["garbage(((", "x1"])
    def test_example_rigid_body_bad_third_reference(self, capsys, w3r):
        assert cli.main(["example", "rigid-body", "--reference", f"sin(t); 0; {w3r}"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, line", [
        pytest.param(["verify", "nonsense", "--example", "scalar-linear"],
                     "unknown check 'nonsense'; available: uppd, issp, disp-state, "
                     "disp-value, strict-iss, iss-estimate", id="unknown-check"),
        pytest.param(["example", "rigid-body", "--reference", "sin(t); 0"],
                     "--reference must be three ';'-separated expressions", id="two-parts"),
        pytest.param(["example", "scalar-linear", "--reference", "sin(t); 0; 0"],
                     "--reference only applies to rigid-body", id="other-fixture"),
        pytest.param(["example", "rigid-body", "--reference", "sin(t; 0; 0"],
                     "--reference w1r: expected ')', found 'end of input' (line 1, column 6)",
                     id="w1r"),
        pytest.param(["example", "rigid-body", "--reference", "sin(t); x1; 0"],
                     "--reference w2r: expression uses ['x1'] not among arguments ['t']",
                     id="w2r"),
        pytest.param(["example", "rigid-body", "--reference", "sin(t); 0; garbage((("],
                     "--reference w3r: unknown function 'garbage' (line 1, column 1)",
                     id="w3r"),
    ])
    def test_command_line_error_names_its_option(self, capsys, argv, line):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"config error: {line}\n"

    @pytest.mark.parametrize("name, reference, line", [
        ("scalar-linear", "0;0;0", "--reference only applies to rigid-body"),
        ("rigid-body", "sin(t); 0", "--reference must be three ';'-separated expressions"),
        ("rigid-body", "sin(t); x1; 0",
         "--reference w2r: expression uses ['x1'] not among arguments ['t']"),
    ])
    def test_refused_reference_prints_and_makes_nothing(self, capsys, tmp_path, name,
                                                        reference, line):
        out = tmp_path / "out"
        assert cli.main(["example", name, "--reference", reference, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"config error: {line}\n"
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[problem]\nn = 1\n", encoding="utf-8")
        assert cli.main(["pe", "--config", str(bad)]) == 2

    def test_missing_source_rejected(self, capsys):
        assert cli.main(["pe"]) == 2


class TestDeterminism:
    def _run(self, argv, outdir):
        code = cli.main(argv + ["--out", str(outdir)])
        assert code == 0
        return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

    def test_pe_outputs_byte_identical(self, scalar_config, tmp_path):
        a = self._run(["pe", "--config", str(scalar_config)], tmp_path / "a")
        b = self._run(["pe", "--config", str(scalar_config)], tmp_path / "b")
        assert a == b

    def test_simulate_outputs_byte_identical(self, scalar_config, tmp_path):
        a = self._run(["simulate", "--config", str(scalar_config), "--seed", "9"],
                      tmp_path / "a")
        b = self._run(["simulate", "--config", str(scalar_config), "--seed", "9"],
                      tmp_path / "b")
        assert a == b

    def test_strictify_outputs_byte_identical(self, scalar_config, tmp_path):
        a = self._run(["strictify", "--config", str(scalar_config), "--seed", "3"],
                      tmp_path / "a")
        b = self._run(["strictify", "--config", str(scalar_config), "--seed", "3"],
                      tmp_path / "b")
        assert a == b

    def test_verify_outputs_byte_identical(self, scalar_config, tmp_path):
        a = self._run(["verify", "issp", "--config", str(scalar_config), "--seed", "4"],
                      tmp_path / "a")
        b = self._run(["verify", "issp", "--config", str(scalar_config), "--seed", "4"],
                      tmp_path / "b")
        assert a == b

    def test_files_equal_across_string_hashing(self, tmp_path):
        # the tests above run in one process, so they cannot see a dependence
        # on string hashing; two processes with different PYTHONHASHSEED can
        cfg = _readme_ini(tmp_path)
        files = []
        for seed in ("1", "2"):
            out = tmp_path / f"ini{seed}"
            for command in (["pe"], ["strictify"], ["verify", "uppd"]):
                proc = subprocess.run(
                    [sys.executable, "-m", "strictlyap.cli", *command, "--config", str(cfg),
                     "--out", str(out)], capture_output=True, text=True, timeout=300,
                    env={**_child_env(), "PYTHONHASHSEED": seed})
                assert proc.returncode == 0, proc.stderr
            files.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert list(files[0]) == ["checks.csv", "pe_window.csv", "verify.csv", "xi.csv"]
        assert files[0] == files[1]


def _child_env() -> dict:
    """The environment of a child process that imports the package under
    test, also when only pytest's `pythonpath` setting put it on the path."""
    src = str(Path(strictlyap.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "strictlyap.cli", "pe", "--example", "scalar-linear"],
        capture_output=True, text=True, timeout=300, env=_child_env())
    assert proc.returncode == 0
    line = [l for l in proc.stdout.splitlines() if l.startswith("epsilon (raw)")][0]
    assert float(line.split(":")[1]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ["simulate", "--example", "rigid-body"],
    ["verify", "iss-estimate", "--example", "scalar-linear"],
    ["strictify", "--config", "readme"],
    ["strictify", "--example", "scalar-linear"],
    ["example", "counterexample-elw"],
    ["example", "rigid-body"],
    # two aperiodic rates: the benchmark's sweep problems 2 and 5 at seed 0
    ["pe", "--config", "sweep-2"],
    ["strictify", "--config", "sweep-2"],
    ["pe", "--config", "sweep-5"],
    ["strictify", "--config", "sweep-5"],
], ids=" ".join)
def test_float_paths_raise_no_runtime_warning(tmp_path, sweep_inis, argv):
    # whole commands in a fresh process, where every RuntimeWarning is an error
    inis = sweep_inis(0)
    configs = {"readme": _readme_ini(tmp_path), "sweep-2": inis[2], "sweep-5": inis[5]}
    argv = [str(configs.get(a, a)) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "strictlyap.cli", *argv],
        capture_output=True, text=True, timeout=300, env=_child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def _readme_ini(tmp_path) -> Path:
    block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    cfg = tmp_path / "readme.ini"
    cfg.write_text(block.group(1), encoding="utf-8")
    return cfg


# Whole commands in a fresh process where every RuntimeWarning is an error:
# (argv, with "INI" for the README INI; (old, new) edits of that INI; exit
# code; a line stdout holds; a text stdout must not hold).  Cases of the
# same kind run in process elsewhere: --out naming a file
# (test_out_naming_a_file_is_config_error), window tables that overflow
# (test_tables_that_overflow_fail_by_tau) and a radius whose square
# overflows (test_radius_whose_power_overflows_fails_by_its_margins).
_README_DOMAINS = ("[domains]\nt_max = 2.0\nx_radius = 6.0\nu_radius = 2.0\n"
                   "samples = 3000\n\n")
_DRIVEN = ('f1 = "-x1 + u1"', 'f1 = "-x1 + 10*u1"')    # fails the issp premise
_ENVELOPE = "a dominating envelope exists"
_SUBPROCESS_CASES = [
    pytest.param(["pe", "--example", "rigid-body", "--seed", "1"], [], 2, None, None,
                 id="pe-takes-no-seed"),
    pytest.param(["verify", "iss-estimate", "--example", "scalar-linear", "--samples", "5"],
                 [], 2, None, None, id="iss-estimate-refuses-samples"),
    pytest.param(["strictify", "--config", "INI"], [(_README_DOMAINS, "")], 0,
                 "domain.t: [0, 2]", None, id="no-domains-section"),
    pytest.param(["pe", "--config", "INI"], [('p = "1"', 'p = "1e307"')], 0, None, None,
                 id="largest-finite-rate"),
    *(pytest.param(["strictify", "--config", "INI"],
                   [_DRIVEN, ('chi = "2*s"', f'chi = "{chi}"')], 1, None, _ENVELOPE,
                   id=f"chi-{chi}")
      for chi in ("exp(s^3)", "log(s)", "exp(4*s^2)")),
    # one of each kind of _IN_PROCESS_CASES below, in a fresh process
    pytest.param(["strictify", "--config", "INI"], [('alpha1 = "0.5*s^2"', 'alpha1 = "-s"')],
                 1, None, None, id="alpha1-negative"),
    pytest.param(["example", "rigid-body", "--reference", "exp(t^3); 1; 0"], [], 1,
                 "admissibility-failed: reference 'exp(t^3)' is not finite at t=8.92125",
                 None, id="reference-overflows"),
]

# The same columns, run by cli.main in this process, where every
# RuntimeWarning is an error too (pyproject.toml); ``line`` may be in stdout
# or stderr.  Bad gains, rates, candidates and references exit 1 by name, or
# 0 from simulate, which reports V# unavailable and runs on.
_A2T = "inverse of gain 1.0*((0.5*s^2) + ({mu}) + s)"
_NEGATIVE = _A2T.format(mu="0.5*s^2") + ": target must be nonnegative"
_MU_NEGATIVE = ('mu = "0.5*s^2"', 'mu = "-s^2"')
_DISP_STATE = [("mode = issp", "mode = disp-state"),
               ('; disp-state and disp-value: omega = "0.5*s^2"', 'omega = "0.5*s^2"')]
_POLE = ('p = "1"', 'p = "1/(t - 0.5)^2"')
_LOG = ('p = "1"', 'p = "log(t)"')
_IN_PROCESS_CASES = [
    pytest.param(["verify", "iss-estimate", "--config", "INI"], [_POLE], 1,
                 "validation failure: the decay clock int p of fit run 1 is not finite "
                 "from t=0.5", None, id="iss-estimate-rate-pole"),
    *(pytest.param([command, "--config", "INI"],
                   [('alpha1 = "0.5*s^2"', 'alpha1 = "-s"'), *edits], code,
                   prefix + _NEGATIVE, None, id=f"{command}-alpha1-negative-{mode}")
      for command, code, prefix in (("strictify", 1, "strictification failed: "),
                                    ("simulate", 0, "V# unavailable: "))
      for mode, edits in (("issp", []), ("disp-state", _DISP_STATE))),
    pytest.param(["strictify", "--config", "INI"], [_MU_NEGATIVE], 1,
                 "strictification failed: " + _A2T.format(mu="-s^2")
                 + ": target must be nonnegative", None, id="strictify-mu-negative"),
    pytest.param(["simulate", "--config", "INI"], [_MU_NEGATIVE], 0,
                 "V# unavailable: " + _A2T.format(mu="-s^2")
                 + ": target must be nonnegative", None, id="simulate-mu-negative"),
    *(pytest.param([command, "--config", "INI"], [_MU_NEGATIVE, *_DISP_STATE], code,
                   prefix + _A2T.format(mu="-s^2") + ": gain looks bounded on probed range",
                   None, id=f"{command}-mu-negative-disp-state")
      for command, code, prefix in (("strictify", 1, "strictification failed: "),
                                    ("simulate", 0, "V# unavailable: "))),
    *(pytest.param([command, "--config", "INI"], [edit], code,
                   prefix + f"rate is not finite at t={t!r}", None,
                   id=f"{command}-rate-{name}")
      for edit, name, t in ((_LOG, "log", 0.0), (_POLE, "pole", 0.5))
      for command, code, prefix in (("pe", 1, "validation failure: "),
                                    ("strictify", 1, "validation failure: "),
                                    ("simulate", 0, "V# unavailable: "))),
    pytest.param(["simulate", "--config", "INI"], [('V = "0.5*x1^2"', 'V = "x1^2/(t - 1)"')],
                 0, "run 1: x0=[1.0] final |x| = 6.737947e-03 V(tf) = 1.134998e-05",
                 "Vsharp", id="simulate-V-pole"),
    *(pytest.param(["example", "rigid-body", "--reference", f"{ref}; 1; 0"], [], 1,
                   f"admissibility-failed: reference {ref!r} is not finite at t={t!r}",
                   None, id=f"reference-{ref}")
      for ref, t in (("1/t", 0.0), ("log(t)", 0.0), ("exp(t^3)", 8.92125),
                     ("sqrt(t - 1)", 0.0))),
    # finite on [0, 160], but the first window reads w1r^2 + w2r^2 from t = -pi
    pytest.param(["example", "rigid-body", "--reference", "sin(t) + 0*sqrt(t); cos(t); 0"],
                 [], 1, "admissibility-failed: w1r^2 + w2r^2 of reference "
                 "('sin(t) + 0*sqrt(t)', 'cos(t)'): rate is not finite at "
                 f"t={-math.pi!r}", "persistently exciting", id="reference-negative-time"),
]


@pytest.mark.parametrize("argv, edits, code, line, absent", _SUBPROCESS_CASES)
def test_command_in_fresh_process(tmp_path, argv, edits, code, line, absent):
    cfg = _readme_ini(tmp_path)
    cfg.write_text(_edited(cfg.read_text(encoding="utf-8"), *edits), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "strictlyap.cli",
         *(str(cfg) if a == "INI" else a for a in argv)],
        capture_output=True, text=True, timeout=300, env=_child_env(), cwd=tmp_path)
    assert proc.returncode == code, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert line is None or line in proc.stdout.splitlines()
    assert absent is None or absent not in proc.stdout


@pytest.mark.parametrize("argv, edits, code, line, absent", _IN_PROCESS_CASES)
def test_command_in_process(tmp_path, capsys, argv, edits, code, line, absent):
    cfg = _readme_ini(tmp_path)
    cfg.write_text(_edited(cfg.read_text(encoding="utf-8"), *edits), encoding="utf-8")
    assert cli.main([str(cfg) if a == "INI" else a for a in argv]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err and "RuntimeWarning" not in out + err
    assert line in (out + err).splitlines(), out + err
    assert absent is None or absent not in out


def test_xi_deviation_not_finite_fails(capsys):
    # nan > 1e-6 is false: a nan deviation used to print PASS
    from strictlyap.fixtures import rigid_body

    problem = rigid_body()
    problem.xi_closed_form = lambda t: np.full(np.shape(t), np.nan)
    assert cli._strictify(problem, None)[0] == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["xi closed-form max deviation: nan", "xi closed-form validation: FAIL"]


@pytest.mark.parametrize("section, key", [("decay", "p"), ("lyapunov", "V"),
                                          ("lyapunov", "alpha3"), ("system", "f1")])
def test_missing_required_key_is_named(tmp_path, capsys, section, key):
    cfg = _readme_ini(tmp_path)
    text = cfg.read_text(encoding="utf-8")
    edited = re.sub(rf"\n{key} = [^\n]*\n", "\n", text)
    assert edited != text
    cfg.write_text(edited, encoding="utf-8")
    assert cli.main(["pe", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: [{section}] {key} is required\n"


def _base_ini(tmp_path, base: str) -> Path:
    """The README INI, or TWO_STATE_CONFIG for ``base`` "two-state", as a file."""
    if base == "readme":
        return _readme_ini(tmp_path)
    cfg = tmp_path / "two-state.ini"
    cfg.write_text(TWO_STATE_CONFIG, encoding="utf-8")
    return cfg


_DERIVATIVES = "; optional, symbolic derivatives are the default: dV_dt = ..., dV_dx1 = ..."
_FEEDBACKS = "; optional state feedbacks occupying leading inputs: feedback1 = ..."


@pytest.mark.parametrize("base, old, new, message", [
    pytest.param("readme", 'f1 = "-x1 + u1"', 'f1 = "-x1 + sin("',
                 "[system] f1: unexpected 'end of input' (line 1, column 11)", id="f1"),
    pytest.param("readme", 'p = "1"', 'p = ""',
                 "[decay] p: unexpected 'end of input' (line 1, column 1)", id="p"),
    pytest.param("readme", 'u.1.1 = "0"', 'u.1.1 = "x1"',
                 "[sim] u.1.1: expression uses ['x1'] not among arguments ['t']", id="u.1.1"),
    pytest.param("readme", 'u.1.1 = "0"', 'u.1.1 = "sin(t"',
                 "[sim] u.1.1: expected ')', found 'end of input' (line 1, column 6)",
                 id="u.1.1-unparsable"),
    pytest.param("readme", _FEEDBACKS, 'feedback1 = "u1"',
                 "[system] feedback1: expression uses ['u1'] not among arguments ['t', 'x1']",
                 id="feedback1"),
    pytest.param("readme", 'chi = "2*s"', 'chi = "2*t"',
                 "[gains] chi: gain expression may only use 's', found ['t']", id="chi"),
    # an empty derivative is an expression like any other, not an absent key
    pytest.param("readme", _DERIVATIVES, 'dV_dt = ""',
                 "[lyapunov] dV_dt: unexpected 'end of input' (line 1, column 1)", id="dV_dt"),
    pytest.param("readme", _DERIVATIVES, 'dV_dx1 = ""',
                 "[lyapunov] dV_dx1: unexpected 'end of input' (line 1, column 1)",
                 id="dV_dx1"),
    pytest.param("readme", 'V = "0.5*x1^2"', 'V = "0.5*x2^2"',
                 "[lyapunov] V: expression uses ['x2'] not among arguments ['t', 'x1']",
                 id="V"),
    pytest.param("readme", 'V = "0.5*x1^2"', 'V = "0.5*abs(x1)^2"',
                 "[lyapunov] V uses abs/max/min; supply dV_dt and dV_dx1", id="V-not-smooth"),
    pytest.param("two-state", 'V = "0.5*x1^2 + 0.5*x2^2"', 'V = "max(x1^2, x2^2)"\ndV_dt = "0"',
                 "[lyapunov] V uses abs/max/min; supply dV_dt and dV_dx1..dV_dx2",
                 id="V-not-smooth-without-gradient"),
    pytest.param("readme", 'alpha1 = "0.5*s^2"', 'alpha1 = "0.5*s^"',
                 "[lyapunov] alpha1: unexpected 'end of input' (line 1, column 7)",
                 id="alpha1"),
    pytest.param("readme", 'alpha2 = "0.5*s^2"', 'alpha2 = "0.5*x1^2"',
                 "[lyapunov] alpha2: gain expression may only use 's', found ['x1']",
                 id="alpha2"),
    pytest.param("readme", 'alpha3 = "s"', 'alpha3 = "s s"',
                 "[lyapunov] alpha3: unexpected trailing input 's' (line 1, column 3)",
                 id="alpha3"),
    pytest.param("readme", 'mu = "0.5*s^2"', 'mu = "0.5*x1"',
                 "[gains] mu: gain expression may only use 's', found ['x1']", id="mu"),
    pytest.param("readme", '; disp-value: mu_tilde = "s"', 'mu_tilde = "log(s"',
                 "[gains] mu_tilde: expected ')', found 'end of input' (line 1, column 6)",
                 id="mu_tilde"),
    pytest.param("readme", '; disp-state and disp-value: omega = "0.5*s^2"', 'omega = "foo(s)"',
                 "[gains] omega: unknown function 'foo' (line 1, column 1)", id="omega"),
    pytest.param("two-state", 'f2 = "-x2 + u2"', 'f2 = "-x2 + u3"',
                 "[system] f2: expression uses ['u3'] not among arguments "
                 "['t', 'x1', 'x2', 'u1', 'u2']", id="f2"),
    pytest.param("two-state", 'f2 = "-x2 + u2"\n',
                 'f2 = "-x2 + u2"\nfeedback1 = "-x1"\nfeedback2 = "*x2"\n',
                 "[system] feedback2: unexpected '*' (line 1, column 1)", id="feedback2"),
])
def test_expression_error_names_its_key(tmp_path, capsys, base, old, new, message):
    cfg = _base_ini(tmp_path, base)
    cfg.write_text(_edited(cfg.read_text(encoding="utf-8"), (old, new)), encoding="utf-8")
    assert cli.main(["strictify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("edits, message", [
    ([('f1 = "-x1 + u1"', 'f1 = "-x1 + u2"'), ('V = "0.5*x1^2"', 'V = "x2"')],
     "[system] f1: expression uses ['u2'] not among arguments ['t', 'x1', 'u1']"),
    ([('alpha3 = "s"', 'alpha3 = "t"'), ('p = "1"', 'p = "x1"')],
     "[lyapunov] alpha3: gain expression may only use 's', found ['t']"),
    # the gains are read last, after the inputs of the runs
    ([('chi = "2*s"', 'chi = "2*t"'), ('u.1.1 = "0"', 'u.1.1 = "x1"')],
     "[sim] u.1.1: expression uses ['x1'] not among arguments ['t']"),
], ids=["f1-before-V", "alpha3-before-p", "u-before-gains"])
def test_first_bad_expression_read_is_named(tmp_path, capsys, edits, message):
    cfg = _readme_ini(tmp_path)
    cfg.write_text(_edited(cfg.read_text(encoding="utf-8"), *edits), encoding="utf-8")
    assert cli.main(["strictify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_feedback_of_more_channels_than_inputs_is_config_error(tmp_path, capsys):
    cfg = _readme_ini(tmp_path)
    cfg.write_text(_edited(cfg.read_text(encoding="utf-8"),
                           (_FEEDBACKS, 'feedback1 = "-x1"\nfeedback2 = "x1"')),
                   encoding="utf-8")
    assert cli.main(["strictify", "--config", str(cfg)]) == 2
    assert (capsys.readouterr().err
            == "config error: [system] feedback2: feedback supplies 2 channels, "
               "system has m=1\n")


@pytest.mark.parametrize("old, new, message", [
    ("samples = 3000", "sampels = 3000", "[domains] unknown key 'sampels'"),
    ("x0.1 = 1.0", "x0.2 = 1.0", "[sim] unknown key 'x0.2'"),
    ('u.1.1 = "0"', 'u.1.1 = "0"\nu.1.2 = "5"', "[sim] unknown key 'u.1.2'"),
    ('chi = "2*s"', 'chi = "2*s"\nomgea = "s^2"', "[gains] unknown key 'omgea'"),
    ("[sim]", "[simulation]", "unknown section [simulation]"),
    # configparser copies a [DEFAULT] key into every section
    ("[problem]\n", "[DEFAULT]\nfoo = 1\n[problem]\n", "[DEFAULT] unknown key 'foo'"),
], ids=["sampels", "x0.2-without-x0.1", "u.1.2-with-m-1", "omgea", "simulation", "DEFAULT"])
def test_key_or_section_never_read_is_refused(tmp_path, capsys, old, new, message):
    cfg = _readme_ini(tmp_path)
    cfg.write_text(_edited(cfg.read_text(encoding="utf-8"), (old, new)), encoding="utf-8")
    assert cli.main(["strictify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_every_shipped_config_reads_each_of_its_keys(tmp_path, sweep_inis):
    # the README INI, the benchmark's sweep INIs and the fixtures' sections
    for path in [_readme_ini(tmp_path), *sweep_inis(0)]:
        load_problem(path)
    for name in fixtures.SECTIONS:
        fixtures.get_fixture(name)


@pytest.mark.parametrize("old, new, message", [
    ("n = 1\n", "n = 1\nn = 2\n", "option 'n' in section 'problem' already exists"),
    ("[problem]\n", "n = 1\n[problem]\n", "File contains no section headers."),
], ids=["duplicate-key", "no-section-header"])
def test_malformed_ini_is_config_error(tmp_path, capsys, old, new, message):
    cfg = _readme_ini(tmp_path)
    cfg.write_text(_edited(cfg.read_text(encoding="utf-8"), (old, new)), encoding="utf-8")
    assert cli.main(["strictify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and "Traceback" not in err


def test_run_without_input_keys_is_the_zero_input(tmp_path):
    cfg = _readme_ini(tmp_path)
    text = cfg.read_text(encoding="utf-8")
    cfg.write_text(_edited(text, ('u.1.1 = "0"', "")), encoding="utf-8")
    (run,) = load_problem(cfg).sim.runs
    assert run.signal.sup_bound == 0.0 and run.signal.m == 1
    cfg.write_text(text, encoding="utf-8")
    (run,) = load_problem(cfg).sim.runs
    assert run.signal.sup_bound is None and run.signal.label == "0"


@pytest.mark.parametrize("command", ["strictify", "simulate"])
def test_readme_ini_example_runs(tmp_path, capsys, command):
    assert cli.main([command, "--config", str(_readme_ini(tmp_path))]) == 0


@pytest.mark.parametrize("old, new, tau", [
    ("tau = 1.0", "tau = 1e160", 1e160),
    ("tau = 1.0", "tau = 1e-310", 1e-310),
    ('p = "1"', 'p = "1e308"', 1.0),
    ("tau = 1.0", "tau = 1e307", 1e307),
])
@pytest.mark.parametrize("aperiodic", [False, True])
@pytest.mark.parametrize("command", ["pe", "strictify"])
def test_tables_that_overflow_fail_by_tau(tmp_path, capsys, old, new, tau, aperiodic,
                                          command):
    """A finite tau or rate whose window tables are not finite is a
    validation failure naming tau, raised with no RuntimeWarning."""
    cfg = _readme_ini(tmp_path)
    text = cfg.read_text(encoding="utf-8").replace(old, new, 1)
    if aperiodic:
        period = "; optional period of p\nperiod = 1.0\n"
        assert period in text
        text = text.replace(period, "")
    cfg.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation failure: ") and err.rstrip().endswith(f"tau={tau!r}")


def _edited(text: str, *changes) -> str:
    """``text`` with each (old, new) pair replaced once; each old must occur."""
    for old, new in changes:
        assert old in text
        text = text.replace(old, new, 1)
    return text


def _without_section(text: str, name: str) -> str:
    """INI ``text`` with section ``name`` cut out, up to the next section."""
    start = text.index(f"[{name}]")
    end = text.find("\n[", start)
    return text[:start] + (text[end + 1:] if end >= 0 else "")


_P_PERIOD = "; optional period of p\nperiod = 1.0\n"


def test_domains_without_t_max_take_the_library_default(tmp_path):
    """Times the INI leaves out, t_max or the whole [domains] section, are
    sampled up to the end of strictify.default_domain, so they cover a whole
    period of xi.  With the [decay] period 3 above the [problem] period and
    tau, t_max is 4.  With no [domains] section the box is the library's:
    t in (0, 2), or (0, 13) with a [decay] period of 12, the radii of
    SampleDomain and verify.DEFAULT_SAMPLES samples."""
    cfg = _readme_ini(tmp_path)
    readme = cfg.read_text(encoding="utf-8")
    no_domains = _without_section(readme, "domains")
    cases = [
        (_edited(readme, ('p = "1"\n', 'p = "1 + sin(2*pi*t/3)^2"\n'),
                 (_P_PERIOD, _P_PERIOD.replace("1.0", "3.0")), ("t_max = 2.0\n", "")),
         SampleDomain((0.0, 4.0), 6.0, 2.0), 3000),
        (no_domains, SampleDomain((0.0, 2.0), 10.0, 5.0), 10_000),
        (_edited(no_domains, (_P_PERIOD, _P_PERIOD.replace("1.0", "12.0"))),
         SampleDomain((0.0, 13.0), 10.0, 5.0), 10_000),
    ]
    for text, domain, samples in cases:
        cfg.write_text(text, encoding="utf-8")
        problem = load_problem(cfg)
        library = default_domain(problem.candidate, problem.system, problem.rate,
                                 problem.tau)
        assert problem.domain == domain and problem.samples == samples
        assert problem.domain.t_range == library.t_range
    assert problem.domain == library


def test_default_t_max_that_overflows_is_config_error(tmp_path, capsys):
    # max(P, tau) + tau is inf for tau = 1e308: no check may sample t = inf
    cfg = _readme_ini(tmp_path)
    readme = _edited(cfg.read_text(encoding="utf-8"), ("tau = 1.0\n", "tau = 1e308\n"))
    for text in (_without_section(readme, "domains"), _edited(readme, ("t_max = 2.0\n", ""))):
        cfg.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=r"^\[domains\] t_max is required: "
                                              r"its default is inf$"):
            load_problem(cfg)
        assert cli.main(["verify", "uppd", "--config", str(cfg)]) == 2
        assert "Traceback" not in capsys.readouterr().err


def test_sim_section_left_out_takes_the_simspec_defaults(tmp_path):
    cfg = _readme_ini(tmp_path)
    cfg.write_text(_without_section(cfg.read_text(encoding="utf-8"), "sim"),
                   encoding="utf-8")
    sim, default = load_problem(cfg).sim, SimSpec()
    assert (sim.t0, sim.tf, sim.step) == (default.t0, default.tf, default.step)
    assert default.step == DEFAULT_STEP
    [run] = sim.runs                     # one run, from zero, with no input
    assert run.x0.tolist() == [0.0] and run.signal.m == 1 and run.signal.label == "0"


# What these INIs loaded while the loader restated its defaults in literals:
# ((t_range, x_radius, u_radius), samples, seed, (t0, tf, step, runs), factor),
# a run as (x0, input label).  The sweep problems are the benchmark's, seed 0.
_ZERO_RUN = (0.0, 10.0, 0.001, [([0.0], "0")])
_LOADED = {
    "readme": (((0.0, 2.0), 6.0, 2.0), 3000, 5, (0.0, 5.0, 0.001, [([1.0], "0")]), 0.25),
    "scalar": (((0.0, 2.0), 6.0, 2.0), 3000, 5,
               (0.0, 5.0, 0.001, [([1.0], "0"), ([-0.5], "0.2*sin(t)")]), None),
    "two-state": (((0.0, 2.0), 1.0, 1.0), 500, 0,
                  (0.0, 10.0, 0.001, [([0.0, 0.0], "0")]), None),
    **{f"sweep-{i}": (((0.0, t_max), 5.0, 1.5), 2000, i, _ZERO_RUN, factor)
       for i, (t_max, factor) in enumerate([
           (4 * np.pi, None), (4 * np.pi, 0.07487237319329147),
           (8 * np.pi, None), (8 * np.pi, 0.017102105873920914),
           (2 * np.pi, None), (2 * np.pi, 0.0742258578818844),
           (4 * np.pi, None), (4 * np.pi, 0.03137148113630424),
           (np.pi, None), (np.pi, 0.125),
           (2 * np.pi, None), (2 * np.pi, 0.0511700896420338)])},
}


def test_loaded_settings_are_unchanged(tmp_path, sweep_problems):
    def settings(p):
        d, s = p.domain, p.sim
        return ((d.t_range, d.x_radius, d.u_radius), p.samples, p.seed,
                (s.t0, s.tf, s.step, [(r.x0.tolist(), r.signal.label) for r in s.runs]),
                p.factor)

    loaded = {}
    for name, text in [("scalar", SCALAR_CONFIG), ("two-state", TWO_STATE_CONFIG)]:
        (tmp_path / f"{name}.ini").write_text(text, encoding="utf-8")
        loaded[name] = load_problem(tmp_path / f"{name}.ini")
    loaded["readme"] = load_problem(_readme_ini(tmp_path))
    loaded.update((p.name, p) for p in sweep_problems(0))
    assert {name: settings(p) for name, p in loaded.items()} == _LOADED


@pytest.mark.parametrize("text, route", [(SCALAR_CONFIG, "strictify_issp"),
                                         (TWO_STATE_CONFIG, "strictify_disp")],
                         ids=["issp", "disp-value"])
def test_factor_left_out_is_the_route_default(tmp_path, text, route):
    cfg = tmp_path / "route.ini"
    cfg.write_text(text, encoding="utf-8")
    problem = load_problem(cfg)
    assert problem.factor is None
    cli._ensure_pe(problem)
    cert = strictify_problem(problem, n_samples=200)
    default = inspect.signature(getattr(strictify, route)).parameters["factor"].default
    assert cert.factor == default


def test_largest_finite_rate_runs_pe(tmp_path, capsys):
    cfg = _readme_ini(tmp_path)
    cfg.write_text(cfg.read_text(encoding="utf-8").replace('p = "1"', 'p = "1e307"', 1),
                   encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["pe", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert "pbar (raw): 9.9999999999999999e+306\n" in capsys.readouterr().out
    assert (tmp_path / "out" / "pe_window.csv").is_file()


def test_readme_python_blocks_run(capsys):
    # the "Library use" blocks, in order, in one namespace: the second
    # reuses the first one's problem and certificate
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(block, namespace)  # noqa: S102 - the README's own examples
    assert capsys.readouterr().out.endswith("strict-iss-lyapunov True\nTrue\n")


# Public names deleted because nothing but their tests reached them
DELETED = {
    "funcalc": ["linear_gain", "check_kinf", "DEFAULT_GRID"],
    "dynsys": ["lyapunov_along"],
    "verify": ["falsify"],
    "decay": ["pe_scan"],
    "exprparse": ["evaluate"],
}


def test_library_surface():
    for name in strictlyap.__all__:
        assert hasattr(strictlyap, name), name
    for module, names in DELETED.items():
        mod = importlib.import_module(f"strictlyap.{module}")
        for name in names:
            assert not hasattr(mod, name), f"{module}.{name}"
            assert name not in strictlyap.__all__
    assert not hasattr(strictlyap.Signal, "piecewise")
    assert not hasattr(strictlyap.Trajectory, "x0")
    # parameters that only deleted names, or no caller, set
    for fn, param in ((strictlyap.SampleDomain.sample, "halton_fraction"),
                      (strictlyap.gain_from_expr, "probe_max"),
                      (strictlyap.underline_p, "horizon")):
        assert param not in inspect.signature(fn).parameters


def test_readme_ini_parses_each_expression_key_once(tmp_path, monkeypatch):
    texts = []
    parse = exprparse.parse
    monkeypatch.setattr(exprparse, "parse", lambda text: texts.append(text) or parse(text))
    load_problem(_readme_ini(tmp_path))
    # f1, V, alpha1..3, p, u.1.1, mu, chi: the checked trees go on to the compiles
    assert texts == ["-x1 + u1", "0.5*x1^2", "0.5*s^2", "0.5*s^2", "s", "1", "0",
                     "0.5*s^2", "2*s"]


def test_readme_ini_strictify_inverts_each_argument_once(tmp_path, monkeypatch, capsys):
    # the README's issp route inverts alpha2_tilde behind every w and decay
    # call; an inverse gain that reuses its last answer and solves each
    # distinct target once, probed one batch per descent move, inverts the
    # slope grid and the two checks' samples as arrays, and the 42 distinct
    # targets of the descent batches and the others one at a time on floats
    # (two descent batches of 15 and 17, at most FLOAT_BATCH each)
    cfg = _readme_ini(tmp_path)
    calls = []
    original, original_invert = funcalc._invert_array, funcalc.invert

    def counted(g, y):
        calls.append(np.shape(y))
        return original(g, y)

    def counted_invert(g, y):
        calls.append("float")
        return original_invert(g, y)

    monkeypatch.setattr(funcalc, "_invert_array", counted)
    monkeypatch.setattr(funcalc, "invert", counted_invert)
    assert cli.main(["strictify", "--config", str(cfg)]) == 0
    assert 17 <= funcalc.FLOAT_BATCH < 1024
    assert sorted(c for c in calls if c != "float") == [(1024,), (2009,), (3000,)]
    assert calls.count("float") == 10 + 15 + 17


_SCIPY_AFTER = (
    "import contextlib, io, json, sys\n"
    "from strictlyap import cli\n"
    "argv = json.loads(sys.argv[1])\n"
    "if argv:\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        assert cli.main(argv) == 0\n"
    "print(json.dumps(sorted(m for m in sys.modules\n"
    "                        if m == 'scipy' or m.startswith('scipy.'))))\n")


def _scipy_modules_after(argv: list[str]) -> set[str]:
    """The scipy modules a fresh process holds after ``cli.main(argv)``."""
    proc = subprocess.run([sys.executable, "-c", _SCIPY_AFTER, json.dumps(argv)],
                          capture_output=True, text=True, timeout=300, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_cli_import_loads_no_heavy_scipy():
    # the bounded minimizer and the quadrature, Halton and Hermite routines
    # are numpy code in _numerics; scipy.special (ndtri) loads on the first
    # ball draw, which importing, pe and iss-estimate never make
    for argv in ([], ["pe", "--example", "rigid-body"],
                 ["verify", "iss-estimate", "--example", "scalar-linear"]):
        assert _scipy_modules_after(argv) == set(), argv
    loaded = _scipy_modules_after(["strictify", "--example", "scalar-linear"])
    assert "scipy.special" in loaded
    assert not {m for m in loaded if m.split(".")[:2] == ["scipy", "optimize"]}


SIN3_CONFIG = """\
[problem]
name = sin3
n = 1
m = 1
mode = issp
tau = 6.283185307179586
seed = 1

[system]
f1 = "-x1 + u1"

[lyapunov]
V = "0.5*x1^2"
alpha1 = "0.5*s^2"
alpha2 = "0.5*s^2"
alpha3 = "s"

[decay]
p = "(1 + exp(-t))*max(0, sin(t))^3"

[gains]
mu = "0.5*s^2"
chi = "2*s"
"""


class TestAperiodicRate:
    def test_pe_on_decaying_sin_cubed(self, tmp_path, capsys):
        """Aperiodic rate: the window minimum settles at 4/3 (every length-2pi
        window of max(0, sin)^3 integrates to exactly 4/3, plus a vanishing
        exp(-t) excess); the max sits on the negative-time extension."""
        cfg = tmp_path / "sin3.ini"
        cfg.write_text(SIN3_CONFIG, encoding="utf-8")
        assert cli.main(["pe", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        vals = {l.split(":")[0]: l.split(":")[1] for l in out.splitlines() if ":" in l}
        assert float(vals["epsilon (raw)"]) == pytest.approx(4.0 / 3.0, abs=1e-8)
        # oracle: 1e6-node scan of (1 + e^{-t}) sin^3 over [-2 pi, horizon]
        assert float(vals["pbar (raw)"]) == pytest.approx(131.97278714792367, abs=1e-6)
        assert vals["horizon-limited"].strip() == "yes"

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_pe_on_non_finite_rate_fails_by_name(self, tmp_path, capsys):
        """sqrt(t) is NaN before t = 0, where the first window starts."""
        cfg = tmp_path / "sqrt.ini"
        cfg.write_text(SIN3_CONFIG.replace('p = "(1 + exp(-t))*max(0, sin(t))^3"',
                                           'p = "sqrt(t)"')
                       .replace("tau = 6.283185307179586", "tau = 1.0"),
                       encoding="utf-8")
        assert cli.main(["pe", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "validation failure: rate is not finite at t=-1.0" in captured.err
        assert "Traceback" not in captured.err
        assert "epsilon" not in captured.out


class TestSampleBudget:
    @pytest.mark.parametrize("argv", [["strictify", "--example", "scalar-linear"],
                                      ["example", "counterexample-elw"]])
    @pytest.mark.parametrize("samples", ["0", "-5", "1"])
    def test_budget_below_one_is_config_error(self, argv, samples, capsys):
        # a budget of one sample can never pass
        assert cli.main(argv + ["--samples", samples]) == 2
        err = capsys.readouterr().err
        assert f"config error: --samples must be at least 2, got {samples}" in err

    def test_ini_budget_below_one_is_config_error(self, tmp_path):
        cfg = tmp_path / "small.ini"
        for samples in (0, 1):
            cfg.write_text(SCALAR_CONFIG.replace("samples = 3000", f"samples = {samples}"),
                           encoding="utf-8")
            with pytest.raises(ConfigError, match="samples must be at least 2"):
                load_problem(cfg)

    def test_empty_implication_region_fails(self, capsys):
        code = cli.main(["strictify", "--example", "scalar-linear", "--samples", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert ("check 'strict-iss-contract' failed: "
                "no samples in implication region") in out
        assert "diagnosis" not in out
        assert "PASS" not in out


def test_two_calls_build_one_parser(monkeypatch, capsys):
    built = []

    class Counting(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    argv = ["pe", "--example", "scalar-linear"]
    assert cli.main(argv) == 0      # the process has its parser from here on
    monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=Counting))
    assert cli.main(argv) == 0 and cli.main(argv) == 0
    assert built == []
    assert capsys.readouterr().out.count("decay rate: ") == 3


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    def broken(args):
        raise IndexError("index 7 is out of bounds")

    monkeypatch.setattr(cli, "cmd_pe", broken)
    assert cli.main(["pe", "--example", "scalar-linear"]) == 3
    err = capsys.readouterr().err
    assert "internal error: IndexError: index 7 is out of bounds" in err
    assert "Traceback" in err


# Every exception class the package defines, by module, and the exit code
# cli.main gives it; a class missing here fails test_exit_code_table_is_complete
EXIT_CODES = {
    "config.ConfigError": 2,
    "exprparse.ExpressionError": 2,
    "exprparse.ExpressionSyntaxError": 2,
    "exprparse.UnknownIdentifierError": 2,
    "exprparse.ArityError": 2,
    "exprparse.UnboundVariableError": 2,
    "exprparse.EvalDomainError": 2,
    "exprparse.NonSmoothPrimitiveError": 2,
    "errors.ValidationFailure": 1,
    "decay.NotPersistentlyExcitingError": 1,
    "decay.WindowIntegralTooSmallError": 1,
    "strictify.SlopeBoundViolatedError": 1,
    "strictify.UnboundedSupError": 1,
    "strictify.ValidationFailedError": 1,
    "dynsys.BlowUpError": 1,
    "dynsys.NonFiniteInputError": 2,
    "verify.FitFailedError": 1,
    "funcalc.TargetOutOfRangeError": 1,
    # a failed bracket escaping a command is a defect of the command, not a
    # verdict: internal error on purpose
    "funcalc.BracketNotFoundError": 3,
}


def _package_exceptions() -> dict[str, type]:
    found = {}
    for info in pkgutil.iter_modules(strictlyap.__path__):
        mod = importlib.import_module(f"strictlyap.{info.name}")
        for name, cls in inspect.getmembers(mod, inspect.isclass):
            if issubclass(cls, Exception) and cls.__module__ == mod.__name__:
                found[f"{info.name}.{name}"] = cls
    return found


def test_exit_code_table_is_complete():
    assert sorted(_package_exceptions()) == sorted(EXIT_CODES)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_one_exit_code_per_exception_class(name, monkeypatch, capsys):
    cls = _package_exceptions()[name]

    def entry(args):
        raise cls.__new__(cls, "stub failure")    # no __init__: any signature

    monkeypatch.setattr(cli, "cmd_pe", entry)
    code = EXIT_CODES[name]
    assert cli.main(["pe", "--example", "scalar-linear"]) == code
    err = capsys.readouterr().err
    assert ("Traceback" in err) == (code == 3)
    prefix = {1: "validation failure", 2: "config error", 3: "internal error"}[code]
    assert err.startswith(prefix + ": ")


def test_gain_not_finite_at_its_probe_bound_fails_by_name(tmp_path, capsys):
    # mu overflows floats far below s = 1000, the top of the probed range of
    # alpha2_tilde, whose inverse the issp route builds: no exit 3
    cfg = _readme_ini(tmp_path)
    cfg.write_text(_edited(cfg.read_text(encoding="utf-8"),
                           ('f1 = "-x1 + u1"', 'f1 = "-(1 + sin(t)^2)*(x1 - u1)"'),
                           ('p = "1"\n; optional period of p\nperiod = 1.0',
                            'p = "1 + sin(t)^2"\n; optional period of p\n'
                            'period = 3.141592653589793'),
                           ('mu = "0.5*s^2"', 'mu = "0.1*(exp(s^2) - 1)"'),
                           ("x_radius = 6.0", "x_radius = 1.0"),
                           ("u_radius = 2.0", "u_radius = 0.5")), encoding="utf-8")
    named = ("gain 1.01*((0.5*s^2) + (0.1*(exp(s^2) - 1)) + s) is not finite at the top "
             "of its probed range, s = 1000.0")
    assert cli.main(["strictify", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert named in captured.out and "Traceback" not in captured.err
    assert cli.main(["simulate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("V# unavailable: " + named)


def test_failed_iss_fit_is_a_validation_failure(tmp_path, capsys):
    # dx = -x^3 + u decays too slowly for the fitted envelope's held-out check
    cfg = tmp_path / "cubic.ini"
    cfg.write_text(SCALAR_CONFIG.replace('"-x1 + u1"', '"-x1^3 + u1"'), encoding="utf-8")
    assert cli.main(["verify", "iss-estimate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation failure: held-out check failed with margin -")
    assert "Traceback" not in err


class TestSeed:
    @pytest.mark.parametrize("argv", [["strictify", "--example", "scalar-linear"],
                                      ["example", "counterexample-elw"]])
    def test_negative_seed_is_config_error(self, argv, capsys):
        assert cli.main(argv + ["--seed", "-5"]) == 2
        err = capsys.readouterr().err
        assert "config error: --seed must be non-negative, got -5" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("option", [["--seed", "9"], ["--seed", "-1"],
                                        ["--samples", "100"]])
    def test_pe_takes_no_sampling_option(self, option, capsys):
        # the PE estimate samples nothing, so pe offers neither option
        with pytest.raises(SystemExit) as exc:
            cli.main(["pe", "--example", "rigid-body", *option])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

    def test_ini_negative_seed_is_config_error(self, tmp_path):
        cfg = tmp_path / "neg.ini"
        cfg.write_text(SCALAR_CONFIG.replace("seed = 5", "seed = -1"), encoding="utf-8")
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            load_problem(cfg)
        assert cli.main(["strictify", "--config", str(cfg)]) == 2


class TestSimSection:
    @pytest.mark.parametrize("old, new, match", [
        _edit_case("tf = 5.0", "tf = -1.0", "tf must exceed t0"),
        _edit_case("tf = 5.0", "tf = 0.0", "tf must exceed t0"),
        _edit_case("step = 0.001", "step = 0", "step must be positive"),
        _edit_case("step = 0.001", "step = -0.001", "step must be positive"),
        _edit_case("tf = 5.0", "tf = inf", r"\[sim\] tf must be finite, got inf"),
        _edit_case("step = 0.001", "step = inf",
                   r"\[sim\] step must be positive and finite, got inf"),
        _edit_case("t0 = 0.0", "t0 = nan", r"\[sim\] t0 must be finite, got nan"),
        _edit_case("step = 0.001", "step = 1e-300",
                   r"\[sim\] step 1e-300 from t0=0.0 to tf=5.0 gives 5e\+300 steps, "
                   "more than an array can index"),
    ])
    def test_bad_time_grid_is_config_error(self, tmp_path, capsys, old, new, match):
        cfg = tmp_path / "grid.ini"
        cfg.write_text(SCALAR_CONFIG.replace(old, new), encoding="utf-8")
        with pytest.raises(ConfigError, match=match):
            load_problem(cfg)
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("field", ["exp(x1) + u1", "log(x1) - 2 + u1"])
    def test_field_leaving_its_domain_is_a_blow_up(self, tmp_path, capsys, field):
        # math raises OverflowError / a domain error where numpy gives inf / nan
        cfg = tmp_path / "escape.ini"
        cfg.write_text(SCALAR_CONFIG.replace('"-x1 + u1"', f'"{field}"'), encoding="utf-8")
        assert cli.main(["simulate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "run 1: blow-up at t = " in captured.out
        assert "error" not in captured.err

    @pytest.mark.parametrize("text, t_bad", [("exp(1000000*t)", "t=0.001:"),
                                             ("log(1 - t)", "t=1.0:")])
    def test_non_finite_input_is_config_error(self, tmp_path, capsys, text, t_bad):
        cfg = tmp_path / "input.ini"
        cfg.write_text(SCALAR_CONFIG.replace('u.1.1 = "0"', f'u.1.1 = "{text}"'),
                       encoding="utf-8")
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error: input is not finite at " + t_bad in err
        assert "Traceback" not in err


def test_simulate_reports_unavailable_vsharp(tmp_path, capsys):
    # chi = s/2 is too tight for dx = -x + u: the issp check fails
    cfg = tmp_path / "tight.ini"
    cfg.write_text(SCALAR_CONFIG.replace('chi = "2*s"', 'chi = "0.5*s"')
                   .replace("tf = 5.0", "tf = 0.5"), encoding="utf-8")
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the worst point's x and u print as lists
    assert re.fullmatch(r"V# unavailable: check 'issp-lyapunov' failed: margin -\S+ "
                        r"at t=\S+, x=\[\S+\], u=\[\S+\]", lines[0]), lines[0]
    assert lines[1].startswith("run 1:")
    assert (out / "sim_1.csv").read_text().splitlines()[0] == "t,x1,u1,V"


def test_simulate_without_inputs(tmp_path, capsys):
    # m = 0: the configured runs get empty input signals
    text = (SCALAR_CONFIG.replace("m = 1", "m = 0").replace('"-x1 + u1"', '"-x1"')
            .replace("tf = 5.0", "tf = 0.5"))
    text = text[:text.index("x0.1")] + "x0.1 = 1.0\n"
    cfg = tmp_path / "free.ini"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    data = np.loadtxt(out / "sim_1.csv", delimiter=",", skiprows=1)
    assert data.shape == (501, 4)      # t, x1, V, Vsharp
    assert data[-1, 1] == pytest.approx(np.exp(-0.5), abs=1e-9)


class TestDiagnostics:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_margins_fail_without_a_warning(self, tmp_path, capsys):
        # samples with x1 <= 0 leave the domain of log: nan margins, no warning
        cfg = tmp_path / "log.ini"
        cfg.write_text(SCALAR_CONFIG.replace('"-x1 + u1"', '"log(x1) - 2 + u1"')
                       .replace("samples = 3000", "samples = 500"), encoding="utf-8")
        assert cli.main(["verify", "issp", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "non-finite margins" in captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("key, command", [
        ("x_radius", ["strictify"]), ("x_radius", ["verify", "uppd"]),
        ("u_radius", ["strictify"]), ("u_radius", ["verify", "disp-value"])])
    def test_radius_whose_power_overflows_fails_by_its_margins(self, tmp_path, capsys,
                                                               key, command):
        # 1e200 is finite but its square is not: the samples are drawn, and
        # the margins they give are not finite
        cfg = tmp_path / "wide.ini"
        cfg.write_text(TWO_STATE_CONFIG.replace(f"{key} = 1.0", f"{key} = 1e200"),
                       encoding="utf-8")
        assert cli.main([*command, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "non-finite margins" in captured.out
        assert "Traceback" not in captured.err

    def test_strictify_counterexample_reports_unbounded_sup(self, capsys):
        code = cli.main(["strictify", "--example", "counterexample-elw",
                         "--samples", "4000"])
        out = capsys.readouterr().out
        assert code == 1
        assert "unbounded-sup" in out

    def test_verify_iss_estimate(self, capsys):
        assert cli.main(["verify", "iss-estimate", "--example",
                         "scalar-linear"]) == 0
        out = capsys.readouterr().out
        assert "fitted beta" in out and "iss-estimate" in out

    @pytest.mark.parametrize("t0, tf", [(-30.0, -10.0), (5.0, 10.0)])
    def test_verify_iss_estimate_runs_end_at_tf(self, tmp_path, monkeypatch, capsys,
                                                t0, tf):
        cfg = tmp_path / "window.ini"
        cfg.write_text(SCALAR_CONFIG.replace("t0 = 0.0", f"t0 = {t0}")
                       .replace("tf = 5.0", f"tf = {tf}"), encoding="utf-8")
        spans, fit = [], cli.verify_mod.fit_iss_envelope

        # the runs may integrate in forked processes, so the spy sits where
        # all six trajectories arrive: the fit, in this process
        def spy(batch, rate, holdout):
            spans.extend((float(tr.times[0]), float(tr.times[-1]))
                         for tr in [*batch, *holdout])
            return fit(batch, rate, holdout=holdout)

        monkeypatch.setattr(cli.verify_mod, "fit_iss_envelope", spy)
        assert cli.main(["verify", "iss-estimate", "--config", str(cfg)]) == 0
        assert spans == [(t0, tf)] * 6

    def test_example_rigid_body_end_to_end(self, monkeypatch, capsys, tmp_path):
        built = []

        def spy(problem, *args, **kwargs):
            built.append(problem.name)
            return strictify_problem(problem, *args, **kwargs)

        monkeypatch.setattr(cli, "strictify_problem", spy)
        code = cli.main(["example", "rigid-body", "--samples", "20000",
                         "--out", str(tmp_path / "rb")])
        out = capsys.readouterr().out
        assert code == 0
        assert built == ["rigid-body"]      # pe, strictify and simulate share one
        assert "admissible: tau = 3.14" in out
        assert "validation: PASS" in out
        assert (tmp_path / "rb" / "xi.csv").exists()


def test_simulate_zero_initial_state_zero_input(tmp_path, capsys):
    cfg = tmp_path / "zero.ini"
    cfg.write_text(SCALAR_CONFIG.replace("x0.1 = 1.0", "x0.1 = 0.0"), encoding="utf-8")
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    data = np.loadtxt(out / "sim_1.csv", delimiter=",", skiprows=1)
    assert np.all(data[:, 1] == 0.0)  # state column stays identically zero


def test_config_nonsmooth_v_requires_explicit_derivatives(tmp_path):
    base = SCALAR_CONFIG.replace('V = "0.5*x1^2"', 'V = "0.5*abs(x1)^2"')
    p = tmp_path / "nonsmooth.ini"
    p.write_text(base, encoding="utf-8")
    with pytest.raises(ConfigError):
        load_problem(p)
    # supplying the derivatives by hand makes the same V acceptable
    fixed = base.replace('alpha1 = "0.5*s^2"',
                         'dV_dt = "0"\ndV_dx1 = "x1"\nalpha1 = "0.5*s^2"')
    p.write_text(fixed, encoding="utf-8")
    problem = load_problem(p)
    assert float(problem.candidate.V(0.0, np.array([-2.0]))) == 2.0
    assert float(problem.candidate.grad_x(0.0, np.array([-2.0]))[0]) == -2.0


# ---------------------------------------------------------------------------
# simulate and iss-estimate run their runs in forked processes: output equals
# the runs one after another, and no child outlives the command

THREE_RUNS = SCALAR_CONFIG + 'x0.3 = 2.0\nu.3.1 = "cos(t)"\n'


@pytest.fixture(params=[1, 2, 3], ids=lambda k: f"{k}cpu")
def cpus(request, set_cpus):
    """The number of CPUs the runs may spread over (1: no child)."""
    set_cpus(request.param)
    return request.param


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _serial_reference(problem, cert, out: Path) -> list[str]:
    """The stdout lines of simulate from one run after another, writing the
    CSV files into out."""
    sim, lines = problem.sim, []
    for k, run in enumerate(sim.runs, start=1):
        try:
            traj = integrate(problem.system, run.x0, sim.t0, sim.tf, run.signal, sim.step)
        except BlowUpError as exc:
            lines.append(f"run {k}: blow-up at t = {exc.time:.6g} (|x| = {exc.norm:.3e})")
            continue
        v = np.asarray(problem.candidate.V(traj.times, traj.states), dtype=float)
        extra = {"V": v, "Vsharp": np.asarray(cert.v_sharp(traj.times, traj.states))}
        lines.append(f"run {k}: x0={run.x0.tolist()} final |x| = "
                     f"{float(np.linalg.norm(traj.states[-1])):.6e} "
                     f"V(tf) = {float(v[-1]):.6e}")
        write_trajectory_csv(out / f"sim_{k}.csv", traj, extra)
    return lines


def _reference_for(argv, out: Path) -> list[str]:
    problem = cli._load(cli._build_parser().parse_args(argv))
    cli._ensure_pe(problem)
    return _serial_reference(problem, strictify_problem(problem), out)


def _same_files(a: Path, b: Path):
    assert sorted(p.name for p in a.iterdir()) == sorted(p.name for p in b.iterdir())
    for p in a.iterdir():
        assert p.read_bytes() == (b / p.name).read_bytes(), p.name


def test_simulate_rigid_body_equals_serial_runs(tmp_path, capsys, set_cpus):
    set_cpus(2)
    argv = ["simulate", "--example", "rigid-body", "--samples", "2000"]
    assert cli.main(argv + ["--out", str(tmp_path / "forked")]) == 0
    out = capsys.readouterr().out.splitlines()
    (tmp_path / "serial").mkdir()
    assert out == _reference_for(argv, tmp_path / "serial")
    _same_files(tmp_path / "forked", tmp_path / "serial")
    _assert_no_child()


def test_simulate_three_runs_equal_serial_runs(tmp_path, capsys, cpus):
    cfg = tmp_path / "three.ini"
    cfg.write_text(THREE_RUNS, encoding="utf-8")
    argv = ["simulate", "--config", str(cfg)]
    assert cli.main(argv + ["--out", str(tmp_path / "forked")]) == 0
    out = capsys.readouterr().out.splitlines()
    (tmp_path / "serial").mkdir()
    assert out == _reference_for(argv, tmp_path / "serial")
    assert len(out) == 3
    _same_files(tmp_path / "forked", tmp_path / "serial")
    _assert_no_child()


def test_simulate_blow_up_in_run_2_of_3(tmp_path, capsys, cpus):
    # x' = -x + exp(5t) passes the guard 1e8 near t = 4
    cfg = tmp_path / "three.ini"
    cfg.write_text(THREE_RUNS.replace('"0.2*sin(t)"', '"exp(5*t)"'), encoding="utf-8")
    argv = ["simulate", "--config", str(cfg)]
    assert cli.main(argv + ["--out", str(tmp_path / "forked")]) == 1
    out = capsys.readouterr().out.splitlines()
    (tmp_path / "serial").mkdir()
    assert out == _reference_for(argv, tmp_path / "serial")
    assert out[1].startswith("run 2: blow-up at t = 4.")
    assert sorted(p.name for p in (tmp_path / "forked").iterdir()) == ["sim_1.csv",
                                                                      "sim_3.csv"]
    _same_files(tmp_path / "forked", tmp_path / "serial")
    _assert_no_child()


@pytest.mark.parametrize("inputs, named", [
    ('u.2.1 = "log(1 - t)"', "(run 2, [sim] u.2.1)"),
    ('u.2.1 = "0.2*sin(t)"\nu.2.2 = "log(1 - t)"', "(run 2, [sim] u.2.2)"),
])
def test_non_finite_input_names_its_run_and_key(tmp_path, capsys, inputs, named):
    # two inputs, so that the key names the channel: the first non-finite one
    cfg = tmp_path / "two.ini"
    cfg.write_text(SCALAR_CONFIG.replace("m = 1", "m = 2")
                   .replace('"-x1 + u1"', '"-x1 + u1 + u2"')
                   .replace('u.2.1 = "0.2*sin(t)"', inputs), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: input is not finite at t=1.0: u = ")
    assert err[0].endswith(" " + named)


def test_simulate_non_finite_input_in_run_2_of_3(tmp_path, capsys, cpus):
    cfg = tmp_path / "three.ini"
    cfg.write_text(THREE_RUNS.replace('"0.2*sin(t)"', '"log(1 - t)"'), encoding="utf-8")
    out = tmp_path / "forked"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1].startswith("run 1: x0=[1.0]")
    assert "config error: input is not finite at t=1.0:" in captured.err
    assert "Traceback" not in captured.err
    assert sorted(p.name for p in out.iterdir()) == ["sim_1.csv"]
    _assert_no_child()


def test_simulate_internal_error_in_run_2_of_3(tmp_path, monkeypatch, capsys, cpus):
    # an unexpected error in run 2 reaches main with its class and message,
    # after run 1's line; from a child, with the child's traceback
    write = cli.write_trajectory_csv

    def broken(path, *args):
        if path.name.startswith("sim_2."):
            raise IndexError("index 7 is out of bounds")
        write(path, *args)

    monkeypatch.setattr(cli, "write_trajectory_csv", broken)
    cfg = tmp_path / "three.ini"
    cfg.write_text(THREE_RUNS, encoding="utf-8")
    out = tmp_path / "forked"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1].startswith("run 1: x0=[1.0]")
    assert "internal error: IndexError: index 7 is out of bounds" in captured.err
    assert ("raised in worker process" in captured.err) == (cpus > 1)
    assert 'raise IndexError("index 7 is out of bounds")' in captured.err
    assert sorted(p.name for p in out.iterdir()) == ["sim_1.csv"]
    _assert_no_child()


def test_iss_estimate_scalar_linear_report(capsys, cpus):
    assert cli.main(["verify", "iss-estimate", "--example", "scalar-linear"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "fitted beta: 1.02*s*exp(-0.98*r)",
        "fitted gamma: ultimate-bound hull",
        "iss-estimate: margin=1.339284e-05 n=400 PASS",
        "  worst point: t=10 x=[5.447991571498626e-05] u=[0.0]",
    ]
    _assert_no_child()
