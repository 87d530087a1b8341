import configparser
import inspect
import math

import numpy as np
import pytest

from strictlyap import exprparse, fixtures
from strictlyap.config import load_problem, strictify_problem
from strictlyap.fixtures import (FIXTURES, check_reference_admissibility,
                                 get_fixture)

PI = math.pi


def test_registry_contents():
    assert set(FIXTURES) == {"rigid-body", "counterexample-elw", "scalar-linear"}
    with pytest.raises(KeyError):
        get_fixture("nope")


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_every_fixture_expression_parses(name):
    problem = get_fixture(name)
    assert problem.expressions
    for key, text in problem.expressions.items():
        exprparse.parse(text)  # parser totality over the built-in corpus


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_field_is_finite_on_boxes(name):
    problem = get_fixture(name)
    rng = np.random.default_rng(1)
    k = 200
    t = rng.uniform(*problem.domain.t_range, k)
    x = rng.normal(size=(k, problem.system.n)) * problem.domain.x_radius / 2
    u = rng.normal(size=(k, problem.system.m)) * problem.domain.u_radius / 2
    vals = problem.system.f(t, x, u)
    assert np.isfinite(vals).all()


def _outcome(problem):
    """The report lines of a 500-sample strictification, or its failure."""
    try:
        return strictify_problem(problem, n_samples=500).report_lines()
    except Exception as exc:  # noqa: BLE001 - the failure is the outcome
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_sections_load_as_an_ini_file(tmp_path, name):
    """A fixture is its INI sections read by the config loader: written to a
    file they load, with the fixture's triple attached, to the same problem."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_dict(fixtures.SECTIONS[name])
    ini = tmp_path / f"{name}.ini"
    with open(ini, "w", encoding="utf-8") as fh:
        cp.write(fh)
    fixture, loaded = get_fixture(name), load_problem(ini)
    loaded.rate = loaded.rate.with_pe(fixture.rate.pe)
    assert loaded.expressions == {k: v for k, v in fixture.expressions.items()
                                  if not k.startswith("feedback")}
    assert (loaded.domain, loaded.samples, loaded.seed, loaded.mode) == (
        fixture.domain, fixture.samples, fixture.seed, fixture.mode)
    assert _outcome(loaded) == _outcome(fixture)


def test_rigid_body_period_declared():
    rb = get_fixture("rigid-body")
    rng = np.random.default_rng(2)
    for _ in range(20):
        t = rng.uniform(0, 2 * PI)
        x = rng.normal(size=3)
        u = rng.normal(size=2)
        a = rb.system.f(t, x, u)
        b = rb.system.f(t + rb.system.period, x, u)
        assert np.abs(a - b).max() <= 1e-9


def test_rigid_body_candidate_period():
    rb = get_fixture("rigid-body")
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = rng.uniform(0, 2 * PI)
        x = rng.normal(size=3)
        assert float(rb.candidate.V(t, x)) == pytest.approx(
            float(rb.candidate.V(t + 2 * PI, x)), rel=1e-12)


def test_rigid_body_pe_triple_is_papers():
    rb = get_fixture("rigid-body")
    assert rb.rate.pe.tau == PI
    assert rb.rate.pe.epsilon == PI / 2
    assert rb.rate.pe.pbar == 1.0


class TestReferenceAdmissibility:
    def test_default_reference(self):
        res = check_reference_admissibility("sin(t)", "0")
        assert res.admissible
        assert res.tau == pytest.approx(PI)
        assert res.epsilon == pytest.approx(PI / 2, abs=1e-6)
        assert res.sup_cross_integral == pytest.approx(0.0, abs=1e-12)

    def test_unbounded_cross_integral(self):
        # int sin^2 = t/2 - sin(2t)/4 grows linearly
        res = check_reference_admissibility("sin(t)", "sin(t)")
        assert not res.admissible
        assert "cross integral" in res.reason

    def test_zero_reference_not_exciting(self):
        res = check_reference_admissibility("0", "0")
        assert not res.admissible
        assert "not persistently exciting" in res.reason

    def test_value_not_finite_before_zero_ends_the_ladder(self):
        # w1r^2 + w2r^2 = 1 on [0, 160], nan from t = -pi, where the first
        # window reads it: no other window is tried
        res = check_reference_admissibility("sin(t) + 0*sqrt(t)", "cos(t)")
        assert not res.admissible
        assert res.reason == ("w1r^2 + w2r^2 of reference ('sin(t) + 0*sqrt(t)', 'cos(t)'): "
                              f"rate is not finite at t={-PI!r}")

    def test_two_channel_excitation(self):
        # cos and sin together keep w1r^2 + w2r^2 = 1; cross integral bounded
        res = check_reference_admissibility("sin(t)", "cos(t)")
        assert res.admissible


def test_admissibility_settings_are_module_constants():
    # only the two reference texts are inputs; the horizon and the windows
    # tried are fixed, as the README lists them
    assert list(inspect.signature(check_reference_admissibility).parameters) == [
        "w1r_text", "w2r_text"]
    assert fixtures.ADMISSIBILITY_HORIZON == 40.0
    assert fixtures.ADMISSIBILITY_TAUS == (PI, PI / 2.0, 2.0 * PI, 4.0 * PI)
