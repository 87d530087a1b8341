"""Every entry point the benchmark tracer wraps still exists in the package,
and the tracer still sees the arguments it counts.

perfbench/tracing.py patches functions by name; a renamed or deleted one
would only surface when a traced benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TRACER = _tracing()


@pytest.mark.parametrize("layer, module, attr", TRACER.ENTRY_POINTS,
                         ids=[f"{m}.{a}" for _, m, a in TRACER.ENTRY_POINTS])
def test_entry_point_resolves(layer, module, attr):
    mod = importlib.import_module(f"{TRACER.PACKAGE}.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name))[meth])
    else:
        assert callable(getattr(mod, attr))


def test_tracer_counts_the_masked_draws():
    # _run_check's mask is keyword-only, so the tracer's hook always finds
    # it; a missed mask would make verify.kept_ratio read 1.0
    from strictlyap.config import strictify_problem
    from strictlyap.fixtures import get_fixture

    tracer = TRACER.Tracer()
    tracer.install()
    try:
        strictify_problem(get_fixture("scalar-linear"), n_samples=500)
    finally:
        tracer.uninstall()
    # the issp premise and the strict-ISS contract each mask 500 draws
    assert tracer.counts["verify.masked_drawn"] == 1000
    assert 0 < tracer.counts["verify.masked_kept"] <= 1000
