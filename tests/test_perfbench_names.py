"""Every entry point the benchmark tracer wraps still exists in the package.

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
