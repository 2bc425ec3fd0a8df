"""perfbench's span tracer patches wittlab functions by name (module,
attribute); a rename or deletion in wittlab must not leave a name behind."""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


@pytest.mark.parametrize("module, attr, kind", _traced())
def test_traced_name_resolves(module, attr, kind):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
    assert kind in ("hot", "span")
