"""The benchmark's tracer wraps package functions by name; each name must exist."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def test_every_wrapped_name_is_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{layer}.{name}" for layer, names in tracing.WRAPPED.items() for name in names
               if not callable(getattr(importlib.import_module(f"distilrobust.{layer}"), name,
                                       None))]
    assert missing == []
