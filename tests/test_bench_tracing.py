"""The benchmark's per-layer tracer wraps graphdiag functions by name; every
name it lists must stay a module-level function of the package."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_layer_is_a_module_function():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, names in tracing.LAYERS.items():
        module = importlib.import_module(f"graphdiag.{module_name}")
        for name in names:
            if not inspect.isfunction(getattr(module, name, None)):
                missing.append(f"{module_name}.{name}")
    assert missing == []
