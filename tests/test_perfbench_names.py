"""The benchmark's tracer wraps program functions by name; keep those names alive."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_callable_of_the_package():
    targets = _load_tracing().TARGETS
    missing = [
        f"{layer}.{name}"
        for layer, names in targets.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"sectorbalance.{layer}"), name, None))
    ]
    assert not missing, missing
