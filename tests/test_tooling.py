"""The benchmark's tracer names functions that must exist in the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_functions_exist():
    # the traced benchmark run wraps these by name and raises on a missing
    # one; a refactor that deletes one should fail here first
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"scalarweyl.{module}"), name, None))
    ]
    assert not missing, missing
