"""Names that the benchmark's tracer and the modules' __all__ lists promise must exist."""

import importlib
import importlib.util
import pkgutil
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


def test_every_exported_name_exists():
    # a name left in a module's __all__ after its code moved fails here
    import scalarweyl

    stale = []
    for info in pkgutil.iter_modules(scalarweyl.__path__):
        module = importlib.import_module(f"scalarweyl.{info.name}")
        stale += [
            f"{info.name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert not stale, stale
