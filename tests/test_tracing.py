"""The benchmark's tracer patches functions by name; keep those names real."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_exists():
    missing = [
        f"{layer}.{name}"
        for layer, names in _traced().items()
        for name in names
        if not callable(getattr(importlib.import_module(f"sdnheal.{layer}"), name, None))
    ]
    assert missing == []
