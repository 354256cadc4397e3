"""The benchmark tracer wraps package functions by name; every name it lists
must exist, or a traced benchmark run fails when it installs the tracer."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, names in spans.TARGETS.items()
        for name in names
        if not hasattr(importlib.import_module(f"{spans.PACKAGE}.{module}"), name)
    ]
    assert missing == []
