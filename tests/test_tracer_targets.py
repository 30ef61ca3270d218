"""The benchmark tracer wraps package functions by the names their callers
look up; a renamed or removed name would only break a traced benchmark
run, so every target is checked to resolve here."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = _tracer()._TARGETS
    assert targets
    missing = [
        (module_name, attr)
        for module_name, attr, _ in targets
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
