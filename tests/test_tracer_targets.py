"""The benchmark tracer's targets must exist: `perfbench/run.py --trace 1` wraps each one by name."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracer.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert tracer.TARGETS and not missing, missing
