"""The benchmark tracer wraps library functions by name; each name must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_exists_in_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"hopftwist.{module}.{fn}"
        for _, _, module, fns in tracer.LAYERS
        for fn in fns
        if not callable(getattr(importlib.import_module(f"hopftwist.{module}"), fn, None))
    ]
    assert not missing
