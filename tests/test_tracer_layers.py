"""The benchmark tracer wraps library functions by name; each name must exist,
and each module it names must be loaded when the tracer is installed."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_every_traced_function_exists_in_its_module():
    missing = [
        f"hopftwist.{module}.{fn}"
        for _, _, module, fns in _layers()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"hopftwist.{module}"), fn, None))
    ]
    assert not missing


def test_every_traced_module_is_loaded_by_the_package_import():
    # the benchmark worker installs the tracer right after importing
    # hopftwist, and hopftwist.cli where a workload calls it; a module loaded
    # later is never wrapped, and its counters read 0.  A fresh process, so
    # that no test has loaded a module first
    modules = sorted({f"hopftwist.{module}" for _, _, module, _ in _layers()})
    script = (
        "import json, sys\n"
        f"modules = {modules!r}\n"
        "import hopftwist\n"
        "package = [m for m in modules if m not in sys.modules]\n"
        "import hopftwist.cli\n"
        "print(json.dumps([package, [m for m in modules if m not in sys.modules]]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    package, cli = json.loads(proc.stdout)
    # the cli layer is entered only through hopftwist.cli
    assert set(package) <= {"hopftwist.cli"} and cli == [], proc.stderr
