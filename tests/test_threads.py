"""hopftwist loads OpenBLAS with one thread unless a thread count was chosen.

Each case is a fresh interpreter, since OpenBLAS reads its thread count once,
when numpy loads it; the cases run at once, to keep the test short.
"""

import json
import os
import subprocess
import sys

import pytest

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# prints the OpenBLAS thread count after `import hopftwist` (None where no
# loaded OpenBLAS exports one), the count before it when numpy was imported
# first, and whether os.environ came out of the imports as it went in
PROBE = """
import ctypes, json, os, sys

def blas_threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None

environ = dict(os.environ)
before = None
if sys.argv[1:] == ["numpy-first"]:
    import numpy
    before = blas_threads()
import hopftwist
print(json.dumps({"threads": blas_threads(), "before": before,
                  "environ_kept": dict(os.environ) == environ}))
"""


def _probe(*cases):
    """What PROBE prints in one fresh interpreter per (variables, argv) case,
    each started without the three thread-count variables."""
    clean = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", PROBE, *argv],
            env={**clean, **variables},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for variables, argv in cases
    ]
    results = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        results.append(json.loads(out))
    if any(r["threads"] is None for r in results):
        pytest.skip("no loaded OpenBLAS reports its thread count")
    return results


def test_importing_hopftwist_first_loads_openblas_with_one_thread():
    alone, numpy_first = _probe(({}, []), ({}, ["numpy-first"]))
    assert alone == {"threads": 1, "before": None, "environ_kept": True}
    # numpy loaded first keeps its threads, and nothing is set or left set
    assert numpy_first["environ_kept"]
    assert numpy_first["threads"] == numpy_first["before"]


def test_a_chosen_thread_count_is_kept():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS caps its threads at the one usable CPU")
    openblas, omp, numpy_first = _probe(
        ({"OPENBLAS_NUM_THREADS": "2"}, []), ({"OMP_NUM_THREADS": "2"}, []), ({}, ["numpy-first"])
    )
    assert openblas == omp == {"threads": 2, "before": None, "environ_kept": True}
    assert numpy_first["threads"] > 1
