"""Worker process: one repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py run WORKLOAD --seed N --rep R --trace 0|1
                                    [--spans FILE] [--setup-only]
    python3 perfbench/worker.py cli --spans FILE -- CLI-ARGS...

``run`` imports the library, builds the workload's inputs from the seed,
prints ``READY`` (the parent times set-up up to that line), runs the
repetition and prints ``RESULT <json>`` as its last line.  ``cli`` is one
traced short command for the cli-mix workload: the library's CLI entry
point with the tracer installed, its spans written to FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import tracer


def _blas_info() -> dict:
    """BLAS name, version and thread count of the loaded numpy."""
    import ctypes

    import numpy as np

    info: dict = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
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
                info["blas_threads"] = int(fn())
                return info
    return info


def _maxrss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_workload(args) -> int:
    import workloads

    setup, rep_fn = workloads.WORKLOADS[args.workload]
    import hopftwist

    if args.workload == "paper-suite":
        import hopftwist.cli  # noqa: F401  (loaded before install, so cli.run is traced)
    if not os.path.abspath(hopftwist.__file__).startswith(args.src + os.sep):
        print(f"hopftwist imported from {hopftwist.__file__}, not {args.src}", file=sys.stderr)
        return 2

    trace = None
    if args.trace and args.workload != "cli-mix":
        trace = tracer.Tracer()
        trace.rep = -1  # spans of the input build
        trace.install()
    t0 = time.perf_counter()
    state = setup(args.seed)
    build_s = time.perf_counter() - t0
    print("READY", flush=True)
    if args.setup_only:
        print("RESULT {}", flush=True)
        return 0

    rep = workloads.Rep()
    spans = None
    if args.workload == "cli-mix":
        spans_dir = None
        if args.trace:
            spans_dir = os.path.splitext(args.spans)[0] + ".d"
            os.makedirs(spans_dir, exist_ok=True)
        span_files = rep_fn(state, rep, spans_dir)
        if args.trace:
            spans = []
            for path in span_files:
                offset = len(spans)
                with open(path, encoding="utf-8") as fh:
                    child_spans = json.load(fh)
                for span in child_spans:
                    span[3] = span[3] + offset if span[3] >= 0 else -1
                    span[4] = args.rep
                    spans.append(span)
                os.remove(path)
            os.rmdir(spans_dir)
        build_s = 0.0  # each short command builds what it needs inside its own process
        maxrss = _maxrss_mb(resource.RUSAGE_CHILDREN)
    else:
        if trace is not None:
            trace.rep = args.rep
        rep_fn(state, rep)
        maxrss = _maxrss_mb()
        if trace is not None:
            spans = trace.spans

    result = {
        "ops": rep.ops,
        "build_s": build_s,
        "maxrss_mb": maxrss,
        "outputs": {k: _digest(v) for k, v in sorted(rep.outputs.items())},
        "env": _blas_info(),
    }
    if spans is not None:
        result["layers"] = tracer.layer_totals(spans)
        result["spans"] = len(spans)
        tracer.write_spans(spans, args.spans)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def run_cli(args) -> int:
    """One traced short command: the CLI entry point, spans dumped to a file."""
    trace = tracer.Tracer()
    t0 = time.perf_counter()
    import hopftwist.cli as cli

    trace.record(tracer.IMPORT_SPAN, t0, time.perf_counter())
    trace.install()  # rebinds cli.run, so the call below is traced
    try:
        return cli.run(args.argv)
    finally:
        sys.stdout.flush()
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(trace.spans, fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run")
    p.add_argument("workload")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None)
    p.add_argument("--src", required=True)
    p.add_argument("--setup-only", action="store_true")
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "cli":
        if args.argv and args.argv[0] == "--":
            args.argv = args.argv[1:]
        return run_cli(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
