"""Span tracer that wraps hopftwist's public functions from outside the library.

Each wrapped call records a span (name, start, end, parent span, repetition
id) in memory.  Wrappers are installed by rebinding every name, in every
loaded ``hopftwist.*`` namespace, that refers to the original function, so
calls made through ``from .corep import ad_v`` style imports are traced too.
``numpy.einsum``, ``einsum_path`` and the ``numpy.linalg`` functions are
wrapped as the ``kernel`` layer.

A span's self time is its duration minus the durations of its direct
children; the children of one span run one after another, so the self times
of all spans add up to the time covered by the outermost spans.  Because
``numpy.einsum`` is a layer of its own, a few hot functions also report
their total (inclusive) time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, statistics reported as metrics, hopftwist module, functions)
#
# Every span name reports its call count.  Times are metrics only for spans
# that every declared workload enters: a layer a workload never calls would
# read 0.0 s on every run (the corep and deform layers on twist-ladder, by
# design).  The traced run's metadata lists calls, self, total and failures
# of every span name, these included.
LAYERS = (
    ("corep.ad_v", ("calls",), "corep", ("ad_v",)),
    ("corep.ad_v_tensor", ("calls",), "corep", ("ad_v_tensor",)),
    ("corep.verify_corep", ("calls",), "corep", ("verify_corep",)),
    ("corep.decompose_corep", ("calls",), "corep", ("decompose_corep",)),
    ("corep.spectral_projection", ("calls",), "corep", ("spectral_projection",)),
    ("corep.regular_corep", ("calls",), "corep", ("regular_corep",)),
    ("deform.rho_sigma", ("calls",), "deform", ("rho_sigma",)),
    ("deform.intertwine_check", ("calls",), "deform", ("intertwine_check",)),
    ("deform.deform_triple", ("calls",), "deform", ("deform_triple",)),
    ("deform.twisted_operator_product", ("calls",), "deform", ("twisted_operator_product",)),
    ("deform.twisted_operator_star", ("calls",), "deform", ("twisted_operator_star",)),
    ("deform.check_volume_preservation", ("calls",), "deform", ("check_volume_preservation",)),
    ("peterweyl.haar_state", ("calls", "self_s"), "peterweyl", ("haar_state",)),
    ("peterweyl.decompose", ("calls", "self_s", "total_s", "fail"), "peterweyl", ("decompose",)),
    ("cocycle.verify_cocycle", ("calls", "self_s", "total_s"), "cocycle", ("verify_cocycle",)),
    ("cocycle.invert2", ("calls", "self_s"), "cocycle", ("invert2",)),
    ("cocycle.w_functional", ("calls", "self_s"), "cocycle", ("w_functional",)),
    ("cocycle.v_functional", ("calls", "self_s"), "cocycle", ("v_functional",)),
    ("cocycle.induce", ("calls", "self_s"), "cocycle", ("induce",)),
    ("core.verify_hopf_axioms", ("calls", "self_s"), "core", ("verify_hopf_axioms",)),
    ("core.convolution_inverse", ("calls", "self_s"), "core", ("convolution_inverse",)),
    ("twist.twist_algebra", ("calls", "self_s"), "twist", ("twist_algebra",)),
    ("twist.roundtrip", ("calls", "self_s", "total_s"), "twist", ("roundtrip",)),
    ("twist.twist_corep", ("calls",), "twist", ("twist_corep",)),
    ("twist.f_matrix_relation", ("calls",), "twist", ("f_matrix_relation",)),
    ("catalog.build", ("calls",), "catalog", ("algebra", "cocycle", "triple_scene")),
    ("suite.run_paper_suite", ("calls",), "suite", ("run_paper_suite",)),
    (
        "serialize.encode",
        ("calls",),
        "serialize",
        (
            "encode_array",
            "canonical_dumps",
            "document_hash",
            "host_hash",
            "algebra_to_doc",
            "cocycle_to_doc",
            "corep_to_doc",
            "morphism_to_doc",
            "triple_to_doc",
            "axiom_report_to_doc",
            "peterweyl_to_doc",
            "twist_transcript_to_doc",
            "category_report_to_doc",
        ),
    ),
    ("cli.run", ("calls",), "cli", ("run",)),
)

KERNEL_LAYERS = (
    ("kernel.einsum", ("calls", "self_s")),
    ("kernel.einsum_path", ("calls", "self_s")),
    ("kernel.linalg", ("calls", "self_s")),
)

# the CLI's import of the library, recorded by the traced CLI runner
IMPORT_SPAN = "cli.import"

STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "fail": "count"}
EMPTY = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "fail": 0}


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for prefix, stats, *_ in LAYERS + KERNEL_LAYERS:
        out.extend((f"{prefix}.{stat}", STAT_UNITS[stat]) for stat in stats)
    out.append(("other.self_s", "s"))
    out.append(("trace.wall_s", "s"))
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, rep, failed]
        self._stack: list[int] = []
        self.rep = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rep, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller, outside any wrapped call."""
        self.spans.append([name, start, end, -1, self.rep, False])

    def install(self) -> None:
        """Rebind the traced functions in every loaded hopftwist namespace."""
        import numpy
        import numpy.linalg

        try:
            from numpy._core import einsumfunc
        except ImportError:  # numpy < 2
            from numpy.core import einsumfunc

        namespaces = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "hopftwist" or name.startswith("hopftwist."))
        ]
        for prefix, _, module, functions in LAYERS:
            mod = sys.modules.get(f"hopftwist.{module}")
            if mod is None:
                continue
            for fname in functions:
                original = getattr(mod, fname)
                _rebind(namespaces, original, self.wrap(prefix, original))
        numpy.einsum = self.wrap("kernel.einsum", numpy.einsum)
        einsumfunc.einsum_path = self.wrap("kernel.einsum_path", einsumfunc.einsum_path)
        for fname in numpy.linalg.__all__:
            fn = getattr(numpy.linalg, fname)
            if callable(fn) and not isinstance(fn, type):
                setattr(numpy.linalg, fname, self.wrap("kernel.linalg", fn))


def _rebind(namespaces, original, wrapper) -> None:
    for mod in namespaces:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def write_spans(spans, path: str) -> None:
    """Write spans as JSON lines, times relative to the first span."""
    origin = min((s[1] for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for idx, (name, start, end, parent, rep, failed) in enumerate(spans):
            record = {
                "id": idx,
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "rep": rep,
                "failed": failed,
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Calls, self time, total time and failures per span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, parent, _, failed) in enumerate(spans):
        entry = totals.setdefault(name, dict(EMPTY))
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[idx]
        entry["fail"] += int(failed)
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:  # outermost span of this name: count its whole duration once
            entry["total_s"] += end - start
    return totals


def layer_metrics(totals: dict, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metric values; 'other' makes the self times sum to the wall time."""
    values: dict[str, float] = {}
    for prefix, stats, *_ in LAYERS + KERNEL_LAYERS:
        entry = totals.get(prefix, EMPTY)
        for stat in stats:
            values[f"{prefix}.{stat}"] = entry[stat]
    covered = sum(entry["self_s"] for entry in totals.values())
    values["other.self_s"] = traced_wall - covered
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values
