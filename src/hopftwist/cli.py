"""Command-line front end.

Exit codes separate the two failure families: 0 means every check passed,
1 means a mathematical check failed or a verified property was violated,
2 means the input could not be used (unknown names, malformed documents,
bad flags).  All JSON output is canonical (sorted keys, compact
separators), so identical inputs and seeds produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

import numpy as np

from . import catalog
from .cocycle import DualCocycle, induce, verify_cocycle
from .core import ScalarContext
from .corep import regular_corep, verify_corep
from .deform import RTwistedVolume, check_membership, deform_triple
from .errors import InputError, MathCheckError
from .peterweyl import decompose, haar_invariance_residual, haar_state
from .report import render_text, report_to_doc
from .serialize import (
    algebra_from_doc,
    algebra_to_doc,
    axiom_report_to_doc,
    canonical_dumps,
    category_report_to_doc,
    cocycle_from_doc,
    cocycle_to_doc,
    corep_from_doc,
    host_hash,
    morphism_from_doc,
    parse_document,
    peterweyl_to_doc,
    text_hash,
    triple_from_doc,
    triple_to_doc,
    twist_transcript_to_doc,
)
from .suite import run_paper_suite
from .twist import roundtrip, twist_algebra


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_algebra(source: str):
    """A host algebra from a catalog name or a document path."""
    if source in catalog.host_names():
        return catalog.algebra(source)
    if os.path.exists(source):
        return algebra_from_doc(parse_document(_read_text(source)))
    raise InputError(f"{source!r} is neither a catalog algebra nor a readable file")


def _load_cocycle(source: str, host, ctx: ScalarContext) -> DualCocycle:
    """A cocycle from a catalog name or a document path, tied to host."""
    if source in catalog.cocycle_names():
        built = catalog.cocycle(source, ctx)
        if host is not None and built.host is not host:
            raise InputError(
                f"catalog cocycle {source!r} lives on "
                f"{catalog.cocycle_host_name(source)!r}, not on the given host"
            )
        return built
    if os.path.exists(source):
        if host is None:
            raise InputError("a cocycle document needs --host")
        return cocycle_from_doc(parse_document(_read_text(source)), host, ctx)
    raise InputError(f"{source!r} is neither a catalog cocycle nor a readable file")


def _emit(args, payload: dict | str) -> None:
    if isinstance(payload, str):
        text = payload if payload.endswith("\n") else payload + "\n"
    else:
        text = canonical_dumps(payload) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_exit(args, report, doc: dict) -> int:
    if args.format == "text":
        lines = [
            f"{'PASS' if r <= doc['tolerance'] else 'FAIL':4s} {name}  residual {r:.3e}"
            for name, r in doc["checks"]
        ]
        lines.append(f"{doc['subject']}: {'PASS' if doc['passed'] else 'FAIL'}")
        _emit(args, "\n".join(lines))
    else:
        _emit(args, doc)
    return 0 if doc["passed"] else 1


def _cmd_check_hopf(args, ctx: ScalarContext) -> int:
    from .core import verify_hopf_axioms

    algebra = _load_algebra(args.source)
    report = verify_hopf_axioms(algebra, ctx, subject=args.source)
    return _report_exit(args, report, axiom_report_to_doc(report))


def _cmd_haar(args, ctx: ScalarContext) -> int:
    algebra = _load_algebra(args.source)
    h = haar_state(algebra, ctx)
    residual = haar_invariance_residual(h)
    doc = {
        "host": host_hash(algebra),
        "coeffs": h.coeffs,
        "invariance_residual": float(residual),
        "passed": bool(residual <= ctx.tolerance),
    }
    _emit(args, doc)
    return 0 if doc["passed"] else 1


def _cmd_peter_weyl(args, ctx: ScalarContext) -> int:
    algebra = _load_algebra(args.source)
    pw = decompose(algebra, haar_state(algebra, ctx), ctx)
    _emit(args, peterweyl_to_doc(pw))
    return 0


def _cmd_check_corep(args, ctx: ScalarContext) -> int:
    host = _load_algebra(args.host)
    if args.corep is None:
        corep = regular_corep(host, ctx)
    else:
        corep = corep_from_doc(parse_document(_read_text(args.corep)), host)
    report = verify_corep(corep, ctx, subject=args.corep or "regular-corep")
    return _report_exit(args, report, axiom_report_to_doc(report))


def _cmd_check_cocycle(args, ctx: ScalarContext) -> int:
    host = _load_algebra(args.host) if args.host else None
    sigma = _load_cocycle(args.source, host, ctx)
    report = verify_cocycle(sigma, ctx, subject=args.source)
    return _report_exit(args, report, axiom_report_to_doc(report))


def _cmd_induce_cocycle(args, ctx: ScalarContext) -> int:
    source = _load_algebra(args.source)
    target = _load_algebra(args.target)
    mor = morphism_from_doc(parse_document(_read_text(args.morphism)), source, target)
    sigma = _load_cocycle(args.cocycle, target, ctx)
    induced = induce(sigma, mor, ctx)
    _emit(args, cocycle_to_doc(induced))
    return 0


def _cmd_twist(args, ctx: ScalarContext) -> int:
    host = _load_algebra(args.host)
    sigma = _load_cocycle(args.cocycle, host, ctx)
    tw = twist_algebra(host, sigma, ctx)
    # the twisted host is encoded once: its hash is read off the text written
    twisted = canonical_dumps(algebra_to_doc(tw.twisted))
    transcript = canonical_dumps(twist_transcript_to_doc(tw, text_hash([twisted])))
    # the canonical text of {"transcript": ..., "twisted": ...}
    _emit(args, f'{{"transcript":{transcript},"twisted":{twisted}}}\n')
    return 0 if tw.transcript.passed else 1


def _cmd_roundtrip(args, ctx: ScalarContext) -> int:
    host = _load_algebra(args.host)
    sigma = _load_cocycle(args.cocycle, host, ctx)
    rt = roundtrip(host, sigma, ctx)
    doc = {
        "residual": float(rt["residual"]),
        "inverse_cocycle_residual": float(rt["inverse_cocycle_residual"]),
        "coalgebra_identical": bool(rt["coalgebra_identical"]),
        "passed": bool(rt["passed"]),
    }
    _emit(args, doc)
    return 0 if doc["passed"] else 1


def _scene_inputs(args, ctx: ScalarContext):
    """Triple, corep, cocycle, volume from a scene name or from documents."""
    if args.source in catalog.triple_names():
        scene = catalog.triple_scene(args.source, ctx)
        return scene["triple"], scene["corep"], scene["cocycle"], scene["volume"]
    st, volume = triple_from_doc(parse_document(_read_text(args.source)))
    if args.host is None or args.cocycle is None:
        raise InputError("a triple document needs --host and --cocycle")
    host = _load_algebra(args.host)
    if args.corep is None:
        corep = regular_corep(host, ctx)
    else:
        corep = corep_from_doc(parse_document(_read_text(args.corep)), host)
    sigma = _load_cocycle(args.cocycle, host, ctx)
    if volume is None:
        volume = RTwistedVolume(np.eye(st.hdim, dtype=np.complex128))
    return st, corep, sigma, volume


def _cmd_deform_triple(args, ctx: ScalarContext) -> int:
    st, corep, sigma, _ = _scene_inputs(args, ctx)
    result = deform_triple(st, corep, sigma, ctx)
    t = result.transcript
    doc = {
        "dirac_unchanged": bool(result.dirac is st.dirac),
        "dirac_equivariance": float(t["dirac_equivariance"]),
        "commutator_identity": float(t["commutator_identity"]),
        "spectral_dimension": int(t["spectral_dimension"]),
        "generated_dimension": int(t["generated_dimension"]),
        "labels": list(result.algebra.labels),
        "generator_blocks": [
            {
                "generator": gb["generator"],
                "blocks": [[int(b), float(wt)] for b, wt in gb["blocks"]],
            }
            for gb in t["generator_blocks"]
        ],
        "passed": bool(t["commutator_identity"] <= ctx.tolerance),
    }
    _emit(args, doc)
    return 0 if doc["passed"] else 1


def _cmd_check_membership(args, ctx: ScalarContext) -> int:
    st, corep, sigma, volume = _scene_inputs(args, ctx)
    tw = None
    if args.twisted:
        tw = twist_algebra(corep.host, sigma, ctx)
    report, twisted = check_membership(corep, st, volume, ctx, tw=tw, subject=args.source)
    _emit(args, category_report_to_doc(report, twisted))
    return 0 if report.passed and (twisted is None or twisted.passed) else 1


def _cmd_verify(args, ctx: ScalarContext) -> int:
    if args.suite != "paper":
        raise InputError(f"unknown suite {args.suite!r}")
    report = run_paper_suite(ctx)
    if args.format == "text":
        _emit(args, render_text(report))
    else:
        _emit(args, report_to_doc(report))
    return 0 if report.passed else 1


def _cmd_catalog(args, ctx: ScalarContext) -> int:
    if args.action == "list":
        doc = {
            "hosts": list(catalog.host_names()),
            "cocycles": list(catalog.cocycle_names()),
            "triples": list(catalog.triple_names()),
        }
        if args.format == "text":
            lines = []
            for kind in ("hosts", "cocycles", "triples"):
                lines.append(f"{kind}:")
                lines.extend(f"  {name}" for name in doc[kind])
            _emit(args, "\n".join(lines))
        else:
            _emit(args, doc)
        return 0
    name = args.name
    if name is None:
        raise InputError("catalog emit needs a name")
    if name in catalog.host_names():
        _emit(args, algebra_to_doc(catalog.algebra(name)))
    elif name in catalog.cocycle_names():
        _emit(args, cocycle_to_doc(catalog.cocycle(name, ctx)))
    elif name in catalog.triple_names():
        scene = catalog.triple_scene(name, ctx)
        _emit(args, triple_to_doc(scene["triple"], scene["volume"]))
    else:
        raise InputError(f"unknown catalog name {name!r}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopftwist",
        description="structure-tensor quantum groups, cocycle twisting, "
        "and twisted spectral triples",
    )
    parser.add_argument("--tolerance", type=float, default=1e-9)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None, help="write output here instead of stdout")
    parser.add_argument("--format", choices=("json", "text"), default="json")

    # the same flags are accepted after the subcommand; SUPPRESS keeps a
    # subcommand from clobbering a value parsed before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", type=float, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument(
        "--format", choices=("json", "text"), default=argparse.SUPPRESS
    )

    sub = parser.add_subparsers(dest="command", required=True)

    def add_cmd(name: str, help: str):
        return sub.add_parser(name, parents=[common], help=help)

    p = add_cmd("check-hopf", help="verify all axioms of an algebra")
    p.add_argument("source", help="catalog name or hopf-algebra.v1 path")
    p.set_defaults(fn=_cmd_check_hopf)

    p = add_cmd("haar", help="compute the invariant state")
    p.add_argument("source")
    p.set_defaults(fn=_cmd_haar)

    p = add_cmd("peter-weyl", help="block decomposition of an algebra")
    p.add_argument("source")
    p.set_defaults(fn=_cmd_peter_weyl)

    p = add_cmd("check-corep", help="verify a unitary corepresentation")
    p.add_argument("--host", required=True)
    p.add_argument("corep", nargs="?", default=None, help="corep.v1 path (default: regular)")
    p.set_defaults(fn=_cmd_check_corep)

    p = add_cmd("check-cocycle", help="verify a dual 2-cocycle")
    p.add_argument("source", help="catalog cocycle name or cocycle.v1 path")
    p.add_argument("--host", default=None)
    p.set_defaults(fn=_cmd_check_cocycle)

    p = add_cmd("induce-cocycle", help="pull a cocycle back along a quotient")
    p.add_argument("morphism", help="morphism.v1 path")
    p.add_argument("--cocycle", required=True)
    p.add_argument("--source", required=True, help="algebra being induced to")
    p.add_argument("--target", required=True, help="algebra the cocycle lives on")
    p.set_defaults(fn=_cmd_induce_cocycle)

    p = add_cmd("twist", help="twist an algebra by a cocycle")
    p.add_argument("--host", required=True)
    p.add_argument("--cocycle", required=True)
    p.set_defaults(fn=_cmd_twist)

    p = add_cmd("roundtrip", help="twist by sigma, then by its inverse")
    p.add_argument("--host", required=True)
    p.add_argument("--cocycle", required=True)
    p.set_defaults(fn=_cmd_roundtrip)

    p = add_cmd("deform-triple", help="deform the operator algebra of a triple")
    p.add_argument("source", help="catalog triple name or triple.v1 path")
    p.add_argument("--host", default=None)
    p.add_argument("--corep", default=None)
    p.add_argument("--cocycle", default=None)
    p.set_defaults(fn=_cmd_deform_triple)

    p = add_cmd("check-membership", help="category membership of a datum")
    p.add_argument("source", help="catalog triple name or triple.v1 path")
    p.add_argument("--host", default=None)
    p.add_argument("--corep", default=None)
    p.add_argument("--cocycle", default=None)
    p.add_argument("--twisted", action="store_true", help="also check the twisted side")
    p.set_defaults(fn=_cmd_check_membership)

    p = add_cmd("verify", help="run a built-in verification suite")
    p.add_argument("--suite", default="paper")
    p.set_defaults(fn=_cmd_verify)

    p = add_cmd("catalog", help="list or emit built-in objects")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(fn=_cmd_catalog)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        # an overflowing residual fails its check by name; numpy's warnings
        # on the way to it would only repeat that on stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args, ScalarContext(tolerance=args.tolerance, seed=args.seed))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathCheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    code = run()
    # the import-time heap moves to the permanent generation, so the
    # collections at interpreter exit skip what the OS takes back anyway
    gc.freeze()
    sys.exit(code)
