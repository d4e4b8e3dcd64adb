"""Canonical JSON documents for every object the library publishes.

Complex numbers are stored as two-element [re, im] arrays and tensors as
nested row-major lists, so a serialize/parse cycle is bit-exact on the
numeric payload.  Documents carry a "format" tag; hosts are referenced by
the SHA-256 hash of their own canonical document.  Canonical text uses
sorted keys and compact separators, making equal payloads byte-equal.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .cocycle import DualCocycle, QuotientMorphism
from .core import FiniteHopfStarAlgebra, AxiomReport
from .corep import UnitaryCorep
from .deform import RTwistedVolume, SpectralTriple
from .errors import InputError
from .peterweyl import PeterWeylData
from .twist import TwistResult

Array = np.ndarray

HOPF_FORMAT = "hopf-algebra.v1"
COCYCLE_FORMAT = "cocycle.v1"
COREP_FORMAT = "corep.v1"
MORPHISM_FORMAT = "morphism.v1"
TRIPLE_FORMAT = "triple.v1"
PETER_WEYL_FORMAT = "peter-weyl.v1"
TWIST_TRANSCRIPT_FORMAT = "twist-transcript.v1"
CATEGORY_REPORT_FORMAT = "category-report.v1"
VERIFICATION_FORMAT = "verification-report.v1"


def encode_array(arr: Array) -> list:
    """Nested row-major lists with complex entries as [re, im]."""
    a = np.asarray(arr, dtype=np.complex128)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def decode_array(obj) -> Array:
    """Inverse of encode_array; raises InputError on malformed or non-finite payloads."""

    def build(node):
        if (
            isinstance(node, list)
            and len(node) == 2
            and all(isinstance(x, (int, float)) for x in node)
        ):
            return complex(node[0], node[1])
        if isinstance(node, list):
            return [build(part) for part in node]
        raise InputError("numeric payload must be nested [re, im] pairs")

    try:
        arr = np.array(build(obj), dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InputError(f"cannot decode array payload: {exc}") from None
    if not np.isfinite(arr).all():
        raise InputError("numeric payload contains NaN or infinite values")
    return arr


def canonical_dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def document_hash(doc: dict) -> str:
    return hashlib.sha256(canonical_dumps(doc).encode("utf-8")).hexdigest()


def parse_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "format" not in doc:
        raise InputError("document must be a JSON object with a 'format' key")
    return doc


def algebra_to_doc(algebra: FiniteHopfStarAlgebra) -> dict:
    return {
        "format": HOPF_FORMAT,
        "dim": algebra.dim,
        "labels": list(algebra.basis_labels),
        "mul": encode_array(algebra.mul),
        "comul": encode_array(algebra.comul),
        "unit": encode_array(algebra.unit),
        "counit": encode_array(algebra.counit),
        "antipode": encode_array(algebra.antipode),
        "antipode_inv": encode_array(algebra.antipode_inv),
        "star": encode_array(algebra.star),
    }


def algebra_from_doc(doc: dict) -> FiniteHopfStarAlgebra:
    if doc.get("format") != HOPF_FORMAT:
        raise InputError(f"not a {HOPF_FORMAT} document")
    try:
        dim = int(doc["dim"])
        labels = tuple(str(s) for s in doc["labels"])
        fields = {
            key: decode_array(doc[key])
            for key in (
                "mul",
                "comul",
                "unit",
                "counit",
                "antipode",
                "antipode_inv",
                "star",
            )
        }
    except KeyError as exc:
        raise InputError(f"missing key {exc} in {HOPF_FORMAT} document") from None
    return FiniteHopfStarAlgebra(dim=dim, basis_labels=labels, **fields)


def host_hash(algebra: FiniteHopfStarAlgebra) -> str:
    return document_hash(algebra_to_doc(algebra))


def _check_host(doc: dict, key: str, algebra: FiniteHopfStarAlgebra, what: str):
    stated = doc.get(key)
    actual = host_hash(algebra)
    if stated != actual:
        raise InputError(
            f"{what} was made for host {str(stated)[:12]}..., "
            f"supplied host hashes to {actual[:12]}..."
        )


def cocycle_to_doc(cocycle: DualCocycle) -> dict:
    return {
        "format": COCYCLE_FORMAT,
        "host": host_hash(cocycle.host),
        "sigma": encode_array(cocycle.sigma),
    }


def cocycle_from_doc(doc: dict, host: FiniteHopfStarAlgebra) -> DualCocycle:
    if doc.get("format") != COCYCLE_FORMAT:
        raise InputError(f"not a {COCYCLE_FORMAT} document")
    _check_host(doc, "host", host, "cocycle")
    return DualCocycle(host, decode_array(doc["sigma"]))


def corep_to_doc(corep: UnitaryCorep) -> dict:
    return {
        "format": COREP_FORMAT,
        "host": host_hash(corep.host),
        "hdim": corep.hdim,
        "u": encode_array(corep.u),
    }


def corep_from_doc(doc: dict, host: FiniteHopfStarAlgebra) -> UnitaryCorep:
    if doc.get("format") != COREP_FORMAT:
        raise InputError(f"not a {COREP_FORMAT} document")
    _check_host(doc, "host", host, "corep")
    return UnitaryCorep(host, int(doc["hdim"]), decode_array(doc["u"]))


def morphism_to_doc(mor: QuotientMorphism) -> dict:
    return {
        "format": MORPHISM_FORMAT,
        "source": host_hash(mor.source),
        "target": host_hash(mor.target),
        "pi": encode_array(mor.pi),
    }


def morphism_from_doc(
    doc: dict,
    source: FiniteHopfStarAlgebra,
    target: FiniteHopfStarAlgebra,
) -> QuotientMorphism:
    if doc.get("format") != MORPHISM_FORMAT:
        raise InputError(f"not a {MORPHISM_FORMAT} document")
    _check_host(doc, "source", source, "morphism source")
    _check_host(doc, "target", target, "morphism target")
    return QuotientMorphism(source=source, target=target, pi=decode_array(doc["pi"]))


def triple_to_doc(st: SpectralTriple, volume: RTwistedVolume | None = None) -> dict:
    doc = {
        "format": TRIPLE_FORMAT,
        "hdim": st.hdim,
        "labels": list(st.labels),
        "dirac": encode_array(st.dirac),
        "generators": [encode_array(g) for g in st.generators],
    }
    if volume is not None:
        doc["r"] = encode_array(volume.r)
    return doc


def triple_from_doc(doc: dict) -> tuple[SpectralTriple, RTwistedVolume | None]:
    if doc.get("format") != TRIPLE_FORMAT:
        raise InputError(f"not a {TRIPLE_FORMAT} document")
    st = SpectralTriple(
        int(doc["hdim"]),
        tuple(decode_array(g) for g in doc["generators"]),
        decode_array(doc["dirac"]),
        tuple(str(s) for s in doc.get("labels", ())),
    )
    volume = RTwistedVolume(decode_array(doc["r"])) if "r" in doc else None
    return st, volume


def axiom_report_to_doc(report: AxiomReport) -> dict:
    return {
        "subject": report.subject,
        "tolerance": report.tolerance,
        "checks": [[name, float(residual)] for name, residual in report.checks],
        "passed": report.passed,
    }


def peterweyl_to_doc(pw: PeterWeylData) -> dict:
    return {
        "format": PETER_WEYL_FORMAT,
        "host": host_hash(pw.host),
        "haar": encode_array(pw.haar.coeffs),
        "blocks": [
            {
                "dimension": b.dimension,
                "m_value": float(b.m_value),
                "f_matrix": encode_array(b.f_matrix),
                "q": encode_array(b.q),
                "matrix_units": encode_array(b.matrix_units),
                "central_idempotent": encode_array(b.central_idempotent),
                "is_trivial": b.is_trivial,
            }
            for b in pw.blocks
        ],
    }


def twist_transcript_to_doc(tw: TwistResult) -> dict:
    return {
        "format": TWIST_TRANSCRIPT_FORMAT,
        "original": host_hash(tw.original),
        "twisted": host_hash(tw.twisted),
        "cocycle": document_hash(cocycle_to_doc(tw.cocycle)),
        "report": axiom_report_to_doc(tw.transcript),
        "w": encode_array(tw.w.coeffs),
        "w_inv": encode_array(tw.w_inv.coeffs),
        "v": encode_array(tw.v.coeffs),
        "v_inv": encode_array(tw.v_inv.coeffs),
    }


def category_report_to_doc(report: AxiomReport, twisted: AxiomReport | None = None) -> dict:
    doc = {
        "format": CATEGORY_REPORT_FORMAT,
        "subject": report.subject,
        "tolerance": report.tolerance,
        "verdicts": [[name, float(r), bool(r <= report.tolerance)] for name, r in report.checks],
        "member": report.passed,
    }
    if twisted is not None:
        doc["twisted"] = category_report_to_doc(twisted)
        doc["twisted"].pop("format")
    return doc
