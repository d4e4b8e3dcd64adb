"""Canonical JSON documents for every object the library publishes.

Complex numbers are written as two-element [re, im] arrays and tensors as
nested row-major lists, so a serialize/parse cycle is bit-exact on the
numeric payload.  Documents carry a "format" tag; hosts are referenced by
the SHA-256 hash of their own canonical document.  Canonical text uses
sorted keys and compact separators, making equal payloads byte-equal.

A document holds its arrays as ndarrays until it is written.
canonical_chunks is the one way from a document to text: it writes a large
array a few slices of its leading axis at a time, straight from the array,
so neither hashing a host nor printing a document forms the n^3-entry
nested list of an n-dimensional host's product.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator

import numpy as np

from .cocycle import DualCocycle, QuotientMorphism
from .core import DEFAULT_CONTEXT, AxiomReport, FiniteHopfStarAlgebra, ScalarContext
from .corep import UnitaryCorep
from .deform import RTwistedVolume, SpectralTriple
from .errors import InputError, NonFiniteValue
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

# the entries one chunk of an array's text is made from, or one slice of
# its leading axis where that is more; json writes a smaller array whole
_CHUNK = 1 << 10


def _array_value(obj) -> list:
    if isinstance(obj, np.ndarray):
        return encode_array(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_JSON = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, default=_array_value
).encode


def encode_array(arr: Array) -> list:
    """Nested row-major lists with complex entries as [re, im]: the JSON
    value an array stands for in a document."""
    a = np.asarray(arr, dtype=np.complex128)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def decode_array(obj) -> Array:
    """An array payload: an ndarray, or nested [re, im] pairs as parsed from
    JSON.  Raises InputError on malformed or non-finite payloads."""
    if isinstance(obj, np.ndarray):
        arr = np.array(obj, dtype=np.complex128)
    else:
        try:
            pairs = np.asarray(obj)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"cannot decode array payload: {exc}") from None
        if pairs.dtype.kind not in "biuf":
            raise InputError("numeric payload must be nested [re, im] pairs")
        if pairs.size == 0:  # [] or [[], []]: the shape is all there is
            return np.zeros(pairs.shape, dtype=np.complex128)
        if pairs.ndim == 0 or pairs.shape[-1] != 2:
            raise InputError("numeric payload must be nested [re, im] pairs")
        arr = np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128)[..., 0]
    if not np.isfinite(arr).all():
        raise InputError("numeric payload contains NaN or infinite values")
    return arr


def _holds_large_array(obj) -> bool:
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return isinstance(obj, np.ndarray) and obj.size > _CHUNK
    return any(map(_holds_large_array, obj))


def canonical_chunks(obj) -> Iterator[str]:
    """The canonical text of a document, in chunks.

    Joined, they are json.dumps(obj, sort_keys=True, separators=(",", ":"),
    allow_nan=False) with each ndarray in obj replaced by encode_array of
    it.  Parts that hold no array of more than _CHUNK entries are dumped by
    json whole.  A larger array is written in runs of whole slices of its
    leading axis, each of about _CHUNK entries or one slice, so only one
    run's nested lists exist at a time.  A NaN or an infinity raises
    NonFiniteValue, which names where it is.
    """
    if not _holds_large_array(obj):
        try:
            text = _JSON(obj)
        except ValueError:  # a NaN or an infinity: the walk below finds it
            pass
        else:
            yield text
            return
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0 or obj.size == 0:
            runs = [obj]
        else:  # runs of whole leading slices, about _CHUNK entries each
            step = max(1, _CHUNK * len(obj) // obj.size)
            runs = [obj[i : i + step] for i in range(0, len(obj), step)]
        for i, run in enumerate(runs):
            try:
                text = _JSON(encode_array(run))
            except ValueError:
                at = np.argwhere(~np.isfinite(obj))[0]
                raise NonFiniteValue(complex(obj[tuple(at)]), [f"[{k}]" for k in at]) from None
            yield ("," if i else "[") + text[1:-1]
        yield "]"
    elif isinstance(obj, dict):
        yield "{"
        for i, (key, value) in enumerate(sorted(obj.items())):
            yield ("," if i else "") + _JSON(str(key)) + ":"
            try:
                yield from canonical_chunks(value)
            except NonFiniteValue as exc:
                exc.path.insert(0, f".{key}")
                raise
        yield "}"
    elif isinstance(obj, (list, tuple)):
        yield "["
        for i, item in enumerate(obj):
            if i:
                yield ","
            try:
                yield from canonical_chunks(item)
            except NonFiniteValue as exc:
                exc.path.insert(0, f"[{i}]")
                if exc.label is None and isinstance(obj[0], str):
                    exc.label = obj[0]
                raise
        yield "]"
    else:
        raise NonFiniteValue(obj, [])


def canonical_dumps(doc: dict) -> str:
    return "".join(canonical_chunks(doc))


def document_hash(doc: dict) -> str:
    return text_hash(canonical_chunks(doc))


def text_hash(chunks: Iterable[str]) -> str:
    """The SHA-256 hex digest of the UTF-8 text that chunks join to; of a
    document's canonical text, that is its hash."""
    # imported here: hashlib loads OpenSSL, which a process that never hashes
    # need not load
    import hashlib

    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode("utf-8"))
    return digest.hexdigest()


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
        "mul": algebra.mul,
        "comul": algebra.comul,
        "unit": algebra.unit,
        "counit": algebra.counit,
        "antipode": algebra.antipode,
        "antipode_inv": algebra.antipode_inv,
        "star": algebra.star,
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
    return _cocycle_doc(cocycle, host_hash(cocycle.host))


def _cocycle_doc(cocycle: DualCocycle, host: str) -> dict:
    return {"format": COCYCLE_FORMAT, "host": host, "sigma": cocycle.sigma}


def cocycle_from_doc(
    doc: dict, host: FiniteHopfStarAlgebra, ctx: ScalarContext = DEFAULT_CONTEXT
) -> DualCocycle:
    if doc.get("format") != COCYCLE_FORMAT:
        raise InputError(f"not a {COCYCLE_FORMAT} document")
    _check_host(doc, "host", host, "cocycle")
    return DualCocycle(host, decode_array(doc["sigma"]), ctx=ctx)


def corep_to_doc(corep: UnitaryCorep) -> dict:
    return {
        "format": COREP_FORMAT,
        "host": host_hash(corep.host),
        "hdim": corep.hdim,
        "u": corep.u,
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
        "pi": mor.pi,
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
        "dirac": st.dirac,
        "generators": list(st.generators),
    }
    if volume is not None:
        doc["r"] = volume.r
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
        "haar": pw.haar.coeffs,
        "blocks": [
            {
                "dimension": b.dimension,
                "m_value": float(b.m_value),
                "f_matrix": b.f_matrix,
                "q": b.q,
                "matrix_units": b.matrix_units,
                "central_idempotent": b.central_idempotent,
                "is_trivial": b.is_trivial,
            }
            for b in pw.blocks
        ],
    }


def twist_transcript_to_doc(tw: TwistResult, twisted_hash: str | None = None) -> dict:
    """Each distinct host is hashed once: twist_algebra twists the host its
    cocycle lives on, so the cocycle's document reuses the original's hash.
    A caller that has the twisted host's canonical text passes its hash."""
    original = host_hash(tw.original)
    return {
        "format": TWIST_TRANSCRIPT_FORMAT,
        "original": original,
        "twisted": twisted_hash or host_hash(tw.twisted),
        "cocycle": document_hash(_cocycle_doc(tw.cocycle, original)),
        "report": axiom_report_to_doc(tw.transcript),
        "w": tw.w.coeffs,
        "w_inv": tw.w_inv.coeffs,
        "v": tw.v.coeffs,
        "v_inv": tw.v_inv.coeffs,
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
