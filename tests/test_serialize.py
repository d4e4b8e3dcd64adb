import json

import numpy as np
import pytest

from hopftwist import catalog, regular_corep, twist_algebra
from hopftwist.errors import InputError
from hopftwist.report import (
    CheckRecord,
    VerificationReport,
    report_to_doc,
)
from hopftwist.serialize import (
    COREP_FORMAT,
    HOPF_FORMAT,
    algebra_from_doc,
    algebra_to_doc,
    canonical_dumps,
    cocycle_from_doc,
    cocycle_to_doc,
    corep_from_doc,
    corep_to_doc,
    decode_array,
    document_hash,
    encode_array,
    host_hash,
    morphism_from_doc,
    morphism_to_doc,
    parse_document,
    triple_from_doc,
    triple_to_doc,
    twist_transcript_to_doc,
)


def test_array_codec_roundtrips_bit_exact(rng):
    for shape in ((3,), (2, 4), (2, 3, 2)):
        arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        back = decode_array(encode_array(arr))
        assert back.shape == shape
        assert np.array_equal(back, arr)


def _encode_entrywise(arr):
    """encode_array's definition: one [re, im] pair per entry, one list per axis."""
    a = np.asarray(arr, dtype=np.complex128)
    if a.ndim == 0:
        z = complex(a)
        return [z.real, z.imag]
    return [_encode_entrywise(part) for part in a]


def test_encode_array_matches_the_entrywise_definition(rng):
    for shape in ((), (1,), (3,), (2, 4), (2, 3, 2), (0,), (2, 0, 3)):
        arr = np.asarray(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        arr[arr.real > 1.0] = complex(-0.0, 0.0)
        arr[arr.imag > 1.0] = complex(0.5, -0.0)
        for value in (arr, arr.real):
            got, want = encode_array(value), _encode_entrywise(value)
            # json text tells -0.0 from 0.0 and every float type apart
            assert json.dumps(got) == json.dumps(want)
    assert json.dumps(encode_array(-0.0)) == "[-0.0, 0.0]"


def test_array_codec_rejects_malformed_entries():
    with pytest.raises(InputError):
        decode_array([[1.0, 2.0, 3.0]])
    with pytest.raises(InputError):
        decode_array([[1.0, "x"]])
    with pytest.raises(InputError):
        decode_array([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])


def test_algebra_roundtrip_is_bit_exact():
    for name in ("c-s3", "g-d4"):
        host = catalog.algebra(name)
        doc = algebra_to_doc(host)
        assert doc["format"] == HOPF_FORMAT
        back = algebra_from_doc(doc)
        assert np.array_equal(back.mul, host.mul)
        assert np.array_equal(back.comul, host.comul)
        assert np.array_equal(back.unit, host.unit)
        assert np.array_equal(back.counit, host.counit)
        assert np.array_equal(back.antipode, host.antipode)
        assert np.array_equal(back.star, host.star)
        assert back.basis_labels == host.basis_labels
        assert host_hash(back) == host_hash(host)


def test_canonical_dumps_is_key_order_independent():
    a = canonical_dumps({"b": 1, "a": [1, 2]})
    b = canonical_dumps({"a": [1, 2], "b": 1})
    assert a == b
    assert "\n" not in a
    assert " " not in a
    assert document_hash({"b": 1, "a": [1, 2]}) == document_hash({"a": [1, 2], "b": 1})


def test_parse_document_validates_json_and_format():
    with pytest.raises(InputError):
        parse_document("{not json")
    with pytest.raises(InputError):
        parse_document(json.dumps([1, 2]))
    # the format itself is checked by the reader of each document kind
    with pytest.raises(InputError):
        algebra_from_doc(parse_document(json.dumps({"format": COREP_FORMAT})))
    doc = parse_document(json.dumps({"format": HOPF_FORMAT}))
    assert doc["format"] == HOPF_FORMAT


def test_cocycle_doc_checks_the_host_hash(ctx):
    sigma = catalog.cocycle("klein-bicharacter", ctx)
    doc = cocycle_to_doc(sigma)
    back = cocycle_from_doc(doc, sigma.host)
    assert np.array_equal(back.sigma, sigma.sigma)
    with pytest.raises(InputError):
        cocycle_from_doc(doc, catalog.algebra("c-s3"))


def test_corep_doc_checks_the_host_hash(ctx):
    host = catalog.algebra("c-z2z2")
    corep = regular_corep(host, ctx)
    doc = corep_to_doc(corep)
    assert doc["format"] == COREP_FORMAT
    back = corep_from_doc(doc, host)
    assert np.array_equal(back.u, corep.u)
    with pytest.raises(InputError):
        corep_from_doc(doc, catalog.algebra("g-z2z2"))


def test_morphism_doc_checks_both_host_hashes(ctx):
    mor = catalog.d4_klein_restriction(ctx)
    doc = morphism_to_doc(mor)
    back = morphism_from_doc(doc, mor.source, mor.target)
    assert np.array_equal(back.pi, mor.pi)
    with pytest.raises(InputError):
        morphism_from_doc(doc, mor.target, mor.target)
    with pytest.raises(InputError):
        morphism_from_doc(doc, mor.source, mor.source)


def test_triple_doc_roundtrips_with_and_without_volume(ctx):
    scene = catalog.triple_scene("z2z2-torus", ctx)
    st = scene["triple"]
    bare = triple_from_doc(triple_to_doc(st))
    assert bare[1] is None
    assert np.array_equal(bare[0].dirac, st.dirac)
    assert bare[0].labels == st.labels
    full_st, full_rv = triple_from_doc(triple_to_doc(st, scene["volume"]))
    assert full_rv is not None
    assert np.array_equal(full_rv.r, scene["volume"].r)
    assert len(full_st.generators) == len(st.generators)
    for a, b in zip(full_st.generators, st.generators):
        assert np.array_equal(a, b)


def test_twist_transcript_doc_carries_the_hashes(ctx):
    host = catalog.algebra("c-d4")
    tw = twist_algebra(host, catalog.cocycle("klein-induced", ctx), ctx)
    doc = twist_transcript_to_doc(tw)
    assert doc["original"] == host_hash(host)
    assert doc["twisted"] == host_hash(tw.twisted)
    assert doc["report"]["passed"] is True
    assert decode_array(doc["w"]).shape == (host.dim,)


def test_verification_report_doc_roundtrips_waived_records():
    records = [
        CheckRecord("01.alpha", "first claim", 1e-12, 1e-9, True),
        CheckRecord("02.beta", "second claim", 0.7, 0.5, False, waived=True, detail="known gap"),
    ]
    report = VerificationReport(suite="paper", records=records, wall_time=3.25)
    assert report.passed
    assert report.records[1].status() == "XFAIL"
    doc = report_to_doc(report)
    assert doc["checks"][1]["waived"]
    assert doc["checks"][1]["detail"] == "known gap"
    # the canonical bytes leave the wall time out
    later = VerificationReport(suite="paper", records=records, wall_time=99.0)
    assert canonical_dumps(doc) == canonical_dumps(report_to_doc(later))
