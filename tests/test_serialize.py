import hashlib
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hopftwist import catalog, regular_corep, serialize, twist_algebra
from hopftwist.core import dual
from hopftwist.errors import InputError, NonFiniteValue
from hopftwist.groups import dihedral_group, function_algebra
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
    canonical_chunks,
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
    with pytest.raises(InputError):
        decode_array([[1.0, float("nan")]])
    with pytest.raises(InputError):
        decode_array([[float("inf"), 0.0]])
    assert decode_array([]).shape == (0,)
    assert decode_array(encode_array(np.zeros((2, 0, 3)))).shape == (2, 0)


def _old_canonical(doc) -> str:
    """The canonical text as it was made before documents held arrays: every
    array turned into nested lists first."""

    def lists(node):
        if isinstance(node, np.ndarray):
            return encode_array(node)
        if isinstance(node, dict):
            return {key: lists(value) for key, value in node.items()}
        if isinstance(node, (list, tuple)):
            return [lists(item) for item in node]
        return node

    return json.dumps(lists(doc), sort_keys=True, separators=(",", ":"), allow_nan=False)


# signed zeros, subnormals, the largest finite doubles, and ordinary values
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 1e308, 1.0, -1.0, 0.5, 1 / 3)
_FLOATS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _payload_arrays(draw):
    dtype = draw(st.sampled_from((np.float64, np.complex128)))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))
    if dtype is np.float64:
        arr = draw(hnp.arrays(np.float64, shape, elements=_FLOATS))
    else:
        re, im = (draw(hnp.arrays(np.float64, shape, elements=_FLOATS)) for _ in range(2))
        arr = np.empty(shape, dtype=np.complex128)
        arr.real, arr.imag = re, im
    if draw(st.booleans()):
        arr = arr.T  # a non-contiguous view, like the tensors dual(H) holds
    return arr


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_payload_arrays())
def test_canonical_chunks_write_an_array_as_json_writes_its_nested_lists(arr):
    want = json.dumps(encode_array(arr), sort_keys=True, separators=(",", ":"), allow_nan=False)
    doc = {"b": [arr, 1.5], "a": arr}
    # whole, and in runs of leading slices
    for chunk in (serialize._CHUNK, 3):
        with mock.patch.object(serialize, "_CHUNK", chunk):
            assert "".join(canonical_chunks(arr)) == want
            assert canonical_dumps(doc) == _old_canonical(doc)


def test_canonical_chunks_name_a_non_finite_value():
    with pytest.raises(NonFiniteValue, match=r"non-finite nan at checks\[1\]\[1\] \(counit-law\)"):
        canonical_dumps({"checks": [["unit-law", 0.0], ["counit-law", float("nan")]]})
    arr = np.zeros((2, 3, 2), dtype=np.complex128)
    arr[1, 2, 0] = complex(0.0, np.inf)
    for chunk in (serialize._CHUNK, 3):
        with mock.patch.object(serialize, "_CHUNK", chunk):
            with pytest.raises(NonFiniteValue, match=r"at mul\[1\]\[2\]\[0\]$"):
                canonical_dumps({"mul": arr})


def _hosts_and_duals():
    hosts = [catalog.algebra(name) for name in catalog.host_names()]
    hosts += [function_algebra(dihedral_group(m)) for m in (4, 8, 16, 32)]
    return [h for host in hosts for h in (host, dual(host))]


def test_host_hash_is_the_hash_of_the_nested_list_text():
    for host in _hosts_and_duals():
        old = hashlib.sha256(_old_canonical(algebra_to_doc(host)).encode("utf-8")).hexdigest()
        assert host_hash(host) == old


def test_host_hash_forms_no_nested_list_of_the_product():
    host = function_algebra(dihedral_group(16))
    tracemalloc.start()
    try:
        document_hash(algebra_to_doc(host))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the nested lists of its 32^3-entry product alone took 11.5 MiB
    assert peak <= 1 << 20


def _decode_recursive(obj):
    """decode_array as it was: one [re, im] pair at a time in Python."""

    def build(node):
        if isinstance(node, list) and len(node) == 2 and all(isinstance(x, (int, float)) for x in node):
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


def test_decode_array_agrees_with_the_recursive_decoder(rng):
    z = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
    payloads = [
        json.loads(json.dumps(encode_array(a)))
        for a in (z, z[0], z[0, 0], z[0, 0, 0], np.zeros((0,)), np.zeros((2, 0, 3)), -0.0)
    ]
    payloads += [
        [1, 2], [True, 0], [[1, 2.5], [-0.0, 5e-324]], [[], []], [[[]]],  # valid
        [1.0], [1.0, 2.0, 3.0], [[1.0, 2.0, 3.0]], [[1.0, "x"]], ["1.0", "2.0"],  # malformed
        [[1.0, None]], [None, None], [[1.0, 2.0], 3.0], [1.0, [2.0, 3.0]], [[1.0, 2.0], []],
        [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], [{}, {}], 1.0, "x", None, {"re": 1.0},
        [[1.0, float("nan")]], [[float("-inf"), 0.0]], [[1.0, 1e400]],
    ]
    for payload in payloads:
        try:
            want = _decode_recursive(payload)
        except InputError:
            with pytest.raises(InputError):
                decode_array(payload)
            continue
        got = decode_array(payload)
        assert got.dtype == np.complex128 and got.shape == want.shape
        # bit for bit, so -0.0 stays apart from 0.0
        assert got.tobytes() == want.tobytes(), payload


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


def test_twist_transcript_doc_carries_the_hashes(ctx, monkeypatch):
    host = catalog.algebra("c-d4")
    tw = twist_algebra(host, catalog.cocycle("klein-induced", ctx), ctx)
    hashed = []
    monkeypatch.setattr(serialize, "host_hash", lambda h: hashed.append(h) or host_hash(h))
    doc = twist_transcript_to_doc(tw)
    # each of the two hosts once, the cocycle's host being the original
    assert [id(h) for h in hashed] == [id(host), id(tw.twisted)]
    assert doc["original"] == host_hash(host)
    assert doc["twisted"] == host_hash(tw.twisted)
    assert doc["cocycle"] == document_hash(cocycle_to_doc(tw.cocycle))
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
