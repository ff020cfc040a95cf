import base64
import binascii
import copy
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ncpqec.documents import (
    SCHEMA_VERSION,
    analysis_document,
    channel_document,
    decode_matrix,
    decode_vector,
    encode_matrix,
    encode_vector,
    parse_analysis_document,
    parse_channel_document,
    parse_code_document,
)
from ncpqec import documents, qec
from ncpqec.pseudolinalg import _frozen
from ncpqec.qec import Recovery, analyze, repetition_bitflip, verify_recovery
from ncpqec.superop import AMatrix, BMatrix, SignedOperatorSum, a_from_operator_sum, b_from_operator_sum

from helpers import I2, X, bitflip_ops, list_channel_document, memory_owner, pair_lists, random_complex, repetition_code


def _roundtrip(doc):
    # documents must survive actual JSON text, not just dict handling
    return json.loads(json.dumps(doc))


def test_encode_matrix_pairs():
    m = np.array([[1 + 2j, 3], [0, -1j]])
    enc = encode_matrix(m)
    assert enc == [[[1.0, 2.0], [3.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]
    back = decode_matrix(enc)
    assert np.abs(back - m).max() == 0


def test_decode_matrix_rejects_garbage():
    with pytest.raises(ValueError):
        decode_matrix("nope")
    with pytest.raises(ValueError):
        decode_matrix([])
    with pytest.raises(ValueError):
        decode_matrix([[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]])  # ragged
    with pytest.raises(ValueError):
        decode_matrix([[[1.0, 0.0, 0.0]]])  # triple, not a pair
    with pytest.raises(ValueError):
        decode_matrix([[["1", "0"]]])
    with pytest.raises(ValueError):
        decode_matrix([[[True, False]]])
    for bad in (float("nan"), float("inf"), -float("inf"), 10**400):
        with pytest.raises(ValueError, match=r"m\[0\]\[1\]: .*finite"):
            decode_matrix(_roundtrip([[[1.0, 0.0], [0.0, bad]]]), "m")


CODEC = settings(max_examples=60, deadline=None, derandomize=True, database=None)
EDGES = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)
_reals = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))


def _encode_per_entry(a):
    """The per-entry encoder the whole-array codec must reproduce.

    The real parts alone when every imaginary part is ``+0.0``, else
    ``[re, im]`` pairs.
    """
    real = all(math.copysign(1.0, complex(z).imag) == 1.0 and complex(z).imag == 0.0 for z in a.flat)

    def rows(x):
        if x.ndim > 1:
            return [rows(row) for row in x]
        return [float(complex(z).real) if real else [float(complex(z).real), float(complex(z).imag)] for z in x]

    return rows(a)


@st.composite
def _complex_arrays(draw, rank):
    """A complex array whose imaginary parts are drawn, all ``+0.0``, or all ``+0.0`` but one ``-0.0``."""
    shape = tuple(draw(st.integers(1, 6)) for _ in range(rank))
    a = np.empty(shape, dtype=complex)
    a.real, a.imag = (draw(arrays(np.float64, shape, elements=_reals)) for _ in range(2))
    kind = draw(st.sampled_from(["drawn", "plus-zero", "one-minus-zero"]))
    if kind != "drawn":
        a.imag = 0.0
    if kind == "one-minus-zero":
        a.imag.flat[draw(st.integers(0, a.size - 1))] = -0.0
    return a


@CODEC
@given(_complex_arrays(2))
def test_matrix_codec_matches_per_entry_encoding(m):
    enc = encode_matrix(m)
    # JSON text tells -0.0 from 0.0, which list equality does not.
    assert json.dumps(enc) == json.dumps(_encode_per_entry(m))
    assert np.array_equal(decode_matrix(_roundtrip(enc)).view(np.int64), m.view(np.int64))


@CODEC
@given(_complex_arrays(1))
def test_vector_codec_matches_per_entry_encoding(v):
    enc = encode_vector(v)
    assert json.dumps(enc) == json.dumps(_encode_per_entry(v))
    assert np.array_equal(decode_vector(_roundtrip(enc)).view(np.int64), v.view(np.int64))


@pytest.mark.parametrize("x", [0, 2**53 + 1, 2**64 + 1, 10**300])
def test_decode_reads_ints_as_floats(x):
    want = np.array([complex(float(x), float(-x))])
    for got in (decode_matrix([[[x, -x]]])[0], decode_vector([[x, -x]])):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_decode_accepts_tuple_pairs():
    want = np.array([[1 + 2j, 3 - 0.5j]])
    assert np.array_equal(decode_matrix([[(1.0, 2.0), [3, -0.5]]]), want)
    assert np.array_equal(decode_vector([(1.0, 2.0), (3, -0.5)]), want[0])


@pytest.mark.parametrize(
    "bad",
    [[0.0, "1"], [0.0, True], [None, 0.0], [0.0, float("nan")], [float("inf"), 0.0], [0.0, 10**400], [0.0, 0.0, 0.0], 1.0],
    ids=["str", "bool", "none", "nan", "inf", "huge-int", "triple", "bare-number"],
)
def test_decode_names_a_bad_last_entry(bad):
    # The bad entry is the last of 256, so a check of the first row alone misses it.
    m = encode_matrix(np.full((16, 16), 1 + 1j))
    m[15][15] = bad
    message = f"complex entries must be [re, im] pairs of finite numbers, got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(f"m[15][15]: {message}")):
        decode_matrix(m, "m")
    with pytest.raises(ValueError, match=re.escape(f"v[15]: {message}")):
        decode_vector(m[15], "v")


def test_channel_document_roundtrip_all_representations():
    rng = np.random.default_rng(21)
    ops = bitflip_ops(-0.2)
    for channel in (ops, a_from_operator_sum(ops), b_from_operator_sum(ops)):
        doc = _roundtrip(channel_document(channel))
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["dim"] == 8
        parsed = parse_channel_document(doc)
        assert type(parsed) is type(channel)
        if isinstance(channel, SignedOperatorSum):
            assert parsed.signs == channel.signs
            for p, o in zip(parsed.operators, channel.operators):
                assert np.abs(p - o).max() < 1e-15
        else:
            assert np.abs(parsed.matrix - channel.matrix).max() < 1e-15


def test_channel_document_complex_entries():
    rng = np.random.default_rng(22)
    m = random_complex(rng, (4, 4))
    doc = _roundtrip(channel_document(AMatrix(2, m)))
    parsed = parse_channel_document(doc)
    assert np.abs(parsed.matrix - m).max() < 1e-15


def test_parse_channel_document_rejects_bad_input():
    # A version "1" document: its list payload takes the edits below.
    good = list_channel_document(SignedOperatorSum.from_terms([1], [I2]))

    with pytest.raises(ValueError):
        parse_channel_document([1, 2, 3])

    doc = copy.deepcopy(good)
    doc["schema_version"] = "999"
    with pytest.raises(ValueError, match="schema_version"):
        parse_channel_document(doc)

    doc = copy.deepcopy(good)
    del doc["payload"]
    with pytest.raises(ValueError, match="payload"):
        parse_channel_document(doc)

    doc = copy.deepcopy(good)
    doc["representation"] = "kraus"
    with pytest.raises(ValueError, match="representation"):
        parse_channel_document(doc)

    doc = copy.deepcopy(good)
    doc["dim"] = -1
    with pytest.raises(ValueError, match="dim"):
        parse_channel_document(doc)

    doc = copy.deepcopy(good)
    doc["payload"]["signs"] = [1, 1]
    with pytest.raises(ValueError, match="signs"):
        parse_channel_document(doc)

    # operator shape inconsistent with declared dim
    doc = copy.deepcopy(good)
    doc["dim"] = 3
    with pytest.raises(ValueError, match="shape"):
        parse_channel_document(doc)

    doc = copy.deepcopy(good)
    doc["payload"]["operators"][0][1][1] = [float("inf"), 0.0]
    with pytest.raises(ValueError, match=r"channel.payload.operators\[0\]\[1\]\[1\]"):
        parse_channel_document(_roundtrip(doc))

    # sign ordering enforcement propagates as ValueError
    doc = channel_document(SignedOperatorSum.from_terms([1, -1], [I2, 0.5 * X]))
    doc["payload"]["signs"] = [-1, 1]
    with pytest.raises(ValueError):
        parse_channel_document(doc)


def test_parse_channel_document_matrix_shape_check():
    doc = channel_document(BMatrix(2, np.eye(4, dtype=complex)))
    doc["dim"] = 3
    with pytest.raises(ValueError, match="shape"):
        parse_channel_document(doc)


def test_parse_code_document_bare_array():
    v0 = [[1.0, 0.0], [0.0, 0.0]]
    v1 = [[0.0, 0.0], [1.0, 0.0]]
    code = parse_code_document([v0, v1], tol=1e-9)
    assert code.dim == 2
    assert code.rank == 2
    assert np.abs(code.projector - np.eye(2)).max() < 1e-12


def test_parse_code_document_object_form():
    doc = {
        "dim": 2,
        "basis": [[[2.0, 0.0], [0.0, 0.0]]],  # unnormalized on purpose
    }
    code = parse_code_document(doc, tol=1e-9)
    assert code.rank == 1
    assert np.abs(code.projector - np.diag([1.0, 0.0])).max() < 1e-12


def test_parse_code_document_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_code_document([], tol=1e-9)
    with pytest.raises(ValueError):
        parse_code_document({"dim": 2}, tol=1e-9)
    with pytest.raises(ValueError, match="length"):
        parse_code_document({"dim": 3, "basis": [[[1.0, 0.0], [0.0, 0.0]]]}, tol=1e-9)
    with pytest.raises(ValueError, match=r"code.basis\[0\]\[0\]"):
        parse_code_document(_roundtrip([[[float("nan"), 0.0], [1.0, 0.0]]]), tol=1e-9)
    with pytest.raises(ValueError, match=r"code.basis\[1\]\[1\]"):
        parse_code_document({"dim": 2, "basis": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, float("-inf")]]]}, tol=1e-9)


def _report(c0):
    ops = bitflip_ops(c0)
    return analyze(ops, repetition_code()), ops.signature


def test_analysis_document_outside_domain_roundtrip():
    report, sig = _report(-0.2)
    doc = _roundtrip(analysis_document(report, sig))
    assert doc["schema_version"] == "4"
    assert doc["verdict"] == "code_outside_domain"
    assert doc["signature"] == {"p": 3, "q": 1}
    assert all(set(s) == {"isometry", "weight", "sign", "term_index"} for s in doc["syndromes"])
    assert set(doc["witness"]) == {"vector", "syndrome_index", "probability"}
    assert doc["recovery"] is None
    parsed = parse_analysis_document(doc)
    assert parsed["verdict"] == "code_outside_domain"
    assert parsed["witness"].probability == pytest.approx(-0.2, abs=1e-9)
    assert np.abs(parsed["witness"].vector - report.witness.vector).max() == 0
    assert np.abs(parsed["witness"].state - report.witness.state).max() == 0
    assert parsed["witness"].syndrome_index == report.witness.syndrome_index
    assert np.abs(parsed["condition_entries"] - report.condition.entries).max() < 1e-15
    assert sorted(parsed["diagonal"]) == pytest.approx(sorted(report.diagonal))
    assert len(parsed["syndromes"]) == 4
    for k, (got, s, written) in enumerate(zip(parsed["syndromes"], report.syndromes, doc["syndromes"])):
        assert np.abs(got["isometry"] - s.isometry).max() == 0
        assert (got["weight"], got["sign"], written["term_index"]) == (s.weight, s.sign, k)
    doc["schema_version"] = "1"
    with pytest.raises(ValueError, match="schema_version"):
        parse_analysis_document(doc)


def test_analysis_document_reversible_roundtrip():
    report, sig = _report(0.7)
    doc = _roundtrip(analysis_document(report, sig))
    assert doc["verdict"] == "reversible_positive"
    assert doc["witness"] is None
    assert set(doc["recovery"]) == {"code_isometry"}
    parsed = parse_analysis_document(doc)
    rec = parsed["recovery"]
    assert rec.n_terms == report.recovery.n_terms
    assert rec.signs == report.recovery.signs
    for a, b in zip(rec.operators, report.recovery.operators):
        assert np.abs(a - b).max() == 0


def test_parsed_recovery_is_factored():
    # The parser holds the stored B and the syndrome isometries, bit for
    # bit, and the record verifies like the report's own.
    ops, code = repetition_bitflip(5, 0.7)
    report = analyze(ops, code)
    rec = parse_analysis_document(_roundtrip(analysis_document(report, ops.signature)))["recovery"]
    assert type(rec) is Recovery
    assert np.array_equal(rec.code_isometry, report.recovery.code_isometry)
    assert np.array_equal(rec.isometries, report.recovery.isometries)
    assert verify_recovery(ops, rec, code) == verify_recovery(ops, report.recovery, code)


def test_parsed_recovery_copies_the_isometry_stack_once(monkeypatch):
    # The decoded isometries reach the Recovery as one list, which _frozen
    # stacks in its one copy: complex, read-only and over immutable bytes.
    ops, code = repetition_bitflip(4, 0.7)
    doc = _roundtrip(analysis_document(analyze(ops, code), ops.signature))
    frozen = []
    monkeypatch.setattr(qec, "_frozen", lambda a, *args: frozen.append(a) or _frozen(a, *args))
    w = parse_analysis_document(doc)["recovery"].isometries
    stacks = [a for a in frozen if np.ndim(a) == 3]
    assert len(stacks) == 1 and isinstance(stacks[0], list) and len(stacks[0]) == w.shape[0] == 5
    assert w.dtype == complex and isinstance(memory_owner(w), bytes)
    with pytest.raises(ValueError):
        w.setflags(write=True)


def _is_entry(z):
    """``z`` is an encoded entry: a real number, or an ``[re, im]`` pair."""
    return isinstance(z, (int, float)) or isinstance(z, list) and len(z) == 2 and all(isinstance(x, (int, float)) for x in z)


def _matrix_widths(node, path=""):
    """``(path, columns)`` of every encoded matrix or vector (one column) in a document."""
    if isinstance(node, dict):
        return [w for key, value in node.items() for w in _matrix_widths(value, f"{path}.{key}".lstrip("."))]
    if not isinstance(node, list) or not node:
        return []
    if all(_is_entry(z) for z in node):
        return [(path, 1)]
    if all(isinstance(row, list) and row and all(_is_entry(z) for z in row) for row in node):
        return [(path, len(node[0]))]
    return [w for k, item in enumerate(node) for w in _matrix_widths(item, f"{path}[{k}]")]


@pytest.mark.parametrize("c0", [-0.2, 0.7])
def test_analysis_document_is_code_sized(c0):
    ops, code = repetition_bitflip(6, c0)
    report = analyze(ops, code)
    doc = _roundtrip(analysis_document(report, ops.signature))
    widths = dict(_matrix_widths(doc))
    assert {"syndromes[0].isometry", "condition.entries", "diagonalizer"} <= set(widths)
    assert ("witness.vector" in widths) == (c0 < 0)
    assert ("recovery.code_isometry" in widths) == (c0 > 0)
    wide = {path for path, cols in widths.items() if cols > code.rank}
    assert wide <= {"condition.entries", "diagonalizer"}
    parsed = parse_analysis_document(doc)
    if report.recovery is None:
        assert "recovery" not in parsed
    else:
        assert parsed["recovery"].signs == report.recovery.signs
        assert all(np.array_equal(a, b) for a, b in zip(parsed["recovery"].operators, report.recovery.operators))


def test_analysis_document_conditions_violated_roundtrip():
    ops = SignedOperatorSum.from_terms(
        [1, 1], [np.sqrt(0.8) * I2, np.sqrt(0.2) * np.array([[1, 0], [0, -1]], dtype=complex)]
    )
    code = parse_code_document([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], tol=1e-9)
    report = analyze(ops, code)
    doc = _roundtrip(analysis_document(report, ops.signature))
    assert doc["verdict"] == "conditions_violated"
    assert doc["syndromes"] is None
    assert doc["recovery"] is None
    parsed = parse_analysis_document(doc)
    assert parsed["condition_residual"] > 0.1


def test_analysis_document_witness_verdict_consistency():
    report, sig = _report(-0.2)
    doc = analysis_document(report, sig)

    broken = copy.deepcopy(doc)
    broken["witness"] = None
    with pytest.raises(ValueError, match="witness"):
        parse_analysis_document(broken)

    report2, sig2 = _report(0.7)
    doc2 = analysis_document(report2, sig2)
    broken2 = copy.deepcopy(doc2)
    broken2["witness"] = doc["witness"]
    with pytest.raises(ValueError, match="witness"):
        parse_analysis_document(broken2)


def test_analysis_document_reversible_requires_recovery():
    report, sig = _report(0.7)
    doc = analysis_document(report, sig)
    doc["recovery"] = None
    with pytest.raises(ValueError, match="recovery"):
        parse_analysis_document(doc)


def test_analysis_document_rejects_positive_witness_probability():
    report, sig = _report(-0.2)
    doc = analysis_document(report, sig)
    doc["witness"]["probability"] = 0.3
    with pytest.raises(ValueError, match="probability"):
        parse_analysis_document(doc)


def test_analysis_document_rejects_unknown_verdict():
    report, sig = _report(0.7)
    doc = analysis_document(report, sig)
    doc["verdict"] = "maybe"
    with pytest.raises(ValueError, match="verdict"):
        parse_analysis_document(doc)


def test_documents_are_json_serializable():
    # all payload values must be plain JSON types, no numpy leakage
    report, sig = _report(-0.2)
    json.dumps(analysis_document(report, sig))
    json.dumps(channel_document(bitflip_ops(0.7)))
    json.dumps(channel_document(b_from_operator_sum(bitflip_ops(-0.2))))


@pytest.mark.parametrize("signs", [[1.5, -1.9], [True, "-1"], [1, -2]])
def test_parse_channel_document_rejects_inexact_signs(signs):
    doc = channel_document(SignedOperatorSum.from_terms([1, -1], [I2, 0.5 * X]))
    doc["payload"]["signs"] = signs
    with pytest.raises(ValueError, match="signs"):
        parse_channel_document(_roundtrip(doc))


def _break_syndromes(doc):
    doc["syndromes"] = 5


def _break_weight(doc):
    doc["syndromes"][0]["weight"] = [1]


def _break_sign(doc):
    doc["syndromes"][0]["sign"] = "-1"


def _break_sign_value(doc):
    doc["syndromes"][0]["sign"] = 2


def _break_isometry(doc):
    doc["syndromes"][0]["isometry"] = 7


def _break_isometry_nan(doc):
    doc["syndromes"][0]["isometry"][3][1] = [0.0, float("nan")]


def _break_weight_inf(doc):
    doc["syndromes"][0]["weight"] = float("inf")


def _break_weight_negative(doc):
    doc["syndromes"][0]["weight"] = -3  # analyze keeps only positive weights


def _break_term_index(doc):
    doc["syndromes"][0]["term_index"] = -1


def _break_diagonal_nan(doc):
    doc["diagonal"][1] = float("nan")


def _break_witness_vector_inf(doc):
    doc["witness"]["vector"][0] = [float("-inf"), 0.0]


def _break_version(doc):
    doc["schema_version"] = "2"


def _break_signature(doc):
    doc["signature"]["q"] = True


def _break_index(doc):
    doc["witness"]["syndrome_index"] = "0"


def _break_negative_index(doc):
    doc["witness"]["syndrome_index"] = -1


def _break_index_range(doc):
    doc["witness"]["syndrome_index"] = len(doc["syndromes"])


def _break_index_sign(doc):
    doc["witness"]["syndrome_index"] = 0  # a +1 syndrome; the witness names the first -1 one, index 3


def _break_witness_vector_length(doc):
    doc["witness"]["vector"] = doc["witness"]["vector"][:3]


def _break_term_index_duplicate(doc):
    doc["syndromes"][2]["term_index"] = doc["syndromes"][0]["term_index"]


@pytest.mark.parametrize(
    "breaker, hint",
    [
        (_break_syndromes, "analysis.syndromes"),
        (_break_weight, r"analysis.syndromes\[0\].weight"),
        (_break_sign, r"analysis.syndromes\[0\].sign"),
        (_break_sign_value, r"analysis.syndromes\[0\].sign"),
        (_break_isometry, r"analysis.syndromes\[0\].isometry"),
        (_break_isometry_nan, r"analysis.syndromes\[0\].isometry\[3\]\[1\]"),
        (_break_weight_inf, r"analysis.syndromes\[0\].weight"),
        (_break_weight_negative, r"analysis.syndromes\[0\].weight must be a positive finite number, got -3"),
        (_break_term_index, r"analysis.syndromes\[0\].term_index"),
        (_break_diagonal_nan, "analysis.diagonal"),
        (_break_witness_vector_inf, r"analysis.witness.vector\[0\]"),
        (_break_version, "analysis: unsupported schema_version '2'"),
        (_break_signature, "analysis.signature.q"),
        (_break_index, "analysis.witness.syndrome_index"),
        (_break_negative_index, "analysis.witness.syndrome_index"),
        (_break_index_range, "analysis.witness.syndrome_index must be an index below the syndrome count 4"),
        (_break_index_sign, "analysis.witness.syndrome_index must be .*: that of the first syndrome of sign -1, got 0"),
        (_break_witness_vector_length, "analysis.witness.vector: length 3 does not match the 8 rows"),
        (_break_term_index_duplicate, r"analysis.syndromes\[2\].term_index must be a non-negative integer not used before"),
    ],
)
def test_parse_analysis_document_malformed_outside_domain(breaker, hint):
    report, sig = _report(-0.2)
    doc = _roundtrip(analysis_document(report, sig))
    breaker(doc)
    with pytest.raises(ValueError, match=hint):
        parse_analysis_document(doc)


@pytest.mark.parametrize(
    "field, value, hint",
    [
        ("code_isometry", 5, "analysis.recovery.code_isometry"),
        ("code_isometry", [[[1.0, 0.0]] * 3] * 8, r"analysis.recovery.code_isometry: shape \(8, 3\)"),
        ("code_isometry", [[[float("nan"), 0.0]] * 2] * 8, r"analysis.recovery.code_isometry\[0\]\[0\]"),
    ],
)
def test_parse_analysis_document_malformed_recovery(field, value, hint):
    report, sig = _report(0.7)
    doc = _roundtrip(analysis_document(report, sig))
    doc["recovery"][field] = value
    with pytest.raises(ValueError, match=hint):
        parse_analysis_document(doc)


def _channel_doc(c0=-0.2):
    return _roundtrip(channel_document(bitflip_ops(c0)))


def _analysis_doc(c0):
    return _roundtrip(analysis_document(*_report(c0)))


def _set(doc, path, value):
    """``doc`` with the field at ``path`` (keys and list indices) set to ``value``."""
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


# One malformed value per object, list or enumerated field of the two parsers.
@pytest.mark.parametrize(
    "make, path, value, hint",
    [
        (_channel_doc, ("payload",), 5, r"channel\.payload"),
        (_channel_doc, ("payload",), [], r"channel\.payload"),
        (_channel_doc, ("payload", "signs"), 1, r"channel\.payload.*signs"),
        (_channel_doc, ("payload", "operators"), {}, r"channel\.payload.*operators"),
        (lambda: _analysis_doc(-0.2), ("verdict",), "maybe", r"analysis.*verdict"),
        (lambda: _analysis_doc(-0.2), ("verdict",), ["code_outside_domain"], r"analysis.*verdict"),
        (lambda: _analysis_doc(-0.2), ("signature",), [3, 1], r"analysis\.signature"),
        (lambda: _analysis_doc(-0.2), ("condition",), "hermitian", r"analysis\.condition"),
        (lambda: _analysis_doc(-0.2), ("condition", "form"), "unitary", r"analysis\.condition\.form"),
        (lambda: _analysis_doc(-0.2), ("condition", "form"), None, r"analysis\.condition\.form"),
        (lambda: _analysis_doc(-0.2), ("syndromes", 0), [], r"analysis\.syndromes\[0\]"),
        (lambda: _analysis_doc(0.7), ("recovery",), [1], r"analysis\.recovery"),
        (lambda: _analysis_doc(-0.2), ("witness",), 0.5, r"analysis\.witness"),
        (lambda: _analysis_doc(0.7), ("syndromes", 1, "sign"), -1, r"syndromes\[1\]\.sign must be \+1 under a"),
        (lambda: _analysis_doc(-0.2), ("syndromes", 0, "term_index"), 99, r"term_index must .* length 4, got 99"),
        (lambda: _analysis_doc(-0.2), ("diagonal",), [0.4], r"analysis\.diagonal must be a list of 4 finite numbers"),
        (lambda: _analysis_doc(-0.2), ("syndromes", 0, "weight"), 5.0, r"\[0\]\.weight must be diagonal\[0\], got 5"),
        (lambda: _analysis_doc(-0.2), ("witness", "vector"), [], r"vector: expected a non-empty list of numbers or \["),
        (
            lambda: _analysis_doc(-0.2),
            ("syndromes", 1, "isometry"),
            [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
            r"syndromes\[1\]\.isometry: shape \(4, 2\) must be that of syndrome 0, \(8, 2\)",
        ),
        *(
            (lambda: _analysis_doc(0.7), (field,), None, "diagonalizer, diagonal and syndromes must be present together")
            for field in ("diagonalizer", "diagonal", "syndromes")
        ),
        (lambda: _analysis_doc(0.7), ("syndromes",), [], r"syndromes must be a list of 4 syndromes, one per diagonal"),
    ],
)
def test_parsers_name_a_malformed_field(make, path, value, hint):
    doc = _set(make(), path, value)
    parse = parse_channel_document if "payload" in doc else parse_analysis_document
    with pytest.raises(ValueError, match=hint):
        parse(doc)


def test_parser_keeps_a_negative_syndrome_to_the_outside_domain_verdict():
    # analyze gives code_outside_domain, with a witness, whenever a syndrome
    # is negative; the inverted document's syndrome 3 is.
    doc = _set(_set(_analysis_doc(-0.2), ("verdict",), "conditions_violated"), ("witness",), None)
    hint = r"analysis\.syndromes\[3\]\.sign must be \+1 under a conditions_violated verdict, got -1"
    with pytest.raises(ValueError, match=hint):
        parse_analysis_document(doc)


@pytest.mark.parametrize("obj", [[1, 2], "analysis", None])
def test_parse_analysis_document_rejects_a_non_object(obj):
    with pytest.raises(ValueError, match="analysis document must be a JSON object"):
        parse_analysis_document(obj)


def test_channel_document_rejects_another_type():
    with pytest.raises(TypeError, match="got object"):
        channel_document(object())


@pytest.mark.parametrize(
    "form, path, value, hint",
    [
        (None, ("dim",), 3, r"operator 0 has shape \(8, 8\), expected \(3, 3\)"),
        (None, ("payload", "signs"), [1, 1], "2 signs but 4 operators"),
        (None, ("payload", "signs"), [1, 1, -1, 1], "positive-sign terms must precede"),
        (None, ("payload", "signs"), [1, 1, 1, 2], "signs must be"),
        (b_from_operator_sum, ("payload", "matrix"), [[[1.0, 0.0]]], r"B-matrix for dim 8 must have shape \(64, 64\)"),
        (a_from_operator_sum, ("dim",), 4, r"A-matrix for dim 4 must have shape \(16, 16\), got \(64, 64\)"),
    ],
)
def test_channel_record_errors_name_the_payload(form, path, value, hint):
    # Shapes and signs are checked once, by the record the parser builds,
    # and its message is prefixed with the payload's path.  A version "1"
    # document, so an edited size reaches the record: a packed payload of
    # the wrong size is refused by its decoder (tests below).
    channel = bitflip_ops(-0.2) if form is None else form(bitflip_ops(-0.2))
    with pytest.raises(ValueError, match=f"^channel\\.payload: {hint}"):
        parse_channel_document(_set(_roundtrip(list_channel_document(channel)), path, value))


# Packed channel payloads: version "2" documents hold the matrix or the
# operator stack as base64 text of their little-endian complex128 bytes.


def _packed(raw):
    """Base64 text of ``raw``, written without the library's encoder."""
    return base64.b64encode(raw).decode("ascii")


def _edge_matrix(rng, n):
    m = random_complex(rng, (n, n))
    m.flat[:4] = [-0.0, 5e-324, -1.7976931348623157e308, complex(-0.0, -5e-324)]
    return m


def _packed_channels():
    rng = np.random.default_rng(27)
    ops = SignedOperatorSum.from_terms([1, 1, -1], [_edge_matrix(rng, 4) for _ in range(3)])
    return {
        "a_matrix": AMatrix(4, _edge_matrix(rng, 16)),
        "b_matrix": BMatrix(4, _edge_matrix(rng, 16)),
        "operator_sum": ops,
        "empty_sum": SignedOperatorSum(2, (), ()),
        "bitflip_b": b_from_operator_sum(bitflip_ops(-0.2)),
    }


def _same_record(got, want):
    assert type(got) is type(want) and got.dim == want.dim
    key = "operators" if isinstance(want, SignedOperatorSum) else "matrix"
    if key == "operators":
        assert got.signs == want.signs
    a, b = getattr(got, key), getattr(want, key)
    assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("name", sorted(_packed_channels()))
def test_packed_channel_document_roundtrips_bit_for_bit(name):
    channel = _packed_channels()[name]
    doc = _roundtrip(channel_document(channel))
    assert doc["schema_version"] == SCHEMA_VERSION == "2"
    assert all(isinstance(v, str) for k, v in doc["payload"].items() if k != "signs")
    _same_record(parse_channel_document(doc), channel)


@pytest.mark.parametrize("name", sorted(_packed_channels()))
def test_list_channel_document_still_parses_to_the_same_record(name):
    channel = _packed_channels()[name]
    doc = _roundtrip(list_channel_document(channel))
    assert doc["schema_version"] == "1"
    _same_record(parse_channel_document(doc), channel)
    _same_record(parse_channel_document(doc), parse_channel_document(_roundtrip(channel_document(channel))))


_B = np.arange(16).reshape(4, 4) * (1 + 0.5j)  # a dim-2 matrix payload: 256 bytes
_RAW = _B.astype("<c16").tobytes()
_NAN = _B.copy()
_NAN[1, 2] = complex(0.0, float("nan"))
_OPS = np.array([I2, 0.5 * X, 0.5 * X, 0.5 * I2])  # four dim-2 operators: 256 bytes
_INF = _OPS.copy()
_INF[1, 0, 1] = float("inf")


def _packed_b_doc():
    return _roundtrip(channel_document(BMatrix(2, _B)))


def _packed_ops_doc():
    return _roundtrip(channel_document(SignedOperatorSum.from_terms([1, 1, -1, -1], list(_OPS))))


_MATRIX, _TEXT = ("payload", "matrix"), _packed(_RAW)


@pytest.mark.parametrize(
    "make, path, value, hint",
    [
        (_packed_b_doc, _MATRIX, encode_matrix(_B), r"matrix must be a string of packed complex128 bytes, got list$"),
        (_packed_b_doc, _MATRIX, "not base64!", r"matrix: not base64 text"),
        (_packed_b_doc, _MATRIX, _packed(_RAW[:-16]), r"matrix: holds 240 bytes, but shape \(4, 4\) needs 256$"),
        (_packed_b_doc, _MATRIX, _packed(_RAW + b"\0"), r"matrix: holds 257 bytes, but shape \(4, 4\) needs 256$"),
        (_packed_b_doc, ("dim",), 3, r"matrix: holds 256 bytes, but shape \(9, 9\) needs 1296$"),
        (_packed_b_doc, ("dim",), 10**5, r"matrix: holds 256 bytes, but shape \(10000000000, 10000000000\) needs"),
        (_packed_ops_doc, ("payload", "signs"), [1, 1, -1], r"operators: holds 256 bytes, but shape \(3, 2, 2\)"),
        (_packed_ops_doc, ("payload", "signs"), [1] * 5, r"operators: holds 256 bytes, but shape \(5, 2, 2\)"),
        (_packed_b_doc, _MATRIX, _packed(_NAN.tobytes()), r"matrix\[1\]\[2\]: complex entries must be finite, got nanj"),
        (_packed_ops_doc, ("payload", "operators"), _packed(_INF.tobytes()), r"operators\[1\]\[0\]\[1\]: complex entries"),
        (_packed_b_doc, _MATRIX, _TEXT[:100] + "\n" + _TEXT[100:], r"matrix: not canonical base64 text$"),
        (_packed_b_doc, _MATRIX, _TEXT[:100] + "!" + _TEXT[100:], r"matrix: not canonical base64 text$"),
        (_packed_b_doc, _MATRIX, _TEXT[:100] + "\u00e9" + _TEXT[100:], r"matrix: not base64 text"),
    ],
    ids=[
        "not-a-string",
        "bad-base64",
        "truncated",
        "extra-bytes",
        "wrong-dim",
        "huge-dim",
        "fewer-signs",
        "more-signs",
        "nan",
        "inf-operator",
        "line-break",
        "stray-character",
        "non-ascii",
    ],
)
def test_packed_payload_refusals_name_the_field(make, path, value, hint):
    doc = make()
    assert doc["schema_version"] == "2"
    with pytest.raises(ValueError, match=r"^channel\.payload\." + hint):
        parse_channel_document(_set(doc, path, value))


def test_packed_decoder_runs_on_the_python_3_10_binascii(monkeypatch):
    # The project supports Python 3.10, whose a2b_base64 takes no strict_mode.
    lenient = binascii.a2b_base64
    monkeypatch.setattr(binascii, "a2b_base64", lambda data: lenient(data))
    _same_record(parse_channel_document(_packed_b_doc()), BMatrix(2, _B))
    with pytest.raises(ValueError, match=r"^channel\.payload\.matrix: not canonical base64 text$"):
        parse_channel_document(_set(_packed_b_doc(), _MATRIX, _TEXT[:100] + "\n" + _TEXT[100:]))


@pytest.mark.parametrize(
    "signs, hint",
    [([1, 1, -1, 1], "positive-sign terms must precede"), ([1, 1, 1, 2], "signs must be")],
)
def test_packed_channel_record_errors_name_the_payload(signs, hint):
    # The packed operators decode to the sign count, and the record checks the signs.
    doc = _set(_roundtrip(channel_document(bitflip_ops(-0.2))), ("payload", "signs"), signs)
    with pytest.raises(ValueError, match=f"^channel\\.payload: {hint}"):
        parse_channel_document(doc)


# Real arrays: an array whose imaginary parts are all +0.0 is written as
# its real parts, and read back to the same bits.


def test_encoder_writes_plus_zero_imaginary_parts_as_real_numbers():
    assert encode_matrix(np.array([[1.0, -0.0], [5e-324, 2.0]])) == [[1.0, -0.0], [5e-324, 2.0]]
    assert encode_vector(np.array([1.0, complex(2.0, -0.0)])) == [[1.0, 0.0], [2.0, -0.0]]
    assert json.dumps(encode_vector(np.array([1.0, complex(2.0, -0.0)]))) == "[[1.0, 0.0], [2.0, -0.0]]"


@pytest.mark.parametrize(
    "bad",
    ["1", True, None, float("nan"), float("inf"), 10**400, [1.0, 0.0]],
    ids=["str", "bool", "none", "nan", "inf", "huge-int", "pair"],
)
def test_decode_names_a_bad_last_entry_of_a_real_array(bad):
    # The first entry is a number, so every entry must be one; the bad
    # entry is the last of 256.
    m = encode_matrix(np.ones((16, 16)))
    m[15][15] = bad
    message = f"real entries must be finite numbers, got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(f"m[15][15]: {message}")):
        decode_matrix(m, "m")
    with pytest.raises(ValueError, match=re.escape(f"v[15]: {message}")):
        decode_vector(m[15], "v")


def _conditions_violated():
    ops = SignedOperatorSum.from_terms(
        [1, 1], [np.sqrt(0.8) * I2, np.sqrt(0.2) * np.array([[1, 0], [0, -1]], dtype=complex)]
    )
    return analyze(ops, parse_code_document([[1.0, 0.0], [0.0, 1.0]], tol=1e-9)), ops.signature


def _bits(a):
    return a.dtype.str, a.shape, a.tobytes()


def _parsed_bits(parsed):
    """A parsed analysis document with each array as its dtype, shape and bytes, for exact comparison."""
    out = {key: _bits(value) if isinstance(value, np.ndarray) else value for key, value in parsed.items()}
    if "syndromes" in parsed:
        out["syndromes"] = [{k: _bits(v) if k == "isometry" else v for k, v in s.items()} for s in parsed["syndromes"]]
    if "recovery" in parsed:
        out["recovery"] = _bits(parsed["recovery"].code_isometry), _bits(parsed["recovery"].isometries)
    if "witness" in parsed:
        w = parsed["witness"]
        out["witness"] = _bits(w.vector), w.syndrome_index, w.probability
    return out


@pytest.mark.parametrize(
    "make",
    [lambda: _report(0.7), lambda: _report(-0.2), _conditions_violated],
    ids=["reversible_positive", "code_outside_domain", "conditions_violated"],
)
def test_pair_form_version_3_document_parses_as_its_version_4_form(monkeypatch, make):
    # A version "3" document wrote every array as [re, im] pairs, as the
    # encoder did before the real form; it reads to the same bits.
    report, sig = make()
    new = _roundtrip(analysis_document(report, sig))
    monkeypatch.setattr(documents, "encode_matrix", pair_lists)
    old = _set(_roundtrip(analysis_document(report, sig)), ("schema_version",), "3")
    assert (old["schema_version"], new["schema_version"], old["verdict"]) == ("3", "4", report.verdict.value)
    assert np.shape(old["condition"]["entries"]) == report.condition.entries.shape + (2,)
    assert np.shape(new["condition"]["entries"]) == report.condition.entries.shape
    assert _parsed_bits(parse_analysis_document(old)) == _parsed_bits(parse_analysis_document(new))


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-12, 1e150])
@pytest.mark.parametrize("c0", [-0.2, 0.7])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_real_analysis_documents_decode_to_the_reports_arrays(n, c0, scale):
    # The bit-flip mixtures are real: every array takes the real form (the
    # shape of its lists is its own) and decodes to the report's bits.
    ops, code = repetition_bitflip(n, c0)
    ops = SignedOperatorSum(ops.dim, ops.signs, np.sqrt(scale) * ops.operators)
    report = analyze(ops, code)
    doc = _roundtrip(analysis_document(report, ops.signature))
    parsed = parse_analysis_document(doc)
    arrays = [
        (doc["condition"]["entries"], report.condition.entries, parsed["condition_entries"]),
        (doc["diagonalizer"], report.diagonalizer, parsed["diagonalizer"]),
        ([s["isometry"] for s in doc["syndromes"]], report.syndromes.isometries, [s["isometry"] for s in parsed["syndromes"]]),
    ]
    if report.recovery is not None:
        arrays.append((doc["recovery"]["code_isometry"], report.recovery.code_isometry, parsed["recovery"].code_isometry))
    if report.witness is not None:
        arrays.append((doc["witness"]["vector"], report.witness.vector, parsed["witness"].vector))
    for encoded, want, got in arrays:
        assert np.shape(encoded) == want.shape
        assert _bits(np.asarray(got)) == _bits(want)
    assert _bits(parsed["diagonal"]) == _bits(report.diagonal)


def test_packed_matrix_record_holds_the_decoded_bytes():
    # The record keeps the read-only array over the decoded bytes: no copy.
    b = parse_channel_document(_packed_b_doc()).matrix
    base = b.base
    while isinstance(base, np.ndarray):
        base = base.base
    assert isinstance(base, bytes) and not b.flags.writeable


def test_packed_operator_sum_record_holds_the_decoded_bytes():
    # The packed operators reach the record as the read-only array over the
    # decoded bytes: no copy.
    ops = parse_channel_document(channel_document(bitflip_ops(-0.2))).operators
    base = ops.base
    while isinstance(base, np.ndarray):
        base = base.base
    assert isinstance(base, bytes) and not ops.flags.writeable


@pytest.mark.parametrize("as_list", [False, True])
def test_operator_sum_copies_a_writeable_or_list_input(as_list):
    source = np.array(bitflip_ops(-0.2).operators)  # writeable
    ops = SignedOperatorSum(8, bitflip_ops(-0.2).signs, list(source) if as_list else source)
    before = ops.operators.copy()
    source[:] = 7.0
    assert np.array_equal(ops.operators, before) and not ops.operators.flags.writeable


@pytest.mark.parametrize("c0", [-0.2, 0.7])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_bitflip_documents_are_the_eigen_routes(n, c0):
    # The bit-flip maps take the direct route, whose T here is the exact
    # selection matrix.  Their documents are the eigen route's byte for
    # byte, the benchmark's n = 4 and n = 6 ones among them, except at
    # n = 5 and 7 with c0 = 0.7: there the eigen route's Gram-Schmidt of the
    # degenerate X cluster leaves T's ones a few ulps low, so T and the
    # arrays formed from it differ in their last digits.
    ops, code = repetition_bitflip(n, c0)
    direct = analyze(ops, code)
    with mock.patch.object(qec, "_direct_terms", qec._eigen_terms):
        eigen = analyze(ops, code)
    assert {*direct.diagonalizer.ravel().tolist()} == {0, 1}
    texts = [json.dumps(analysis_document(report, ops.signature)) for report in (direct, eigen)]
    if texts[0] != texts[1]:
        assert (n, c0) in ((5, 0.7), (7, 0.7))
        assert np.abs(direct.diagonalizer - eigen.diagonalizer).max() <= 4 * np.spacing(1.0)
        assert np.abs(direct.syndromes.isometries - eigen.syndromes.isometries).max() <= 4 * np.spacing(1.0)


def test_parsed_records_refuse_writes():
    witness = parse_analysis_document(_analysis_doc(-0.2))["witness"]
    recovery = parse_analysis_document(_analysis_doc(0.7))["recovery"]
    for a in (witness.vector, recovery.code_isometry, recovery.isometries):
        with pytest.raises(ValueError):
            a.setflags(write=True)


def test_parser_ties_each_syndrome_to_the_term_at_its_position():
    # Syndrome k is canonical term k. Syndromes 0 and 1 of the inverted map
    # share the weight 0.4, so swapping their term indices keeps every
    # weight equal to its diagonal entry, and only the position rule refuses it.
    doc = _analysis_doc(-0.2)
    assert [s["term_index"] for s in doc["syndromes"]] == [0, 1, 2, 3]
    assert doc["diagonal"][0] == doc["diagonal"][1]
    doc["syndromes"][0]["term_index"], doc["syndromes"][1]["term_index"] = 1, 0
    with pytest.raises(ValueError, match=r"syndromes\[0\]\.term_index must be .* the least such \(0\).*, got 1"):
        parse_analysis_document(doc)

