import base64
import binascii
import copy
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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
    assert doc["schema_version"] == "7"
    fields = {"schema_version", "verdict", "signature", "condition", "diagonalizer", "syndromes", "code_isometry", "witness"}
    assert set(doc) == fields  # no diagonal, which restates the weights
    assert doc["verdict"] == "code_outside_domain"
    assert doc["signature"] == {"p": 3, "q": 1}
    # The signed canonical values, once: the conditions and each syndrome's weight and sign.
    assert set(doc["condition"]) == {"values", "residual"}
    assert doc["condition"]["values"] == report.values.tolist() == pytest.approx([0.4, 0.4, 0.4, -0.2])
    assert all(np.shape(w) == (8, 2) for w in doc["syndromes"])  # each syndrome is its isometry alone
    assert set(doc["witness"]) == {"vector", "syndrome_index", "probability"}
    assert np.shape(doc["code_isometry"]) == (8, 2)  # B comes with the syndromes, whatever the verdict
    parsed = parse_analysis_document(doc)
    fields = {"verdict", "signature", "values", "residual", "diagonalizer", "syndromes", "recovery", "witness"}
    assert set(parsed) == fields
    assert parsed["verdict"] is qec.Verdict.CODE_OUTSIDE_DOMAIN and parsed["verdict"] == "code_outside_domain"
    assert parsed["signature"] == sig and parsed["recovery"] is None
    assert parsed["witness"].probability == pytest.approx(-0.2, abs=1e-9)
    assert np.abs(parsed["witness"].vector - report.witness.vector).max() == 0
    assert np.abs(parsed["witness"].state - report.witness.state).max() == 0
    assert parsed["witness"].syndrome_index == report.witness.syndrome_index
    assert _bits(parsed["values"]) == _bits(report.values) and parsed["residual"] == report.residual
    assert len(parsed["syndromes"]) == 4
    for got, s in zip(parsed["syndromes"], report.syndromes):  # syndrome k is term k, as written
        assert np.abs(got.isometry - s.isometry).max() == 0
    assert np.array_equal(parsed["syndromes"].code_isometry, report.syndromes.code_isometry)
    doc["schema_version"] = "1"
    with pytest.raises(ValueError, match="schema_version"):
        parse_analysis_document(doc)


def test_analysis_document_reversible_roundtrip():
    report, sig = _report(0.7)
    doc = _roundtrip(analysis_document(report, sig))
    assert doc["verdict"] == "reversible_positive"
    assert doc["witness"] is None
    assert np.shape(doc["code_isometry"]) == (8, 2)
    parsed = parse_analysis_document(doc)
    assert parsed["recovery"] is parsed["syndromes"]
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
    # The decoded isometries reach the Recovery as the parser's one stack,
    # which _frozen copies once: complex, read-only and over immutable bytes.
    ops, code = repetition_bitflip(4, 0.7)
    doc = _roundtrip(analysis_document(analyze(ops, code), ops.signature))
    frozen = []
    monkeypatch.setattr(qec, "_frozen", lambda a, *args: frozen.append(a) or _frozen(a, *args))
    w = parse_analysis_document(doc)["recovery"].isometries
    stacks = [a for a in frozen if np.ndim(a) == 3]
    assert len(stacks) == 1 and isinstance(stacks[0], np.ndarray) and len(stacks[0]) == w.shape[0] == 5
    assert stacks[0] is not w and np.array_equal(stacks[0], w)
    assert w.dtype == complex and isinstance(memory_owner(w), bytes)
    with pytest.raises(ValueError):
        w.setflags(write=True)


def _is_entry(z):
    """``z`` is an encoded entry: a real number, or an ``[re, im]`` pair."""
    return isinstance(z, (int, float)) or isinstance(z, list) and len(z) == 2 and all(isinstance(x, (int, float)) for x in z)


def _matrix_widths(node, path=""):
    """``(path, columns)`` of every encoded matrix or vector (one column) in a document, dense or row-sparse."""
    if isinstance(node, dict) and set(node) == {"shape", "rows", "values"}:
        return [(path, node["shape"][1] if len(node["shape"]) == 2 else 1)]
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
    assert {"syndromes[0]", "condition.values", "diagonalizer", "code_isometry"} <= set(widths)
    assert ("witness.vector" in widths) == (c0 < 0)
    wide = {path for path, cols in widths.items() if cols > code.rank}
    assert wide == {"diagonalizer"}  # the conditions are one value per term
    parsed = parse_analysis_document(doc)
    if report.recovery is None:
        assert parsed["recovery"] is None
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
    assert doc["syndromes"] is doc["code_isometry"] is doc["diagonalizer"] is None
    assert set(doc["condition"]) == {"values", "residual"}
    parsed = parse_analysis_document(doc)
    assert parsed["residual"] == report.residual > 0.1
    assert _bits(parsed["values"]) == _bits(report.values)
    assert parsed["syndromes"] is parsed["recovery"] is parsed["diagonalizer"] is None


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
    # The recovery is the syndromes' B and W stack: without B, or without
    # the syndromes, a reversible document has none.
    report, sig = _report(0.7)
    doc = analysis_document(report, sig)
    doc["code_isometry"] = None
    with pytest.raises(ValueError, match=r"analysis\.code_isometry: expected a non-empty list of rows"):
        parse_analysis_document(doc)
    doc["diagonalizer"] = doc["syndromes"] = None
    with pytest.raises(ValueError, match="analysis: a reversible_positive verdict requires syndromes, got none"):
        parse_analysis_document(doc)


def test_analysis_document_rejects_positive_witness_probability():
    report, sig = _report(-0.2)
    doc = analysis_document(report, sig)
    doc["witness"]["probability"] = 0.3
    with pytest.raises(ValueError, match="analysis.witness: witness probability must be negative and finite, got 0.3"):
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


# Syndrome k's weight and sign are |values[k]| and its sign, in condition.values.
def _break_weight(doc):
    doc["condition"]["values"][0] = [1]


def _break_sign(doc):
    doc["condition"]["values"][3] = "-1"


def _break_sign_value(doc):
    doc["condition"]["values"][0] = 0  # no sign: analyze keeps only nonzero values


def _break_isometry(doc):
    doc["syndromes"][0] = 7


def _break_isometry_nan(doc):
    doc["syndromes"][0][3][1] = [0.0, float("nan")]


def _break_weight_inf(doc):
    doc["condition"]["values"][0] = float("inf")


def _break_weight_negative(doc):
    doc["condition"]["values"][0] = -3  # a -1 sign ahead of the +1 block


def _break_weight_bool(doc):
    doc["condition"]["values"][0] = True


def _break_weight_huge(doc):
    doc["condition"]["values"][1] = 10**400  # an int beyond the float range


def _break_values_pair(doc):
    doc["condition"]["values"][0] = [0.4, 0.0]  # the values are real: no [re, im] pairs


def _break_values_count(doc):
    doc["condition"]["values"].pop()  # one value per syndrome


def _break_probability_huge(doc):
    doc["witness"]["probability"] = -(10**400)


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


_NAMES_3 = "it must name the first syndrome of sign -1, 3"  # the inverted document's first -1 syndrome
_VALUES, _FINITE = r"analysis\.condition\.values", "a non-empty list of finite numbers"


def _break_witness_vector_length(doc):
    doc["witness"]["vector"] = doc["witness"]["vector"][:3]


@pytest.mark.parametrize(
    "breaker, hint",
    [
        (_break_syndromes, "analysis.syndromes"),
        (_break_weight, rf"{_VALUES} must be {_FINITE}, got \[\[1\], 0\.4"),
        (_break_sign, rf"{_VALUES} must be {_FINITE}, got \[0\.4\d*, 0\.4\d*, 0\.4\d*, '-1'\]"),
        (_break_sign_value, r"analysis: signs must be \+1 or -1, got \(0, 1, 1, -1\)"),
        (_break_isometry, r"analysis.syndromes\[0\]: expected a non-empty list of rows"),
        (_break_isometry_nan, r"analysis.syndromes\[0\]\[3\]\[1\]"),
        (_break_weight_inf, rf"{_VALUES} must be {_FINITE}, got \[inf, "),
        (_break_weight_negative, r"analysis: positive-sign terms must precede negative-sign terms, got \(-1, 1, 1, -1\)"),
        (_break_weight_bool, rf"{_VALUES} must be {_FINITE}, got \[True, "),
        (_break_weight_huge, rf"{_VALUES} must be {_FINITE}, got \[0\.4\d*, {10**400}, "),
        (_break_probability_huge, rf"analysis\.witness: witness probability must be negative and finite, got {-(10**400)}$"),
        (_break_witness_vector_inf, r"analysis.witness.vector\[0\]"),
        (_break_version, "analysis: unsupported schema_version '2'; `ncpqec qec` writes version '7'"),
        (_break_signature, "analysis.signature.q"),
        (_break_index, "analysis.witness.syndrome_index"),
        (_break_negative_index, f"analysis: witness.syndrome_index is -1: {_NAMES_3}"),
        (_break_index_range, f"analysis: witness.syndrome_index is 4: {_NAMES_3}"),
        (_break_index_sign, f"analysis: witness.syndrome_index is 0: {_NAMES_3}"),
        (_break_witness_vector_length, r"analysis: witness\.vector: shape \(3,\) does not match the 8 rows"),
        (_break_values_pair, rf"{_VALUES} must be {_FINITE}, got \[\[0\.4, 0\.0\], "),
        (_break_values_count, r"analysis: 3 signs but 4 isometries$"),
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
        ("code_isometry", 5, r"analysis\.code_isometry: expected a non-empty list of rows"),
        ("code_isometry", [[[1.0, 0.0]] * 3] * 8, r"analysis.code_isometry: shape \(8, 3\) must be that of syndrome 0, \(8, 2\)"),
        ("code_isometry", [[[float("nan"), 0.0]] * 2] * 8, r"analysis.code_isometry\[0\]\[0\]"),
    ],
)
def test_parse_analysis_document_malformed_recovery(field, value, hint):
    report, sig = _report(0.7)
    doc = _roundtrip(analysis_document(report, sig))
    doc[field] = value
    with pytest.raises(ValueError, match=hint):
        parse_analysis_document(doc)


def _channel_doc(c0=-0.2):
    return _roundtrip(channel_document(bitflip_ops(c0)))


def _analysis_doc(c0):
    return _roundtrip(analysis_document(*_report(c0)))


def _sparse_doc(c0):
    """The analysis document of the 6-qubit bit-flip map, its arrays on d = 64 rows row-sparse."""
    ops, code = repetition_bitflip(6, c0)
    return _roundtrip(analysis_document(analyze(ops, code), ops.signature))


def _set(doc, path, value):
    """``doc`` with the field at ``path`` (keys and list indices) set to ``value``."""
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


_COLUMNS = "a diagonalizer comes with its syndromes, one per column, and syndromes with it"


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
        (lambda: _analysis_doc(-0.2), ("condition", "values"), "unitary", rf"{_VALUES} must be {_FINITE}, got 'unitary'"),
        (lambda: _analysis_doc(-0.2), ("condition", "values", 0), None, rf"{_VALUES} must be {_FINITE}, got \[None, "),
        (lambda: _analysis_doc(-0.2), ("syndromes", 0), [], r"analysis\.syndromes\[0\]"),
        (lambda: _analysis_doc(0.7), ("code_isometry",), [1], r"analysis\.code_isometry: expected a non-empty list of rows"),
        (lambda: _analysis_doc(-0.2), ("witness",), 0.5, r"analysis\.witness"),
        (lambda: _analysis_doc(0.7), ("condition", "values", 3), -1, r"analysis: syndromes\[3\]\.sign must be \+1 under a"),
        (lambda: _analysis_doc(-0.2), ("condition", "values", 0), "0.4", rf"{_VALUES} must be {_FINITE}, got \['0\.4', "),
        (
            lambda: _analysis_doc(-0.2),
            ("witness", "probability"),
            float("nan"),
            r"analysis\.witness: witness probability must be negative and finite, got nan",
        ),
        (lambda: _analysis_doc(-0.2), ("witness", "probability"), "-0.2", r"witness\.probability must be a number, got '-0\.2'"),
        (lambda: _analysis_doc(-0.2), ("witness", "vector"), [], r"vector: expected a non-empty list of numbers or \["),
        (
            lambda: _analysis_doc(-0.2),
            ("syndromes", 1),
            [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
            r"syndromes\[1\]: shape \(4, 2\) must be that of syndrome 0, \(8, 2\)",
        ),
        (lambda: _analysis_doc(0.7), ("diagonalizer",), None, f"analysis: {_COLUMNS}"),
        (lambda: _analysis_doc(0.7), ("diagonalizer",), [[1.0]], f"analysis: {_COLUMNS}"),
        (lambda: _analysis_doc(0.7), ("syndromes",), None, "analysis.code_isometry must be null when there are no syndromes"),
        (lambda: _analysis_doc(0.7), ("syndromes",), [], r"analysis: 4 signs but 0 isometries"),
        # the row-sparse form
        (
            lambda: _sparse_doc(-0.2),
            ("witness", "vector", "shape"),
            [2**55],  # 2^59 bytes: more than any address space maps
            rf"witness\.vector: shape \({2**55},\) is too large to decode",
        ),
        (
            lambda: _sparse_doc(-0.2),
            ("syndromes", 0, "rows"),
            [0, 64],
            r"syndromes\[0\]\.rows must be a strictly increasing list of row indices below 64, got \[0, 64\]",
        ),
        (
            lambda: _sparse_doc(-0.2),
            ("syndromes", 0, "rows"),
            [-1, 63],
            r"syndromes\[0\]\.rows must be a strictly increasing",
        ),
        (
            lambda: _sparse_doc(-0.2),
            ("syndromes", 0, "rows"),
            [0, 0],
            r"syndromes\[0\]\.rows must be a strictly increasing",
        ),
        (
            lambda: _sparse_doc(-0.2),
            ("syndromes", 0, "rows"),
            [63, 0],
            r"syndromes\[0\]\.rows must be a strictly increasing",
        ),
        (
            lambda: _sparse_doc(-0.2),
            ("syndromes", 0, "rows"),
            [0, True],
            r"syndromes\[0\]\.rows must be a strictly increasing",
        ),
        (
            lambda: _sparse_doc(-0.2),
            ("syndromes", 0, "values"),
            [[1.0, 0.0]],
            r"syndromes\[0\]\.values must be a list of 2 rows of 2 entries, one per listed row",
        ),
        (
            lambda: _sparse_doc(-0.2),
            ("syndromes", 0, "values", 1),
            [1.0],
            r"syndromes\[0\]\.values must be a list of 2 rows of 2 entries",
        ),
        (
            lambda: _sparse_doc(-0.2),
            ("syndromes", 0, "values", 1, 0),
            "x",
            r"syndromes\[0\]\.values\[1\]\[0\]: real entries must be finite numbers, got 'x'",
        ),
        (
            lambda: _sparse_doc(-0.2),
            ("syndromes", 1, "shape"),
            [128, 2],
            r"syndromes\[1\]: shape \(128, 2\) must be that of syndrome 0, \(64, 2\)",
        ),
        (
            lambda: _sparse_doc(-0.2),
            ("syndromes", 0, "shape"),
            [64],
            r"syndromes\[0\]\.shape must be a list of 2 positive integers",
        ),
        (
            lambda: _sparse_doc(-0.2),
            ("syndromes", 0, "shape"),
            [64, 0],
            r"syndromes\[0\]\.shape must be a list of 2 positive integers",
        ),
        (
            lambda: _sparse_doc(-0.2),
            ("syndromes", 0, "rows"),
            None,
            r"syndromes\[0\]\.rows must be a strictly increasing",
        ),
        (
            lambda: _sparse_doc(-0.2),
            ("witness", "vector", "values"),
            [],
            r"witness\.vector\.values must be a list of 1 entries, one per listed row",
        ),
        (
            lambda: _sparse_doc(-0.2),
            ("witness", "vector", "shape"),
            [64, 1],
            r"witness\.vector\.shape must be a list of 1 positive integers",
        ),
        (
            lambda: _sparse_doc(-0.2),
            ("witness", "vector", "shape"),
            [128],
            r"witness\.vector: shape \(128,\) does not match the 64 rows of the isometries",
        ),
        (
            lambda: _sparse_doc(0.7),
            ("code_isometry", "shape"),
            [128, 2],
            r"analysis\.code_isometry: shape \(128, 2\) must be that of syndrome 0, \(64, 2\)",
        ),
        (
            lambda: _sparse_doc(0.7),
            ("code_isometry", "rows"),
            [0, 64],
            r"analysis\.code_isometry\.rows must be a strictly increasing list of row indices below 64",
        ),
        # An analysis document is an output: an older version is refused
        # with the command that writes it again from its inputs.
        *(
            (
                lambda: _analysis_doc(0.7),
                ("schema_version",),
                version,
                f"analysis: unsupported schema_version '{version}'; `ncpqec qec` writes version '7' from the channel",
            )
            for version in ("3", "4", "5", "6")
        ),
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
    hint = r"analysis: syndromes\[3\]\.sign must be \+1 under a conditions_violated verdict, got -1"
    with pytest.raises(ValueError, match=hint):
        parse_analysis_document(doc)


# (verdict, syndrome signs or None for no syndromes, witness index or None, the message core or None to accept)
_V = qec.Verdict
_NEGATIVE = "syndromes[{}].sign must be +1 under a {} verdict, got -1"
_WITNESS = "a witness comes with code_outside_domain only, got index {} under {}"
_FIRST = "witness.syndrome_index is {}: it must name the first syndrome of sign -1, {}"
_ORDER = "positive-sign terms must precede negative-sign terms, got {}"
OUTCOMES = [
    (_V.CODE_OUTSIDE_DOMAIN, (1, 1, 1, -1), 3, None),
    (_V.CODE_OUTSIDE_DOMAIN, (1, 1, -1, -1), 2, None),
    (_V.CODE_OUTSIDE_DOMAIN, (-1, -1, -1, -1), 0, None),
    (_V.REVERSIBLE_POSITIVE, (1, 1, 1, 1), None, None),
    (_V.CONDITIONS_VIOLATED, (1, 1, 1, 1), None, None),
    (_V.CONDITIONS_VIOLATED, None, None, None),
    (_V.REVERSIBLE_POSITIVE, None, None, "a reversible_positive verdict requires syndromes, got none"),
    (_V.REVERSIBLE_POSITIVE, (1, 1, 1, -1), None, _NEGATIVE.format(3, "reversible_positive")),
    (_V.CONDITIONS_VIOLATED, (1, 1, -1, -1), None, _NEGATIVE.format(2, "conditions_violated")),
    (_V.CODE_OUTSIDE_DOMAIN, (1, 1, 1, -1), None, _WITNESS.format(None, "code_outside_domain")),
    (_V.REVERSIBLE_POSITIVE, (1, 1, 1, 1), 3, _WITNESS.format(3, "reversible_positive")),
    (_V.CONDITIONS_VIOLATED, None, 0, _WITNESS.format(0, "conditions_violated")),
    (_V.CODE_OUTSIDE_DOMAIN, (1, 1, -1, -1), 3, _FIRST.format(3, 2)),
    (_V.CODE_OUTSIDE_DOMAIN, (1, 1, 1, -1), -1, _FIRST.format(-1, 3)),
    (_V.CODE_OUTSIDE_DOMAIN, (1, 1, 1, 1), 0, _FIRST.format(0, None)),
    (_V.CODE_OUTSIDE_DOMAIN, None, 0, _FIRST.format(0, None)),
    # A -1 syndrome before a +1 one: refused since the report takes the sign rule of every signed record.
    (_V.CODE_OUTSIDE_DOMAIN, (1, -1, 1, 1), 1, _ORDER.format((1, -1, 1, 1))),
    (_V.CODE_OUTSIDE_DOMAIN, (-1, 1, 1, 1), 0, _ORDER.format((-1, 1, 1, 1))),
]


@pytest.mark.parametrize("verdict, signs, index, core", OUTCOMES)
def test_report_and_parser_keep_one_outcome_rule(verdict, signs, index, core):
    # parse_analysis_document builds the QecReport, so it accepts and
    # refuses as the report does, with its message prefixed "analysis:", for
    # the sign rule and the outcome rule alike.  The signs are those of the
    # values, which give the conditions and the syndromes alike.
    cp, inverted = analyze(bitflip_ops(0.7), repetition_code()), analyze(bitflip_ops(-0.2), repetition_code())
    values = cp.diagonal if signs is None else np.multiply(signs, cp.diagonal)
    doc = _analysis_doc(0.7)
    doc["verdict"] = verdict.value
    doc["condition"]["values"] = values.tolist()
    if signs is None:
        doc["diagonalizer"] = doc["syndromes"] = doc["code_isometry"] = None
    if index is not None:
        doc["witness"] = {**_analysis_doc(-0.2)["witness"], "syndrome_index": index}

    def report():
        syndromes, t = (None, None) if signs is None else (cp.syndromes, cp.diagonalizer)
        witness = None if index is None else qec.NegativityWitness(inverted.witness.vector, index, -0.2)
        return qec.QecReport(values, 0.0, t, syndromes, verdict, witness)

    if core is None:
        assert report().verdict is verdict
        assert parse_analysis_document(doc)["verdict"] is verdict
        return
    for build, message in ((report, core), (lambda: parse_analysis_document(doc), f"analysis: {core}")):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message


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
    """The records of a parsed analysis document as their arrays' dtype, shape and bytes, for exact comparison."""
    syndromes, witness = parsed["syndromes"], parsed["witness"]
    out = {key: parsed[key] for key in ("verdict", "signature", "residual")}
    out["values"] = _bits(parsed["values"])
    out["recovery"] = parsed["recovery"] is not None and parsed["recovery"] is syndromes
    if syndromes is not None:
        out["diagonalizer"] = _bits(parsed["diagonalizer"])
        out["syndromes"] = _bits(syndromes.code_isometry), _bits(syndromes.isometries)
    if witness is not None:
        out["witness"] = _bits(witness.vector), witness.syndrome_index, witness.probability
    return out


def _real_shape(encoded):
    """The shape of an encoded array, or a list of them, whose entries are all real numbers.

    Dense lists have the array's own shape; a row-sparse object's values
    have one real number per entry of each listed row.
    """
    if isinstance(encoded, dict):
        assert np.shape(encoded["values"]) == (len(encoded["rows"]), *encoded["shape"][1:])
        return tuple(encoded["shape"])
    if isinstance(encoded[0], dict):
        shapes = {_real_shape(e) for e in encoded}
        assert len(shapes) == 1
        return (len(encoded), *shapes.pop())
    return np.shape(encoded)


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-12, 1e150])
@pytest.mark.parametrize("c0", [-0.2, 0.7])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_real_analysis_documents_decode_to_the_reports_arrays(n, c0, scale):
    # The bit-flip mixtures are real: every array takes the real form (the
    # shape of its lists is its own) and decodes to the report's bits.  From
    # d = 32 on, the arrays on d rows are row-sparse, their values real.
    # B comes with the syndromes under every verdict that has them: the
    # inverted map's code_outside_domain, and at scales other than 1 the CP
    # map's conditions_violated, which the trace check gives.
    ops, code = repetition_bitflip(n, c0)
    ops = SignedOperatorSum(ops.dim, ops.signs, np.sqrt(scale) * ops.operators)
    report = analyze(ops, code)
    verdict = _V.CODE_OUTSIDE_DOMAIN if c0 < 0 else _V.REVERSIBLE_POSITIVE if scale == 1.0 else _V.CONDITIONS_VIOLATED
    assert report.verdict is verdict
    doc = _roundtrip(analysis_document(report, ops.signature))
    assert isinstance(doc["syndromes"][0], dict) == isinstance(doc["code_isometry"], dict) == (n >= 5)
    parsed = parse_analysis_document(doc)
    syndromes = parsed["syndromes"]
    # The conditions are diag(sign_k d_k), stored once as the values, bit for bit.
    assert doc["condition"]["values"] == report.values.tolist()
    assert _bits(parsed["values"]) == _bits(report.values) and parsed["residual"] == report.residual
    arrays = [
        (doc["diagonalizer"], report.diagonalizer, parsed["diagonalizer"]),
        (doc["syndromes"], report.syndromes.isometries, syndromes.isometries),
        (doc["code_isometry"], report.syndromes.code_isometry, syndromes.code_isometry),
    ]
    if report.witness is not None:
        arrays.append((doc["witness"]["vector"], report.witness.vector, parsed["witness"].vector))
    for encoded, want, got in arrays:
        assert _real_shape(encoded) == want.shape
        assert _bits(got) == _bits(want)
    assert parsed["verdict"] is verdict and (parsed["recovery"] is None) == (report.recovery is None)


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



_ENTRIES = [1.0, -0.5, 0.0, -0.0, 1e-300, 3.25e150, 0.5j, complex(0.0, -0.0), complex(-0.0, 0.0), 3 - 4j]


@st.composite
def _row_stacks(draw):
    """An ``(m, d, r)`` stack at d >= 64: chosen live rows, the rest zero, one live row only a -0.0."""
    m, d, r = draw(st.integers(1, 3)), draw(st.sampled_from([64, 128])), draw(st.integers(1, 3))
    live = sorted(draw(st.sets(st.integers(0, m * d - 1), min_size=1, max_size=m * d // 2 + 4)))
    stack = np.zeros((m * d, r), complex)
    stack[live] = draw(arrays(complex, (len(live), r), elements=st.sampled_from(_ENTRIES)))
    stack[live[0]] = 0.0
    stack[live[0], -1] = -0.0  # a row whose only nonzero bits are a sign bit
    if not draw(st.booleans()):  # every imaginary part +0.0: the real form
        stack = stack.real.astype(complex)
    return stack.reshape(m, d, r)


def _mostly_live():
    """A fixed ``(2, 32, 2)`` stack with 33 of its 64 rows live: past half, so it is written dense."""
    stack = np.zeros((64, 2), complex)
    stack[np.linspace(0, 63, 33).astype(int)] = random_complex(np.random.default_rng(33), (33, 2))
    return stack.reshape(2, 32, 2)


@settings(max_examples=60, deadline=None)
@given(_row_stacks(), st.booleans())
@example(_mostly_live(), False)  # the strategy draws at most half the rows live
def test_row_sparse_stacks_decode_bit_for_bit(stack, vector):
    # Every array of the stack, as written and read back through JSON text,
    # has the bits it was written from; the form is sparse exactly when at
    # most half the stack's rows hold a set bit.
    if vector:
        stack = np.ascontiguousarray(stack[:, :, 0])
    m, d = stack.shape[:2]
    live = np.count_nonzero(stack.view(np.int64).reshape(m, d, -1).any(axis=2))
    encoded = _roundtrip(documents._encode_rows(stack))
    assert all(isinstance(e, dict) == (2 * live <= m * d) for e in encoded)
    paths = [f"stack[{k}]" for k in range(m)]
    assert _bits(documents._decode_rows(encoded, paths, stack.ndim - 1)) == _bits(stack)


@pytest.mark.parametrize("pairs", [False, True], ids=["real", "pairs"])
@pytest.mark.parametrize("c0", [-0.2, 0.7])
def test_dense_lists_parse_to_the_arrays_of_the_row_sparse_form(monkeypatch, c0, pairs):
    # The parser reads each array on d rows as dense lists at any d, real or
    # pairs: at d = 64 they decode to the bits of the row-sparse document of
    # the same report.
    ops, code = repetition_bitflip(6, c0)
    report = analyze(ops, code)
    sparse = _roundtrip(analysis_document(report, ops.signature))
    assert isinstance(sparse["syndromes"][0], dict) and isinstance(sparse["code_isometry"], dict)
    monkeypatch.setattr(documents, "_encode_rows", pair_lists if pairs else documents.encode_matrix)
    if pairs:
        monkeypatch.setattr(documents, "encode_matrix", pair_lists)
    dense = _roundtrip(analysis_document(report, ops.signature))
    assert dense["schema_version"] == "7"
    assert np.shape(dense["syndromes"][0]) == np.shape(dense["code_isometry"]) == ((64, 2, 2) if pairs else (64, 2))
    assert _parsed_bits(parse_analysis_document(dense)) == _parsed_bits(parse_analysis_document(sparse))
