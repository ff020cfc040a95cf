import copy
import json

import numpy as np
import pytest

from ncpqec.documents import (
    SCHEMA_VERSION,
    analysis_document,
    channel_document,
    decode_matrix,
    encode_matrix,
    parse_analysis_document,
    parse_channel_document,
    parse_code_document,
)
from ncpqec.pseudolinalg import Signature
from ncpqec.qec import analyze
from ncpqec.superop import AMatrix, BMatrix, SignedOperatorSum, a_from_operator_sum, b_from_operator_sum

from helpers import I2, X, Z, bitflip_ops, random_complex, repetition_code


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
    good = channel_document(SignedOperatorSum.from_terms([1], [I2]))

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
    assert doc["schema_version"] == "2"
    assert doc["verdict"] == "code_outside_domain"
    assert doc["signature"] == {"p": 3, "q": 1}
    assert all(set(s) == {"isometry", "weight", "sign", "term_index"} for s in doc["syndromes"])
    assert doc["recovery"] is None
    parsed = parse_analysis_document(doc)
    assert parsed["verdict"] == "code_outside_domain"
    assert parsed["witness"].probability == pytest.approx(-0.2, abs=1e-9)
    assert np.abs(parsed["condition_entries"] - report.condition.entries).max() < 1e-15
    assert sorted(parsed["diagonal"]) == pytest.approx(sorted(report.diagonal))
    assert len(parsed["syndromes"]) == 4
    for got, s in zip(parsed["syndromes"], report.syndromes):
        assert np.abs(got["isometry"] - s.isometry).max() == 0
        assert (got["weight"], got["sign"], got["term_index"]) == (s.weight, s.sign, s.term_index)
    doc["schema_version"] = "1"
    with pytest.raises(ValueError, match="schema_version"):
        parse_analysis_document(doc)


def test_analysis_document_reversible_roundtrip():
    report, sig = _report(0.7)
    doc = _roundtrip(analysis_document(report, sig))
    assert doc["verdict"] == "reversible_positive"
    assert doc["witness"] is None
    parsed = parse_analysis_document(doc)
    rec = parsed["recovery"]
    assert rec.n_terms == report.recovery.n_terms
    for a, b in zip(rec.operators, report.recovery.operators):
        assert np.abs(a - b).max() < 1e-15


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


def _break_term_index(doc):
    doc["syndromes"][0]["term_index"] = -1


def _break_diagonal_nan(doc):
    doc["diagonal"][1] = float("nan")


def _break_witness_state_inf(doc):
    doc["witness"]["state"][0][0] = [float("-inf"), 0.0]


def _break_signature(doc):
    doc["signature"]["q"] = True


def _break_index(doc):
    doc["witness"]["syndrome_index"] = "0"


def _break_negative_index(doc):
    doc["witness"]["syndrome_index"] = -1


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
        (_break_term_index, r"analysis.syndromes\[0\].term_index"),
        (_break_diagonal_nan, "analysis.diagonal"),
        (_break_witness_state_inf, r"analysis.witness.state\[0\]\[0\]"),
        (_break_signature, "analysis.signature.q"),
        (_break_index, "analysis.witness.syndrome_index"),
        (_break_negative_index, "analysis.witness.syndrome_index"),
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
        ("operators", 5, "analysis.recovery.operators"),
        ("signs", 5, "analysis.recovery.signs"),
        ("signs", [1.5, 1, 1, 1], "analysis.recovery: signs"),
    ],
)
def test_parse_analysis_document_malformed_recovery(field, value, hint):
    report, sig = _report(0.7)
    doc = _roundtrip(analysis_document(report, sig))
    doc["recovery"][field] = value
    with pytest.raises(ValueError, match=hint):
        parse_analysis_document(doc)
