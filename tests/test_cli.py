"""End-to-end CLI tests driving ``python -m ncpqec`` as a subprocess."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncpqec import cli, repetition_bitflip
from ncpqec.documents import channel_document, parse_analysis_document, parse_channel_document
from ncpqec.superop import AMatrix, BMatrix, SignedOperatorSum, a_from_operator_sum, b_from_operator_sum

from helpers import I2, X, bitflip_ops


def run_cli(*argv, env_extra=None):
    env = os.environ.copy()
    env.pop("QEC_TOL", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "ncpqec", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def write_channel(path, channel):
    path.write_text(json.dumps(channel_document(channel)))
    return str(path)


def write_repetition_code(path):
    doc = [[[1.0 if i == k else 0.0, 0.0] for i in range(8)] for k in (0, 7)]
    path.write_text(json.dumps(doc))
    return str(path)


# --------------------------------------------------------------------- convert


def test_convert_identity_to_b_matrix(tmp_path):
    path = write_channel(tmp_path / "chan.json", SignedOperatorSum.from_terms([1], [I2]))
    proc = run_cli("convert", path, "--to", "b_matrix", "--json")
    assert proc.returncode == 0, proc.stderr
    parsed = parse_channel_document(json.loads(proc.stdout))
    evals = np.linalg.eigvalsh(parsed.matrix)
    assert np.abs(np.sort(evals) - np.array([0, 0, 0, 2.0])).max() < 1e-12


@pytest.mark.parametrize("target", ["b_matrix", "a_matrix"])
def test_convert_empty_sum_to_matrix(tmp_path, target):
    empty = SignedOperatorSum(2, (), ())
    proc = run_cli("convert", write_channel(tmp_path / "chan.json", empty), "--to", target, "--json")
    assert proc.returncode == 0, proc.stderr
    assert np.array_equal(parse_channel_document(json.loads(proc.stdout)).matrix, np.zeros((4, 4)))


def test_convert_bitflip_b_eigenvalues(tmp_path):
    path = write_channel(tmp_path / "chan.json", bitflip_ops(-0.2))
    proc = run_cli("convert", path, "--to", "b_matrix", "--json")
    assert proc.returncode == 0, proc.stderr
    parsed = parse_channel_document(json.loads(proc.stdout))
    evals = np.sort(np.linalg.eigvalsh(parsed.matrix))
    assert abs(evals[0] - (-1.6)) < 1e-12
    assert np.abs(evals[-3:] - 3.2).max() < 1e-12
    assert np.abs(evals[1:-3]).max() < 1e-12


def test_convert_roundtrip_through_all_representations(tmp_path):
    rng = np.random.default_rng(31)
    ops = bitflip_ops(-0.2)
    p1 = write_channel(tmp_path / "ops.json", ops)

    proc = run_cli("convert", p1, "--to", "a_matrix", "--json")
    assert proc.returncode == 0, proc.stderr
    (tmp_path / "a.json").write_text(proc.stdout)

    proc = run_cli("convert", str(tmp_path / "a.json"), "--to", "b_matrix", "--json")
    assert proc.returncode == 0, proc.stderr
    (tmp_path / "b.json").write_text(proc.stdout)

    proc = run_cli("convert", str(tmp_path / "b.json"), "--to", "operator_sum", "--json")
    assert proc.returncode == 0, proc.stderr
    recovered = parse_channel_document(json.loads(proc.stdout))

    b0 = b_from_operator_sum(ops).matrix
    b1 = b_from_operator_sum(recovered).matrix
    assert np.abs(b0 - b1).max() < 1e-9


def test_convert_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("convert", str(bad), "--to", "b_matrix")
    assert proc.returncode == 2
    assert "invalid input" in proc.stderr


def test_convert_missing_file_exits_2(tmp_path):
    proc = run_cli("convert", str(tmp_path / "absent.json"), "--to", "b_matrix")
    assert proc.returncode == 2
    assert "invalid input" in proc.stderr


def test_convert_wrong_schema_exits_2(tmp_path):
    doc = channel_document(SignedOperatorSum.from_terms([1], [I2]))
    doc["schema_version"] = "0"
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("convert", str(path), "--to", "b_matrix")
    assert proc.returncode == 2
    assert "schema_version" in proc.stderr


# -------------------------------------------------------------------- classify


def test_classify_bitflip(tmp_path):
    path = write_channel(tmp_path / "chan.json", bitflip_ops(-0.2))
    proc = run_cli("classify", path, "--json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "NCP"
    assert doc["signature"] == {"p": 3, "q": 1}
    assert doc["trace_preserving"] is True
    assert doc["hermiticity_preserving"] is True


def test_classify_identity_is_cp(tmp_path):
    path = write_channel(tmp_path / "chan.json", SignedOperatorSum.from_terms([1], [I2]))
    proc = run_cli("classify", path, "--json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "CP"
    assert doc["signature"] == {"p": 1, "q": 0}


def test_classify_hermiticity_fields_agree_at_large_scale(tmp_path, capsys):
    # An asymmetry of 1e-5 on a B of largest entry near 1e6 is Hermitian
    # to classify, so the hermiticity_preserving field must say so too.
    b = 1e6 * b_from_operator_sum(repetition_bitflip(2, -0.2)[0]).matrix
    b[0, 1] += 1e-5
    path = write_channel(tmp_path / "chan.json", BMatrix(4, b))
    assert cli.main(["classify", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "NCP" and doc["hermiticity_preserving"] is True


def test_classify_tolerance_resolution(tmp_path):
    # slightly non-Hermitian B: invisible at loose tolerance, fatal at tight
    a = a_from_operator_sum(SignedOperatorSum.from_terms([1], [I2])).matrix.copy()
    a[0, 1] += 2e-5
    path = write_channel(tmp_path / "chan.json", AMatrix(2, a))

    loose = run_cli("classify", str(path), "--json", env_extra={"QEC_TOL": "1e-3"})
    assert loose.returncode == 0, loose.stderr
    assert json.loads(loose.stdout)["hermiticity_preserving"] is True

    tight = run_cli("classify", str(path), "--json", "--tol", "1e-9")
    assert tight.returncode == 3
    assert "NotHermitian" in tight.stderr

    # the flag wins over the environment variable
    flag_wins = run_cli(
        "classify", str(path), "--json", "--tol", "1e-9", env_extra={"QEC_TOL": "1e-3"}
    )
    assert flag_wins.returncode == 3


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("source", ["--tol", "QEC_TOL"])
def test_invalid_tolerance_exits_2(source, value):
    if source == "--tol":
        proc = run_cli("reproduce-paper", f"--tol={value}", "--json")
    else:
        proc = run_cli("reproduce-paper", "--json", env_extra={"QEC_TOL": value})
    assert proc.returncode == 2
    assert f"{source}: tolerance must be a finite non-negative number" in proc.stderr
    assert proc.stdout == ""


def test_classify_bad_qec_tol_env(tmp_path):
    path = write_channel(tmp_path / "chan.json", SignedOperatorSum.from_terms([1], [I2]))
    proc = run_cli("classify", str(path), env_extra={"QEC_TOL": "not-a-number"})
    assert proc.returncode == 2
    assert "QEC_TOL" in proc.stderr


# ------------------------------------------------------------------------ qec


def test_qec_bitflip_outside_domain(tmp_path):
    chan = write_channel(tmp_path / "chan.json", bitflip_ops(-0.2))
    code = write_repetition_code(tmp_path / "code.json")
    proc = run_cli("qec", chan, "--code", code, "--json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    parsed = parse_analysis_document(doc)
    assert parsed["verdict"] == "code_outside_domain"
    assert parsed["witness"].probability == pytest.approx(-0.2, abs=1e-9)
    assert doc["recovery"] is None
    assert sorted(parsed["diagonal"]) == pytest.approx([0.2, 0.4, 0.4, 0.4])


def test_qec_cp_bitflip_reversible(tmp_path):
    chan = write_channel(tmp_path / "chan.json", bitflip_ops(0.7))
    code = write_repetition_code(tmp_path / "code.json")
    proc = run_cli("qec", chan, "--code", code, "--json")
    assert proc.returncode == 0, proc.stderr
    parsed = parse_analysis_document(json.loads(proc.stdout))
    assert parsed["verdict"] == "reversible_positive"
    assert parsed["recovery"].n_terms == 4


def test_qec_conditions_violated(tmp_path):
    z1 = np.diag([1.0, 1, 1, 1, -1, -1, -1, -1]).astype(complex)
    ops = SignedOperatorSum.from_terms(
        [1, 1], [np.sqrt(0.8) * np.eye(8, dtype=complex), np.sqrt(0.2) * z1]
    )
    chan = write_channel(tmp_path / "chan.json", ops)
    code = write_repetition_code(tmp_path / "code.json")
    proc = run_cli("qec", chan, "--code", code, "--json")
    assert proc.returncode == 0, proc.stderr
    parsed = parse_analysis_document(json.loads(proc.stdout))
    assert parsed["verdict"] == "conditions_violated"


def test_qec_zero_map_document_reparses(tmp_path):
    # The zero B matrix decomposes into an empty term list.
    chan = write_channel(tmp_path / "chan.json", BMatrix(8, np.zeros((64, 64))))
    code = write_repetition_code(tmp_path / "code.json")
    proc = run_cli("qec", chan, "--code", code, "--json")
    assert proc.returncode == 0, proc.stderr
    parsed = parse_analysis_document(json.loads(proc.stdout))
    assert parsed["verdict"] == "conditions_violated"


def test_qec_map_annihilating_the_code_document_reparses(tmp_path):
    # Both terms send |000> and |111> to zero: no canonical term survives.
    kill = np.diag([0.0, 1, 1, 1, 1, 1, 1, 0]).astype(complex)
    ops = SignedOperatorSum.from_terms([1, -1], [kill, 0.5 * kill])
    chan = write_channel(tmp_path / "chan.json", ops)
    code = write_repetition_code(tmp_path / "code.json")
    proc = run_cli("qec", chan, "--code", code, "--json")
    assert proc.returncode == 0, proc.stderr
    parsed = parse_analysis_document(json.loads(proc.stdout))
    assert parsed["verdict"] == "conditions_violated"


def test_qec_dimension_mismatch_exits_2(tmp_path, monkeypatch, capsys):
    identity = SignedOperatorSum.from_terms([1], [I2])
    chan = write_channel(tmp_path / "chan.json", identity)
    code = write_repetition_code(tmp_path / "code.json")
    proc = run_cli("qec", chan, "--code", code)
    assert proc.returncode == 2
    assert "does not match" in proc.stderr
    # The dimensions are compared before a matrix channel is converted.
    calls = []
    monkeypatch.setattr(cli, "operator_sum_from_b", lambda *args: calls.append(args))
    b_chan = write_channel(tmp_path / "b.json", b_from_operator_sum(identity))
    assert cli.main(["qec", b_chan, "--code", code]) == 2
    assert "does not match" in capsys.readouterr().err
    assert calls == []


def test_load_json_pauses_gc_and_restores_the_callers_state(tmp_path, monkeypatch, capsys):
    chan = write_channel(tmp_path / "chan.json", bitflip_ops(-0.2))
    code = write_repetition_code(tmp_path / "code.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": ')
    during = []
    load = json.load
    monkeypatch.setattr(cli.json, "load", lambda fh: during.append(gc.isenabled()) or load(fh))
    was_enabled = gc.isenabled()
    try:
        for enabled, switch in ((True, gc.enable), (False, gc.disable)):
            switch()
            assert cli.main(["qec", chan, "--code", code, "--json"]) == 0
            assert gc.isenabled() == enabled
            assert cli.main(["qec", str(bad), "--code", code]) == 2
            assert "is not valid JSON" in capsys.readouterr().err
            assert gc.isenabled() == enabled
    finally:
        if was_enabled:
            gc.enable()
    assert during == [False] * 6


def test_qec_nan_code_document_exits_2(tmp_path):
    chan = write_channel(tmp_path / "chan.json", bitflip_ops(-0.2))
    code = tmp_path / "code.json"
    code.write_text(json.dumps([[[float("nan"), 0.0]] + [[0.0, 0.0]] * 7, [[0.0, 0.0]] * 7 + [[1.0, 0.0]]]))
    proc = run_cli("qec", chan, "--code", str(code))
    assert proc.returncode == 2
    assert "code.basis[0][0]" in proc.stderr
    assert "Warning" not in proc.stderr


# ---------------------------------------------------------------------- equiv


def _boost(t):
    return np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]], dtype=complex)


def test_equiv_boosted_pair(tmp_path):
    from ncpqec.superop import transform_by_pseudounitary

    a = SignedOperatorSum.from_terms([1, -1], [np.sqrt(0.8) * I2, np.sqrt(0.3) * X])
    b = transform_by_pseudounitary(a, _boost(0.4))
    p1 = write_channel(tmp_path / "a.json", a)
    p2 = write_channel(tmp_path / "b.json", b)
    proc = run_cli("equiv", p1, p2, "--json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["equal"] is True
    assert doc["signature"] == {"p": 1, "q": 1}
    assert doc["padding_added"] == [0, 0]
    assert doc["residual"] <= 1e-9
    u = np.array([[complex(re, im) for re, im in row] for row in doc["u"]])
    eta = np.diag([1.0, -1.0])
    assert np.abs(u @ eta @ u.conj().T - eta).max() < 1e-9


def test_equiv_different_maps(tmp_path):
    p1 = write_channel(tmp_path / "a.json", SignedOperatorSum.from_terms([1], [I2]))
    p2 = write_channel(tmp_path / "b.json", SignedOperatorSum.from_terms([1], [X]))
    proc = run_cli("equiv", p1, p2, "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"schema_version": "1", "equal": False}


def test_equiv_self_connection(tmp_path):
    p1 = write_channel(tmp_path / "a.json", bitflip_ops(-0.2))
    proc = run_cli("equiv", p1, p1, "--json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["equal"] is True
    assert doc["residual"] <= 1e-9


def test_equiv_singular_coefficients_exits_3(tmp_path):
    extended = SignedOperatorSum.from_terms([1, 1, -1], [I2, 0.5 * X, 0.5 * X])
    plain = SignedOperatorSum.from_terms([1], [I2])
    p1 = write_channel(tmp_path / "a.json", extended)
    p2 = write_channel(tmp_path / "b.json", plain)
    proc = run_cli("equiv", p1, p2)
    assert proc.returncode == 3
    assert "SingularCoefficientMatrix" in proc.stderr


def test_equiv_dimension_mismatch_exits_2(tmp_path):
    p1 = write_channel(tmp_path / "a.json", SignedOperatorSum.from_terms([1], [I2]))
    p2 = write_channel(
        tmp_path / "b.json", SignedOperatorSum.from_terms([1], [np.eye(3, dtype=complex)])
    )
    proc = run_cli("equiv", p1, p2)
    assert proc.returncode == 2
    assert "dimension mismatch" in proc.stderr


def test_equiv_compares_dimensions_before_converting(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "operator_sum_from_b", lambda *args: calls.append(args))
    paths = [
        write_channel(tmp_path / f"b{d}.json", b_from_operator_sum(SignedOperatorSum.from_terms([1], [np.eye(d)])))
        for d in (2, 3)
    ]
    assert cli.main(["equiv", *paths]) == 2
    assert "dimension mismatch" in capsys.readouterr().err
    assert calls == []


def test_readme_analysis_example_matches_cli(tmp_path):
    # The schema example in README.md is the real output, so it cannot go stale.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme[readme.index("For the bit flip `X` on the code `|0>`") :]
    example = example[example.index("```json\n") + len("```json\n") :]
    example = example[: example.index("```")]
    chan = write_channel(tmp_path / "chan.json", SignedOperatorSum.from_terms([1], [X]))
    code = tmp_path / "code.json"
    code.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]]]))
    proc = run_cli("qec", chan, "--code", str(code), "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(example) == json.loads(proc.stdout)


# ------------------------------------------------------------- reproduce-paper


def test_reproduce_paper_default(tmp_path):
    proc = run_cli("reproduce-paper", "--json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["c0"] == pytest.approx(-0.2)
    assert doc["c1"] == pytest.approx(0.4)
    assert doc["verdict"] == "code_outside_domain"
    assert doc["witness_probability"] == pytest.approx(-0.2, abs=1e-9)
    assert doc["recovery_max_error"] <= 1e-9
    out1 = doc["outcomes"]["a=1"]
    assert out1["000"] == pytest.approx(-0.2)
    assert out1["100"] == pytest.approx(0.4)
    assert out1["111"] == pytest.approx(0.0, abs=1e-12)
    assert out1["011"] == pytest.approx(0.0, abs=1e-12)
    out0 = doc["outcomes"]["a=0"]
    assert out0["111"] == pytest.approx(-0.2)
    assert out0["011"] == pytest.approx(0.4)
    half = doc["outcomes"]["a=0.5"]
    assert half["000"] == pytest.approx(-0.1)
    assert half["111"] == pytest.approx(-0.1)
    assert half["100"] == pytest.approx(0.2)
    assert half["011"] == pytest.approx(0.2)


def test_reproduce_paper_other_weight(tmp_path):
    proc = run_cli("reproduce-paper", "--c0", "-0.5", "--json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["c1"] == pytest.approx(0.5)
    assert doc["witness_probability"] == pytest.approx(-0.5, abs=1e-9)
    half = doc["outcomes"]["a=0.5"]
    assert half["000"] == pytest.approx(-0.25)
    assert half["111"] == pytest.approx(-0.25)
    assert half["100"] == pytest.approx(0.25)
    assert half["011"] == pytest.approx(0.25)


def test_reproduce_paper_near_float_max():
    proc = run_cli("reproduce-paper", "--c0=1e308", "--json", env_extra={"PYTHONWARNINGS": "error"})
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "code_outside_domain"
    assert doc["witness_probability"] == pytest.approx(-1e308 / 3, rel=1e-12)


def test_reproduce_paper_rejects_plain_mixture():
    proc = run_cli("reproduce-paper", "--c0", "0.4")
    assert proc.returncode == 2
    assert "same sign" in proc.stderr


def test_reproduce_paper_pretty_output():
    proc = run_cli("reproduce-paper")
    assert proc.returncode == 0, proc.stderr
    assert "verdict: code_outside_domain" in proc.stdout
    assert "negative probability" in proc.stdout


@pytest.mark.parametrize("c0, shown", [("-0.2", "-0.2"), ("1e308", "1e+308")])
def test_reproduce_paper_outcome_rows_stay_short(c0, shown):
    # Fixed-point cells would print c0 = 1e308 with 309 digits.
    proc = run_cli("reproduce-paper", f"--c0={c0}")
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.startswith("  a=")]
    assert len(rows) == 3 and all(len(row) < 120 for row in rows)
    assert shown in rows[0] and shown in rows[2]  # a = 0 and a = 1: c0 on |111> and |000>


@pytest.mark.parametrize("c0, restores", [("-0.2", True), ("1e308", False)])
def test_reproduce_paper_claims_recovery_only_within_tol(c0, restores):
    # At c0 = 1e308 the recovered trace cancels to rounding and the
    # deviation is about 31: the text must not claim a restored state.
    proc = run_cli("reproduce-paper", f"--c0={c0}")
    assert proc.returncode == 0, proc.stderr
    claim = "projective recovery restores every sampled code state"
    assert (claim in proc.stdout) == restores
    assert ("projective recovery does not restore" in proc.stdout) == (not restores)


@pytest.mark.parametrize("c0, outcome", [("-0.2", "restores"), ("1e308", "undecidable")])
def test_reproduce_paper_states_the_recovery_outcome(c0, outcome):
    # At c0 = 1e308 the recovered trace cancels to rounding against the
    # unsigned trace: the check cannot decide, which the JSON and the text say.
    proc = run_cli("reproduce-paper", f"--c0={c0}", "--json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["recovery_outcome"] == outcome
    assert (doc["recovery_max_error"] is None) == (outcome == "undecidable")
    text = run_cli("reproduce-paper", f"--c0={c0}").stdout
    assert ("undecidable, recovered trace cancels to" in text) == (outcome == "undecidable")


def test_json_flag_is_single_line(tmp_path):
    path = write_channel(tmp_path / "chan.json", SignedOperatorSum.from_terms([1], [I2]))
    compact = run_cli("classify", path, "--json")
    assert compact.stdout.strip().count("\n") == 0
    pretty = run_cli("classify", path)
    assert pretty.stdout.strip().count("\n") > 0
    assert json.loads(compact.stdout) == json.loads(pretty.stdout)


@pytest.mark.parametrize("signs", [[1.5, -1.9], [True, "-1"]])
def test_qec_inexact_signs_exit_2(tmp_path, signs):
    doc = channel_document(SignedOperatorSum.from_terms([1, -1], [I2, 0.5 * X]))
    doc["payload"]["signs"] = signs
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps(doc))
    code = tmp_path / "code.json"
    code.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]]]))
    proc = run_cli("qec", str(chan), "--code", str(code))
    assert proc.returncode == 2
    assert "signs" in proc.stderr
