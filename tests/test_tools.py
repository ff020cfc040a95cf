import importlib.util
import json
import types
from pathlib import Path

import numpy as np

from ncpqec import SignedOperatorSum, analyze, documents, repetition_bitflip
from ncpqec.documents import analysis_document, parse_analysis_document

ROOT = Path(__file__).parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


src_lines, compare = _tool("src_lines"), _tool("compare")

MODULE = '''"""A module.

Its docstring spans three lines and is not code.
"""
# a comment line

value = (
    1)
'''


def test_src_lines_counts_code_without_docstrings_comments_or_blanks(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(MODULE, encoding="utf-8")
    assert src_lines.count(path) == (8, 2)


def test_src_lines_main_sums_the_modules_in_its_all_row(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "b.py").write_text("def f():\n    return 1\n\n\nX = f()\n", encoding="utf-8")
    assert src_lines.main(["src_lines.py", str(tmp_path)]) == 0
    header, *rows, total = (line.split() for line in capsys.readouterr().out.splitlines())
    assert header == ["module", "total", "code"]
    assert rows == [["a.py", "8", "2"], ["b.py", "5", "3"]]
    assert total == ["all", *(str(sum(int(row[i]) for row in rows)) for i in (1, 2))] == ["all", "13", "5"]


def test_compare_finds_a_tree_identical_to_itself(capsys):
    # One corpus seed at one map per stratum, two bit-flip maps and the six
    # d = 64 maps on a code on few basis states, at all four scales and in
    # every form: each tree in its own subprocess.
    src = str(ROOT / "src")
    assert compare.compare(src, src, seeds=(1,), per_stratum=1, bitflips=((3, -0.2), (3, 0.7)), supported=(64,)) == 0
    *changed, documents, decoded, values, structural = capsys.readouterr().out.splitlines()
    assert changed == []
    count = 4 * (4 * 40 + 2 * 6)  # 40 inputs in four forms, 6 in two (no matrix form above d = 16)
    assert documents == f"{count} of {count} analysis documents byte-identical, +0 bytes in all"
    assert decoded == f"{count} of {count} analysis documents decode to identical arrays"
    n, _, m, *rest = values.split()
    assert n == m and int(n) > 0 and rest == "verify_recovery values equal by float.hex".split()
    assert structural == "0 verdict or structural changes"


def test_compare_runs_the_a_matrix_form_as_the_b_matrix_form(tmp_path):
    # For d <= 16 the tool also analyzes each input as its a_matrix, which
    # reaches the analysis through the reshuffle, an exact permutation: each
    # of its answers is the b_matrix form's, bit for bit, at every scale.
    src, inputs, out = str(ROOT / "src"), str(tmp_path / "inputs.pickle"), str(tmp_path / "answers.json")
    compare._run("_build", src, inputs, json.dumps([[], 1, [[3, -0.2], [3, 0.7]], []]))
    compare._run("_answers", src, inputs, out)
    answers = json.loads(Path(out).read_text())
    assert sorted({key.rsplit("/", 1)[1] for key in answers}) == ["a_matrix", "b_matrix", "on_code", "operator_sum"]
    matrix = [key for key in answers if key.endswith("/a_matrix")]
    assert len(matrix) == 2 * len(compare.SCALES)
    for key in matrix:
        assert answers[key][0] == "value" and answers[key] == answers[key.replace("/a_matrix", "/b_matrix")]


def test_compare_refuses_a_usage_without_two_trees(capsys):
    assert compare.main(["compare.py", "src"]) == 2
    assert "usage: python3 tools/compare.py PARENT_SRC CHANGE_SRC" in capsys.readouterr().err


def _answer(doc):
    """One tree's answer for a document, as ``compare`` records it."""
    text = json.dumps(doc, separators=(",", ":"))
    return ["value", text, None, compare._decoded(parse_analysis_document(json.loads(text)))]


def test_compare_reads_a_change_of_form_as_decoded_identical_and_a_scalar_in_its_own_ulps(monkeypatch, capsys):
    # The dense-list and the row-sparse document of one report, both version
    # "7", differ in every array's bytes but decode to the same arrays; a
    # witness probability two floats away reads as 2 ulps, not as a fraction
    # of the witness vector's ulps.
    ops, code = repetition_bitflip(6, -0.2)
    report = analyze(ops, code)
    sparse = analysis_document(report, ops.signature)
    with monkeypatch.context() as m:
        m.setattr(documents, "_encode_rows", documents.encode_matrix)
        dense = analysis_document(report, ops.signature)
    assert dense["schema_version"] == sparse["schema_version"] == "7" and dense != sparse
    moved = json.loads(json.dumps(sparse))
    probability = moved["witness"]["probability"]
    moved["witness"]["probability"] = np.nextafter(np.nextafter(probability, -1.0), -1.0).item()
    old = {"form": _answer(dense), "probability": _answer(sparse)}
    new = {"form": _answer(sparse), "probability": _answer(moved)}
    assert compare._summary(old, new) == 0
    changed, documents_line, decoded, values, structural = capsys.readouterr().out.splitlines()
    assert changed == "probability: decoded arrays changed: witness.probability moved 2 ulps"
    grown = len(_answer(sparse)[1]) - len(_answer(dense)[1])
    assert grown < -4000
    assert documents_line == f"0 of 2 analysis documents byte-identical, {grown:+d} bytes in all"
    assert decoded == "1 of 2 analysis documents decode to identical arrays"
    assert (values, structural) == ("0 of 0 verify_recovery values equal by float.hex", "0 verdict or structural changes")


def test_compare_reports_a_moved_code_isometry_under_every_verdict_with_syndromes(capsys):
    # B is compared with the syndromes, not only under the reversible
    # verdict: one float of the outside-domain document's B, one float away,
    # reads as a changed array, and the reversible document's B is compared too.
    answers = {}
    for c0 in (-0.2, 0.7):
        ops, code = repetition_bitflip(3, c0)
        doc = json.loads(json.dumps(analysis_document(analyze(ops, code), ops.signature)))
        moved = json.loads(json.dumps(doc))
        moved["code_isometry"][0][0] = np.nextafter(doc["code_isometry"][0][0], 2.0).item()
        answers[c0] = _answer(doc), _answer(moved)
        assert "syndromes.recovery.code_isometry" in answers[c0][0][3]["arrays"]
    old, new = ({f"c0={c0}": pair[k] for c0, pair in answers.items()} for k in (0, 1))
    assert compare._summary(old, new) == 0
    *changed, documents_line, decoded, _, structural = capsys.readouterr().out.splitlines()
    assert changed == [
        f"c0={c0}: decoded arrays changed: syndromes.recovery.code_isometry 1 of 32 floats, up to 1 ulps" for c0 in (-0.2, 0.7)
    ]
    assert decoded == "0 of 2 analysis documents decode to identical arrays"
    assert structural == "0 verdict or structural changes"


def test_compare_reads_a_tree_whose_parser_returns_a_condition_record():
    # A tree whose parser returns a ConditionMatrix diag(values) and a
    # SyndromeSet of the Recovery decodes, through the bridge, to what the
    # values, the residual and the Recovery decode to, under each verdict.
    zii = np.kron(np.diag([1.0, -1.0]), np.eye(4))
    for ops, code in (
        repetition_bitflip(3, -0.2),
        repetition_bitflip(3, 0.7),
        (SignedOperatorSum.from_terms([1, 1], [np.sqrt(0.8) * np.eye(8), np.sqrt(0.2) * zii]), repetition_bitflip(3, 0.7)[1]),
    ):
        text = json.dumps(analysis_document(analyze(ops, code), ops.signature))
        parsed = parse_analysis_document(json.loads(text))
        old = {key: value for key, value in parsed.items() if key not in ("values", "residual")}
        old["condition"] = types.SimpleNamespace(entries=np.diag(parsed["values"]).astype(complex), residual=parsed["residual"])
        old["syndromes"] = None if parsed["syndromes"] is None else types.SimpleNamespace(recovery=parsed["syndromes"])
        assert compare._decoded(old) == compare._decoded(parsed)
    assert parsed["syndromes"] is None and parsed["verdict"] == "conditions_violated"
