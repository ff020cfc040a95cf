import importlib.util
from pathlib import Path

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
    *changed, documents, values, structural = capsys.readouterr().out.splitlines()
    assert changed == []
    count = 4 * (3 * 40 + 2 * 6)  # 40 inputs in three forms, 6 in two (no b_matrix above d = 16)
    assert documents == f"{count} of {count} analysis documents byte-identical"
    n, _, m, *rest = values.split()
    assert n == m and int(n) > 0 and rest == "verify_recovery values equal by float.hex".split()
    assert structural == "0 verdict or structural changes"


def test_compare_refuses_a_usage_without_two_trees(capsys):
    assert compare.main(["compare.py", "src"]) == 2
    assert "usage: python3 tools/compare.py PARENT_SRC CHANGE_SRC" in capsys.readouterr().err
