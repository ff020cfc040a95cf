import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("src_lines", Path(__file__).parents[1] / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

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
