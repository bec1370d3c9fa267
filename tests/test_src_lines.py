import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path, capsys):
    path = tmp_path / "fixture.py"
    path.write_text(
        '"""A docstring\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "x = 1  # a trailing comment keeps its line code\n"
        "def f():\n"
        '    """A function docstring."""\n',
        encoding="utf-8",
    )
    tool = load_tool()
    assert tool.count(path) == (7, 2)
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "7 total lines, 2 code lines in 1 files\n"


def test_by_file_prints_each_files_total_and_code_lines_before_the_sum(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n", encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Doc."""\ny = 2\nz = 3\n', encoding="utf-8")
    assert load_tool().main(["--by-file", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        f"     2      1  {tmp_path / 'a.py'}\n"
        f"     3      2  {tmp_path / 'b.py'}\n"
        "5 total lines, 3 code lines in 2 files\n"
    )
