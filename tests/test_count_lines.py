"""``tools/count_lines.py`` puts each source line in exactly one class."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("count_lines", ROOT / "tools" / "count_lines.py")
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

SOURCES = sorted((ROOT / "src" / "fracstep").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_the_four_counts_sum_to_the_line_count(path):
    counts = count_lines.split_lines(path)
    assert list(counts) == ["code", "docstring", "comment", "blank"]
    assert sum(counts.values()) == path.read_bytes().count(b"\n")
    assert counts["code"] > 0


def test_each_class_on_a_small_module(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        '"""Module docstring,\n'  # docstring
        "\n"  # docstring (inside it)
        'two lines."""\n'  # docstring
        "\n"  # blank
        "# a comment\n"  # comment
        "x = 1  # code with a comment\n"  # code
        "\n"  # blank
        "def f():\n"  # code
        '    """Function docstring."""\n'  # docstring
        '    text = """a string\n'  # code
        '    that is not a docstring"""\n'  # code
        "    return text\n"  # code
        "#: an attribute's comment\n"  # comment
        "y = (1,\n"  # code
        "\n"  # blank (inside brackets)
        "     2)\n"  # code
        '"""An attribute docstring."""\n'  # docstring
    )
    assert count_lines.split_lines(path) == {"code": 7, "docstring": 5, "comment": 2, "blank": 3}
