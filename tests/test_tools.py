"""The repository's own scripts outside the package."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    source = '''"""Module docstring,
over two lines."""

# a comment
X = {
    "a": 1,   # trailing comment
}


class C:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        s = """a string that is
        not a docstring"""
        return s
'''
    # X's three lines, the class line, the def line, s's two lines, return
    assert _load("count_code_lines").code_lines(source) == 8
