"""The repository's own scripts outside the package."""

import importlib.util
import subprocess
import sys
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


def _count_code_lines(*args):
    return subprocess.run([sys.executable, str(TOOLS / "count_code_lines.py"), *args],
                          capture_output=True, text=True, timeout=60)


def test_count_code_lines_help_goes_to_stdout():
    for flag in ("-h", "--help"):
        result = _count_code_lines(flag)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.startswith("Count the code lines of Python files")


def test_count_code_lines_missing_path_is_one_line_on_stderr(tmp_path):
    missing = tmp_path / "missing"
    result = _count_code_lines(str(missing))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.splitlines() == [
        f"count_code_lines: no such file or directory: {missing}"]
