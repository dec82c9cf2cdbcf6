"""tools/loc.py counts code lines: no blank, comment or docstring lines."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

SOURCE = '''"""A module docstring
on two lines."""

import os  # a comment after code counts


# a comment alone does not
def f(a,
      b):
    """A function docstring."""
    text = """a string
that is not a docstring"""
    return os.path.join(a, b, text)
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    # import, the two lines of def, the two of the string, return.
    assert loc.code_lines(SOURCE) == 6
