"""Tests for the size report's line counts."""

import size

SAMPLE = '''\
"""Module docstring,
on two lines."""

# a comment line
import os  # a trailing comment


class Thing:
    """Class docstring."""

    def method(self):
        """Method
        docstring."""
        text = """a multi-line
        string that is code"""
        return (text,
                os.sep)
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    """Every line of a non-docstring string and of a bracketed expression
    counts; docstrings, comment lines and blank lines do not."""
    assert size.count(SAMPLE) == (17, 7)
    assert size.count("") == (0, 0)


def test_private_imports_are_the_underscored_names_of_relative_from_imports():
    """Only names starting with ``_`` count, and only in relative ``from``
    imports, at any depth of the module."""
    sample = (
        "import _thread\n"
        "from os import _exit\n"
        "from . import _sibling, public\n"
        "from .strategy import (\n    _decided,\n    _refused as refused,\n    check_dominance,\n)\n"
        "def load():\n    from ..market import _hidden, Market\n"
    )
    assert size.private_imports(sample) == ["_sibling", "_decided", "_refused", "_hidden"]
    assert size.private_imports(SAMPLE) == []
