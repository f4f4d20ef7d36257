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
