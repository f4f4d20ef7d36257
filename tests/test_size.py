"""Tests for the size report's line counts and private-import count."""

from pathlib import Path

import rankmech
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


def test_the_package_imports_no_more_private_names_across_modules():
    """The modules of the imported ``rankmech`` import at most five private
    names from one another, the count once the class-pair engine sits behind
    the named functions of ``classpairs`` and the denial fixture of
    ``examples`` runs the public uniform mechanism, so that coupling cannot
    grow back unnoticed.  The files are read from the imported package, so a mutated
    copy of it is the one counted."""
    package = Path(rankmech.__file__).parent
    names = [name for path in sorted(package.glob("*.py"))
             for name in size.private_imports(path.read_text(encoding="utf-8"))]
    assert len(names) <= 5, names
