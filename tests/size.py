"""Size report: lines and code lines of every module of ``src/``, ``tests/`` and ``bench/``.

``lines`` is what ``wc -l`` counts.  ``code`` counts the lines that hold
part of a token other than a comment, a docstring or layout: blank lines,
comment lines and docstrings (the leading string of a module, class or
function, found with ``ast``) are left out, while every line of any other
multi-line string or bracketed expression counts.  The report is one line
per module, then a total per directory.  It ends with the private names
(those starting with ``_``) that each module of ``src/`` imports from
another through a relative ``from`` import, and their total.

Run from anywhere, standard library only:

    python tests/size.py
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRECTORIES = ("src", "tests", "bench")
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """Where each docstring of ``tree`` starts, as (line, column)."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(text: str) -> tuple[int, int]:
    """The ``wc -l`` count and the code-line count of one module's text."""
    docstrings = docstring_starts(ast.parse(text))
    code = set()
    for token in tokenize.generate_tokens(iter(text.splitlines(keepends=True)).__next__):
        if token.type not in LAYOUT and not (token.type == tokenize.STRING and token.start in docstrings):
            code.update(range(token.start[0], token.end[0] + 1))
    return text.count("\n"), len(code)


def private_imports(text: str) -> list[str]:
    """The private names one module imports through relative ``from`` imports."""
    return [alias.name for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")]


def main() -> int:
    width = max(len(str(path.relative_to(ROOT)))
                for directory in DIRECTORIES for path in (ROOT / directory).rglob("*.py"))
    print(f"{'module':<{width}} {'lines':>6} {'code':>6}")
    totals = []
    for directory in DIRECTORIES:
        lines = code = 0
        for path in sorted((ROOT / directory).rglob("*.py")):
            module_lines, module_code = count(path.read_text(encoding="utf-8"))
            print(f"{str(path.relative_to(ROOT)):<{width}} {module_lines:>6} {module_code:>6}")
            lines += module_lines
            code += module_code
        totals.append((f"{directory}/ total", lines, code))
    for name, lines, code in totals:
        print(f"{name:<{width}} {lines:>6} {code:>6}")
    print(f"\n{'private imports in src/':<{width}} {'names':>6}")
    total = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        names = private_imports(path.read_text(encoding="utf-8"))
        if names:
            print(f"{str(path.relative_to(ROOT)):<{width}} {len(names):>6}  {' '.join(names)}")
            total += len(names)
    print(f"{'total':<{width}} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
