"""Source-level rules for the package.

Internal invariants raise a typed ``PommaretError``: an ``assert`` vanishes
under ``python -O``, and an ``AssertionError`` escapes the CLI's error
handling as a traceback instead of exit code 4.
"""

import ast
from pathlib import Path

import pommaret


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assertions_in_package():
    found = []
    for path in sorted(Path(pommaret.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Raise) and node.exc is not None
                    and _raises_assertion_error(node)):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found
