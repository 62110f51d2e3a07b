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


def _package_nodes():
    for path in sorted(Path(pommaret.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path, node


def test_no_assertions_in_package():
    found = []
    for path, node in _package_nodes():
        if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and node.exc is not None
                and _raises_assertion_error(node)):
            found.append("%s:%d" % (path.name, node.lineno))
    assert not found


def _itertools_uses(name):
    """file:line of every ``from itertools import name`` and
    ``itertools.name`` in the package."""
    found = []
    for path, node in _package_nodes():
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            named = any(a.name == name for a in node.names)
        else:
            named = (isinstance(node, ast.Attribute)
                     and node.attr == name
                     and isinstance(node.value, ast.Name)
                     and node.value.id == "itertools")
        if named:
            found.append("%s:%d" % (path.name, node.lineno))
    return found


def test_no_permutations_in_package():
    """Cells are built from a memoized walk; the |tau|! enumeration of
    orders lives only in the tests."""
    assert not _itertools_uses("permutations")


def test_combinations_only_in_resolution():
    """Symbols and Taylor faces are enumerated in one module; the cells
    read the symbol enumeration instead of repeating it."""
    found = _itertools_uses("combinations")
    assert found
    assert all(f.startswith("resolution.py:") for f in found)


def test_no_indented_json_dumps_in_package():
    """Given an indent, ``json`` encodes in pure Python; the CLI writes its
    indented JSON with its own writer, ``cli._json_text``."""
    found = []
    for path, node in _package_nodes():
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("dump", "dumps")
                and any(k.arg == "indent" for k in node.keywords)):
            found.append("%s:%d" % (path.name, node.lineno))
    assert not found


def test_public_names_are_documented():
    """Every exported name is named, in backticks, in the README."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    assert [name for name in pommaret.__all__
            if "`%s`" % name not in readme] == []


def test_rewrite_map_read_only_where_it_is_built_or_walked():
    """``basis.delta`` is read in the basis itself, in ``symbol_facets``
    (the one holder of the dropped-term rule) and in the cell walk; the
    Morse and verification layers read the complex instead."""
    found = {path.name for path, node in _package_nodes()
             if isinstance(node, ast.Attribute) and node.attr == "delta"}
    assert found <= {"ideals.py", "resolution.py", "cellular.py"}
    assert "resolution.py" in found


def _raises_ring_mismatch(node):
    exc = node.exc
    return (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
            and exc.func.id == "ArityMismatch" and exc.args
            and isinstance(exc.args[0], ast.Constant)
            and exc.args[0].value == "monomials from different rings")


def test_arity_checked_where_a_complex_is_built():
    """Mixed rings are refused by ``Monomial`` and by ``FreeComplex`` when
    a complex is built; the kernels that read a complex trust it."""
    found = set()
    for path, node in _package_nodes():
        if isinstance(node, ast.FunctionDef):
            found.update((path.name, node.name) for inner in ast.walk(node)
                         if isinstance(inner, ast.Raise)
                         and _raises_ring_mismatch(inner))
    assert ("resolution.py", "__init__") in found
    assert {name for name, _ in found} <= {"monomials.py", "resolution.py"}
    assert "composite_terms" not in {fn for _, fn in found}
