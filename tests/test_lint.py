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
    """Cells are built from the subset table {P(h x_J) : J in tau}; the
    |tau|! enumeration of orders lives only in the tests."""
    assert not _itertools_uses("permutations")


def test_combinations_only_in_resolution():
    """Symbols and Taylor faces are enumerated in one module; the cells
    read the symbol enumeration instead of repeating it."""
    found = _itertools_uses("combinations")
    assert found
    assert all(f.startswith("resolution.py:") for f in found)


def _indented_dump(node):
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dump", "dumps")
            and any(k.arg == "indent" for k in node.keywords))


def test_indented_json_only_in_the_generic_writer():
    """Given an indent, ``json`` encodes in pure Python.  The one indented
    ``json.dumps`` is ``cli._json_text``, the writer of the documents that
    no workload writes hot; the cells and Betti documents, which the
    cells-n8 and betti-n6 workloads measure, have template writers, so
    ``_cmd_cellular`` and ``_cmd_betti`` reach neither."""
    found = [(path.name, node.lineno) for path, node in _package_nodes()
             if _indented_dump(node)]
    path = Path(pommaret.__file__).parent / "cli.py"
    top = {node.name: node for node in ast.parse(path.read_text()).body
           if isinstance(node, ast.FunctionDef)}
    writer = [node.lineno for node in ast.walk(top["_json_text"])
              if _indented_dump(node)]
    assert len(writer) == 1 and found == [("cli.py", writer[0])]
    for name in ("_cmd_cellular", "_cmd_betti"):
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(top[name])
                  if isinstance(node, ast.Call)}
        assert not called & {"_json_text", "dump", "dumps"}, name


def test_public_names_are_documented():
    """Every exported name is named, in backticks, in the README."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    assert [name for name in pommaret.__all__
            if "`%s`" % name not in readme] == []


def test_rewrite_map_read_only_where_it_is_built_or_walked():
    """``basis.delta`` is read in the basis itself, in ``symbol_facets``
    (the one holder of the dropped-term rule) and in the cells' subset
    table; the Morse and verification layers read the complex instead."""
    found = {path.name for path, node in _package_nodes()
             if isinstance(node, ast.Attribute) and node.attr == "delta"}
    assert found <= {"ideals.py", "resolution.py", "cellular.py"}
    assert "resolution.py" in found


def _sign_rules(tree):
    """Line numbers of every ``% 2`` and every negation of a running
    sign (``s = -s``, ``s *= -1``) under an AST node."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                and isinstance(node.right, ast.Constant)
                and node.right.value == 2):
            found.append(node.lineno)
        elif (isinstance(node, ast.Assign)
              and isinstance(node.value, ast.UnaryOp)
              and isinstance(node.value.op, ast.USub)
              and isinstance(node.value.operand, ast.Name)
              and node.value.operand.id in [getattr(t, "id", None)
                                            for t in node.targets]):
            found.append(node.lineno)
        elif (isinstance(node, ast.AugAssign)
              and isinstance(node.op, ast.Mult)
              and ast.unparse(node.value) == "-1"):
            found.append(node.lineno)
    return found


def test_one_dropped_term_rule():
    """``symbol_facets`` holds the rule that drops a rewritten term and
    the boundary signs: the symbol complex and the cells both call it, no
    other function reads the class of a rewrite target
    (``classes[beta]``), and neither the cells nor ``ps_complex`` makes a
    sign of its own by parity (``% 2``) or a running negation.  The check
    compares each sign exactly, so no sign search (``_two_colourable``)
    is left in the package."""
    callers = set()
    readers = set()
    signs = []
    for path, node in _package_nodes():
        if isinstance(node, ast.Module) and path.name == "cellular.py":
            signs += ["cellular.py:%d" % n for n in _sign_rules(node)]
        if "_two_colourable" in (getattr(node, "id", None),
                                 getattr(node, "name", None)):
            signs.append("%s:%d" % (path.name, node.lineno))
        if not isinstance(node, ast.FunctionDef):
            continue
        if path.name == "resolution.py" and node.name == "ps_complex":
            signs += ["resolution.py:%d" % n for n in _sign_rules(node)]
        for inner in ast.walk(node):
            if (isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id == "symbol_facets"):
                callers.add((path.name, node.name))
            value = getattr(inner, "value", None)
            if (isinstance(inner, ast.Subscript)
                    and isinstance(inner.slice, ast.Name)
                    and inner.slice.id == "beta"
                    and (isinstance(value, ast.Name) and value.id == "classes"
                         or isinstance(value, ast.Attribute)
                         and value.attr == "classes")):
                readers.add((path.name, node.name))
    assert {("resolution.py", "ps_complex"),
            ("cellular.py", "_make_cell")} <= callers
    assert readers == {("resolution.py", "symbol_facets")}
    assert not signs


def _raises_ring_mismatch(node):
    exc = node.exc
    return (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
            and exc.func.id == "ArityMismatch" and exc.args
            and isinstance(exc.args[0], ast.Constant)
            and exc.args[0].value == "monomials from different rings")


def test_arity_checked_where_a_complex_is_built():
    """Mixed rings are refused by ``Monomial``, by ``MonomialIdeal`` and by
    ``FreeComplex`` when an ideal or a complex is built; the kernels that
    read a complex trust it."""
    found = set()
    for path, node in _package_nodes():
        if isinstance(node, ast.FunctionDef):
            found.update((path.name, node.name) for inner in ast.walk(node)
                         if isinstance(inner, ast.Raise)
                         and _raises_ring_mismatch(inner))
    assert ("resolution.py", "__init__") in found
    assert ("ideals.py", "__init__") in found
    assert {name for name, _ in found} <= {"monomials.py", "ideals.py",
                                           "resolution.py"}
    assert "composite_terms" not in {fn for _, fn in found}


def test_reducer_and_kernel_carry_coefficients_only():
    """Every complex is proven multigraded when it is built and stores
    coefficients alone, so the Morse reducer's flows and sums and the
    d o d = 0 kernel read no exponent tuple: they build, add, subtract
    and compare none, unpack no (coeff, exps) entry and read no
    multidegree."""
    targets = {("morse.py", "_cancel_matching"), ("morse.py", "_add_scaled"),
               ("resolution.py", "composite_terms")}
    tuple_ops = {"add", "sub", "map", "tuple", "zip", "any", "all"}
    seen = set()
    found = []
    for path, node in _package_nodes():
        if not (isinstance(node, ast.FunctionDef)
                and (path.name, node.name) in targets):
            continue
        seen.add((path.name, node.name))
        for inner in ast.walk(node):
            if isinstance(inner, (ast.For, ast.comprehension)):
                nested = (isinstance(inner.target, ast.Tuple)
                          and any(isinstance(e, ast.Tuple)
                                  for e in inner.target.elts))
            else:
                nested = False
            if (nested
                    or isinstance(inner, ast.Name) and inner.id in tuple_ops
                    or isinstance(inner, ast.Attribute)
                    and inner.attr in ("multidegree", "exps")
                    or isinstance(inner, ast.Subscript)
                    and isinstance(inner.slice, ast.Constant)):
                found.append("%s:%d" % (path.name, inner.lineno))
    assert seen == targets
    assert not found


def test_one_level_wide_d_o_d_kernel():
    """d o d = 0 has one kernel, ``composite_terms(diffs, i)``, and it
    sweeps a whole level: it takes no column.  ``check_complex`` and
    ``_cancel_matching`` are its callers, and each calls it inside one
    loop, the loop over levels, never inside a loop over columns."""
    loops = (ast.For, ast.While, ast.comprehension)
    params = None
    calls = []
    for path, node in _package_nodes():
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name == "composite_terms":
            params = [a.arg for a in node.args.args]
        parent = {child: outer for outer in ast.walk(node)
                  for child in ast.iter_child_nodes(outer)}
        for inner in ast.walk(node):
            if (isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id == "composite_terms"):
                # loops whose body, not whose iterable, holds the call
                depth = 0
                up = inner
                while up is not node:
                    up, below = parent[up], up
                    depth += (isinstance(up, loops)
                              and below is not getattr(up, "iter", None))
                calls.append((path.name, node.name, len(inner.args), depth))
    assert params == ["diffs", "i"]
    assert sorted(calls) == [("morse.py", "_cancel_matching", 2, 1),
                             ("verify.py", "check_complex", 2, 1)]


def test_betti_route_runs_no_reducer():
    """``betti`` reads the Betti numbers from the scalar part of the
    symbol complex, and the Taylor oracle from that of the Taylor
    complex; their command, the kernel, the oracle and the invariants
    they feed name neither the Morse layer nor its reducer, and
    ``verify`` imports nothing from ``morse``: the checker does not run
    the reduction it checks."""
    targets = {("cli.py", "_cmd_betti"), ("verify.py", "scalar_betti"),
               ("verify.py", "homological_invariants"),
               ("verify.py", "oracle_betti")}
    banned = {"minimize", "morse", "_cancel_matching", "_add_scaled"}
    seen = set()
    found = []
    for path, node in _package_nodes():
        if not (isinstance(node, ast.FunctionDef)
                and (path.name, node.name) in targets):
            continue
        seen.add((path.name, node.name))
        for inner in ast.walk(node):
            name = (inner.id if isinstance(inner, ast.Name)
                    else inner.attr if isinstance(inner, ast.Attribute)
                    else None)
            if name in banned:
                found.append("%s:%d" % (path.name, inner.lineno))
    assert seen == targets
    assert not found
    assert not ["%s:%d" % (path.name, node.lineno)
                for path, node in _package_nodes()
                if path.name == "verify.py"
                and isinstance(node, ast.ImportFrom)
                and node.level == 1 and node.module == "morse"]


def test_integers_only_and_one_reduction_path():
    """Every coefficient is an ``int`` and every pivot +-1, so no module
    imports ``fractions``; and ``minimize`` is the one reduction path:
    ``morse`` defines neither a sweep for leftover units (``least_unit``)
    nor a second entry point (``morse_reduce``), and the sum over gradient
    paths has no eliminating reducer beside it (``_Reducer``, with its
    ``cancel``, ``_set`` and ``compact``).  Each fact is proved once: the
    reduced complex lists its own units, and ``_cancel_matching`` checks
    d o d = 0 on all of it, so no scan for units (``unit_classes``) or
    check of changed columns (``_local_check``) comes back."""
    found = []
    for path, node in _package_nodes():
        if (isinstance(node, ast.Import)
                and any(a.name == "fractions" for a in node.names)
                or isinstance(node, ast.ImportFrom)
                and node.module == "fractions"
                or path.name == "morse.py"
                and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name in ("least_unit", "morse_reduce",
                                  "unit_classes", "_local_check",
                                  "_Reducer", "cancel", "_set",
                                  "compact")):
            found.append("%s:%d" % (path.name, node.lineno))
    assert not found


def test_every_import_is_used():
    """Every name a module imports is read in it, or exported by its
    ``__all__``: an import that outlives its last use goes with it."""
    imported = {}
    used = set()
    for path, node in _package_nodes():
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[path.name, name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add((path.name, node.id))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update((path.name, e.value) for e in node.value.elts)
    assert not ["%s:%d %s" % (module, line, name)
                for (module, name), line in imported.items()
                if (module, name) not in used]


def test_text_files_opened_with_an_encoding():
    """A text-mode ``open`` names its encoding: without one, Python takes
    the locale's, and a file that the locale cannot decode fails with a
    ``UnicodeDecodeError`` traceback instead of exit code 2."""
    opened = []
    found = []
    for path, node in _package_nodes():
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        opened.append("%s:%d" % (path.name, node.lineno))
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        binary = (isinstance(mode, ast.Constant)
                  and isinstance(mode.value, str) and "b" in mode.value)
        if not binary and not any(k.arg == "encoding"
                                  for k in node.keywords):
            found.append(opened[-1])
    assert opened
    assert not found


def test_monomials_are_made_only_at_the_input_boundary():
    """An ideal's generators are the only ``Monomial``s: the class is
    called only in ``monomials``, and a ring makes one (``.monomial(``,
    ``.unit(``) only where input is parsed (``cli``) or drawn
    (``verify.random_quasi_stable``).  From the completion on, the basis
    side computes on exponent tuples."""
    drawn = set()
    for path, node in _package_nodes():
        if (path.name == "verify.py" and isinstance(node, ast.FunctionDef)
                and node.name == "random_quasi_stable"):
            drawn.update(range(node.lineno, node.end_lineno + 1))
    assert drawn
    allowed = set()
    found = []
    for path, node in _package_nodes():
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        where = "%s:%d" % (path.name, node.lineno)
        if name == "Monomial" and path.name != "monomials.py":
            found.append(where)
        elif isinstance(func, ast.Attribute) and name in ("monomial", "unit"):
            if path.name == "cli.py" or (path.name == "verify.py"
                                         and node.lineno in drawn):
                allowed.add(path.name)
            else:
                found.append(where)
    assert allowed == {"cli.py", "verify.py"}
    assert not found


def test_cells_are_read_by_position():
    """``supports_check`` reads cell j of dimension i with generator j of
    level i, and finds a facet by its position one dimension down: it
    sorts nothing and reads no index of all cells, and ``CellComplex``
    keeps none (``lookup``), nor a ``dimension`` that nothing reads."""
    path = Path(pommaret.__file__).parent / "cellular.py"
    top = {node.name: node for node in ast.parse(path.read_text()).body
           if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    members = set()
    for node in ast.walk(top["CellComplex"]):
        if isinstance(node, ast.FunctionDef):
            members.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Store):
            members.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets]
              == ["__slots__"]):
            members.update(e.value for e in node.value.elts)
    assert {"__init__", "basis", "cells"} <= members
    assert not members & {"lookup", "dimension"}
    found = []
    for node in ast.walk(top["supports_check"]):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sorted"
                or isinstance(node, ast.Attribute) and node.attr == "lookup"):
            found.append("cellular.py:%d" % node.lineno)
    assert not found


def test_cells_on_bitmasks_and_one_cells_writer():
    """The support check runs on vertex masks and multidegree codes, so
    ``cellular`` names no ``frozenset``.
    ``cli._cells_json`` is the one cells writer: it yields the document
    record by record and is the only function that reads the record
    templates (``_CELL``, ``_FACET``); ``cellular`` builds no document
    (``to_json_dict``), and ``_cmd_cellular`` writes its JSON through
    ``_cells_json``, never through ``_json_text``."""
    found = []
    readers = set()
    for path, node in _package_nodes():
        if (path.name == "cellular.py" and isinstance(node, ast.Name)
                and node.id == "frozenset"
                or path.name == "cellular.py"
                and isinstance(node, ast.FunctionDef)
                and node.name == "to_json_dict"):
            found.append("%s:%d" % (path.name, node.lineno))
        if isinstance(node, ast.FunctionDef):
            if any(isinstance(inner, ast.Name)
                   and inner.id in ("_CELL", "_FACET")
                   for inner in ast.walk(node)):
                readers.add((path.name, node.name))
    assert not found
    assert readers == {("cli.py", "_cells_json")}
    path = Path(pommaret.__file__).parent / "cli.py"
    top = {node.name: node for node in ast.parse(path.read_text()).body
           if isinstance(node, ast.FunctionDef)}
    assert any(isinstance(node, ast.Yield)
               for node in ast.walk(top["_cells_json"]))
    called = {node.func.id for node in ast.walk(top["_cmd_cellular"])
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)}
    assert "_cells_json" in called and "_json_text" not in called
