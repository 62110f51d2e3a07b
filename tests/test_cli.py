import argparse
import gc
import inspect
import json
import math
import sys
import tracemalloc

import pytest

from helpers import (REPRODUCERS, make_ideal_stable2,
                     positive_dimensional_ideals, random_stable,
                     reference_cells_doc)
from pommaret import (build_cell_complex, check_exactness, cli,
                      homological_invariants, pommaret_basis, ps_complex,
                      random_quasi_stable, scalar_betti)
from pommaret.errors import (EmptyInput, IdealSyntaxError, UnitGenerator)


A_TEXT = "vars 2\nx1^2\nx2^3\n"
B_TEXT = ("vars 3\n"
          "names x, y, z\n"
          "x^2      # the only pure power in x\n"
          "y^4\n"
          "y^2*z^2\n"
          "z^3\n")


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_basic():
    ideal = cli.parse_ideal(A_TEXT)
    assert ideal.ring.n == 2
    assert [g.exps for g in ideal.gens] == [(2, 0), (0, 3)]


def test_parse_names_vectors_comments():
    text = ("# leading comment\n"
            "vars 3\n"
            "names x, y, z\n"
            "\n"
            "x^2\n"
            "[0, 4, 0]   # y^4 as a vector\n"
            "y^2*z^2\n"
            "x3^3\n")       # index form keeps working next to names
    ideal = cli.parse_ideal(text)
    assert ideal.ring.names == ("x", "y", "z")
    assert sorted(g.exps for g in ideal.gens) == [
        (0, 0, 3), (0, 2, 2), (0, 4, 0), (2, 0, 0)]


def test_parse_repeated_factors_accumulate():
    ideal = cli.parse_ideal("vars 2\nx1*x1*x2\n")
    assert [g.exps for g in ideal.gens] == [(2, 1)]


def test_parse_errors_carry_position():
    with pytest.raises(IdealSyntaxError) as e:
        cli.parse_ideal("hello\n")
    assert e.value.line == 1
    with pytest.raises(IdealSyntaxError) as e:
        cli.parse_ideal("vars 2\nx1^2\nw^2\n")
    assert e.value.line == 3
    assert "line 3" in e.value.message
    with pytest.raises(IdealSyntaxError) as e:
        cli.parse_ideal("vars 2\nx1^^2\n")
    assert e.value.line == 2
    with pytest.raises(IdealSyntaxError):
        cli.parse_ideal("vars 2\n[1, 2, 3]\n")
    with pytest.raises(IdealSyntaxError):
        cli.parse_ideal("vars 2\n[1, -2]\n")
    with pytest.raises(IdealSyntaxError):
        cli.parse_ideal("vars 2\n[1, 2\n")
    with pytest.raises(IdealSyntaxError):
        cli.parse_ideal("vars 2\n[one, two]\n")
    with pytest.raises(IdealSyntaxError):
        cli.parse_ideal("vars 3\nnames x, y\nx^2\n")
    # names that would make the file ambiguous: two names for one
    # variable, or a name that reads as the unit monomial
    for text, col in (("vars 2\nnames a,a\na^2\na^3\n", 9),
                      ("vars 2\nnames 1,y\n[1,0]\n", 7),
                      ("vars 2\nnames  x, y z\nx\n", 11)):
        with pytest.raises(IdealSyntaxError) as e:
            cli.parse_ideal(text)
        assert (e.value.line, e.value.col) == (2, col)
    # integers are ASCII decimal digits, with no sign and no underscore; a
    # vector entry's minus sign still reads as a negative exponent
    for text, message in (
            ("vars 2\n[1_0,2]\n", "line 2, col 1: exponent vector needs "
                                 "integers"),
            ("vars 2\n[ 3 , +2 ]\n", "line 2, col 1: exponent vector needs "
                                    "integers"),
            ("vars 2\n[\u0663,1]\n", "line 2, col 1: exponent vector needs "
                                    "integers"),
            ("vars 2\nx1^\u0663*x2\n", "line 2, col 1: bad factor "
                                      "'x1^\u0663'"),
            ("vars \u0662\n[1,0]\n", "line 1, col 1: expected 'vars <n>' "
                                     "header"),
            ("vars 2\n[ -1 , 2 ]\n", "line 2, col 1: negative exponent")):
        with pytest.raises(IdealSyntaxError) as e:
            cli.parse_ideal(text)
        assert e.value.message == message
    with pytest.raises(IdealSyntaxError):
        cli.parse_ideal("vars 0\n")
    with pytest.raises(IdealSyntaxError):
        cli.parse_ideal("")
    with pytest.raises(EmptyInput):
        cli.parse_ideal("vars 2\n# nothing\n")
    with pytest.raises(UnitGenerator):
        cli.parse_ideal("vars 2\n1\n")


def test_basis_command(tmp_path, capsys):
    path = write(tmp_path, "a.ideal", A_TEXT)
    assert cli.main(["basis", path]) == 0
    out = capsys.readouterr().out
    assert "4 elements" in out
    assert "x1^2*x2^2" in out and "cls=2" in out


def test_json_outputs_are_byte_stable(tmp_path, capsys):
    path = write(tmp_path, "b.ideal", B_TEXT)
    runs = []
    for _ in range(2):
        assert cli.main(["resolution", path, "--format", "json"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    doc = json.loads(runs[0])
    assert doc["n"] == 3
    assert [len(m) for m in doc["modules"]] == [14, 23, 10]


def _stdlib_json(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _vector_text(ideal):
    return "vars %d\n" % ideal.ring.n + "".join(
        "[%s]\n" % ",".join(map(str, g.exps)) for g in ideal.gens)


def test_json_writer_matches_stdlib(tmp_path, capsys):
    texts = [A_TEXT, B_TEXT]
    for ideal in (random_quasi_stable(3, 3, 4, 3),
                  random_quasi_stable(9, 4, 3, 2),
                  random_quasi_stable(21, 4, 4, 4),
                  make_ideal_stable2(), random_stable(100)):
        texts.append(_vector_text(ideal))
    commands = (["basis"], ["pgraph"], ["resolution", "--variant", "ps"],
                ["resolution", "--variant", "taylor"], ["cellular"],
                ["minimize"], ["betti"], ["verify"])
    checked = 0
    for i, text in enumerate(texts):
        path = write(tmp_path, "%d.ideal" % i, text)
        for command in commands:
            code = cli.main([command[0], path, "--format", "json"]
                            + command[1:])
            out = capsys.readouterr().out
            assert code == 0
            # the documents hold only types json reads back exactly
            assert out == _stdlib_json(json.loads(out))
            checked += 1
    assert checked == 8 * len(texts)
    docs = [
        [], {}, [[]], [{}], {"a": [], "b": {}}, [[], [[]], {"": {}}],
        [1, True, 2], [False, 0], [None, 3], [0, -1, 2 ** 64, -(2 ** 70)],
        {"t": True, "f": False, "n": None, "i": -7},
        ["quote \" back \\ slash", "tab\tnl\ncr\r\x00\x1f\x7f",
         "caf\u00e9 \u2603 \U0001f600", ""],
        {"\u00e9": 1, "a\"b": [2], "\n": {"z": "y"}, "B": 0, "b": [3, [4]]},
        # lists that equal a memoized int list but hold bools
        [[1, 1, 2], [1, True, 2]], [[1, True, 2], [1, 1, 2]],
        [[0, 0], [False, 0]],
        # one int list at three depths, and a repeat of big ints
        {"a": [3, 1], "b": [[3, 1], {"c": [[3, 1]]}], "d": [3, 1]},
        [[2 ** 64, -1], [2 ** 64, -1]],
    ]
    for doc in docs:
        assert cli._json_text(doc) == _stdlib_json(doc)


def test_json_writer_matches_stdlib_on_large_documents(tmp_path, capsys):
    # the documents of the reproducers hold thousands of repeated
    # exponent vectors
    commands = (["cellular"], ["resolution", "--variant", "ps"],
                ["minimize"])
    for i, args in enumerate(REPRODUCERS):
        path = write(tmp_path, "%d.ideal" % i,
                     _vector_text(random_quasi_stable(*args)))
        for command in commands:
            assert cli.main([command[0], path, "--format", "json"]
                            + command[1:]) == 0
            out = capsys.readouterr().out
            assert out == _stdlib_json(json.loads(out))


@pytest.mark.parametrize("doc", [1.5, [1, 2.0], (1, 2), {"a": (1,)}, {1, 2},
                                 {"a": {3}}, {1: 2}, {"a": {None: 1}},
                                 [{(1,): 2}], [[1, 2], [1, 2.0]]])
def test_json_writer_rejects_other_types(doc):
    with pytest.raises(TypeError):
        cli._json_text(doc)


def _int_lists(x, nl, found):
    """Append (items, nl) for every nonempty list of ints in x, written on
    a line that starts with nl."""
    if type(x) is dict:
        for v in x.values():
            _int_lists(v, nl + "  ", found)
    elif type(x) is list and x:
        if all(type(v) is int for v in x):
            found.append((tuple(x), nl))
        for v in x:
            _int_lists(v, nl + "  ", found)
    return found


def test_json_writer_renders_each_int_list_once(ideal_b, monkeypatch):
    doc = reference_cells_doc(build_cell_complex(pommaret_basis(ideal_b)))
    renders = []
    render = cli._int_list_text

    def counting_render(x, nl):
        renders.append((tuple(x), nl))
        return render(x, nl)

    monkeypatch.setattr(cli, "_int_list_text", counting_render)
    found = _int_lists(doc, "\n", [])
    assert len(found) > 2 * len(set(found))
    for _ in range(2):  # the memo lives for one call only
        renders.clear()
        assert cli._json_text(doc) == _stdlib_json(doc)
        assert sorted(renders) == sorted(set(found))


def test_json_writer_leaves_no_garbage(ideal_b):
    """The writer's recursive closure is freed with the call: a reference
    cycle would keep the whole output and the memo alive until the cyclic
    collector runs."""
    doc = reference_cells_doc(build_cell_complex(pommaret_basis(ideal_b)))
    gc.collect()
    gc.disable()
    try:
        cli._json_text(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cells_writer_matches_stdlib(ideal_a, ideal_b):
    """The cells document, written without the generic writer, has the
    bytes json.dumps gives the reference document, on every cell shape:
    an n = 1 ideal's cells are vertices with an empty tau and boundary."""
    line = build_cell_complex(pommaret_basis(cli.parse_ideal(
        "vars 1\nx1^3\n")))
    assert [(c.tau, c.boundary) for c in line.cells[0]] == [((), [])]
    assert "".join(cli._cells_json(line)) == _stdlib_json(
        reference_cells_doc(line))
    ideals = [ideal_a, ideal_b]
    ideals += [random_quasi_stable(*args) for args in REPRODUCERS]
    ideals += positive_dimensional_ideals()
    # n = 1..6, with max_deg 3 up to n = 3 and 2 above, where cells grow
    ideals += [random_quasi_stable(seed, 1 + seed % 6, 3 - seed % 6 // 3,
                                   seed % 4) for seed in range(100)]
    for ideal in ideals:
        cells = build_cell_complex(pommaret_basis(ideal))
        assert "".join(cli._cells_json(cells)) == _stdlib_json(
            reference_cells_doc(cells))
    assert {ideal.ring.n for ideal in ideals} == {1, 2, 3, 4, 5, 6}


def test_betti_writer_matches_stdlib(tmp_path, capsys, ideal_b):
    """betti --format json writes its records from a template; its bytes
    are json.dumps of the document built as a dict, on n = 1..6, with
    table keys "i,j" that sort as text ("1,10" before "1,3")."""
    ideals = [ideal_b] + [random_quasi_stable(seed, 1 + seed % 6,
                                              2 + seed % 3, seed % 5)
                          for seed in range(60)]
    wide = 0
    for k, ideal in enumerate(ideals):
        path = write(tmp_path, "%d.ideal" % k, _vector_text(ideal))
        assert cli.main(["betti", path, "--format", "json"]) == 0
        out = capsys.readouterr().out
        basis = pommaret_basis(ideal)
        report = homological_invariants(
            scalar_betti(ps_complex(basis)), basis)
        doc = {"betti": {"%d,%d" % key: v for key, v
                         in report.betti.by_degree.items()},
               "multigraded": [{"level": i, "multidegree": list(exps),
                                "count": v} for (i, exps), v
                               in sorted(report.betti.by_multidegree.items())],
               "pd": report.pd, "reg": report.reg,
               "pd_from_classes": report.pd_from_classes,
               "reg_from_basis": report.reg_from_basis,
               "consistent": report.consistent}
        assert out == _stdlib_json(doc)
        wide += max(j for _, j in report.betti.by_degree) >= 10
    assert {ideal.ring.n for ideal in ideals} == {1, 2, 3, 4, 5, 6}
    assert wide > 0


def test_cellular_json_skips_the_generic_writer(tmp_path, capsys,
                                                monkeypatch, ideal_b):
    """cellular --format json renders each basis element once for each
    indent it is written at, and never goes through _json_text."""
    cells = build_cell_complex(pommaret_basis(ideal_b))
    want = _stdlib_json(reference_cells_doc(cells))
    renders = []
    render = cli._int_list_text

    def counting_render(x, nl):
        renders.append((tuple(x), nl))
        return render(x, nl)

    def refuse(obj):
        raise AssertionError("the cells went through _json_text")

    monkeypatch.setattr(cli, "_int_list_text", counting_render)
    monkeypatch.setattr(cli, "_json_text", refuse)
    path = write(tmp_path, "b.ideal", B_TEXT)
    assert cli.main(["cellular", path, "--format", "json"]) == 0
    assert capsys.readouterr().out == want
    # a cell's h, a vertex and a boundary entry's h are written 6, 8 and
    # 10 spaces in, a label (per cell) 6; a tau is shorter than n
    elements = sorted(cells.basis.elements)
    at = {k: sorted(h for h, nl in renders
                    if nl == "\n" + " " * k and len(h) == 3)
          for k in (6, 8, 10)}
    assert at[8] == at[10] == elements
    assert len(at[6]) == len(elements) + sum(cells.counts())
    taus = [(t, nl) for t, nl in renders if len(t) < 3]
    assert len(taus) == len(set(taus)) == 2 * len({t for t, _ in taus})


def test_cellular_streams_the_same_bytes_to_stdout_and_a_file(
        tmp_path, capsys):
    """cellular writes its output piece by piece, as it is made: stdout
    and --out get the same bytes in every format, and the JSON ones are
    json.dumps's of the reference document."""
    texts = [B_TEXT] + [_vector_text(random_quasi_stable(*args))
                        for args in REPRODUCERS]
    texts.append(_vector_text(random_quasi_stable(0, 6, 2, 3)))
    for k, text in enumerate(texts):
        path = write(tmp_path, "%d.ideal" % k, text)
        cells = build_cell_complex(pommaret_basis(cli.parse_ideal(text)))
        for fmt in ("json", "text", "dot"):
            assert cli.main(["cellular", path, "--format", fmt]) == 0
            out = capsys.readouterr().out
            dest = tmp_path / ("%d.%s" % (k, fmt))
            assert cli.main(["cellular", path, "--format", fmt,
                             "--out", str(dest)]) == 0
            assert capsys.readouterr().out == ""
            assert dest.read_bytes() == out.encode("utf-8")
            if fmt == "json":
                assert out == _stdlib_json(reference_cells_doc(cells))
    assert cli.parse_ideal(texts[-1]).ring.n == 6


def test_cells_document_is_never_held_whole(tmp_path):
    """With the cells built, writing their document to a file peaks
    below half of the document's length: the records go to the file as
    they are made, where a whole string and its pieces took about three
    times that length."""
    cells = build_cell_complex(pommaret_basis(random_quasi_stable(
        *REPRODUCERS[-1])))
    dest = tmp_path / "cells.json"
    tracemalloc.start()
    try:
        cli._emit(argparse.Namespace(out=str(dest)), cli._cells_json(cells))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = dest.stat().st_size
    assert size > 500000
    assert peak < size / 2


def test_out_flag_writes_file(tmp_path, capsys):
    path = write(tmp_path, "a.ideal", A_TEXT)
    dest = tmp_path / "basis.json"
    assert cli.main(["basis", path, "--format", "json",
                     "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(dest.read_text())
    assert [e["cls"] for e in doc["elements"]] == [1, 1, 1, 2]


def test_pgraph_formats(tmp_path, capsys):
    path = write(tmp_path, "a.ideal", A_TEXT)
    assert cli.main(["pgraph", path]) == 0
    text = capsys.readouterr().out
    assert "4 vertices, 3 edges" in text
    assert cli.main(["pgraph", path, "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph") and "t=x1^2" in dot
    assert cli.main(["pgraph", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["edges"]) == 3


def test_resolution_variants(tmp_path, capsys):
    path = write(tmp_path, "a.ideal", A_TEXT)
    assert cli.main(["resolution", path]) == 0
    assert "pommaret resolution, ranks 4  3" in \
        capsys.readouterr().out
    assert cli.main(["resolution", path, "--variant", "taylor",
                     "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["modules"][1][0]["face"] == [0, 1]
    # the symbol complex of a stable ideal is its EK resolution; there is
    # no separate variant
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["resolution", path, "--variant", "ek"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "invalid choice: 'ek'" in captured.err and captured.out == ""


def test_cellular_formats(tmp_path, capsys):
    path = write(tmp_path, "b.ideal", B_TEXT)
    assert cli.main(["cellular", path]) == 0
    assert "cells by dimension: 14  23  10" in capsys.readouterr().out
    assert cli.main(["cellular", path, "--format", "dot"]) == 0
    assert 'pos="' in capsys.readouterr().out
    assert cli.main(["cellular", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["cells"]) == 47


def test_minimize_command_and_trace(tmp_path, capsys):
    path = write(tmp_path, "b.ideal", B_TEXT)
    trace = tmp_path / "trace.jsonl"
    assert cli.main(["minimize", path, "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "|V_3| = 13" in out and "|V_2| = 5" in out
    assert "safety net cancellations: 0" in out
    assert "reduced resolution, ranks 4  5  2" in out
    lines = trace.read_text().splitlines()
    assert len(lines) == 18
    rec = json.loads(lines[0])
    assert set(rec) == {"level", "source", "target", "source_text",
                        "target_text", "var", "lambda", "updated"}


def test_betti_command(tmp_path, capsys):
    path = write(tmp_path, "b.ideal", B_TEXT)
    assert cli.main(["betti", path]) == 0
    out = capsys.readouterr().out
    assert "beta_0,2 = 1" in out
    assert "beta_2,8 = 1" in out
    assert "pd  = 2 (classes predict 2)" in out
    assert "reg = 6 (basis degree 6)" in out
    assert cli.main(["betti", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["consistent"] is True
    assert doc["betti"]["1,5"] == 2
    assert doc["pd"] == 2 and doc["reg"] == 6


def test_verify_command(tmp_path, capsys):
    path = write(tmp_path, "a.ideal", A_TEXT)
    assert cli.main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "verdict: ok" in out
    for name in ("complex-axioms", "cell-support", "matching-valid",
                 "safety-net-silent", "exactness", "betti-vs-oracle"):
        assert name in out
    assert cli.main(["verify", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert all(c["ok"] for c in doc["checks"])


def test_verify_checks_each_complex_once(tmp_path, capsys, monkeypatch):
    # the symbol complex and the reduced complex are each checked once;
    # the exactness reports carry those results to the verify lines.  The
    # Taylor oracle proves its own complex once.  The counter also sits
    # under the CLI's own name, so a direct call from the CLI would be
    # counted too
    import pommaret.verify
    calls = []
    check = pommaret.verify.check_complex

    def counting_check(cplx):
        calls.append(cplx.provenance)
        return check(cplx)

    monkeypatch.setattr(pommaret.verify, "check_complex", counting_check)
    monkeypatch.setattr(cli, "check_complex", counting_check, raising=False)
    path = write(tmp_path, "b.ideal", B_TEXT)
    assert cli.main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "complex-axioms           ok  (0 failures)" in out
    assert "reduced-complex-axioms   ok\n" in out
    assert sorted(calls) == ["pommaret", "reduced", "taylor"]


def test_verify_builds_the_matching_once(tmp_path, capsys, monkeypatch):
    # verify reads the matching V off the reduced complex that minimize
    # built it for, and minimize scans V's candidate edges once, also
    # where it completes V (the reproducer)
    import pommaret.morse
    calls = []
    scan = pommaret.morse._candidates

    def counting_scan(cplx):
        calls.append(cplx.provenance)
        return scan(cplx)

    monkeypatch.setattr(pommaret.morse, "_candidates", counting_scan)
    path = write(tmp_path, "b.ideal", B_TEXT)
    assert cli.main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "matching-valid           ok  (18 pairs)" in out
    assert calls == ["pommaret"]
    calls.clear()
    path = write(tmp_path, "short.ideal",
                 _vector_text(random_quasi_stable(*REPRODUCERS[1])))
    assert cli.main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "matching-valid           ok  (79 pairs)" in out
    assert calls == ["pommaret"]


def test_verify_checks_the_matching_once(tmp_path, capsys, monkeypatch):
    # minimize checks the matching V on the symbol complex before it
    # evaluates a flow (the unit and acyclicity test of is_morse_matching,
    # whose walk also orders the flows); the matching-valid line reports
    # that check, and the Taylor route of betti-vs-oracle runs no reducer,
    # so no matching
    import pommaret.morse
    calls = []
    check = pommaret.morse._orders

    def counting_check(cplx, matching):
        calls.append(cplx.provenance)
        return check(cplx, matching)

    monkeypatch.setattr(pommaret.morse, "_orders", counting_check)
    path = write(tmp_path, "b.ideal", B_TEXT)
    assert cli.main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "matching-valid           ok  (18 pairs)" in out
    assert calls == ["pommaret"]


def test_random_test_command(capsys):
    assert cli.main(["random-test", "--count", "2",
                     "--strand-cap", "200"]) == 0
    out = capsys.readouterr().out
    assert "2/2 cases ok" in out


def test_random_test_reports_a_case_that_raises(capsys, monkeypatch):
    # a typed error in one case is that case's FAIL line, with its code and
    # seed; the other cases still run and print what they print unpatched
    from pommaret.errors import NotMinimal
    argv = ["random-test", "--count", "5", "--seed", "3"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out.splitlines()
    minimize = cli.minimize
    calls = []

    def failing_third(cplx):
        calls.append(cplx)
        if len(calls) == 3:
            raise NotMinimal("forced")
        return minimize(cplx)

    monkeypatch.setattr(cli, "minimize", failing_third)
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[2].startswith("case 2 seed 5: FAIL (error [not-minimal]: "
                               "forced)  ideal MonomialIdeal(")
    assert lines[:2] + lines[3:5] == want[:2] + want[3:5]
    assert lines[5:] == ["4/5 cases ok"]
    assert len(calls) == 5


def test_verify_caps_only_a_larger_lattice(tmp_path, capsys):
    # the lcm lattice of (x1^2, x2^3) has 5 points, and that of its reduced
    # complex 3: a cap equal to a lattice's size checks all of it and is
    # not capped, a smaller one is
    path = write(tmp_path, "a.ideal", A_TEXT)
    for cap, full, reduced in ((6, "5 strands", "3 strands"),
                               (5, "5 strands", "3 strands"),
                               (4, "4 strands, capped", "3 strands"),
                               (3, "3 strands, capped", "3 strands"),
                               (2, "2 strands, capped", "2 strands, capped")):
        assert cli.main(["verify", path, "--strand-cap", str(cap)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "%-24s ok  (%s)" % ("exactness", full) in lines
        assert "%-24s ok  (%s)" % ("reduced-exactness", reduced) in lines


def test_taylor_resolution_is_bounded(tmp_path, capsys, monkeypatch):
    # m generators x_i*x_{m+1} make 2^m - 1 Taylor faces; above
    # MAX_TAYLOR_GENS the command exits 2 before any face is built
    assert cli.MAX_TAYLOR_GENS == 12
    built = []
    taylor = cli.taylor_complex

    def counting_taylor(ideal):
        built.append(len(ideal.gens))
        return taylor(ideal)

    monkeypatch.setattr(cli, "taylor_complex", counting_taylor)
    paths = {m: write(tmp_path, "t%d.ideal" % m, "vars %d\n" % (m + 1)
                      + "".join("x%d*x%d\n" % (i, m + 1)
                                for i in range(1, m + 1)))
             for m in (12, 13)}
    assert cli.main(["resolution", paths[13], "--variant", "taylor",
                     "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and built == []
    assert captured.err == ("error [too-many-generators]: the Taylor "
                            "resolution takes at most 12 minimal generators, "
                            "got 13\n")
    assert cli.main(["resolution", paths[12], "--variant", "taylor",
                     "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert built == [12]
    assert [len(level) for level in doc["modules"]] == [
        math.comb(12, k) for k in range(1, 13)]


def test_verify_and_random_test_share_one_strand_cap():
    parser = cli._build_parser()
    caps = {parser.parse_args(argv).strand_cap
            for argv in (["verify", "ideal-file"], ["random-test"])}
    library = inspect.signature(check_exactness).parameters["cap"].default
    assert caps == {library} == {20000}


def test_exit_codes(tmp_path, capsys):
    bad = write(tmp_path, "bad.ideal", "vars 2\nx1\n")
    assert cli.main(["basis", bad]) == 3
    assert "[not-quasi-stable]" in capsys.readouterr().err
    syn = write(tmp_path, "syn.ideal", "vars 2\nw^2\n")
    assert cli.main(["basis", syn]) == 2
    assert "[syntax-error]" in capsys.readouterr().err
    assert cli.main(["basis", str(tmp_path / "missing.ideal")]) == 2
    capsys.readouterr()
    empty = write(tmp_path, "empty.ideal", "vars 2\n")
    assert cli.main(["basis", empty]) == 2
    assert "[empty-input]" in capsys.readouterr().err
    unit = write(tmp_path, "unit.ideal", "vars 2\n1\n")
    assert cli.main(["basis", unit]) == 2
    assert "[unit-generator]" in capsys.readouterr().err
    good = write(tmp_path, "a.ideal", A_TEXT)
    assert cli.main(["basis", good, "--format", "dot"]) == 2
    capsys.readouterr()
    assert cli.main(["verify", good, "--format", "dot"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: verify has no dot format\n"
    assert captured.out == ""
    for fmt in ("json", "dot"):
        assert cli.main(["random-test", "--count", "1",
                         "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: random-test has no %s format\n" % fmt
        assert captured.out == ""
    # a missing format is refused before the input is read or any work done
    trace = tmp_path / "trace.jsonl"
    b_path = write(tmp_path, "b.ideal", B_TEXT)
    for command in ("basis", "resolution", "minimize", "betti"):
        extra = ["--trace", str(trace)] if command == "minimize" else []
        for path in (b_path, bad):  # bad is not quasi-stable
            assert cli.main([command, path, "--format", "dot"] + extra) == 2
            captured = capsys.readouterr()
            assert captured.err == "error: %s has no dot format\n" % command
            assert captured.out == ""
    assert not trace.exists()
    # a strand cap or case count below 1 would report a check that did not
    # run as passed, and no generator has degree 0
    for option, argv in (
            ("strand-cap", ["verify", b_path, "--strand-cap=0"]),
            ("strand-cap", ["verify", b_path, "--strand-cap=-1"]),
            ("strand-cap", ["verify", b_path, "--format", "json",
                            "--strand-cap", "0"]),
            ("strand-cap", ["random-test", "--count", "1",
                            "--strand-cap=-3"]),
            ("count", ["random-test", "--count", "0"]),
            ("count", ["random-test", "--count", "-3"]),
            ("max-deg", ["random-test", "--count", "1", "--max-deg", "0"])):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "--%s: must be at least 1" % option in captured.err
        assert captured.out == ""


def _exits_2(tmp_path, capsys, data, message):
    """`basis` and `verify` on an ideal file holding data each exit 2 with
    one error line, no traceback and nothing on stdout."""
    path = tmp_path / "bad.ideal"
    path.write_bytes(data)
    for command in ("basis", "verify"):
        assert cli.main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error [syntax-error]: %s\n" % message
        assert captured.out == ""


def test_undecodable_input_exits_2(tmp_path, capsys):
    _exits_2(tmp_path, capsys, b"vars 2\n# caf\xe9\n[1,0]\n[0,2]\n",
             "line 2, col 6: not valid UTF-8")


@pytest.fixture
def int_digit_limit():
    # CPython's default limit on converting a string to an int
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on int conversion before 3.10.7")
def test_oversized_integers_exit_2(tmp_path, capsys, int_digit_limit):
    digits = b"9" * (int_digit_limit + 1)
    _exits_2(tmp_path, capsys, b"vars " + digits + b"\n[1]\n",
             "line 1, col 6: integer too long")
    _exits_2(tmp_path, capsys, b"vars 2\n[1,0]\n x2 * x1^" + digits + b"\n",
             "line 3, col 10: integer too long")
    _exits_2(tmp_path, capsys, b"vars 2\n [1, " + digits + b"]\n",
             "line 2, col 2: integer too long")
    # a variable named by its index
    _exits_2(tmp_path, capsys, b"vars 2\nx1 * x" + digits + b"\n",
             "line 2, col 7: integer too long")


def test_variable_count_is_bounded(tmp_path, capsys):
    # the ring's names are built before any generator is read, so a huge
    # count is refused from its header
    _exits_2(tmp_path, capsys, b"vars 99999999999999999999\n[1]\n",
             "line 1, col 6: at most %d variables" % cli.MAX_VARS)
    _exits_2(tmp_path, capsys, b"vars %d\nx1\n" % (cli.MAX_VARS + 1),
             "line 1, col 6: at most %d variables" % cli.MAX_VARS)
    # the bound itself is accepted: <x_n> is stable, its own basis
    path = write(tmp_path, "wide.ideal", "vars %d\nx%d\n"
                 % (cli.MAX_VARS, cli.MAX_VARS))
    assert cli.main(["basis", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == cli.MAX_VARS
    assert [e["cls"] for e in doc["elements"]] == [cli.MAX_VARS]


def test_broken_invariant_exits_4(tmp_path, capsys, monkeypatch):
    # a reducer whose d o d = 0 kernel reports a defect must fail with the
    # typed error's code, not a traceback
    import pommaret.morse
    monkeypatch.setattr(pommaret.morse, "composite_terms",
                        lambda *args: {0: {0: 1}})
    path = write(tmp_path, "a.ideal", A_TEXT)
    assert cli.main(["minimize", path]) == 4
    assert "error [broken-invariant]:" in capsys.readouterr().err


def test_betti_on_a_broken_complex_exits_4(tmp_path, capsys, monkeypatch):
    # betti ranks the scalar part of the symbol complex only after
    # check_complex has proven d o d = 0 on it; a defect there is a typed
    # error with exit code 4, and nothing is printed
    import pommaret.verify
    monkeypatch.setattr(pommaret.verify, "composite_terms",
                        lambda *args: {0: {0: 1}})
    path = write(tmp_path, "a.ideal", A_TEXT)
    assert cli.main(["betti", path]) == 4
    captured = capsys.readouterr()
    assert "error [not-a-complex]:" in captured.err
    assert captured.out == ""


def test_names_round_trip(tmp_path, capsys):
    path = write(tmp_path, "b.ideal", B_TEXT)
    assert cli.main(["basis", path]) == 0
    out = capsys.readouterr().out
    assert "y^4" in out and "x2" not in out
