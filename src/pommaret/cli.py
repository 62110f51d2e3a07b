"""Command line front end.

Ideal files: a ``vars <n>`` header (1 <= n <= ``MAX_VARS``), an optional
``names a,b,c`` line, then one monomial per line, either as a product of
named powers (``x1^2*x2``, ``y^4``), a bare ``1``, or an exponent vector
``[2,0,1]``.  ``#`` starts a comment.

Exit codes: 0 success, 2 bad input or usage (also more than
``MAX_TAYLOR_GENS`` minimal generators for ``resolution --variant
taylor``), 3 the ideal is not quasi-stable, 4 a verification failure.
"""

import argparse
import functools
import json
import re
import sys

from .cellular import build_cell_complex, supports_check
from .errors import (ArityMismatch, EmptyInput, IdealSyntaxError,
                     NotAComplex, NotQuasiStable, PommaretError,
                     TooManyGenerators, UnitGenerator)
from .ideals import MonomialIdeal, build_p_graph, pommaret_basis
from .monomials import Ring
from .morse import minimize
from .resolution import ps_complex, render_differential, taylor_complex
from .verify import (STRAND_CAP, check_complex, check_exactness,
                     homological_invariants, minimal_betti, oracle_betti,
                     random_quasi_stable, scalar_betti)

# the most variables an ideal file may declare: the ring's names are built
# before any generator is read, so a count without a bound may never finish
MAX_VARS = 1000
# the most minimal generators ``resolution --variant taylor`` takes: the
# complex has 2^m - 1 faces, and its text output, a dense grid per
# differential, grows about fourfold per generator
MAX_TAYLOR_GENS = 12
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
# integers are ASCII decimal digits: ``\d`` and ``int`` also take other
# scripts' digits, and ``int`` takes a sign and underscores too
_FACTOR = re.compile(r"(%s)\s*(?:\^\s*([0-9]+))?$" % _NAME)
_ENTRY = re.compile(r"-?[0-9]+")


def parse_ideal(text):
    """Parse an ideal file into a MonomialIdeal."""
    lines = text.splitlines()
    content = []  # (lineno, line) of each line with text outside a comment
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            content.append((lineno, line))
    if not content:
        raise IdealSyntaxError("empty file", max(len(lines), 1), 1)
    lineno, line = content.pop(0)
    m = re.match(r"vars\s+([0-9]+)$", line.strip())
    if not m:
        raise IdealSyntaxError("expected 'vars <n>' header",
                               lineno, 1 + _indent(line))
    n = _int(m.group(1), lineno, 1 + _indent(line) + m.start(1))
    if n < 1:
        raise IdealSyntaxError("need at least one variable",
                               lineno, 1 + _indent(line))
    if n > MAX_VARS:
        raise IdealSyntaxError("at most %d variables" % MAX_VARS,
                               lineno, 1 + _indent(line) + m.start(1))
    names = None
    if content and content[0][1].strip().startswith("names"):
        lineno, line = content.pop(0)
        col = _indent(line) + len("names")
        names = tuple(s.strip() for s in line[col:].split(","))
        if len(names) != n or not all(names):
            raise IdealSyntaxError("expected %d comma-separated names" % n,
                                   lineno, 1 + _indent(line))
        # a name must read back as one factor and name one variable
        for k, name in enumerate(names):
            col = line.index(name, col)
            if not re.fullmatch(_NAME, name):
                raise IdealSyntaxError("bad variable name %r" % name,
                                       lineno, 1 + col)
            if name in names[:k]:
                raise IdealSyntaxError(
                    "duplicate variable name %r" % name, lineno, 1 + col)
            col += len(name)
    ring = Ring(n, names)
    gens = [_parse_monomial(line, lineno, ring) for lineno, line in content]
    if not gens:
        raise EmptyInput("no generators in the ideal file")
    return MonomialIdeal(ring, gens)


def _indent(line):
    return len(line) - len(line.lstrip())


def _int(digits, lineno, col):
    # CPython refuses to convert a string of more digits than its limit,
    # 4300 by default
    try:
        return int(digits)
    except ValueError:
        raise IdealSyntaxError("integer too long", lineno, col)


def _parse_monomial(line, lineno, ring):
    stripped = line.strip()
    col0 = 1 + _indent(line)
    if stripped == "1":
        return ring.unit()
    if stripped.startswith("["):
        if not stripped.endswith("]"):
            raise IdealSyntaxError("unterminated exponent vector",
                                   lineno, col0)
        entries = [t.strip() for t in stripped[1:-1].split(",")]
        if not all(map(_ENTRY.fullmatch, entries)):
            raise IdealSyntaxError("exponent vector needs integers",
                                   lineno, col0)
        exps = [_int(t, lineno, col0) for t in entries]
        if len(exps) != ring.n:
            raise IdealSyntaxError(
                "expected %d exponents, got %d" % (ring.n, len(exps)),
                lineno, col0)
        if any(e < 0 for e in exps):
            raise IdealSyntaxError("negative exponent", lineno, col0)
        return ring.monomial(exps)
    exps = [0] * ring.n
    pos = 0
    for piece in stripped.split("*"):
        col = col0 + stripped.find(piece, pos)
        pos = stripped.find(piece, pos) + len(piece)
        m = _FACTOR.match(piece.strip())
        if not m:
            raise IdealSyntaxError("bad factor %r" % piece.strip(),
                                   lineno, col)
        name = m.group(1)
        exp = (_int(m.group(2), lineno, col + _indent(piece) + m.start(2))
               if m.group(2) else 1)
        if name in ring.names:
            idx = ring.names.index(name)
        else:
            mv = re.match(r"x([0-9]+)$", name)
            k = (_int(mv.group(1), lineno, col + _indent(piece) + 1)
                 if mv else 0)
            if not 1 <= k <= ring.n:
                raise IdealSyntaxError("unknown variable %r" % name,
                                       lineno, col)
            idx = k - 1
        exps[idx] += exp
    return ring.monomial(exps)


def _emit(args, text):
    """Write a command's output to ``--out``, or else to stdout.  text is
    one str, or an iterable of strs written as they are made, so that a
    document yielded record by record is never held whole."""
    if isinstance(text, str):
        text = (text,)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(text)
    else:
        sys.stdout.writelines(text)


def _json_text(obj):
    """A document's text: ``json.dumps(obj, sort_keys=True, indent=2)``
    and a newline.  Given an indent, ``json`` encodes in pure Python, so
    the cells and Betti documents, which the cells-n8 and betti-n6
    workloads measure, have template writers that give the same bytes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _int_list_text(x, nl):
    """The JSON text of a list of ints whose line starts with nl."""
    return _list_text(list(map(str, x)), nl)


def _list_text(texts, nl):
    """The JSON text of a list, given its items' texts, whose line starts
    with nl."""
    if not texts:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(texts) + nl + "]"


# a cell and a boundary entry of the cells document, keys in sorted order
_CELL = ('{\n      "boundary": %s,\n      "dim": %d,\n      "h": %s,'
         '\n      "label": %s,\n      "tau": %s,\n      "vertices": %s\n    }')
_FACET = ('{\n          "h": %s,\n          "sign": %d,\n          "tau": %s'
          '\n        }')


def _cells_json(cells):
    """Yield the cells document, with the bytes ``_json_text`` gives its
    dict, straight from the cells and one record at a time: the first
    piece ends with the first cell's record, each later one holds the next
    record, and the last closes the document.  ``_emit`` writes the pieces as they come.
    Each basis element and tau is rendered once per indent, and each
    boundary entry once per (facet, sign) within a dimension."""
    elements = cells.basis.elements
    nl6, nl8, nl10 = "\n      ", "\n        ", "\n          "
    h6, h8, h10 = ([_int_list_text(h, nl) for h in elements]
                   for nl in (nl6, nl8, nl10))
    # a boundary entry is a cell, so its tau is among the cells' taus
    taus = {c.tau for layer in cells.cells for c in layer}
    tau6, tau10 = ({t: _int_list_text(t, nl) for t in taus}
                   for nl in (nl6, nl10))
    head = '{\n  "cells": '
    sep = head + "[\n    "
    for layer in cells.cells:
        facets = {}  # ((alpha, tau), sign) -> text, for this dimension
        for c in layer:
            entries = []
            for entry in c.boundary:
                text = facets.get(entry)
                if text is None:
                    (a, t), s = entry
                    text = facets[entry] = _FACET % (h10[a], s, tau10[t])
                entries.append(text)
            yield sep + _CELL % (
                _list_text(entries, nl6), c.dim, h6[c.alpha],
                _int_list_text(c.label, nl6), tau6[c.tau],
                _list_text([h8[v] for v in c.vertices], nl6))
            sep = ",\n    "
    # sep starts with a comma once a record is out
    yield ('\n  ]' if sep[0] == "," else head + "[]") + (
        ',\n  "n": %d\n}\n' % cells.basis.ring.n)


# a multigraded record of the Betti document, keys in sorted order
_BETTI = ('{\n      "count": %d,\n      "level": %d,\n      "multidegree": %s'
          '\n    }')


def _betti_json(report):
    """The Betti document, with the bytes ``_json_text`` gives its dict,
    each multigraded record from ``_BETTI``; keys "i,j" sort as text, and
    no table is empty."""
    betti = report.betti
    totals = sorted(("%d,%d" % k, v) for k, v in betti.by_degree.items())
    records = [_BETTI % (v, i, _int_list_text(exps, "\n      "))
               for (i, exps), v in sorted(betti.by_multidegree.items())]
    return ('{\n  "betti": {\n    %s\n  },\n  "consistent": %s,'
            '\n  "multigraded": %s,\n  "pd": %d,\n  "pd_from_classes": %d,'
            '\n  "reg": %d,\n  "reg_from_basis": %d\n}\n') % (
        ",\n    ".join(['"%s": %d' % kv for kv in totals]),
        "true" if report.consistent else "false",
        _list_text(records, "\n  "), report.pd, report.pd_from_classes,
        report.reg, report.reg_from_basis)


def _load(args):
    with open(args.path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        # the line and column of the first byte that does not decode
        lines = (data[:e.start].decode("utf-8") + "#").splitlines()
        raise IdealSyntaxError("not valid UTF-8", len(lines), len(lines[-1]))
    return parse_ideal(text)


def _cmd_basis(args):
    basis = pommaret_basis(_load(args))
    text = basis.ring.text
    pairs = list(zip(basis.elements, basis.classes))
    if args.fmt == "json":
        _emit(args, _json_text({
            "n": basis.ring.n,
            "elements": [{"monomial": text(h), "exps": list(h), "cls": c}
                         for h, c in pairs]}))
    else:
        lines = ["Pommaret basis, %d elements:" % len(basis)]
        for i, (h, c) in enumerate(pairs):
            lines.append("%3d: %-20s cls=%d" % (i, text(h), c))
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_pgraph(args):
    graph = build_p_graph(pommaret_basis(_load(args)))
    basis = graph.basis
    text = basis.ring.text
    if args.fmt == "dot":
        _emit(args, graph.to_dot())
    elif args.fmt == "json":
        _emit(args, _json_text({
            "vertices": [text(h) for h in basis.elements],
            "edges": [{"from": a, "var": k, "to": b, "t": text(t)}
                      for (a, k, b, t) in graph.edges]}))
    else:
        lines = ["%d vertices, %d edges" % (len(basis), len(graph.edges))]
        for (a, k, b, t) in graph.edges:
            lines.append("%s --%s--> %s  (t=%s)" % (
                text(basis.elements[a]), basis.ring.names[k - 1],
                text(basis.elements[b]), text(t)))
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _resolution_for(args, ideal):
    if args.variant == "taylor":
        if len(ideal.gens) > MAX_TAYLOR_GENS:
            raise TooManyGenerators(
                "the Taylor resolution takes at most %d minimal generators, "
                "got %d" % (MAX_TAYLOR_GENS, len(ideal.gens)))
        return taylor_complex(ideal)
    return ps_complex(pommaret_basis(ideal))


def _render_complex_text(cplx):
    lines = ["%s resolution, ranks %s" % (
        cplx.provenance, "  ".join(str(r) for r in cplx.ranks()))]
    for i, level in enumerate(cplx.levels):
        lines.append("F_%d: %s" % (i, "  ".join(map(cplx.text, level))))
    for i in range(1, len(cplx.levels)):
        lines.append("")
        lines.append(render_differential(cplx, i))
    return "\n".join(lines) + "\n"


def _cmd_resolution(args):
    cplx = _resolution_for(args, _load(args))
    if args.fmt == "json":
        _emit(args, _json_text(cplx.to_json_dict()))
    else:
        _emit(args, _render_complex_text(cplx))
    return 0


def _cmd_cellular(args):
    cells = build_cell_complex(pommaret_basis(_load(args)))
    if args.fmt == "dot":
        _emit(args, cells.to_dot())
    elif args.fmt == "json":
        _emit(args, _cells_json(cells))
    else:
        lines = ["cells by dimension: %s" %
                 "  ".join(str(c) for c in cells.counts())]
        ring = cells.basis.ring
        shown = [ring.text(h) for h in cells.basis.elements]
        for layer in cells.cells:
            for c in layer:
                lines.append("dim %d  [%s | %s]  label=%s  vertices={%s}" % (
                    c.dim, shown[c.alpha],
                    "*".join(ring.names[k - 1] for k in c.tau) or "1",
                    ring.text(c.label),
                    ", ".join([shown[v] for v in c.vertices])))
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_minimize(args):
    basis = pommaret_basis(_load(args))
    reduced = minimize(ps_complex(basis), trace=bool(args.trace))
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for rec in reduced.trace or []:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    sizes = reduced.matching.sizes_by_var()
    if args.fmt == "json":
        doc = reduced.to_json_dict()
        doc["matching"] = {str(k): v for k, v in sorted(sizes.items())}
        doc["safety_net_cancellations"] = reduced.safety_net_cancellations
        _emit(args, _json_text(doc))
    else:
        lines = []
        for k in sorted(sizes, reverse=True):
            lines.append("|V_%d| = %d" % (k, sizes[k]))
        lines.append("safety net cancellations: %d"
                     % reduced.safety_net_cancellations)
        lines.append(_render_complex_text(reduced))
        _emit(args, "\n".join(lines))
    return 0


def _cmd_betti(args):
    # the scalar part of the symbol complex gives the Betti numbers
    basis = pommaret_basis(_load(args))
    cplx = ps_complex(basis)
    axioms = check_complex(cplx)
    if not axioms.ok:
        raise NotAComplex("d o d = 0 fails on the symbol complex: %r"
                          % axioms.failures[:3])
    report = homological_invariants(scalar_betti(cplx), basis)
    if args.fmt == "json":
        _emit(args, _betti_json(report))
    else:
        lines = [report.betti.render()]
        lines.append("pd  = %d (classes predict %d)"
                     % (report.pd, report.pd_from_classes))
        lines.append("reg = %d (basis degree %d)"
                     % (report.reg, report.reg_from_basis))
        _emit(args, "\n".join(lines) + "\n")
    return 0 if report.consistent else 4


def _verify_one(ideal, strand_cap):
    """All self-checks for one ideal; returns (checks, ok)."""
    basis = pommaret_basis(ideal)
    cplx = ps_complex(basis)
    cell_rep = supports_check(build_cell_complex(basis), cplx)
    # minimize raises NotAMorseMatching unless its matching passes
    # is_morse_matching, and NotMinimal when a unit entry survives it (exit
    # 4 both): matching-valid and safety-net-silent report those gates
    reduced = minimize(cplx)
    # each exactness report carries the complex-axioms report it started
    # from, so check_complex runs once per complex
    ex = check_exactness(cplx, cap=strand_cap)
    exr = check_exactness(reduced, cap=strand_cap)
    inv = homological_invariants(minimal_betti(reduced), basis)
    checks = [
        ("complex-axioms", ex.axioms.ok,
         "%d failures" % len(ex.axioms.failures)),
        ("cell-support", cell_rep.ok, "%d failures" % len(cell_rep.failures)),
        ("matching-valid", True, "%d pairs" % len(reduced.matching)),
        ("safety-net-silent", True, "0 extra cancellations"),
        ("reduced-complex-axioms", exr.axioms.ok, ""),
        ("reduced-minimal", not reduced.unit_entries(), ""),
        ("exactness", ex.ok, "%d strands%s" % (
            ex.strands_checked, ", capped" if ex.capped else "")),
        ("reduced-exactness", exr.ok, "%d strands%s" % (
            exr.strands_checked, ", capped" if exr.capped else "")),
        ("pd-reg-consistent", inv.consistent,
         "pd=%d reg=%d" % (inv.pd, inv.reg)),
    ]
    if len(ideal.gens) <= 10:
        checks.append(("betti-vs-oracle",
                       inv.betti == oracle_betti(ideal), ""))
    return checks, all(ok for _, ok, _ in checks)


def _cmd_verify(args):
    ideal = _load(args)
    checks, ok = _verify_one(ideal, args.strand_cap)
    if args.fmt == "json":
        _emit(args, _json_text({
            "checks": [{"name": n, "ok": o, "detail": d}
                       for n, o, d in checks],
            "ok": ok}))
    else:
        lines = ["%-24s %s%s" % (n, "ok" if o else "FAIL",
                                 "  (%s)" % d if d else "")
                 for n, o, d in checks]
        lines.append("verdict: %s" % ("ok" if ok else "FAIL"))
        _emit(args, "\n".join(lines) + "\n")
    return 0 if ok else 4


def _cmd_random_test(args):
    lines = []
    bad = 0
    for case in range(args.count):
        seed = args.seed + case
        rng_n = 2 + (seed * 7919 + 11) % 3  # 2..4, deterministic in seed
        gens = (seed * 104729 + 3) % 5      # 0..4 extra generators
        ideal = random_quasi_stable(seed, rng_n, args.max_deg, gens)
        try:
            checks, ok = _verify_one(ideal, args.strand_cap)
        except PommaretError as e:
            ok, failed = False, "error [%s]: %s" % (e.code, e.message)
        else:
            failed = ", ".join(n for n, o, _ in checks if not o)
        if not ok:
            bad += 1
            lines.append("case %d seed %d: FAIL (%s)  ideal %r"
                         % (case, seed, failed, ideal))
        else:
            lines.append("case %d seed %d: ok  (%d gens, n=%d)"
                         % (case, seed, len(ideal.gens), ideal.ring.n))
    lines.append("%d/%d cases ok" % (args.count - bad, args.count))
    _emit(args, "\n".join(lines) + "\n")
    return 0 if bad == 0 else 4


def _at_least_1(text):
    """argparse type of --strand-cap, --count and --max-deg: an integer of
    at least 1, since a check over no strands or no cases would read as a
    pass, and no generator has degree 0."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


@functools.cache
def _build_parser():
    # built once per process; parse_args leaves the parser unchanged
    p = argparse.ArgumentParser(
        prog="pommaret",
        description="Pommaret bases and minimal resolutions of "
                    "quasi-stable monomial ideals.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, handler, formats, summary, needs_file=True):
        # every command takes every --format; main rejects one that is not
        # among its formats before any work is done
        sp = sub.add_parser(name, help=summary)
        if needs_file:
            sp.add_argument("path", help="ideal file")
        sp.add_argument("--format", dest="fmt", default="text",
                        choices=["text", "json", "dot"])
        sp.add_argument("--out", default=None, help="write output here")
        sp.set_defaults(handler=handler, formats=formats)
        return sp

    text_json = ("text", "json")
    text_json_dot = ("text", "json", "dot")
    add("basis", _cmd_basis, text_json, "Pommaret basis of the ideal")
    add("pgraph", _cmd_pgraph, text_json_dot, "rewrite graph of the basis")
    sp = add("resolution", _cmd_resolution, text_json, "a free resolution")
    sp.add_argument("--variant", default="ps", choices=["ps", "taylor"])
    add("cellular", _cmd_cellular, text_json_dot, "supporting cell complex")
    sp = add("minimize", _cmd_minimize, text_json, "minimal free resolution")
    sp.add_argument("--trace", default=None,
                    help="write one JSON line per cancellation here")
    add("betti", _cmd_betti, text_json, "Betti numbers, pd and regularity")
    sp = add("verify", _cmd_verify, text_json, "run the self-check suite")
    sp.add_argument("--strand-cap", dest="strand_cap", type=_at_least_1,
                    default=STRAND_CAP)
    sp = add("random-test", _cmd_random_test, ("text",),
             "seeded end-to-end property checks", needs_file=False)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=_at_least_1, default=25)
    sp.add_argument("--max-deg", dest="max_deg", type=_at_least_1, default=5)
    sp.add_argument("--strand-cap", dest="strand_cap", type=_at_least_1,
                    default=STRAND_CAP)
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.fmt not in args.formats:
        sys.stderr.write("error: %s has no %s format\n"
                         % (args.command, args.fmt))
        return 2
    try:
        return args.handler(args)
    except OSError as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    except PommaretError as e:
        sys.stderr.write("error [%s]: %s\n" % (e.code, e.message))
        if isinstance(e, (IdealSyntaxError, EmptyInput, UnitGenerator,
                          ArityMismatch, TooManyGenerators)):
            return 2
        return 3 if isinstance(e, NotQuasiStable) else 4


if __name__ == "__main__":
    sys.exit(main())
