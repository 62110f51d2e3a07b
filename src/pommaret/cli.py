"""Command line front end.

Ideal files: a ``vars <n>`` header, an optional ``names a,b,c`` line, then
one monomial per line, either as a product of named powers (``x1^2*x2``,
``y^4``), a bare ``1``, or an exponent vector ``[2,0,1]``.  ``#`` starts a
comment.

Exit codes: 0 success, 2 bad input or usage, 3 the ideal is not
quasi-stable, 4 a verification failure.
"""

import argparse
import functools
import json
import re
import sys
from json.encoder import encode_basestring_ascii as _json_str

from .cellular import build_cell_complex, supports_check
from .errors import (ArityMismatch, EmptyInput, IdealSyntaxError,
                     NotQuasiStable, PommaretError, UnitGenerator)
from .ideals import MonomialIdeal, build_p_graph, pommaret_basis
from .monomials import Ring
from .morse import minimize
from .resolution import ps_complex, render_differential, taylor_complex
from .verify import (check_exactness, homological_invariants, oracle_betti,
                     random_quasi_stable)

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_FACTOR = re.compile(r"(%s)\s*(?:\^\s*(\d+))?$" % _NAME)


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
    m = re.match(r"vars\s+(\d+)$", line.strip())
    if not m:
        raise IdealSyntaxError("expected 'vars <n>' header",
                               lineno, 1 + _indent(line))
    n = int(m.group(1))
    if n < 1:
        raise IdealSyntaxError("need at least one variable",
                               lineno, 1 + _indent(line))
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


def _parse_monomial(line, lineno, ring):
    stripped = line.strip()
    col0 = 1 + _indent(line)
    if stripped == "1":
        return ring.unit()
    if stripped.startswith("["):
        if not stripped.endswith("]"):
            raise IdealSyntaxError("unterminated exponent vector",
                                   lineno, col0)
        body = stripped[1:-1]
        try:
            exps = [int(t.strip()) for t in body.split(",")]
        except ValueError:
            raise IdealSyntaxError("exponent vector needs integers",
                                   lineno, col0)
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
        name, exp = m.group(1), int(m.group(2) or 1)
        if name in ring.names:
            idx = ring.names.index(name)
        else:
            mv = re.match(r"x(\d+)$", name)
            if mv and 1 <= int(mv.group(1)) <= ring.n:
                idx = int(mv.group(1)) - 1
            else:
                raise IdealSyntaxError("unknown variable %r" % name,
                                       lineno, col)
        exps[idx] += exp
    return ring.monomial(exps)


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj):
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    Given an indent, ``json`` encodes in pure Python; this writer covers
    only what the CLI's documents hold (dicts with str keys, lists, str,
    int, bool, None) and raises TypeError on anything else.
    """
    parts = []
    _write_json(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _write_json(x, nl, out):
    # nl is the newline plus the indent of the line x starts on; exact
    # types, so that bool is not written as an int
    t = type(x)
    if t is dict:
        if not x:
            out("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(x):
            # the escaper raises TypeError on a key that is not a str
            out(sep + _json_str(k) + ": ")
            _write_json(x[k], inner, out)
            sep = "," + inner
        out(nl + "}")
    elif t is list:
        if not x:
            out("[]")
            return
        inner = nl + "  "
        if all([type(v) is int for v in x]):
            out("[" + inner + ("," + inner).join(map(str, x)) + nl + "]")
            return
        sep = "[" + inner
        for v in x:
            out(sep)
            _write_json(v, inner, out)
            sep = "," + inner
        out(nl + "]")
    elif t is str:
        out(_json_str(x))
    elif t is int:
        out(str(x))
    elif t is bool:
        out("true" if x else "false")
    elif x is None:
        out("null")
    else:
        raise TypeError("%s is not written as JSON" % t.__name__)


def _load(args):
    with open(args.path) as fh:
        return parse_ideal(fh.read())


def _cmd_basis(args):
    basis = pommaret_basis(_load(args))
    if args.fmt == "json":
        _emit(args, _json_text({
            "n": basis.ring.n,
            "elements": [{"monomial": str(h), "exps": list(h.exps),
                          "cls": h.cls} for h in basis.elements]}))
    else:
        lines = ["Pommaret basis, %d elements:" % len(basis)]
        for i, h in enumerate(basis.elements):
            lines.append("%3d: %-20s cls=%d" % (i, str(h), h.cls))
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_pgraph(args):
    graph = build_p_graph(pommaret_basis(_load(args)))
    basis = graph.basis
    if args.fmt == "dot":
        _emit(args, graph.to_dot())
    elif args.fmt == "json":
        _emit(args, _json_text({
            "vertices": [str(h) for h in basis.elements],
            "edges": [{"from": a, "var": k, "to": b, "t": str(t)}
                      for (a, k, b, t) in graph.edges]}))
    else:
        lines = ["%d vertices, %d edges" % (len(basis), len(graph.edges))]
        for (a, k, b, t) in graph.edges:
            lines.append("%s --%s--> %s  (t=%s)" % (
                basis.elements[a], basis.ring.names[k - 1],
                basis.elements[b], t))
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _resolution_for(args, ideal):
    if args.variant == "taylor":
        return taylor_complex(ideal)
    return ps_complex(pommaret_basis(ideal))


def _render_complex_text(cplx):
    lines = ["%s resolution, ranks %s" % (
        cplx.provenance, "  ".join(str(r) for r in cplx.ranks()))]
    for i, level in enumerate(cplx.levels):
        lines.append("F_%d: %s" % (i, "  ".join(g.text for g in level)))
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
        _emit(args, _json_text(cells.to_json_dict()))
    else:
        lines = ["cells by dimension: %s" %
                 "  ".join(str(c) for c in cells.counts())]
        basis = cells.basis
        for layer in cells.cells:
            for c in layer:
                verts = ", ".join(str(basis.elements[v])
                                  for v in c.vertices)
                lines.append("dim %d  [%s | %s]  label=%s  vertices={%s}" % (
                    c.dim, basis.elements[c.alpha],
                    "*".join(basis.ring.names[k - 1] for k in c.tau) or "1",
                    c.label, verts))
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_minimize(args):
    basis = pommaret_basis(_load(args))
    reduced = minimize(ps_complex(basis), trace=bool(args.trace))
    if args.trace:
        with open(args.trace, "w") as fh:
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
    reduced = minimize(ps_complex(pommaret_basis(_load(args))))
    report = homological_invariants(reduced)
    if args.fmt == "json":
        _emit(args, _json_text({
            "betti": {"%d,%d" % k: v
                      for k, v in sorted(report.betti.by_degree.items())},
            "multigraded": [{"level": i, "multidegree": list(exps),
                             "count": v}
                            for (i, exps), v in
                            sorted(report.betti.by_multidegree.items())],
            "pd": report.pd, "reg": report.reg,
            "pd_from_classes": report.pd_from_classes,
            "reg_from_basis": report.reg_from_basis,
            "consistent": report.consistent}))
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
    # minimize built the matching V and raises NotAMorseMatching (exit 4)
    # unless it passes is_morse_matching, so matching-valid reports that gate
    reduced = minimize(cplx)
    # each exactness report carries the complex-axioms report it started
    # from, so check_complex runs once per complex
    ex = check_exactness(cplx, cap=strand_cap)
    exr = check_exactness(reduced, cap=strand_cap)
    inv = homological_invariants(reduced)
    checks = [
        ("complex-axioms", ex.axioms.ok,
         "%d failures" % len(ex.axioms.failures)),
        ("cell-support", cell_rep.ok, "%d failures" % len(cell_rep.failures)),
        ("matching-valid", True, "%d pairs" % len(reduced.matching)),
        ("safety-net-silent", reduced.safety_net_cancellations == 0,
         "%d extra cancellations" % reduced.safety_net_cancellations),
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
        checks, ok = _verify_one(ideal, args.strand_cap)
        if not ok:
            bad += 1
            failed = ", ".join(n for n, o, _ in checks if not o)
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
                    default=20000)
    sp = add("random-test", _cmd_random_test, ("text",),
             "seeded end-to-end property checks", needs_file=False)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=_at_least_1, default=25)
    sp.add_argument("--max-deg", dest="max_deg", type=_at_least_1, default=5)
    sp.add_argument("--strand-cap", dest="strand_cap", type=_at_least_1,
                    default=400)
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
                          ArityMismatch)):
            return 2
        return 3 if isinstance(e, NotQuasiStable) else 4


if __name__ == "__main__":
    sys.exit(main())
