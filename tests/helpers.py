"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's own algorithms: rank via
dense Gaussian elimination over Fraction, completion via a quadratic
rescan, membership via direct divisor scans.  Expected values frozen in the
tests were produced by these or by hand.

Basis elements, rewrite factors and multidegrees are exponent tuples; the
oracles do their own arithmetic on them, with the small functions below.
"""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from operator import add, le, sub
from pathlib import Path

from pommaret import (ComplexReport, Face, FreeComplex, Gen, Matching,
                      MonomialIdeal, Pair, Ring, Symbol, exact_rank,
                      minimal_generators)
from pommaret.errors import MismatchedBases, PommaretError


# random_quasi_stable arguments of the reproducers of perfbench/README.md,
# "Known defect": V leaves a multidegree class short, and a unit entry
# survives its cancellation, so minimize completes V
REPRODUCERS = [(31000, 4, 6, 8), (2520, 5, 4, 6), (3774, 5, 4, 6),
               (3452, 5, 6, 8), (115, 6, 4, 8)]

# the seeds s with a short V among random_quasi_stable(s, 4 + s % 3,
# 4 + s % 2, 6 + s % 3), s < 1500, and s = 1880, where the completion needs
# augmenting paths longer than one edge (V's 1012 pairs grow to 1015)
SHORT_V_SEEDS = (4, 565, 757, 840, 881, 1166, 1178, 1196, 1289, 1324, 1376,
                 1880)


def short_v_args():
    """random_quasi_stable arguments of every ideal with a short V:
    ``REPRODUCERS``, then ``SHORT_V_SEEDS``."""
    return REPRODUCERS + [(s, 4 + s % 3, 4 + s % 2, 6 + s % 3)
                          for s in SHORT_V_SEEDS]


# --- exponent-tuple arithmetic used only by the tests ------------------------


def variable(ring, i):
    """The generator x_i (1-based) of ring, as a ``Monomial``."""
    return ring.monomial([int(j == i) for j in range(1, ring.n + 1)])


def cls_of(e):
    """Class of an exponent tuple: its first nonzero position, 1-based."""
    return next(k for k, x in enumerate(e, start=1) if x)


def nonmultiplicative(e):
    """The nonmultiplicative variables x_{cls+1}..x_n of e."""
    return tuple(range(cls_of(e) + 1, len(e) + 1))


def times_var(e, k):
    """x_k * e."""
    return tuple(x + (j == k) for j, x in enumerate(e, start=1))


def mul(a, b):
    return tuple(map(add, a, b))


def quotient(a, b):
    """a / b; b must divide a."""
    q = tuple(map(sub, a, b))
    if min(q, default=0) < 0:
        raise ValueError("%r does not divide %r" % (b, a))
    return q


def lcm(a, b):
    return tuple(map(max, a, b))


def divides(a, b):
    return all(map(le, a, b))


def involutively_divides(h, m):
    """h | m with the quotient in the multiplicative variables of h: above
    its class, h and m agree."""
    c = cls_of(h)
    return divides(h, m) and h[c:] == m[c:]


def reference_involutive_divisors(elements, m):
    """Every element of a basis that involutively divides m, found by
    testing each element componentwise."""
    return [h for h in elements if involutively_divides(h, m)]


def column_entries(cplx, i, col):
    """Column col of d_i as {row: (coeff, exps)}, each monomial the
    column's multidegree over the row's."""
    target = cplx.levels[i - 1]
    return {row: (c, quotient(cplx.levels[i][col].multidegree,
                              target[row].multidegree))
            for row, c in cplx.diffs[i].get(col, {}).items()}


def totals(table):
    """Betti numbers per homological degree, 0 up to the top one, summed
    from ``by_degree``."""
    out = [0] * (1 + max((i for i, _ in table.by_degree), default=-1))
    for (i, _), count in table.by_degree.items():
        out[i] += count
    return tuple(out)


def make_ideal_a():
    """<x1^2, x2^3> in two variables: quasi-stable, not stable."""
    r = Ring(2)
    return MonomialIdeal(r, [r.monomial((2, 0)), r.monomial((0, 3))])


def make_ideal_b():
    """<x^2, y^4, y^2z^2, z^3> in three variables."""
    r = Ring(3, names=("x", "y", "z"))
    return MonomialIdeal(r, [r.monomial((2, 0, 0)), r.monomial((0, 4, 0)),
                             r.monomial((0, 2, 2)), r.monomial((0, 0, 3))])


def make_ideal_stable2():
    """<x2, x1^2> in two variables: stable."""
    r = Ring(2)
    return MonomialIdeal(r, [r.monomial((0, 1)), r.monomial((2, 0))])


def monomials_up_to(ring, deg):
    """Exponent tuples of the non-unit monomials of degree <= deg."""
    for exps in itertools.product(range(deg + 1), repeat=ring.n):
        if 0 < sum(exps) <= deg:
            yield exps


def dense_rank(rows, ncols):
    """Reference rank: dense Gaussian elimination over Fraction."""
    mat = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    rpos = 0
    for c in range(ncols):
        piv = None
        for i in range(rpos, len(mat)):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[rpos], mat[piv] = mat[piv], mat[rpos]
        pv = mat[rpos][c]
        for i in range(len(mat)):
            if i != rpos and mat[i][c] != 0:
                f = mat[i][c] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rpos])]
        rank += 1
        rpos += 1
    return rank


def dense_rank_gf2(rows, ncols):
    """Reference rank over GF(2): each integer entry taken mod 2, then
    dense Gaussian elimination on lists of bits."""
    mat = [[r.get(c, 0) % 2 for c in range(ncols)] for r in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def reference_scalar_betti(cplx):
    """(by_multidegree, by_degree) of ``scalar_betti``, keyed by exponent
    tuples: each unit block keyed by (level, multidegree of its column)
    and ranked by ``exact_rank``, each (level, multidegree) counted in
    generator order, and beta = count - rank of the block at that level -
    rank of the block one level up, kept where it is not 0."""
    blocks = {}
    for level, row, col, c in cplx.unit_entries():
        key = (level, cplx.levels[level][col].multidegree)
        blocks.setdefault(key, {}).setdefault(row, {})[col] = c
    ranks = {key: exact_rank(rows.values()) for key, rows in blocks.items()}
    by_md = {}
    for key, size in Counter((i, g.multidegree)
                             for i, level in enumerate(cplx.levels)
                             for g in level).items():
        i, md = key
        beta = size - ranks.get(key, 0) - ranks.get((i + 1, md), 0)
        if beta:
            by_md[key] = beta
    by_degree = {}
    for (i, md), beta in by_md.items():
        by_degree[(i, sum(md))] = by_degree.get((i, sum(md)), 0) + beta
    return by_md, by_degree


def reference_supports_check(cellcomplex, cplx):
    """Reference ``supports_check``, by key and on exponent tuples.  It
    sorts every cell by key, finds each facet through a key map of all
    cells, whatever their dimension, and rebuilds every column of d keyed
    by symbol.  Labels are compared with the generator multidegrees, and
    level 0's with the basis elements; each lcm of vertices is taken on
    the generator multidegrees.  A boundary entry of a cell of dimension
    i with sign s must meet the entry (-1)^i * s of d, and names its
    facet once.  Like the check, it tests no facet division: a d-entry
    whose row does not divide its column makes no ``FreeComplex``."""
    lookup = {c.key(): c for layer in cellcomplex.cells for c in layer}
    basis = cellcomplex.basis
    if cplx.basis is not basis and (
            cplx.basis is None
            or cplx.basis.elements != basis.elements):
        raise MismatchedBases("cell complex and free complex disagree")
    if not all(isinstance(g.key, Symbol)
               for level in cplx.levels for g in level):
        raise MismatchedBases("free complex has non-symbol generators")
    if ([[c.key() for c in layer] for layer in cellcomplex.cells]
            != [[g.key for g in level] for level in cplx.levels]):
        raise MismatchedBases("cells and symbols do not biject")

    multidegree = {g.key: g.multidegree
                   for level in cplx.levels for g in level}
    vertex = {g.key.alpha: g.multidegree for g in cplx.levels[0]}
    inside = set(vertex)
    failures = []
    if vertex != dict(enumerate(basis.elements)):
        failures.append("level 0 of the free complex is not the basis")
    for key, cell, gen in sorted(
            (cell.key(), cell, gen)
            for layer, level in zip(cellcomplex.cells, cplx.levels)
            for cell, gen in zip(layer, level)):
        if gen.multidegree != cell.label:
            failures.append("label of %r is not the symbol multidegree" % (key,))
        outside = [v for v in cell.vertices if v not in inside]
        if outside:
            failures.append("cell %r has vertices outside the basis: %r"
                            % (key, outside))
        else:
            top = (0,) * basis.ring.n
            for v in cell.vertices:
                top = lcm(top, vertex[v])
            if top != multidegree[key]:
                failures.append("label of %r is not the lcm of its vertices"
                                % (key,))
            if cell.alpha not in cell.vertices:
                failures.append("cell %r does not contain its own vertex"
                                % (key,))
        seen = set()
        for (fkey, _sign) in cell.boundary:
            facet = lookup.get(fkey)
            if facet is None:
                failures.append("facet %r of %r is not a cell" % (fkey, key))
                continue
            if fkey in seen:
                failures.append("facet %r appears twice in the boundary of %r"
                                % (fkey, key))
                continue
            seen.add(fkey)
            if not set(facet.vertices) & inside <= set(cell.vertices):
                failures.append("facet %r has vertices outside %r"
                                % (fkey, key))

    # d_i is (-1)^i times the boundary, entry by entry
    for i, layer in enumerate(cellcomplex.cells[1:], start=1):
        for col, cell in enumerate(layer):
            key = cell.key()
            centries = {}
            for fkey, s in cell.boundary:
                centries.setdefault(fkey, s)
            dentries = {cplx.levels[i - 1][row].key: c
                        for row, c in cplx.diffs[i].get(col, {}).items()}
            if set(centries) != set(dentries):
                failures.append("support of %r differs from d-entries" % (key,))
                continue
            for fkey, s in centries.items():
                c = dentries[fkey]
                if abs(c) != 1:
                    failures.append("entry coefficient at %r -> %r is not "
                                    "a sign" % (key, fkey))
                elif c != (-1) ** i * s:
                    failures.append("boundary sign at %r -> %r is not "
                                    "(-1)^%d times its d-entry"
                                    % (key, fkey, i))
    return ComplexReport(not failures, failures)


def reference_cells_doc(cells):
    """The cells document of ``pommaret cellular --format json`` as plain
    dicts and lists, which ``json.dumps(doc, sort_keys=True, indent=2)``
    writes as the command's output."""
    elements = cells.basis.elements
    return {"n": cells.basis.ring.n, "cells": [
        {"h": list(elements[c.alpha]), "tau": list(c.tau), "dim": c.dim,
         "label": list(c.label),
         "vertices": [list(elements[v]) for v in c.vertices],
         "boundary": [{"h": list(elements[a]), "tau": list(t), "sign": s}
                      for (a, t), s in c.boundary]}
        for layer in cells.cells for c in layer]}


def reference_lattice(cplx, cap):
    """Reference ``lcm_lattice``: the same closure, by pairwise ``lcm`` of
    exponent tuples instead of bit codes.

    Generator multidegrees by degree, then exponents; then the joins
    ``lcm`` finds, in discovery order, cut at cap points.  Returns
    (points as exponent tuples, capped), capped True when the closure has
    more than cap points."""
    seeds = sorted({g.multidegree for level in cplx.levels for g in level},
                   key=lambda e: (sum(e), e))
    points = list(seeds)
    seen = set(points)
    j = 1
    while j < len(points) and len(points) <= cap:
        for k in range(j):
            m = lcm(points[j], points[k])
            if m not in seen:
                seen.add(m)
                points.append(m)
        j += 1
    return points[:cap], len(points) > cap


def strand_oracle(cplx, cap=20000):
    """Reference strand check: (strands_checked, capped, failures) in the
    form of ``check_exactness``.

    Multidegrees are wrapped as ``Monomial``s: the lcm closure is
    ``reference_lattice``, generators are picked with
    ``Monomial.divides``, and ranks are dense ranks over Fraction, so
    fraction entries need no clearing.
    """
    mds = [[cplx.ring.monomial(g.multidegree) for g in level]
           for level in cplx.levels]
    exps, capped = reference_lattice(cplx, cap)
    points = [cplx.ring.monomial(e) for e in exps]
    failures = []
    for mu in points:
        sel = [[j for j, md in enumerate(level) if md.divides(mu)]
               for level in mds]
        member = int(any(g.divides(mu) for g in cplx.ideal.gens))
        ones = [{c: 1 for c in range(len(sel[0]))}] if member else []
        if dense_rank(ones, len(sel[0])) != member:
            failures.append({"mu": str(mu), "position": "augmentation",
                             "reason": "member without covering generator"})
            continue
        ranks = [member]
        for i in range(1, len(sel)):
            rows = []
            for row in sel[i - 1]:
                rows.append({})
                for c, col in enumerate(sel[i]):
                    entry = cplx.diffs[i].get(col, {}).get(row)
                    if entry is not None:
                        rows[-1][c] = entry
            ranks.append(dense_rank(rows, len(sel[i])))
        ranks.append(0)
        for i in range(len(sel)):
            if ranks[i] + ranks[i + 1] != len(sel[i]):
                failures.append({"mu": str(mu), "position": i,
                                 "size": len(sel[i]),
                                 "ranks": (ranks[i], ranks[i + 1])})
                break
    return len(points), capped, failures


def halve_generator(cplx, i, col):
    """The same complex over Q after replacing generator col of F_i by
    half of it: column col of d_i halves and row col of d_{i+1} doubles.
    ``FreeComplex`` refuses its ``Fraction`` entries."""
    diffs = [None]
    for lvl in range(1, len(cplx.levels)):
        diffs.append({c: dict(column)
                      for c, column in cplx.diffs[lvl].items()})
    diffs[i][col] = {row: Fraction(c, 2)
                     for row, c in diffs[i][col].items()}
    for column in diffs[i + 1].values():
        if col in column:
            column[col] *= 2
    return FreeComplex(cplx.ring, cplx.ideal, cplx.levels, diffs,
                       cplx.provenance, basis=cplx.basis)


def rp2_ideal(relabel):
    """Stanley-Reisner ideal of the 6-vertex real projective plane, its
    vertices renamed by relabel: the 10 triples that are not faces."""
    facets = {(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
              (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)}
    facets = {tuple(sorted(relabel[v - 1] for v in f)) for f in facets}
    ring = Ring(6)
    return MonomialIdeal(ring, [
        ring.monomial([int(v in t) for v in range(1, 7)])
        for t in itertools.combinations(range(1, 7), 3) if t not in facets])


RP2_REDUCED = Path(__file__).parent / "data" / "rp2_reduced.json"


def rp2_reduced():
    """The minimal resolution of ``rp2_ideal((6, 2, 1, 5, 4, 3))``, frozen
    in ``data/rp2_reduced.json`` (the JSON of ``FreeComplex``): its Taylor
    complex as reduced by an earlier ``minimize``, whose generic sweep
    passed a -2 pivot on the way.  Ranks (10, 15, 6), 60 entries, all
    +-1; rebuilt through ``FreeComplex``, which proves it multigraded."""
    doc = json.loads(RP2_REDUCED.read_text(encoding="utf-8"))
    ideal = rp2_ideal((6, 2, 1, 5, 4, 3))
    levels = [[Gen(Face(tuple(g["face"])), tuple(g["multidegree"]))
               for g in level] for level in doc["modules"]]
    diffs = [None]
    for entries in doc["differentials"]:
        diffs.append({})
        for e in entries:
            diffs[-1].setdefault(e["col"], {})[e["row"]] = e["coeff"]
    return FreeComplex(ideal.ring, ideal, levels, diffs, "reduced")


def naive_completion(ideal, cap):
    """Quadratic-rescan completion; None when the cap is passed.

    Independent of the library's worklist: every pass rescans everything
    and inserts the smallest missing prolongation.  Returns the basis as a
    set of exponent tuples.
    """
    elems = {g.exps for g in ideal.gens}
    while True:
        missing = []
        for h in elems:
            for k in nonmultiplicative(h):
                m = times_var(h, k)
                if not any(involutively_divides(g, m) for g in elems):
                    missing.append(m)
        if not missing:
            return elems
        m = min(missing, key=lambda x: (sum(x), x))
        if sum(m) > cap:
            return None
        elems.add(m)


def random_monomials(rng, ring, count, max_deg):
    out = []
    for _ in range(count):
        e = [0] * ring.n
        for i in rng.choices(range(ring.n), k=rng.randint(1, max_deg)):
            e[i] += 1
        out.append(ring.monomial(e))
    return out


def random_ideal(seed, n=None, max_deg=4, count=3):
    """Arbitrary random monomial ideal; often not quasi-stable."""
    rng = random.Random(seed)
    n = n if n is not None else rng.randint(2, 4)
    ring = Ring(n)
    mons = random_monomials(rng, ring, max(count, 1), max_deg)
    return MonomialIdeal(ring, mons)


def positive_dimensional_ideals(seed=2024, count=24):
    """Seeded quasi-stable ideals in x2..xn only, which
    ``random_quasi_stable`` never draws: a pure power of each of x2..xn
    forces quasi-stability, and every basis element has class >= 2."""
    rng = random.Random(seed)
    ideals = []
    for _ in range(count):
        n = rng.randint(4, 6)
        gens = [tuple(rng.randint(1, 3) if i == j else 0 for i in range(n))
                for j in range(1, n)]
        for _ in range(rng.randint(1, 4)):
            e = [0] * n
            for i in rng.choices(range(1, n), k=rng.randint(1, 3)):
                e[i] += 1
            gens.append(tuple(e))
        ring = Ring(n)
        ideals.append(MonomialIdeal(ring, [ring.monomial(g) for g in gens]))
    return ideals


def random_stable(seed):
    """Random stable ideal: close a random set under the exchange
    x_j * g / x_cls(g); exchanges preserve degree, so this terminates."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    ring = Ring(n)
    work = set(random_monomials(rng, ring, rng.randint(1, 4),
                                rng.randint(1, 5)))
    changed = True
    while changed:
        changed = False
        for g in sorted(work, key=lambda m: (m.degree(), m.exps)):
            c = cls_of(g.exps)
            for j in range(c + 1, n + 1):
                e = list(g.exps)
                e[c - 1] -= 1
                e[j - 1] += 1
                m = ring.monomial(e)
                if not any(h.divides(m) for h in work):
                    work.add(m)
                    changed = True
    return MonomialIdeal(ring, minimal_generators(work))


def ek_sign(k, u):
    """Eliahou-Kervaire sign of extracting x_k from u: +1 iff the number
    of elements of u that are >= k is odd."""
    return 1 if sum(1 for j in u if j >= k) % 2 == 1 else -1


def ek_differential(ideal):
    """Classical Eliahou-Kervaire resolution of a stable ideal, built from
    its minimal generators alone (Eliahou-Kervaire, J. Algebra 1990).

    Generators of F_i are pairs (g, u): g the exponent tuple of a minimal
    generator, u a set of i variables above cls(g).  x_k g (k > cls(g))
    splits as t * b(x_k g) with b(m) the one generator g' | m whose
    quotient lives in x_1..x_cls(g'), and

        d(g, u) = sum over k in u of ek_sign(k, u) * (x_k (g, u - k)
                                     - t (b(x_k g), u - k)),

    dropping a rewritten pair whose u - k meets x_1..x_cls(b(x_k g)).
    Returns one dict per level {(g, u): {(g', u'): (coeff, exps)}}; level
    0 maps each generator to {}.
    """
    n = ideal.ring.n
    gens = [g.exps for g in ideal.gens]

    def b(m):
        found = [g for g in gens if involutively_divides(g, m)]
        if len(found) != 1:
            raise ValueError("%r has %d EK divisors" % (m, len(found)))
        return found[0]

    levels = [dict() for _ in range(n)]
    for g in gens:
        for i in range(n - cls_of(g) + 1):
            for u in itertools.combinations(nonmultiplicative(g), i):
                column = {}
                for k in u:
                    rest = tuple(j for j in u if j != k)
                    sign = ek_sign(k, u)
                    xk = tuple(int(j == k) for j in range(1, n + 1))
                    column[(g, rest)] = (sign, xk)
                    h = b(tuple(map(sum, zip(g, xk))))
                    if all(j > cls_of(h) for j in rest):
                        t = tuple(x + y - z for x, y, z in zip(g, xk, h))
                        column[(h, rest)] = (-sign, t)
                levels[i][(g, u)] = column
    return [level for level in levels if level]


def symbol_differential(cplx):
    """A symbol complex in the form of ``ek_differential``: basis indices
    replaced by the exponent tuples of the basis elements."""
    elements = cplx.basis.elements

    def pair(gen):
        return (elements[gen.key.alpha], gen.key.u)

    out = [{pair(g): {} for g in cplx.levels[0]}]
    for i in range(1, len(cplx.levels)):
        below = cplx.levels[i - 1]
        out.append({pair(g): {pair(below[row]): entry for row, entry
                              in column_entries(cplx, i, col).items()}
                    for col, g in enumerate(cplx.levels[i])})
    return out


def reference_match(cplx, ref_levels, ref_entries):
    """Compare a complex against frozen reference matrices.

    ref_levels: per level, the list of generator multidegrees (exponent
    tuples, unique within a level).  ref_entries: (level, col_md, row_md,
    coeff, mono_exps) for every nonzero entry.  Generators are matched by
    multidegree; a per-generator sign with level-0 pinned to +1 must
    reconcile every coefficient.  Returns (ok, reason).
    """
    if len(cplx.levels) != len(ref_levels):
        return False, "length differs"
    where = []
    for i, level in enumerate(cplx.levels):
        mine = sorted(g.multidegree for g in level)
        ref = sorted(ref_levels[i])
        if mine != ref:
            return False, "level %d multidegrees differ" % i
        if len(set(ref)) != len(ref):
            return False, "reference level %d is ambiguous" % i
        where.append({g.multidegree: j for j, g in enumerate(level)})
    ref_by_col = {}
    for (lvl, col_md, row_md, coeff, mono) in ref_entries:
        ref_by_col.setdefault((lvl, col_md), {})[row_md] = (coeff,
                                                            tuple(mono))
    sign = {}
    for md in ref_levels[0]:
        sign[(0, md)] = 1
    for lvl in range(1, len(ref_levels)):
        for col_md in ref_levels[lvl]:
            col = column_entries(cplx, lvl, where[lvl][col_md])
            mine = {}
            for row, (c, m) in col.items():
                mine[cplx.levels[lvl - 1][row].multidegree] = (c, m)
            ref_col = ref_by_col.get((lvl, col_md), {})
            if set(mine) != set(ref_col):
                return False, "support of %r at level %d" % (col_md, lvl)
            eps = None
            for row_md, (c, m) in mine.items():
                rc, rm = ref_col[row_md]
                if m != rm:
                    return False, "monomial at %r -> %r" % (col_md, row_md)
                if abs(c) != abs(rc):
                    return False, "magnitude at %r -> %r" % (col_md, row_md)
                q = (1 if c == rc else -1) * sign[(lvl - 1, row_md)]
                if eps is None:
                    eps = q
                elif eps != q:
                    return False, "no consistent sign for column %r" % (
                        col_md,)
            sign[(lvl, col_md)] = eps if eps is not None else 1
    return True, ""


# --- rewrite-graph lookups used only by the tests ---------------------------


class NotNonMultiplicative(PommaretError):
    code = "not-nonmultiplicative"


class NotAPath(PommaretError):
    code = "not-a-path"


class VariablesNotIncreasing(PommaretError):
    code = "variables-not-increasing"


def delta_map(basis, alpha, k):
    """(beta, t) for the nonmultiplicative product x_k * h_alpha = t *
    h_beta: beta read from ``basis.delta``, and t derived from it and
    asserted to use only multiplicative variables of h_beta, which makes
    h_beta the involutive divisor."""
    if (alpha, k) not in basis.delta:
        raise NotNonMultiplicative(
            "x%d is multiplicative for element %d" % (k, alpha))
    beta = basis.delta[(alpha, k)]
    h_beta = basis.elements[beta]
    t = quotient(times_var(basis.elements[alpha], k), h_beta)
    assert not any(t[cls_of(h_beta):]), (alpha, k, beta)
    return beta, t


def edge_between(graph, a, b):
    """The unique edge a -> b of a PGraph, or None.  (Parallel edges cannot
    occur: two variables sending h_a to the same h_b would force
    overlapping cones.)"""
    for (x, k, y, t) in graph.edges:
        if x == a and y == b:
            return (x, k, y, t)
    return None


def path_multidegree(graph, vertices):
    """Product of the t factors along a path given as basis indices.

    The path must follow existing edges and use strictly increasing edge
    variables; the empty and one-vertex paths have multidegree 1, the
    zero tuple.
    """
    md = (0,) * graph.basis.ring.n
    last_k = 0
    for a, b in zip(vertices, vertices[1:]):
        e = edge_between(graph, a, b)
        if e is None:
            raise NotAPath("no edge %d -> %d" % (a, b))
        _, k, _, t = e
        if k <= last_k:
            raise VariablesNotIncreasing(
                "edge variable x%d after x%d" % (k, last_k))
        last_k = k
        md = mul(md, t)
    return md


def reference_matching_V(cplx):
    """Reference ``build_matching_V``: the pairs it must return, in order,
    derived from the rewrite map instead of the complex's unit entries.

    For x_n down to x_{d+1}, every generator [h_alpha, u] holding the
    variable, in level then column order, is paired with the rewritten
    symbol [h_beta, u minus x_k] when x_k h_alpha = t h_beta with t = 1,
    that symbol is a generator, the entry between them is a unit and
    neither endpoint is matched yet."""
    basis = cplx.basis
    lookup = [{g.key: i for i, g in enumerate(level)}
              for level in cplx.levels]
    matched = set()
    pairs = []
    for var in range(basis.ring.n, basis.d, -1):
        for level in range(1, cplx.length + 1):
            for col, gen in enumerate(cplx.levels[level]):
                alpha, u = gen.key
                if var not in u or (level, col) in matched:
                    continue
                beta, t = delta_map(basis, alpha, var)
                if any(t):
                    continue
                rest = tuple(k for k in u if k != var)
                row = lookup[level - 1].get((beta, rest))
                if row is None or (level - 1, row) in matched:
                    continue
                entry = column_entries(cplx, level, col).get(row)
                if entry is None or entry[0] == 0 or any(entry[1]):
                    continue
                pairs.append(Pair(level, col, row, var))
                matched.add((level, col))
                matched.add((level - 1, row))
    return Matching(pairs)


def reference_has_cycle(cplx, matching, level):
    """Reference ``morse._kahn_order``'s verdict (None on a cycle):
    whether the digraph of d_level, on
    the generators of both degrees and every entry (whatever its monomial),
    has a directed cycle once the matched edges are reversed.  Unmatched
    entries point from column to row, matched ones from row to column; a
    depth-first search looks for an edge back into its own path."""
    matched = {(p.source, p.target) for p in matching.pairs
               if p.level == level}
    out = {}
    for col, column in cplx.diffs[level].items():
        for row in column:
            if (col, row) in matched:
                out.setdefault(("row", row), []).append(("col", col))
            else:
                out.setdefault(("col", col), []).append(("row", row))
    state = {}  # 1 while on the search path, 2 once finished
    for root in sorted(out):
        if root in state:
            continue
        state[root] = 1
        stack = [(root, iter(out[root]))]
        while stack:
            node, succ = stack[-1]
            nxt = next(succ, None)
            if nxt is None:
                state[node] = 2
                stack.pop()
            elif state.get(nxt) == 1:
                return True
            elif nxt not in state:
                state[nxt] = 1
                stack.append((nxt, iter(out.get(nxt, ()))))
    return False


def reference_cancel(cplx, matching, order):
    """Reference reduction: the matching's pairs eliminated one at a time,
    sorted by the key ``order``, on copied columns.  Each pair (s -> t)
    with pivot lam = +-1 in the current columns subtracts
    column[t] * lam * column s from every other column of its level that
    holds row t, then deletes column s, column t one level down and row s
    one level up; the survivors are renumbered in order.  A complex built
    from the result proves it multigraded, not d o d = 0."""
    cols = [None] + [{col: dict(column) for col, column in diff.items()}
                     for diff in cplx.diffs[1:]]
    dead = set()
    for pair in sorted(matching.pairs, key=order):
        level, s, t = pair.level, pair.source, pair.target
        lam = cols[level][s][t]
        if lam not in (1, -1):
            raise ValueError("pivot %r of %r is not +-1" % (lam, pair))
        source = cols[level].pop(s)
        for column in cols[level].values():
            q = column.get(t, 0) * lam
            if q:
                for row, c in source.items():
                    value = column.get(row, 0) - q * c
                    if value:
                        column[row] = value
                    else:
                        del column[row]
        if level > 1:
            cols[level - 1].pop(t, None)
        if level + 1 < len(cols):
            for column in cols[level + 1].values():
                column.pop(s, None)
        dead.update(pair.ends)
    keep = [[j for j in range(len(level)) if (i, j) not in dead]
            for i, level in enumerate(cplx.levels)]
    renumber = [{j: k for k, j in enumerate(kept)} for kept in keep]
    levels = [[cplx.levels[i][j] for j in kept]
              for i, kept in enumerate(keep)]
    diffs = [None] + [
        {renumber[i][col]: {renumber[i - 1][row]: c
                            for row, c in column.items()}
         for col, column in cols[i].items()}
        for i in range(1, len(levels))]
    while len(levels) > 1 and not levels[-1]:
        levels.pop()
        diffs.pop()
    return FreeComplex(cplx.ring, cplx.ideal, levels, diffs, "reduced",
                       basis=cplx.basis)
