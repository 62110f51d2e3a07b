"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's own algorithms: rank via
dense Gaussian elimination over Fraction, completion via a quadratic
rescan, membership via direct divisor scans.  Expected values frozen in the
tests were produced by these or by hand.
"""

import itertools
import random
from fractions import Fraction

from pommaret import (FreeComplex, Matching, MonomialIdeal, Pair, Ring,
                      minimal_generators)
from pommaret.errors import PommaretError


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
    for exps in itertools.product(range(deg + 1), repeat=ring.n):
        if 0 < sum(exps) <= deg:
            yield ring.monomial(exps)


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


def reference_lattice(cplx, cap):
    """Reference ``lcm_lattice``: the same closure, on ``Monomial``s.

    Generator multidegrees by degree, then exponents; then the joins
    ``Monomial.lcm`` finds, in discovery order, cut at cap points.  Returns
    (points as exponent tuples, capped)."""
    seeds = sorted({cplx.ring.monomial(g.multidegree)
                    for level in cplx.levels for g in level},
                   key=lambda m: (m.degree(), m.exps))
    points = list(seeds)
    seen = set(points)
    j = 1
    while j < len(points) and len(points) < cap:
        for k in range(j):
            m = points[j].lcm(points[k])
            if m not in seen:
                seen.add(m)
                points.append(m)
        j += 1
    capped = len(points) > cap or j < len(points)
    return [m.exps for m in points[:cap]], capped


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
                    entry = cplx.entry(i, row, col)
                    if entry is not None:
                        rows[-1][c] = entry[0]
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
    half of it: column col of d_i halves and row col of d_{i+1} doubles."""
    diffs = [None]
    for lvl in range(1, len(cplx.levels)):
        diffs.append({c: dict(column)
                      for c, column in cplx.diffs[lvl].items()})
    diffs[i][col] = {row: (Fraction(c, 2), m)
                     for row, (c, m) in diffs[i][col].items()}
    for column in diffs[i + 1].values():
        if col in column:
            c, m = column[col]
            column[col] = (2 * c, m)
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


def naive_completion(ideal, cap):
    """Quadratic-rescan completion; None when the cap is passed.

    Independent of the library's worklist: every pass rescans everything
    and inserts the smallest missing prolongation.
    """
    elems = set(ideal.gens)
    while True:
        missing = []
        for h in elems:
            for k in h.nonmultiplicative():
                m = h.times_var(k)
                if not any(g.involutively_divides(m) for g in elems):
                    missing.append(m)
        if not missing:
            return elems
        m = min(missing, key=lambda x: (x.degree(), x.exps))
        if m.degree() > cap:
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
            c = g.cls
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

    def cls(e):
        return next(k for k, x in enumerate(e, start=1) if x)

    def b(m):
        found = [g for g in gens
                 if all(x <= y for x, y in zip(g, m))
                 and g[cls(g):] == m[cls(g):]]
        if len(found) != 1:
            raise ValueError("%r has %d EK divisors" % (m, len(found)))
        return found[0]

    levels = [dict() for _ in range(n)]
    for g in gens:
        for i in range(n - cls(g) + 1):
            for u in itertools.combinations(range(cls(g) + 1, n + 1), i):
                column = {}
                for k in u:
                    rest = tuple(j for j in u if j != k)
                    sign = ek_sign(k, u)
                    xk = tuple(int(j == k) for j in range(1, n + 1))
                    column[(g, rest)] = (sign, xk)
                    h = b(tuple(map(sum, zip(g, xk))))
                    if all(j > cls(h) for j in rest):
                        t = tuple(x + y - z for x, y, z in zip(g, xk, h))
                        column[(h, rest)] = (-sign, t)
                levels[i][(g, u)] = column
    return [level for level in levels if level]


def symbol_differential(cplx):
    """A symbol complex in the form of ``ek_differential``: basis indices
    replaced by the exponent tuples of the basis elements."""
    elements = cplx.basis.elements

    def pair(gen):
        return (elements[gen.key.alpha].exps, gen.key.u)

    out = [{pair(g): {} for g in cplx.levels[0]}]
    for i in range(1, len(cplx.levels)):
        below = cplx.levels[i - 1]
        out.append({pair(g): {pair(below[row]): (c, m)
                              for row, (c, m) in cplx.column(i, col).items()}
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
            col = cplx.diffs[lvl].get(where[lvl][col_md], {})
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
    """(beta, t) for the nonmultiplicative product x_k * h_alpha."""
    if (alpha, k) not in basis.delta:
        raise NotNonMultiplicative(
            "x%d is multiplicative for element %d" % (k, alpha))
    return basis.delta[(alpha, k)]


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
    variables; the empty and one-vertex paths have multidegree 1.
    """
    ring = graph.basis.ring
    md = ring.unit()
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
        md = md * t
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
                beta, t = basis.delta[(alpha, var)]
                if not t.is_unit():
                    continue
                rest = tuple(k for k in u if k != var)
                row = lookup[level - 1].get((beta, rest))
                if row is None or (level - 1, row) in matched:
                    continue
                entry = cplx.entry(level, row, col)
                if entry is None or entry[0] == 0 or any(entry[1]):
                    continue
                pairs.append(Pair(level, col, row, var))
                matched.add((level, col))
                matched.add((level - 1, row))
    return Matching(pairs)
