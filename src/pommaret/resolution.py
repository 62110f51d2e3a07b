"""Free resolutions of quasi-stable monomial ideals from a Pommaret basis.

Generators of the i-th free module are symbols [h, u]: h a basis element, u
a squarefree set of i nonmultiplicative variables of h.  The differential
sends [h, u] to an alternating sum over the variables of u; extracting u_j
leaves a multiplicative copy x_{u_j}[h, u \\ u_j] minus the rewritten copy
t[h', u \\ u_j] with x_{u_j} h = t h' the involutive decomposition.  Terms
whose rewritten symbol is not legal (u \\ u_j meets the multiplicative
variables of h') are dropped.

For stable ideals the minimal generators are the basis and the same
construction is the classical minimal resolution with signs
sgn(x_i, u) = +1 iff |{j in u : j >= i}| is odd.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import add, sub

from .errors import ArityMismatch, DegreeOutOfRange


class Symbol(namedtuple("Symbol", "alpha u")):
    """Resolution generator [h_alpha, u]; alpha indexes the basis.  Equal
    to, and hashed like, the plain tuple (alpha, u)."""
    __slots__ = ()


class Face(namedtuple("Face", "gens")):
    """Taylor generator: a set of minimal-generator indices."""
    __slots__ = ()


class Gen:
    """One free-module generator: hashable key, multidegree, display text."""

    __slots__ = ("key", "multidegree", "text")

    def __init__(self, key, multidegree, text):
        self.key = key
        self.multidegree = multidegree
        self.text = text

    def __repr__(self):
        return self.text


class FreeComplex:
    """A complex of free modules F_top -> ... -> F_0 -> I.

    ``levels[i]`` lists the generators of F_i; ``diffs[i]`` (i >= 1) holds
    the differential F_i -> F_{i-1} as sparse columns
    {col: {row: (coeff, exps)}}, exps the exponent tuple of the entry's
    monomial.  Generator multidegrees are exponent tuples too, and
    ``ring.text`` displays both.  The augmentation F_0 -> I sends each
    level-0 generator to its multidegree with coefficient 1 and is left
    implicit.

    Every exponent tuple, and the ideal's ring, has ``ring.n`` entries;
    a complex that breaks this raises ArityMismatch when it is built.
    Complexes are frozen once built, so the kernels that read them add
    tuples without checking their lengths again.
    """

    def __init__(self, ring, ideal, levels, diffs, provenance, basis=None):
        lengths = {len(m) for diff in diffs[1:] for column in diff.values()
                   for _c, m in column.values()}
        lengths.update(len(g.multidegree) for level in levels for g in level)
        lengths.update(len(g.exps) for g in ideal.gens)
        lengths.add(ideal.ring.n)
        if lengths != {ring.n}:
            raise ArityMismatch("monomials from different rings")
        self.ring = ring
        self.ideal = ideal
        self.levels = levels
        self.diffs = diffs
        self.provenance = provenance
        self.basis = basis

    @property
    def length(self):
        return len(self.levels) - 1

    def rank(self, i):
        return len(self.levels[i])

    def ranks(self):
        return tuple(len(lv) for lv in self.levels)

    def entry(self, i, row, col):
        """(coeff, exps) of d_i at (row, col), or None."""
        return self.diffs[i].get(col, {}).get(row)

    def entries(self, i):
        """All nonzero entries of d_i as (row, col, coeff, exps)."""
        for col, column in sorted(self.diffs[i].items()):
            for row, (c, m) in sorted(column.items()):
                yield row, col, c, m

    def column(self, i, col):
        return self.diffs[i].get(col, {})

    def unit_entries(self):
        """Entries that are invertible scalars (exponents 0, coeff != 0)."""
        return unit_entries(self.diffs)

    def to_json_dict(self):
        mods = []
        for level in self.levels:
            entries = []
            for g in level:
                rec = {"multidegree": list(g.multidegree)}
                if isinstance(g.key, Symbol):
                    rec["h"] = list(
                        self.basis.elements[g.key.alpha].exps)
                    rec["u"] = list(g.key.u)
                elif isinstance(g.key, Face):
                    rec["face"] = list(g.key.gens)
                entries.append(rec)
            mods.append(entries)
        diffs = []
        for i in range(1, len(self.levels)):
            entries = []
            for row, col, c, m in self.entries(i):
                entries.append({"row": row, "col": col,
                                "coeff": _coeff_json(c),
                                "mono": list(m)})
            diffs.append(entries)
        return {"n": self.ring.n, "modules": mods, "differentials": diffs}

    def __repr__(self):
        return "FreeComplex(%s, ranks=%r)" % (self.provenance, list(self.ranks()))


def unit_entries(diffs):
    """(level, row, col, coeff) of every invertible scalar entry (exponents
    0, coeff != 0) of sparse differentials, by level, column, then row."""
    out = []
    for i in range(1, len(diffs)):
        for col, column in sorted(diffs[i].items()):
            for row, (c, m) in sorted(column.items()):
                if c != 0 and not any(m):
                    out.append((i, row, col, c))
    return out


def composite_terms(levels, diffs, i, col):
    """Nonzero terms of d_{i-1} o d_i on column ``col`` of d_i, or of the
    augmentation o d_1 when i = 1, as {(row, exps): coeff}; the row of an
    augmentation term is None.  Rows outside F_{i-1} are skipped.

    Products are sums of exponent tuples, of equal length in any complex
    that ``FreeComplex`` accepted."""
    acc = {}
    get = acc.get
    n_rows = len(levels[i - 1])
    for row, (c1, e1) in diffs[i].get(col, {}).items():
        if not 0 <= row < n_rows:
            continue
        if i >= 2:
            for row2, (c2, e2) in diffs[i - 1].get(row, {}).items():
                key = (row2, tuple(map(add, e1, e2)))
                acc[key] = get(key, 0) + c1 * c2
        else:
            key = (None, tuple(map(add, e1, levels[0][row].multidegree)))
            acc[key] = get(key, 0) + c1
    return {key: value for key, value in acc.items() if value != 0}


def _coeff_json(c):
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return "%d/%d" % (c.numerator, c.denominator)
    return c


# --- symbol resolutions ----------------------------------------------------


def symbol_text(basis, alpha, u):
    names = basis.ring.names
    inside = str(basis.elements[alpha])
    if u:
        inside += ", " + "*".join(names[k - 1] for k in u)
    return "[" + inside + "]"


def symbol_multidegree(basis, alpha, u):
    exps = list(basis.elements[alpha].exps)
    for k in u:
        exps[k - 1] += 1
    return tuple(exps)


def ps_generators(basis, i):
    """Level-i symbols [h, u], |u| = i, in basis order then u-lex order."""
    top = basis.ring.n - basis.d
    if not 0 <= i <= top:
        raise DegreeOutOfRange("level %d outside 0..%d" % (i, top))
    out = []
    for alpha, h in enumerate(basis.elements):
        for u in combinations(h.nonmultiplicative(), i):
            out.append(Symbol(alpha, u))
    return out


def symbol_facets(basis, alpha, u):
    """For each variable x_k of u, in order: (k, (alpha, rest), rewritten, t)
    with rest = u minus k and x_k h_alpha = t h_beta.  ``rewritten`` is
    (beta, rest), or None when rest meets the multiplicative variables of
    h_beta and the rewritten term is dropped."""
    classes = basis.classes
    for j, k in enumerate(u):
        rest = u[:j] + u[j + 1:]
        beta, t = basis.delta[(alpha, k)]
        legal = all(v > classes[beta] for v in rest)
        yield k, (alpha, rest), (beta, rest) if legal else None, t


def expected_ranks(basis):
    """Predicted module ranks from the class counts alone."""
    n = basis.ring.n
    counts = basis.class_counts()
    out = []
    for i in range(n - basis.d + 1):
        out.append(sum(comb(n - k, i) * counts[k - 1]
                       for k in range(1, n - i + 1)))
    return tuple(out)


def ps_complex(basis):
    """The cone resolution of the basis's ideal; minimal iff the ideal is
    stable."""
    ring = basis.ring
    levels = []
    lookup = []
    top = ring.n - basis.d
    for i in range(top + 1):
        syms = ps_generators(basis, i)
        gens = [Gen(s, symbol_multidegree(basis, s.alpha, s.u),
                    symbol_text(basis, s.alpha, s.u)) for s in syms]
        levels.append(gens)
        lookup.append({s: j for j, s in enumerate(syms)})
    xs = [None] + [tuple(int(j == k) for j in range(1, ring.n + 1))
                   for k in range(1, ring.n + 1)]
    diffs = [None]
    for i in range(1, top + 1):
        below = lookup[i - 1]
        cols = {}
        for cidx, g in enumerate(levels[i]):
            column = {}
            for j, (k, face, rewritten, t) in enumerate(
                    symbol_facets(basis, *g.key)):
                sign = 1 if (i - 1 - j) % 2 == 0 else -1
                column[below[face]] = (sign, xs[k])
                if rewritten is not None:
                    column[below[rewritten]] = (-sign, t.exps)
            cols[cidx] = column
        diffs.append(cols)
    return FreeComplex(ring, basis.ideal, levels, diffs, "pommaret",
                       basis=basis)


# --- the Taylor resolution --------------------------------------------------


def taylor_complex(ideal):
    """Simplicial resolution on all subsets of the minimal generators."""
    ring = ideal.ring
    gens = ideal.gens
    m = len(gens)
    levels = []
    lookup = []
    mds = {}
    for i in range(m):
        level = []
        table = {}
        for face in combinations(range(m), i + 1):
            md = gens[face[0]].exps
            for g in face[1:]:
                md = tuple(map(max, md, gens[g].exps))
            mds[face] = md
            text = "{" + ", ".join(str(gens[g]) for g in face) + "}"
            table[face] = len(level)
            level.append(Gen(Face(face), md, text))
        levels.append(level)
        lookup.append(table)
    diffs = [None]
    for i in range(1, m):
        cols = {}
        for cidx, g in enumerate(levels[i]):
            face = g.key.gens
            column = {}
            for j in range(len(face)):
                rest = face[:j] + face[j + 1:]
                sign = 1 if j % 2 == 0 else -1
                column[lookup[i - 1][rest]] = (
                    sign, tuple(map(sub, mds[face], mds[rest])))
            cols[cidx] = column
        diffs.append(cols)
    return FreeComplex(ring, ideal, levels, diffs, "taylor")


# --- Betti numbers -----------------------------------------------------------


class BettiTable:
    """Multigraded generator counts of a (minimal) complex."""

    __slots__ = ("by_degree", "by_multidegree")

    def __init__(self, by_degree, by_multidegree):
        self.by_degree = dict(by_degree)
        self.by_multidegree = dict(by_multidegree)

    def total(self, i):
        return sum(v for (l, _), v in self.by_degree.items() if l == i)

    def totals(self):
        top = max((l for (l, _) in self.by_degree), default=-1)
        return tuple(self.total(i) for i in range(top + 1))

    def __eq__(self, other):
        return (isinstance(other, BettiTable)
                and self.by_degree == other.by_degree
                and self.by_multidegree == other.by_multidegree)

    def render(self):
        lines = []
        for (i, j) in sorted(self.by_degree):
            lines.append("beta_%d,%d = %d" % (i, j, self.by_degree[(i, j)]))
        return "\n".join(lines)


def betti_table(cplx):
    by_degree = {}
    by_md = {}
    for i, level in enumerate(cplx.levels):
        for g in level:
            j = sum(g.multidegree)
            by_degree[(i, j)] = by_degree.get((i, j), 0) + 1
            key = (i, g.multidegree)
            by_md[key] = by_md.get(key, 0) + 1
    return BettiTable(by_degree, by_md)


# --- text rendering -----------------------------------------------------------


def coeff_text(c, mono):
    """Display form of an entry, given the text of its monomial."""
    if mono == "1":
        body = str(abs(c))
    elif abs(c) == 1:
        body = mono
    else:
        body = "%s*%s" % (abs(c), mono)
    return ("-" if c < 0 else "") + body


def render_differential(cplx, i):
    """Plain grid of d_i with row and column generator labels."""
    rows = cplx.levels[i - 1]
    cols = cplx.levels[i]
    grid = [[""] * (len(cols) + 1) for _ in range(len(rows) + 1)]
    grid[0][0] = "d_%d" % i
    for c, g in enumerate(cols):
        grid[0][c + 1] = g.text
    for r, g in enumerate(rows):
        grid[r + 1][0] = g.text
    for r in range(len(rows)):
        for c in range(len(cols)):
            e = cplx.entry(i, r, c)
            grid[r + 1][c + 1] = (coeff_text(e[0], cplx.ring.text(e[1]))
                                  if e else ".")
    widths = [max(len(grid[r][c]) for r in range(len(grid)))
              for c in range(len(grid[0]))]
    lines = []
    for row in grid:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
