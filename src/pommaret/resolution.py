"""Free resolutions of quasi-stable monomial ideals from a Pommaret basis.

Generators of the i-th free module are symbols [h, u]: h a basis element, u
a squarefree set of i nonmultiplicative variables of h.  The differential
sends [h, u] to an alternating sum over the variables of u; extracting u_j
leaves a multiplicative copy x_{u_j}[h, u \\ u_j] minus the rewritten copy
t[h', u \\ u_j] with x_{u_j} h = t h' the involutive decomposition.  Terms
whose rewritten symbol is not legal (u \\ u_j meets the multiplicative
variables of h') are dropped.  ``symbol_facets`` lists the terms with
their cell-boundary signs, (-1)^j on x_{u_j}[h, u \\ u_j] for j = 1..i, and
d_i is (-1)^i times that boundary.  ``composite_terms`` is the one
d o d = 0 kernel: one sweep per level.

For stable ideals the minimal generators are the basis and the same
construction is the classical minimal resolution with signs
sgn(x_i, u) = +1 iff |{j in u : j >= i}| is odd.

A built complex stores no display text: ``FreeComplex.text`` and
``Ring.text`` make it where output prints it.
"""

from collections import Counter, namedtuple
from itertools import combinations, islice
from math import comb
from operator import itemgetter, sub

from .errors import ArityMismatch, DegreeOutOfRange, NotAComplex


class Symbol(namedtuple("Symbol", "alpha u")):
    """Resolution generator [h_alpha, u]; alpha indexes the basis.  Equal
    to, and hashed like, the plain tuple (alpha, u)."""
    __slots__ = ()


class Face(namedtuple("Face", "gens")):
    """Taylor generator: a set of minimal-generator indices."""
    __slots__ = ()


class Gen:
    """One free-module generator: hashable key and multidegree, an
    exponent tuple.  ``FreeComplex.text`` displays it."""

    __slots__ = ("key", "multidegree")

    def __init__(self, key, multidegree):
        self.key = key
        self.multidegree = multidegree

    def __repr__(self):
        return "Gen(%r, %r)" % (self.key, self.multidegree)


class FreeComplex:
    """A complex of free modules F_top -> ... -> F_0 -> I.

    ``levels[i]`` lists the generators of F_i; ``diffs[i]`` (i >= 1) holds
    the differential F_i -> F_{i-1} as sparse columns {col: {row: coeff}}.
    Generator multidegrees are exponent tuples; ``text`` and ``ring.text``
    display generators and tuples where output prints them.  An entry
    stores its coefficient alone: its monomial is its column's multidegree
    over its row's, derived by ``entries``.  The augmentation F_0 -> I
    sends each level-0 generator to its multidegree with coefficient 1 and
    is left implicit.

    Every complex is proven multigraded once, when it is built: every
    multidegree, and the ideal's ring, has ``ring.n`` entries, or
    ArityMismatch is raised; every entry is an ``int``, lies inside its
    levels and its row's multidegree divides its column's, or NotAComplex
    is raised.
    Complexes are frozen once built, so the kernels that read one work on
    its coefficients alone.  The same pass finds the unit entries and codes
    each multidegree once (``_grading``): ``classes`` per generator and
    ``ideal_codes`` per minimal generator, in the layout ``fields`` that
    ``decode`` reads back.
    """

    def __init__(self, ring, ideal, levels, diffs, provenance, basis=None):
        lengths = {len(g.multidegree) for level in levels for g in level}
        lengths.add(ideal.ring.n)
        if lengths != {ring.n}:
            raise ArityMismatch("monomials from different rings")
        self.fields, self.classes, self.ideal_codes, self._units = _grading(
            levels, diffs, [g.exps for g in ideal.gens])
        self.ring = ring
        self.ideal = ideal
        self.levels = levels
        self.diffs = diffs
        self.provenance = provenance
        self.basis = basis

    @property
    def length(self):
        return len(self.levels) - 1

    def ranks(self):
        return tuple(len(lv) for lv in self.levels)

    def entries(self, i):
        """All nonzero entries of d_i as (row, col, coeff, exps)."""
        rows, cols = self.levels[i - 1], self.levels[i]
        for col, column in sorted(self.diffs[i].items()):
            src = cols[col].multidegree
            for row, c in sorted(column.items()):
                yield row, col, c, tuple(map(sub, src, rows[row].multidegree))

    def decode(self, code):
        """The exponent tuple of a multidegree code (see ``fields``)."""
        return tuple(values[(code >> off & mask).bit_length()]
                     for off, mask, values in self.fields)

    def text(self, g):
        """Display text of g from its key: ``[h, u]`` for a symbol,
        ``{g1, g2, ...}`` for a Taylor face, else ``str(key)``."""
        key = g.key
        if isinstance(key, Face):
            return "{%s}" % ", ".join(str(self.ideal.gens[i])
                                      for i in key.gens)
        if not isinstance(key, Symbol):
            return str(key)
        inside = self.basis.ring.text(self.basis.elements[key.alpha])
        if key.u:
            names = self.basis.ring.names
            inside += ", " + "*".join(names[k - 1] for k in key.u)
        return "[" + inside + "]"

    def unit_entries(self):
        """(level, row, col, coeff) of every invertible scalar entry
        (row and column of one multidegree, coeff != 0), by level,
        column, then row."""
        return list(self._units)

    def to_json_dict(self):
        mods = []
        for level in self.levels:
            entries = []
            for g in level:
                rec = {"multidegree": list(g.multidegree)}
                if isinstance(g.key, Symbol):
                    rec["h"] = list(self.basis.elements[g.key.alpha])
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
                                "coeff": c,
                                "mono": list(m)})
            diffs.append(entries)
        return {"n": self.ring.n, "modules": mods, "differentials": diffs}

    def __repr__(self):
        return "FreeComplex(%s, ranks=%r)" % (self.provenance, list(self.ranks()))


def _grading(levels, diffs, gens):
    """(fields, classes, codes of gens, units) of a multigraded complex,
    or NotAComplex.

    Each variable's distinct exponents over the generator multidegrees and
    the exponent tuples ``gens`` are ranked, and a multidegree is coded as
    one integer holding per variable a field of (number of distinct
    exponents - 1) bits whose lowest rank bits are set; ``fields`` lists
    per variable (offset, field mask, exponents by rank).  So a code
    divides another iff ``a & ~b == 0``, equal codes are equal
    multidegrees, and ``a | b`` is the lcm.  ``units`` lists (level, row,
    col, coeff) of the entries with coeff != 0 whose row and column share
    a class, in order.
    """
    if len(diffs) != len(levels):
        raise NotAComplex("%d differentials for %d levels"
                          % (len(diffs) - 1, len(levels)))
    mds = [g.multidegree for level in levels for g in level] + gens
    fields = []
    bits = []  # per variable: the field of rank bits of each multidegree
    width = 0
    for column in zip(*mds):
        values = sorted(set(column))
        fields.append((width, (1 << len(values) - 1) - 1, values))
        rank = {x: (1 << k) - 1 << width for k, x in enumerate(values)}
        bits.append(map(rank.__getitem__, column))
        width += len(values) - 1
    # the fields are disjoint, so their sum is their OR
    codes = map(sum, zip(*bits))
    classes = [list(islice(codes, len(level))) for level in levels]
    units = []
    for i in range(1, len(levels)):
        rows = classes[i - 1]
        cols = classes[i]
        n_rows = len(rows)
        n_cols = len(cols)
        for col, column in diffs[i].items():
            if not 0 <= col < n_cols:
                raise NotAComplex("d_%d has column %r outside F_%d"
                                  % (i, col, i))
            src = cols[col]
            outside = ~src
            for row, c in column.items():
                if not 0 <= row < n_rows:
                    raise NotAComplex("d_%d has row %r outside F_%d"
                                      % (i, row, i - 1))
                if type(c) is not int:
                    raise NotAComplex("entry (%d, %d) of d_%d: %r is not an "
                                      "integer" % (row, col, i, c))
                dst = rows[row]
                if dst & outside:
                    raise NotAComplex("entry (%d, %d) of d_%d: its row's "
                                      "multidegree does not divide its "
                                      "column's" % (row, col, i))
                if dst == src and c != 0:
                    units.append((i, row, col, c))
    units.sort(key=itemgetter(0, 2, 1))  # by level, column, then row
    return fields, classes, list(codes), units


def composite_terms(diffs, i):
    """Nonzero coefficients of d_{i-1} o d_i, or of the augmentation o d_1
    (i = 1, row None), as {col: {row: value}}, over every column of d_i
    in one sweep, on coefficient columns such as ``FreeComplex.diffs``.
    In a complex that ``FreeComplex`` accepted, every path from a column
    to a row carries one monomial, so only coefficients are summed."""
    out = {}
    if i == 1:
        for col, column in diffs[i].items():
            total = sum(column.values())
            if total:
                out[col] = {None: total}
        return out
    below = diffs[i - 1]
    empty = {}
    for col, column in diffs[i].items():
        acc = {}
        get = acc.get
        for row, c1 in column.items():
            for row2, c2 in below.get(row, empty).items():
                acc[row2] = get(row2, 0) + c1 * c2
        for value in acc.values():
            if value:
                out[col] = {row: v for row, v in acc.items() if v}
                break
    return out


# --- symbol resolutions ----------------------------------------------------


def symbol_multidegree(basis, alpha, u):
    exps = list(basis.elements[alpha])
    for k in u:
        exps[k - 1] += 1
    return tuple(exps)


def ps_generators(basis, i):
    """Level-i symbols [h, u], |u| = i, in basis order then u-lex order."""
    top = basis.ring.n - basis.d
    if not 0 <= i <= top:
        raise DegreeOutOfRange("level %d outside 0..%d" % (i, top))
    n = basis.ring.n
    out = []
    for alpha, c in enumerate(basis.classes):
        for u in combinations(range(c + 1, n + 1), i):
            out.append(Symbol(alpha, u))
    return out


def symbol_facets(basis, alpha, u, templates):
    """The signed boundary terms of [h_alpha, u], as a list of (key, sign)
    pairs.  For each variable x_k of u, in order, with rest = u minus k
    and x_k h_alpha = t h_beta: the face (alpha, rest), then the rewritten
    term (beta, rest) with the opposite sign, or nothing when rest meets
    the multiplicative variables x_1..x_cls(h_beta) of h_beta and the
    rewritten term is dropped; u is increasing, so that is when rest[0]
    <= cls(h_beta).  The face of the j-th variable of u, j = 1..|u|, has
    sign (-1)^j.  This is the one place that holds the dropped-term rule
    and the boundary signs: the cells keep the signs, and ``ps_complex``
    multiplies them by (-1)^i at level i.  The entry monomials x_k and t
    are (alpha, u)'s multidegree over the facets', so they are not
    returned.  The (k, rest, (-1)^j) of u depend on u alone, and are kept
    in ``templates``, a dict the caller owns for one build."""
    template = templates.get(u)
    if template is None:
        template = templates[u] = [(k, u[:j] + u[j + 1:], (-1) ** (j + 1))
                                   for j, k in enumerate(u)]
    classes = basis.classes
    delta = basis.delta
    out = []
    for k, rest, sign in template:
        out.append(((alpha, rest), sign))
        beta = delta[(alpha, k)]
        if not rest or rest[0] > classes[beta]:
            out.append(((beta, rest), -sign))
    return out


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
    stable.

    Each level is built in one sweep over the symbols in
    ``ps_generators``' order: [h, u] has multidegree h times the
    variables of u, and its column of d takes the terms of
    ``symbol_facets``, each sign times (-1)^i: d_i is (-1)^i times the
    cells' boundary.  A term that is no symbol one level down raises
    NotAComplex."""
    n = basis.ring.n
    memo = {}  # symbol_facets' extraction lists
    levels = []
    diffs = []
    below = {}
    for i in range(n - basis.d + 1):
        level = []
        index = {}
        cols = {}
        flip = (-1) ** i
        for alpha, (h, c) in enumerate(zip(basis.elements, basis.classes)):
            for u in combinations(range(c + 1, n + 1), i):
                key = Symbol(alpha, u)
                j = index[key] = len(level)
                exps = list(h)
                for k in u:
                    exps[k - 1] += 1
                level.append(Gen(key, tuple(exps)))
                column = cols[j] = {}
                try:
                    for face, sign in symbol_facets(basis, alpha, u, memo):
                        column[below[face]] = flip * sign
                except KeyError as missing:
                    raise NotAComplex("d_%d has row %r outside F_%d" % (
                        i, missing.args[0], i - 1)) from None
        levels.append(level)
        diffs.append(cols if i else None)
        below = index
    return FreeComplex(basis.ring, basis.ideal, levels, diffs, "pommaret",
                       basis=basis)


# --- the Taylor resolution --------------------------------------------------


def taylor_complex(ideal):
    """Simplicial resolution on all subsets of the minimal generators."""
    ring = ideal.ring
    gens = ideal.gens
    m = len(gens)
    levels = []
    lookup = []
    for i in range(m):
        level = []
        table = {}
        for face in combinations(range(m), i + 1):
            md = gens[face[0]].exps
            for g in face[1:]:
                md = tuple(map(max, md, gens[g].exps))
            table[face] = len(level)
            level.append(Gen(Face(face), md))
        levels.append(level)
        lookup.append(table)
    diffs = [None]
    for i in range(1, m):
        cols = {}
        for cidx, g in enumerate(levels[i]):
            face = g.key.gens
            column = {}
            for j in range(len(face)):
                column[lookup[i - 1][face[:j] + face[j + 1:]]] = (
                    1 if j % 2 == 0 else -1)
            cols[cidx] = column
        diffs.append(cols)
    return FreeComplex(ring, ideal, levels, diffs, "taylor")


# --- Betti numbers -----------------------------------------------------------


class BettiTable:
    """Multigraded generator counts of a (minimal) complex.

    ``by_multidegree`` maps (level, multidegree) to a count; ``by_degree``
    is derived from it, summing the counts of each (level, total
    degree)."""

    __slots__ = ("by_degree", "by_multidegree")

    def __init__(self, by_multidegree):
        self.by_multidegree = dict(by_multidegree)
        self.by_degree = {}
        for (i, md), count in self.by_multidegree.items():
            key = (i, sum(md))
            self.by_degree[key] = self.by_degree.get(key, 0) + count

    def __eq__(self, other):
        return (isinstance(other, BettiTable)
                and self.by_multidegree == other.by_multidegree)

    def render(self):
        lines = []
        for (i, j) in sorted(self.by_degree):
            lines.append("beta_%d,%d = %d" % (i, j, self.by_degree[(i, j)]))
        return "\n".join(lines)


def betti_table(cplx):
    return BettiTable(Counter((i, g.multidegree)
                              for i, level in enumerate(cplx.levels)
                              for g in level))


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
    """Plain grid of d_i with row and column generator labels: "." where
    no entry is stored, so only the stored entries are formatted."""
    text = cplx.text
    grid = [["d_%d" % i] + [text(g) for g in cplx.levels[i]]]
    dots = ["."] * len(cplx.levels[i])
    grid += [[text(g)] + dots for g in cplx.levels[i - 1]]
    for r, c, coeff, mono in cplx.entries(i):
        grid[r + 1][c + 1] = coeff_text(coeff, cplx.ring.text(mono))
    widths = [max(map(len, column)) for column in zip(*grid)]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths))
                     for row in grid)
