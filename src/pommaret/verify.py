"""Self-checks: complex axioms, strand exactness, invariants, oracles.

Everything here works over exact integers.  Exactness of a complex of
multigraded free modules is checked strand by strand: fixing a multidegree
mu cuts every module down to the generators whose multidegree divides mu,
differentials become integer matrices, and exactness at each spot is a rank
count (the composite is already known to vanish).  Only multidegrees in the
lcm lattice of the generator multidegrees can carry homology, so the sweep
runs over that lattice, optionally capped.

The sweep runs on integers built once per complex: lattice points are bit
codes over each variable's distinct exponents (a join is one OR), strand
selection ANDs one prefix bitmask per variable, and every column of every
d_i is a GF(2) bit column (bit r set where the integer entry in row r is
odd).  No row filter is needed, because ``check_complex`` has proven every
entry homogeneous with nonnegative exponents, so each row of a selected
column divides mu too.

Each strand is first certified over GF(2).  ``check_complex`` has proven
d o d = 0 over Z, so rank_Q(d_i) + rank_Q(d_{i+1}) <= size_i at every
position, and rank_2 <= rank_Q holds for every integer matrix (a nonzero
minor mod 2 is a nonzero minor).  Hence rank_2(d_i) + rank_2(d_{i+1}) =
size_i at every position proves the strand exact over Q.  Only a strand
that falls short (torsion such as RP^2's, or a complex that is not exact)
takes the exact route, ``exact_rank`` on integer columns that are built on
the first such strand; that route alone can report a failure.
"""

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import sub

from .errors import ArityMismatch, BrokenInvariant, NotAComplex, NotMinimal
from .ideals import MonomialIdeal
from .monomials import Ring
from .morse import minimize
from .resolution import (BettiTable, betti_table, composite_terms,
                         taylor_complex)


# --- exact linear algebra ---------------------------------------------------


def exact_rank(rows):
    """Rank of a sparse integer matrix given as row dicts.

    Each step pivots on a +-1 entry of the shortest row that has one (a
    pure integer row operation); only when no +-1 entry is left does it
    take an entry of least absolute value and scale the rows it meets by
    the pivot first, which keeps everything in integers and does not
    change the rank.  A column -> rows index limits each step to the rows
    that hold the pivot column, and those rows are updated in place.  The
    input rows are not modified.

    ``check_exactness`` calls it only on strands whose GF(2) ranks fall
    short of the certificate: there rank_2 < rank_Q may hide an exact
    strand, and only exact ranks can tell it from a failing one.
    """
    live = {}
    where = {}
    for k, r in enumerate(rows):
        r = {c: v for c, v in r.items() if v}
        if r:
            live[k] = r
            for c in r:
                where.setdefault(c, set()).add(k)
    rank = 0
    while live:
        pk = None
        size = len(where) + 1  # longer than any row
        for k, r in live.items():
            if len(r) < size:
                for c, v in r.items():
                    if v == 1 or v == -1:
                        pk, pc, size = k, c, len(r)
                        break
        if pk is None:
            _, _, pk, pc = min((abs(v), len(r), k, c)
                               for k, r in live.items() for c, v in r.items())
        prow = live.pop(pk)
        pv = prow.pop(pc)
        rank += 1
        hit = where.pop(pc)
        hit.discard(pk)
        for c in prow:
            where[c].discard(pk)
        for k in hit:
            r = live[k]
            a = r.pop(pc)
            if pv == 1 or pv == -1:
                f = a * pv
            else:
                for c in r:
                    r[c] *= pv
                f = a
            for c, w in prow.items():
                v = r.get(c, 0) - f * w
                if v:
                    if c not in r:
                        where[c].add(k)
                    r[c] = v
                elif c in r:
                    del r[c]
                    where[c].discard(k)
            if not r:
                del live[k]
    return rank


def _gf2_rank(columns, cap):
    """Rank over GF(2) of bit columns (one int per column, bit r for row
    r), or cap once it reaches cap: an XOR basis keyed by each vector's
    highest set bit."""
    basis = {}
    for v in columns:
        while v:
            top = v.bit_length()
            b = basis.get(top)
            if b is None:
                basis[top] = v
                if len(basis) == cap:
                    return cap
                break
            v ^= b
    return len(basis)


# --- complex axioms ----------------------------------------------------------


@dataclass
class ComplexReport:
    """Verdict and failure list of ``check_complex`` or ``supports_check``."""
    ok: bool
    failures: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def check_complex(cplx):
    """d o d = 0 (including the augmentation), homogeneity of every entry,
    and index sanity; failures carry a located witness."""
    failures = []
    for i in range(1, len(cplx.levels)):
        for row, col, c, m in cplx.entries(i):
            if not (0 <= row < cplx.rank(i - 1) and 0 <= col < cplx.rank(i)):
                failures.append({"kind": "index", "level": i,
                                 "row": row, "col": col})
                continue
            if c == 0:
                failures.append({"kind": "zero-entry", "level": i,
                                 "row": row, "col": col})
            src = cplx.levels[i][col].multidegree
            dst = cplx.levels[i - 1][row].multidegree
            if not len(dst) == len(src) == len(m):
                raise ArityMismatch("monomials from different rings")
            # src / dst == m on exponent tuples, with m free of negative
            # exponents, so that equality also proves dst | src
            if min(m) < 0 or tuple(map(sub, src, dst)) != m:
                failures.append({"kind": "inhomogeneous", "level": i,
                                 "row": row, "col": col,
                                 "mono": cplx.ring.text(m)})
    for i in range(1, len(cplx.levels)):
        for col in sorted(cplx.diffs[i]):
            terms = composite_terms(cplx.levels, cplx.diffs, i, col)
            for (target, exps), value in sorted(terms.items(),
                                                key=lambda kv: str(kv[0])):
                failures.append({"kind": "composite", "level": i,
                                 "col": col, "target": target,
                                 "mono": exps, "value": value})
    return ComplexReport(not failures, failures)


# --- strand exactness ---------------------------------------------------------


def _bits(mask):
    """Positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _strand_selector(cplx, n):
    """select(mu) -> (selected, target) for exponent tuples mu of length n.

    Every generator of every level, and then every minimal generator of the
    ideal, owns one bit.  For each variable the distinct exponents are
    sorted and mask k holds the generators whose exponent is among the
    first k; a strand ANDs the n masks that bisect_right picks for mu, so
    it keeps exactly the generators that divide mu, each level's in index
    order.  mu lies in the ideal when a minimal generator's bit survives."""
    exps = []
    spans = []  # per level: offset of its first bit, mask of its width
    for level in cplx.levels:
        spans.append((len(exps), (1 << len(level)) - 1))
        exps += [g.multidegree for g in level]
    ideal_off = len(exps)
    exps += [g.exps for g in cplx.ideal.gens]
    if any(len(e) != n for e in exps):
        raise ArityMismatch("monomials from different rings")
    index = []
    for v in range(n):
        by_value = {}
        for bit, e in enumerate(exps):
            by_value[e[v]] = by_value.get(e[v], 0) | 1 << bit
        values = sorted(by_value)
        masks = [0]
        for x in values:
            masks.append(masks[-1] | by_value[x])
        index.append((values, masks))
    full = (1 << len(exps)) - 1

    def select(mu):
        mask = full
        for (values, masks), x in zip(index, mu):
            mask &= masks[bisect_right(values, x)]
        selected = [_bits(mask >> off & width) for off, width in spans]
        return selected, 1 if mask >> ideal_off else 0
    return select


def _integer_column(column):
    """{row: integer} for one column {row: (coefficient, monomial)} of a
    differential.  Fraction entries (reduced complexes after a non-unit
    pivot) are cleared, and scaling a column keeps every rank."""
    ints = {r: c for r, (c, _m) in column.items()}
    scale = 1
    for c in ints.values():
        if isinstance(c, Fraction):
            scale = lcm(scale, c.denominator)
    if scale != 1:
        ints = {r: int(c * scale) for r, c in ints.items()}
    return ints


def _parity_column(column):
    """The GF(2) bit column of ``_integer_column(column)``: bit r is set
    where row r holds an odd entry."""
    bits = 0
    for r, c in _integer_column(column).items():
        if c % 2:
            bits |= 1 << r
    return bits


def _columns(cplx, build):
    """build(column j of d_i) for every column of every level i >= 1,
    indexed [i][j]; built once per complex."""
    return [None] + [[build(cplx.diffs[i].get(j, {}))
                      for j in range(len(cplx.levels[i]))]
                     for i in range(1, len(cplx.levels))]


def _certified(sel, target, bits):
    """True when GF(2) ranks prove the strand exact.

    Going up the levels, d_i must reach rank size_{i-1} - rank(d_{i-1}).
    d o d = 0 mod 2 bounds it by that, so elimination stops there, and a
    level that must have rank 0 has it without any.  Whole columns, no
    row filter: every row of a selected column is in the strand."""
    rank = target
    for i in range(1, len(sel)):
        need = len(sel[i - 1]) - rank
        if need > 0 and sel[i]:
            level = bits[i]
            rank = _gf2_rank([level[j] for j in sel[i]], need)
        else:
            rank = 0
        if rank != need:
            return False
    return rank == len(sel[-1])


def _strand_verdict(cplx, select, cols, mu):
    """Rank conditions for exactness of the strand at the exponent tuple
    mu, from exact ranks on integer columns; returns (ok, detail)."""
    sel, target = select(mu)
    sizes = [len(s) for s in sel]
    # augmentation strand: a single row of ones over the level-0 survivors
    if target and not sizes[0]:
        return False, {"mu": cplx.ring.text(mu),
                       "position": "augmentation",
                       "reason": "member without covering generator"}
    ranks = [target]
    for i in range(1, len(sel)):
        if sel[i] and sel[i - 1]:
            # whole columns, no row filter: check_complex passed, so every
            # row of a selected column has a multidegree dividing mu
            level = cols[i]
            ranks.append(exact_rank([level[j] for j in sel[i]]))
        else:
            ranks.append(0)
    ranks.append(0)
    for i in range(len(sel)):
        if ranks[i] + ranks[i + 1] != sizes[i]:
            return False, {"mu": cplx.ring.text(mu), "position": i,
                           "size": sizes[i], "ranks": (ranks[i],
                                                       ranks[i + 1])}
    return True, None


@dataclass
class ExactnessReport:
    """Strand verdicts, plus the ``check_complex`` report that had to pass
    before any strand was checked."""
    ok: bool
    strands_checked: int
    capped: bool
    failures: list = field(default_factory=list)
    axioms: ComplexReport = None


def lcm_lattice(cplx, cap):
    """Lcm closure of all generator multidegrees as exponent tuples:
    generator multidegrees first (by degree, then exponents), then new
    joins in discovery order, truncated at cap points.

    Joins only ever take exponents the generators already have, so each
    variable's exponents are ranked and a point is coded as one integer
    holding, per variable, a field of (number of distinct exponents - 1)
    bits whose lowest rank bits are set.  The join of two points is then
    the OR of their codes, and only the points past the generators are
    decoded, from the length of each field."""
    if cap < 1:
        # a shorter lattice would still yield a verdict, over too few strands
        raise ValueError("strand cap must be at least 1, got %r" % (cap,))
    seeds = sorted({g.multidegree for level in cplx.levels
                    for g in level}, key=lambda e: (sum(e), e))
    if len({len(e) for e in seeds}) > 1:
        raise ArityMismatch("monomials from different rings")
    fields = []  # per variable: offset, field mask, exponents by rank
    width = 0
    for values in map(sorted, map(set, zip(*seeds))):
        fields.append((width, (1 << len(values) - 1) - 1, values))
        width += len(values) - 1
    ranks = [{x: k for k, x in enumerate(values)} for _, _, values in fields]
    codes = []
    for e in seeds:
        code = 0
        for (off, _, _), rank, x in zip(fields, ranks, e):
            code |= ((1 << rank[x]) - 1) << off
        codes.append(code)
    seen = set(codes)
    j = 1
    while j < len(codes) and len(codes) < cap:
        for code in map(codes[j].__or__, codes[:j]):
            if code not in seen:
                seen.add(code)
                codes.append(code)
        j += 1
    capped = len(codes) > cap or j < len(codes)
    points = seeds[:cap]
    for code in codes[len(seeds):cap]:
        points.append(tuple(values[(code >> off & mask).bit_length()]
                            for off, mask, values in fields))
    return points, capped


def check_exactness(cplx, cap=20000):
    """Strand-by-strand exactness over the lcm lattice: GF(2) ranks
    certify a strand, and only a strand they leave short is decided by
    ``_strand_verdict``'s exact ranks (see the module docstring)."""
    base = check_complex(cplx)
    if not base.ok:
        raise NotAComplex("d o d = 0 fails; exactness is meaningless: %r"
                          % base.failures[:3])
    points, capped = lcm_lattice(cplx, cap)
    failures = []
    if points:
        select = _strand_selector(cplx, len(points[0]))
        bits = _columns(cplx, _parity_column)
        cols = None
        for mu in points:
            if _certified(*select(mu), bits):
                continue
            if cols is None:
                cols = _columns(cplx, _integer_column)
            ok, detail = _strand_verdict(cplx, select, cols, mu)
            if not ok:
                failures.append(detail)
    return ExactnessReport(not failures, len(points), capped, failures,
                           base)


# --- invariants ----------------------------------------------------------------


@dataclass
class InvariantReport:
    betti: BettiTable
    pd: int
    reg: int
    pd_from_classes: int
    reg_from_basis: int

    @property
    def consistent(self):
        return (self.pd == self.pd_from_classes
                and self.reg == self.reg_from_basis)


def homological_invariants(cplx, basis=None):
    """Betti table, projective dimension and regularity of a minimal
    complex, with the basis-side cross-checks."""
    units = cplx.unit_entries()
    if units:
        raise NotMinimal("unit entries remain: %r" % units[:3])
    basis = basis if basis is not None else cplx.basis
    betti = betti_table(cplx)
    pd = max(i for i, level in enumerate(cplx.levels) if level)
    reg = max(j - i for (i, j) in betti.by_degree)
    pd_alt = reg_alt = -1
    if basis is not None:
        pd_alt = basis.ring.n - basis.d
        reg_alt = basis.degree()
    return InvariantReport(betti, pd, reg, pd_alt, reg_alt)


# --- oracles --------------------------------------------------------------------


def oracle_betti(ideal):
    """Betti numbers via a route avoiding the basis machinery entirely:
    minimize the Taylor resolution by plain scalar-entry cancellation."""
    return betti_table(minimize(taylor_complex(ideal)))


def random_quasi_stable(seed, n, max_deg, count):
    """Deterministic random quasi-stable ideal: one pure power per
    variable (this alone forces quasi-stability) plus `count` extra
    monomials of degree <= max_deg."""
    rng = random.Random(seed)
    ring = Ring(n)
    mons = []
    for i in range(1, n + 1):
        e = [0] * n
        e[i - 1] = rng.randint(1, max_deg)
        mons.append(ring.monomial(e))
    for _ in range(count):
        e = [0] * n
        for i in rng.choices(range(n), k=rng.randint(1, max_deg)):
            e[i] += 1
        mons.append(ring.monomial(e))
    ideal = MonomialIdeal(ring, mons)
    if not ideal.is_quasi_stable():
        raise BrokenInvariant("pure powers did not force quasi-stability")
    return ideal
