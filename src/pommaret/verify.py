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

One walk, ``_rank_walk``, tests rank(d_i) + rank(d_{i+1}) = size_i at
every position of a strand, with the rank routine it is given.  It runs
first over GF(2).  ``check_complex`` has proven d o d = 0 over Z, so
rank_Q(d_i) + rank_Q(d_{i+1}) <= size_i at every position, and rank_2 <=
rank_Q holds for every integer matrix (a nonzero minor mod 2 is a nonzero
minor).  Hence GF(2) ranks that meet size_i at every position prove the
strand exact over Q.  Only a strand that falls short (torsion such as
RP^2's, or a complex that is not exact) takes the exact route: the same
walk with ``exact_rank``, a plain fraction-free elimination, on integer
columns that are built on the first such strand.  That route alone can
report a failure, and it is rare (no strand of the verify workloads in
``perfbench`` reaches it), so it is kept simple rather than fast.

Every complex checked its arity when it was built (see ``FreeComplex``),
so nothing here checks it again.
"""

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import sub

from .errors import BrokenInvariant, NotAComplex, NotMinimal
from .ideals import MonomialIdeal
from .monomials import Ring
from .morse import minimize
from .resolution import (BettiTable, betti_table, composite_terms,
                         taylor_complex)


# --- exact linear algebra ---------------------------------------------------


def exact_rank(rows):
    """Rank of a sparse integer matrix given as row dicts, by
    fraction-free elimination.

    Each step pivots on the entry pv of least absolute value in the
    shortest live row; every other row r with an entry a in the pivot
    column becomes pv * r - a * (pivot row), which stays in the integers
    and keeps the rank.  The input rows are not modified.

    ``check_exactness`` calls it only on strands whose GF(2) ranks fall
    short of the certificate: there rank_2 < rank_Q may hide an exact
    strand, and only exact ranks can tell it from a failing one.
    """
    live = [{c: v for c, v in r.items() if v} for r in rows]
    rank = 0
    while live := [r for r in live if r]:
        prow = live.pop(min(range(len(live)), key=lambda k: len(live[k])))
        pc = min(prow, key=lambda c: abs(prow[c]))
        pv = prow.pop(pc)
        rank += 1
        for k, r in enumerate(live):
            a = r.pop(pc, 0)
            if a:
                r = live[k] = {c: pv * v for c, v in r.items()}
                for c, w in prow.items():
                    v = r.get(c, 0) - a * w
                    if v:
                        r[c] = v
                    else:
                        del r[c]
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


def _rank_walk(sel, target, columns, rank):
    """None when the strand (sel, target) is exact, else (position,
    (rank d_i, rank d_{i+1})) at the first position i where the two ranks
    fall short of size_i.  d_0 is the augmentation, of rank target.

    rank(vectors, cap) ranks the selected ``columns[i]`` of each d_i.
    Going up the levels, d_i must reach need = size_{i-1} - rank(d_{i-1});
    d o d = 0 bounds it by that, so rank may stop at need, and a level
    that must have rank 0 has it without any.  Whole columns, no row
    filter: every row of a selected column is in the strand."""
    low = target
    for i in range(1, len(sel) + 1):
        need = len(sel[i - 1]) - low
        high = 0
        if need > 0 and i < len(sel) and sel[i]:
            level = columns[i]
            high = rank([level[j] for j in sel[i]], need)
        if high != need:
            return i - 1, (low, high)
        low = high
    return None


def _strand_failure(cplx, strand, cols, mu):
    """The failure of the strand (sel, target) that the
    ``_strand_selector`` picks at the exponent tuple mu, from exact ranks
    on integer columns, or None when it is exact."""
    sel, target = strand
    # augmentation strand: a single row of ones over the level-0 survivors
    if target and not sel[0]:
        return {"mu": cplx.ring.text(mu), "position": "augmentation",
                "reason": "member without covering generator"}
    short = _rank_walk(sel, target, cols, lambda rows, _cap: exact_rank(rows))
    if short is None:
        return None
    position, ranks = short
    return {"mu": cplx.ring.text(mu), "position": position,
            "size": len(sel[position]), "ranks": ranks}


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
    ``_strand_failure``'s exact ranks (see the module docstring)."""
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
            strand = select(mu)
            if _rank_walk(*strand, bits, _gf2_rank) is None:
                continue
            if cols is None:
                cols = _columns(cplx, _integer_column)
            failure = _strand_failure(cplx, strand, cols, mu)
            if failure is not None:
                failures.append(failure)
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


def homological_invariants(cplx):
    """Betti table, projective dimension and regularity of a minimal
    complex, with cross-checks against the basis it carries, if any."""
    units = cplx.unit_entries()
    if units:
        raise NotMinimal("unit entries remain: %r" % units[:3])
    basis = cplx.basis
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
