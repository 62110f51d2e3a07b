"""Self-checks: complex axioms, strand exactness, invariants, oracles.

Everything here works over exact integers.  Exactness of a complex of
multigraded free modules is checked strand by strand: fixing a multidegree
mu cuts every module down to the generators whose multidegree divides mu,
differentials become integer matrices, and exactness at each spot is a rank
count (the composite is already known to vanish).  Only multidegrees in the
lcm lattice of the generator multidegrees can carry homology, so the sweep
runs over that lattice, optionally capped.

The sweep runs on integers built once per complex: lattice points are the
multidegree codes of ``FreeComplex.classes`` (a join is one OR), a strand
is one bitmask of generators per level that ANDs one prefix bitmask per
variable, and every column of every d_i is a GF(2) bit column (bit r set
where the integer entry in row r is odd).  No row filter is needed: every
complex was proven multigraded when it was built, each entry's row
dividing its column (see ``FreeComplex``), so each row of a selected
column divides mu too.  Only a failure decodes its mu.

One walk, ``_rank_walk``, tests rank(d_i) + rank(d_{i+1}) = size_i at
every position of a strand, with the rank routine it is given.  It runs
first over GF(2).  ``check_complex`` has proven d o d = 0 over Z, so
rank_Q(d_i) + rank_Q(d_{i+1}) <= size_i at every position, and rank_2 <=
rank_Q holds for every integer matrix (a nonzero minor mod 2 is a nonzero
minor).  Hence GF(2) ranks that meet size_i at every position prove the
strand exact over Q.  Only a strand that falls short (torsion such as
RP^2's, or a complex that is not exact) takes the exact route: the same
walk with ``exact_rank``, a plain fraction-free elimination, on the
integer columns the complex stores.  That route alone can report a
failure, and it is rare (no strand of the verify workloads in
``perfbench`` reaches it), so it is kept simple rather than fast.

``scalar_betti`` ranks the unit blocks of a complex, one per multidegree
class and level, with ``exact_rank`` too: the blocks are small, and over
GF(2) torsion such as RP^2's would change the Betti numbers.  The oracle
``oracle_betti`` applies it to the Taylor resolution, so the Morse
reduction is checked by a route that does not run it: this module
imports nothing from ``morse``.

Arity, integer coefficients, indices and homogeneity were all checked
when the complex was built, and a complex stores each entry as its
coefficient alone, so everything here reads coefficients and checks none
of that again.
"""

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from operator import or_, sub

from .errors import BrokenInvariant, NotAComplex, NotMinimal
from .ideals import MonomialIdeal
from .monomials import Ring
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

    ``check_exactness`` calls it on strands whose GF(2) ranks fall short
    of the certificate: there rank_2 < rank_Q may hide an exact strand,
    and only exact ranks can tell it from a failing one.
    ``scalar_betti`` calls it on each unit block of more than one row.
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


def _gf2_rank(columns, mask, cap):
    """Rank over GF(2) of the bit columns (one int per column, bit r for
    row r) that mask selects, columns[j] for each set bit j, or cap once
    it reaches cap: an XOR basis keyed by each vector's highest set bit."""
    basis = {}
    while mask:
        low = mask & -mask
        mask ^= low
        v = columns[low.bit_length() - 1]
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
    """d o d = 0, including the augmentation, and no zero entries;
    failures carry a located witness, by level, column, then target
    (None, the augmentation, first).  ``FreeComplex`` proved indices and
    homogeneity when the complex was built, so ``composite_terms`` sweeps
    each level's stored coefficients.  Only a column where it finds terms
    is read further: a witness's monomial is its column's multidegree
    over its target's (or the column's own, against the augmentation)."""
    levels = cplx.levels
    diffs = cplx.diffs
    failures = [{"kind": "zero-entry", "level": i, "row": row, "col": col}
                for i in range(1, len(levels))
                for col in sorted([col for col, column in diffs[i].items()
                                   if 0 in column.values()])
                for row in sorted(r for r, c in diffs[i][col].items()
                                  if c == 0)]
    for i in range(1, len(levels)):
        for col, terms in sorted(composite_terms(diffs, i).items()):
            src = levels[i][col].multidegree
            for target in sorted(terms, key=lambda t: -1 if t is None else t):
                mono = src if target is None else tuple(
                    map(sub, src, levels[i - 2][target].multidegree))
                failures.append({"kind": "composite", "level": i,
                                 "col": col, "target": target,
                                 "mono": mono, "value": terms[target]})
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


def _strand_selector(cplx):
    """select(mu) -> (selected, target) for multidegree codes mu of cplx.

    Every generator of every level, and then every minimal generator of the
    ideal, owns one bit.  For each variable, mask k holds the generators
    whose exponent has rank at most k; a strand ANDs the masks that the
    widths of mu's fields pick, so it keeps exactly the generators that
    divide mu: ``selected`` holds a bitmask per level, bit j for its
    generator j.  mu lies in the ideal when a minimal generator's bit
    survives."""
    codes = []
    spans = []  # per level: offset of its first bit, mask of its width
    for level in cplx.classes:
        spans.append((len(codes), (1 << len(level)) - 1))
        codes += level
    ideal_off = len(codes)
    codes += cplx.ideal_codes
    index = []
    for off, width, _ in cplx.fields:
        masks = [0] * (width.bit_length() + 1)
        for bit, code in enumerate(codes):
            masks[(code >> off & width).bit_length()] |= 1 << bit
        index.append((off, width, list(accumulate(masks, or_))))
    full = (1 << len(codes)) - 1

    def select(mu):
        mask = full
        for off, width, masks in index:
            mask &= masks[(mu >> off & width).bit_length()]
        selected = [mask >> off & width for off, width in spans]
        return selected, 1 if mask >> ideal_off else 0
    return select


def _parity_columns(cplx):
    """The GF(2) bit columns of every d_i, i >= 1, indexed [i][j], built
    once per complex: bit r of column j is set where row r holds an odd
    entry (the bits are distinct, so their sum is their OR)."""
    return [None] + [[sum(1 << r for r, c in diff.get(j, {}).items()
                          if c % 2) for j in range(len(level))]
                     for level, diff in zip(cplx.levels[1:], cplx.diffs[1:])]


def _rank_walk(sel, target, columns, rank):
    """None when the strand (sel, target) is exact, else (position,
    (rank d_i, rank d_{i+1})) at the first position i where the two ranks
    fall short of size_i, the number of bits of sel[i].  d_0 is the
    augmentation, of rank target.

    rank(columns[i], sel[i], cap) ranks the selected columns of each d_i.
    Going up the levels, d_i must reach need = size_{i-1} - rank(d_{i-1});
    d o d = 0 bounds it by that, so rank may stop at need, and a level
    that must have rank 0 has it without any.  Whole columns, no row
    filter: every row of a selected column is in the strand."""
    low = target
    for i in range(1, len(sel) + 1):
        need = sel[i - 1].bit_count() - low
        high = 0
        if need > 0 and i < len(sel) and sel[i]:
            high = rank(columns[i], sel[i], need)
        if high != need:
            return i - 1, (low, high)
        low = high
    return None


def _strand_failure(cplx, strand, mu):
    """The failure of the strand (sel, target) that the
    ``_strand_selector`` picks at the multidegree code mu, from exact
    ranks on the stored integer columns, or None when it is exact."""
    sel, target = strand
    # augmentation strand: a single row of ones over the level-0 survivors
    if target and not sel[0]:
        return {"mu": cplx.ring.text(cplx.decode(mu)),
                "position": "augmentation",
                "reason": "member without covering generator"}
    short = _rank_walk(sel, target, cplx.diffs, lambda columns, mask, _cap:
                       exact_rank([columns.get(j, {}) for j in _bits(mask)]))
    if short is None:
        return None
    position, ranks = short
    return {"mu": cplx.ring.text(cplx.decode(mu)), "position": position,
            "size": sel[position].bit_count(), "ranks": ranks}


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
    """(codes, capped): the lcm closure of the generators' multidegree
    codes (``FreeComplex.classes``, a join is an OR), generator
    multidegrees first (by degree, then exponents), then new joins in
    discovery order, truncated at cap points.  capped tells that the
    closure has more than cap points."""
    if cap < 1:
        # a shorter lattice would still yield a verdict, over too few strands
        raise ValueError("strand cap must be at least 1, got %r" % (cap,))
    seeds = {g.multidegree: code
             for level, codes in zip(cplx.levels, cplx.classes)
             for g, code in zip(level, codes)}
    codes = [seeds[e] for e in sorted(seeds, key=lambda e: (sum(e), e))]
    seen = set(codes)
    j = 1
    # one point past cap tells a closure of cap points from a larger one
    while j < len(codes) <= cap:
        for code in map(codes[j].__or__, codes[:j]):
            if code not in seen:
                seen.add(code)
                codes.append(code)
        j += 1
    return codes[:cap], len(codes) > cap


STRAND_CAP = 20000  # the default cap, also of the CLI's --strand-cap


def check_exactness(cplx, cap=STRAND_CAP):
    """Strand-by-strand exactness over the lcm lattice: GF(2) ranks
    certify a strand, and only a strand they leave short is decided by
    ``_strand_failure``'s exact ranks (see the module docstring)."""
    base = check_complex(cplx)
    if not base.ok:
        raise NotAComplex("d o d = 0 fails; exactness is meaningless: %r"
                          % base.failures[:3])
    codes, capped = lcm_lattice(cplx, cap)
    select = _strand_selector(cplx)
    bits = _parity_columns(cplx)
    failures = []
    for mu in codes:
        strand = select(mu)
        if _rank_walk(*strand, bits, _gf2_rank) is None:
            continue
        failure = _strand_failure(cplx, strand, mu)
        if failure is not None:
            failures.append(failure)
    return ExactnessReport(not failures, len(codes), capped, failures,
                           base)


# --- invariants ----------------------------------------------------------------


def scalar_betti(cplx):
    """Multigraded Betti numbers of any free resolution F from its units:
    beta_{i,mu} = dim_k H_i(F (x) k)_mu, and F (x) k keeps only the unit
    entries, which join generators of one multidegree class (Batzies-
    Welker, J. reine angew. Math. 2002).  So beta_{i,mu} = |class_i(mu)|
    - rank(d_i|mu) - rank(d_{i+1}|mu), each the rank of one unit block.
    Blocks and class sizes are keyed by the multidegree codes of
    ``FreeComplex.classes``, equal exactly where the multidegrees are, and
    a class shows its first generator's multidegree, so the table lists
    each level's classes in the order they first appear.
    Nothing is checked: the caller proves F a complex (d o d = 0)."""
    classes = cplx.classes
    blocks = {}
    for level, row, col, c in cplx.unit_entries():
        key = (level, classes[level][col])
        blocks.setdefault(key, {}).setdefault(row, {})[col] = c
    # a unit is nonzero, so a block of one row has rank 1
    ranks = {key: exact_rank(rows.values()) if len(rows) > 1 else 1
             for key, rows in blocks.items()}
    get = ranks.get
    by_md = {}
    for i, (level, codes) in enumerate(zip(cplx.levels, classes)):
        first = dict(zip(reversed(codes), reversed(level)))
        for code, size in Counter(codes).items():
            beta = size - get((i, code), 0) - get((i + 1, code), 0)
            if beta:
                by_md[(i, first[code].multidegree)] = beta
    return BettiTable(by_md)


def minimal_betti(cplx):
    """``betti_table`` of a complex that must be minimal: NotMinimal when
    a unit entry remains."""
    units = cplx.unit_entries()
    if units:
        raise NotMinimal("unit entries remain: %r" % units[:3])
    return betti_table(cplx)


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


def homological_invariants(betti, basis=None):
    """Projective dimension and regularity read from a Betti table, with
    the class-count and degree predictions of the basis, if any."""
    pd = max(i for i, _ in betti.by_degree)
    reg = max(j - i for (i, j) in betti.by_degree)
    pd_alt = reg_alt = -1
    if basis is not None:
        pd_alt = basis.ring.n - basis.d
        reg_alt = basis.degree()
    return InvariantReport(betti, pd, reg, pd_alt, reg_alt)


# --- oracles --------------------------------------------------------------------


def oracle_betti(ideal):
    """Betti numbers by a route that avoids the basis and the Morse
    reducer alike: ``scalar_betti`` of the Taylor resolution, once
    ``check_complex`` has proven it a complex (NotAComplex if not)."""
    taylor = taylor_complex(ideal)
    report = check_complex(taylor)
    if not report.ok:
        raise NotAComplex("the Taylor complex fails d o d = 0: %r"
                          % report.failures[:3])
    return scalar_betti(taylor)


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
