"""Self-checks: complex axioms, strand exactness, invariants, oracles.

Everything here works over exact integers.  Exactness of a complex of
multigraded free modules is checked strand by strand: fixing a multidegree
mu cuts every module down to the generators whose multidegree divides mu,
differentials become integer matrices, and exactness at each spot is a rank
count (the composite is already known to vanish).  Only multidegrees in the
lcm lattice of the generator multidegrees can carry homology, so the sweep
runs over that lattice, optionally capped.

Multidegrees and differential entries are exponent tuples: the lattice
joins them, each level's generators are grouped by multidegree once per
complex, and a strand keeps the groups whose multidegree divides mu.
``exact_rank`` pivots on a +-1 entry of the shortest row that has one and
touches only the rows that hold the pivot column.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import le, sub

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


def _strand_selector(cplx):
    """select(mu) -> (selected, target_dim) for exponent tuples mu.

    Each level's generators are grouped by multidegree once; a strand keeps
    the groups whose multidegree divides mu, and mu lies in the ideal when
    a minimal generator divides it."""
    groups = []
    for level in cplx.levels:
        by_exps = {}
        for j, g in enumerate(level):
            by_exps.setdefault(g.multidegree, []).append(j)
        groups.append(list(by_exps.items()))
    gens = [g.exps for g in cplx.ideal.gens]

    def select(mu):
        selected = [sorted(j for e, js in level if all(map(le, e, mu))
                           for j in js) for level in groups]
        target = 1 if any(all(map(le, e, mu)) for e in gens) else 0
        return selected, target
    return select


def _fraction_levels(cplx):
    """Levels whose differential holds a Fraction entry (reduced complexes
    after a non-unit pivot)."""
    return {i for i in range(1, len(cplx.levels))
            if any(isinstance(c, Fraction)
                   for column in cplx.diffs[i].values()
                   for c, _m in column.values())}


def _strand_matrix(cplx, i, rows, cols, fractions):
    """Integer rows of d_i restricted to the strand; on a level in
    ``fractions``, fraction entries are cleared per column (column scaling
    keeps the rank)."""
    pos = {r: k for k, r in enumerate(rows)}
    out = [dict() for _ in rows]
    diff = cplx.diffs[i]
    for cidx, col in enumerate(cols):
        entries = [(pos[r], c) for r, (c, _m) in diff.get(col, {}).items()
                   if r in pos]
        if i in fractions:
            scale = 1
            for _, c in entries:
                if isinstance(c, Fraction):
                    scale = lcm(scale, c.denominator)
            entries = [(k, int(c * scale)) for k, c in entries]
        for k, c in entries:
            out[k][cidx] = c
    return out


def _strand_verdict(cplx, select, fractions, mu):
    """Rank conditions for exactness of the strand at the exponent tuple
    mu; returns (ok, detail)."""
    sel, target = select(mu)
    sizes = [len(s) for s in sel]
    # augmentation strand: a single row of ones over the level-0 survivors
    if target and not sizes[0]:
        return False, {"mu": cplx.ring.text(mu),
                       "position": "augmentation",
                       "reason": "member without covering generator"}
    ranks = [target]
    for i in range(1, len(sel)):
        ranks.append(exact_rank(_strand_matrix(cplx, i, sel[i - 1], sel[i],
                                               fractions)))
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
    joins in discovery order, truncated at cap points."""
    if cap < 1:
        # a shorter lattice would still yield a verdict, over too few strands
        raise ValueError("strand cap must be at least 1, got %r" % (cap,))
    seeds = sorted({g.multidegree for level in cplx.levels
                    for g in level}, key=lambda e: (sum(e), e))
    if len({len(e) for e in seeds}) > 1:
        raise ArityMismatch("monomials from different rings")
    points = list(seeds)
    seen = set(points)
    j = 1
    while j < len(points) and len(points) < cap:
        base = points[j]
        for k in range(j):
            e = tuple(map(max, base, points[k]))
            if e not in seen:
                seen.add(e)
                points.append(e)
        j += 1
    capped = len(points) > cap or j < len(points)
    return points[:cap], capped


def check_exactness(cplx, cap=20000):
    """Strand-by-strand exactness over the lcm lattice."""
    base = check_complex(cplx)
    if not base.ok:
        raise NotAComplex("d o d = 0 fails; exactness is meaningless: %r"
                          % base.failures[:3])
    points, capped = lcm_lattice(cplx, cap)
    select = _strand_selector(cplx)
    fractions = _fraction_levels(cplx)
    failures = []
    for mu in points:
        ok, detail = _strand_verdict(cplx, select, fractions, mu)
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
