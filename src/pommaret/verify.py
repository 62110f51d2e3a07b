"""Self-checks: complex axioms, strand exactness, invariants, oracles.

Everything here works over exact integers.  Exactness of a complex of
multigraded free modules is checked strand by strand: fixing a multidegree
mu cuts every module down to the generators whose multidegree divides mu,
differentials become integer matrices, and exactness at each spot is a rank
count (the composite is already known to vanish).  Only multidegrees in the
lcm lattice of the generator multidegrees can carry homology, so the sweep
runs over that lattice, optionally capped.
"""

import random
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

    Elimination prefers +-1 pivots (pure integer row operations); other
    pivots scale the remaining rows by the pivot value first, which keeps
    everything in integers and does not change the rank.
    """
    rows = [{c: v for c, v in r.items() if v} for r in rows]
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        best = None
        for idx, r in enumerate(rows):
            for c, v in r.items():
                key = (0 if abs(v) == 1 else 1, abs(v), len(r), idx, c)
                if best is None or key < best[0]:
                    best = (key, idx, c)
        _, pidx, pc = best
        prow = rows.pop(pidx)
        pv = prow[pc]
        rank += 1
        nxt = []
        for r in rows:
            a = r.pop(pc, 0)
            if a == 0:
                if r:
                    nxt.append(r)
                continue
            out = {}
            if pv in (1, -1):
                f = a * pv
                for c in set(r) | set(prow):
                    if c == pc:
                        continue
                    v = r.get(c, 0) - f * prow.get(c, 0)
                    if v:
                        out[c] = v
            else:
                for c in set(r) | set(prow):
                    if c == pc:
                        continue
                    v = pv * r.get(c, 0) - a * prow.get(c, 0)
                    if v:
                        out[c] = v
            if out:
                nxt.append(out)
        rows = nxt
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
            src = cplx.levels[i][col].multidegree.exps
            dst = cplx.levels[i - 1][row].multidegree.exps
            if len(dst) != len(src):
                raise ArityMismatch("monomials from different rings")
            # src / dst == m on exponent tuples; m has no negative
            # exponent, so equality also proves dst | src
            if tuple(map(sub, src, dst)) != m.exps:
                failures.append({"kind": "inhomogeneous", "level": i,
                                 "row": row, "col": col,
                                 "mono": str(m)})
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


@dataclass
class StrandComplex:
    """One multidegree strand: per-level surviving generator indices."""
    mu: object
    selected: list
    target_dim: int


def strand(cplx, mu):
    selected = [[j for j, g in enumerate(level)
                 if g.multidegree.divides(mu)] for level in cplx.levels]
    target = 1 if cplx.ideal.contains(mu) else 0
    return StrandComplex(mu, selected, target)


def _strand_matrix(cplx, i, rows, cols):
    """Integer rows of d_i restricted to the strand; fraction entries are
    cleared per column (column scaling keeps the rank)."""
    pos = {r: k for k, r in enumerate(rows)}
    out = [dict() for _ in rows]
    for cidx, col in enumerate(cols):
        column = cplx.diffs[i].get(col, {})
        entries = [(r, c) for r, (c, _m) in column.items() if r in pos]
        scale = 1
        for _, c in entries:
            if isinstance(c, Fraction):
                scale = lcm(scale, c.denominator)
        for r, c in entries:
            v = c * scale
            out[pos[r]][cidx] = int(v)
    return out


def check_strand(cplx, mu):
    """Rank conditions for exactness of one strand; returns (ok, detail)."""
    st = strand(cplx, mu)
    sel = st.selected
    sizes = [len(s) for s in sel]
    # augmentation strand: a single row of ones over the level-0 survivors
    if st.target_dim and not sizes[0]:
        return False, {"mu": str(mu), "position": "augmentation",
                       "reason": "member without covering generator"}
    ranks = [1 if (st.target_dim and sizes[0]) else 0]
    for i in range(1, len(sel)):
        ranks.append(exact_rank(_strand_matrix(cplx, i, sel[i - 1], sel[i])))
    ranks.append(0)
    if st.target_dim != ranks[0]:
        return False, {"mu": str(mu), "position": "augmentation",
                       "reason": "target not covered"}
    for i in range(len(sel)):
        if ranks[i] + ranks[i + 1] != sizes[i]:
            return False, {"mu": str(mu), "position": i,
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
    """Lcm closure of all generator multidegrees, generator multidegrees
    first, then new joins in discovery order, truncated at cap points."""
    seeds = sorted({g.multidegree for level in cplx.levels for g in level},
                   key=lambda m: (m.degree(), m.exps))
    points = list(seeds)
    seen = set(points)
    j = 1
    while j < len(points) and len(points) < cap:
        base = points[j]
        for k in range(j):
            m = base.lcm(points[k])
            if m not in seen:
                seen.add(m)
                points.append(m)
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
    failures = []
    for mu in points:
        ok, detail = check_strand(cplx, mu)
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
