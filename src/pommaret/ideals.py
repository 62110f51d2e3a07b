"""Monomial ideals, quasi-stability, and Pommaret bases.

A finite Pommaret basis H of a monomial ideal I splits I into disjoint
cones h * k[x_1..x_cls(h)], one per basis element.  Ideals admitting such a
basis are exactly the quasi-stable ones; stable ideals are those whose
minimal generators already form the basis.
"""

import heapq

from .errors import (BrokenInvariant, EmptyInput, NotQuasiStable,
                     UnitGenerator)
from .monomials import Monomial, p_order_key


class MonomialIdeal:
    """A monomial ideal held by its minimal generators."""

    __slots__ = ("ring", "gens")

    def __init__(self, ring, generators):
        self.ring = ring
        self.gens = minimal_generators(generators)

    def contains(self, m):
        return any(g.divides(m) for g in self.gens)

    def max_exponents(self):
        """Per-variable maximum exponent over the minimal generators."""
        return tuple(max(g.exps[j] for g in self.gens)
                     for j in range(self.ring.n))

    def is_quasi_stable(self):
        """True when the ideal has a finite Pommaret basis.

        Criterion, checked on minimal generators (multiples inherit it):
        for every generator g, every i < j with x_i | g, some positive power
        x_j^t makes x_j^t * g / x_i^(deg_i g) a member.  Membership for some
        t > 0 holds iff a generator matches g with the x_i exponent removed
        on every variable other than x_j, which bounds t by the largest
        x_j-exponent among generators plus one.
        """
        n = self.ring.n
        for g in self.gens:
            for i in range(1, n + 1):
                if g.exponent(i) == 0:
                    continue
                ghat = list(g.exps)
                ghat[i - 1] = 0
                for j in range(i + 1, n + 1):
                    ok = False
                    for gp in self.gens:
                        if all(gp.exps[l] <= ghat[l]
                               for l in range(n) if l != j - 1):
                            ok = True
                            break
                    if not ok:
                        return False
        return True

    def is_stable(self):
        """True when x_j * g / x_cls(g) stays in the ideal for every
        minimal generator g and every j > cls(g)."""
        for g in self.gens:
            c = g.cls
            lowered = list(g.exps)
            lowered[c - 1] -= 1
            for j in range(c + 1, self.ring.n + 1):
                e = list(lowered)
                e[j - 1] += 1
                if not self.contains(Monomial(self.ring, tuple(e))):
                    return False
        return True

    def __eq__(self, other):
        return isinstance(other, MonomialIdeal) and self.gens == other.gens

    def __repr__(self):
        return "MonomialIdeal(%s)" % ", ".join(str(g) for g in self.gens)


def minimal_generators(monomials):
    """Reduce a generating set to the unique minimal one, sorted for
    determinism.  Rejects empty input and unit generators."""
    mons = list(monomials)
    if not mons:
        raise EmptyInput("no generators given")
    for m in mons:
        if m.is_unit():
            raise UnitGenerator("the unit monomial generates everything")
    uniq = sorted(set(mons), key=lambda m: (m.degree(), m.exps))
    kept = []
    for m in uniq:
        if not any(g.divides(m) for g in kept):
            kept.append(m)
    return tuple(kept)


class _ConeIndex:
    """Lookup structure for involutive divisors.

    Elements are bucketed by (class, exponents above the class); a monomial
    m can only have an involutive divisor of class c whose exponents above c
    equal m's, so a query is a handful of dict hits plus head comparisons.
    """

    def __init__(self, n):
        self.n = n
        self.buckets = {}
        self.elements = []

    def add(self, m):
        self.elements.append(m)
        c = m.cls
        self.buckets.setdefault((c, m.exps[c:]), []).append(m)

    def divisors(self, m):
        """The involutive divisors of m among the elements, by class."""
        exps = m.exps
        for c in range(1, self.n + 1):
            for h in self.buckets.get((c, exps[c:]), ()):
                if all(h.exps[j] <= exps[j] for j in range(c)):
                    yield h


class PommaretBasis:
    """The (unique, minimal) Pommaret basis of a quasi-stable ideal.

    Elements are stored in the basis order: class ascending, ties by
    exponent vectors read from the last variable down.  ``delta`` maps
    (alpha, k), k nonmultiplicative for element alpha, to (beta, t) with
    x_k * h_alpha = t * h_beta and h_beta the involutive divisor.
    """

    __slots__ = ("ring", "ideal", "elements", "classes", "delta", "d",
                 "_index", "_cones")

    def __init__(self, ideal, elements):
        self.ring = ideal.ring
        self.ideal = ideal
        self.elements = tuple(sorted(elements, key=p_order_key))
        self.classes = tuple(h.cls for h in self.elements)
        self.d = min(self.classes)
        self._index = {h: a for a, h in enumerate(self.elements)}
        self._cones = _ConeIndex(self.ring.n)
        for h in self.elements:
            self._cones.add(h)
        self.delta = {}
        for a, h in enumerate(self.elements):
            for k in h.nonmultiplicative():
                m = h.times_var(k)
                div = next(self._cones.divisors(m), None)
                if div is None:
                    raise NotQuasiStable(
                        "no involutive divisor for %s" % m)
                self.delta[(a, k)] = (self._index[div], m / div)
        self._check_linear_quotients()

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def index(self, h):
        return self._index[h]

    def degree(self):
        """Largest total degree of a basis element."""
        return max(h.degree() for h in self.elements)

    def class_counts(self):
        """Number of basis elements of each class 1..n."""
        counts = [0] * self.ring.n
        for c in self.classes:
            counts[c - 1] += 1
        return tuple(counts)

    def involutive_divisor(self, m):
        """The unique basis element involutively dividing m, or None."""
        return next(self._cones.divisors(m), None)

    def contains(self, m):
        return next(self._cones.divisors(m), None) is not None

    def _check_linear_quotients(self):
        # each colon ideal <h_{a+1},...> : h_a must be generated by exactly
        # the nonmultiplicative variables of h_a: no a < b may have h_b[j]
        # <= h_a[j] at every j > cls(h_a).  Given delta targets above their
        # sources and classes that never fall, that holds iff the cones are
        # disjoint.  A violation with equal classes makes h_a an involutive
        # divisor of h_b; with cls(h_b) > cls(h_a), h_b | h_a, and walking
        # h_b up to h_a one variable at a time stays in a cone or follows
        # delta to a later element, ending at an index >= b whose cone
        # holds h_a.  Conversely, h_a involutively dividing h_b != h_a
        # violates the pair (a, b) or, when b < a, the pair (b, a).
        for (a, k), (b, t) in self.delta.items():
            if b <= a:
                raise BrokenInvariant(
                    "order broken: x%d sends element %d to %d" % (k, a, b))
        if list(self.classes) != sorted(self.classes):
            raise BrokenInvariant("classes fall along the element order")
        for h in self.elements:
            if list(self._cones.divisors(h)) != [h]:
                raise BrokenInvariant("cones overlap at %s" % h)

    def __repr__(self):
        return "PommaretBasis[%s]" % ", ".join(str(h) for h in self.elements)


def pommaret_basis(ideal):
    """Complete the minimal generators of a quasi-stable ideal to the
    Pommaret basis.

    Worklist completion: a nonmultiplicative product x_k * h without an
    involutive divisor joins the basis; products are handled in degree
    order, so coverage is monotone and the result order-independent.  The
    degree cap is a safety net only; quasi-stability is checked up front.
    """
    if not ideal.is_quasi_stable():
        raise NotQuasiStable(
            "%r has no finite Pommaret basis" % ideal)
    n = ideal.ring.n
    cap = sum(ideal.max_exponents()) + n
    cones = _ConeIndex(n)
    queue = []

    def push_products(h):
        for k in h.nonmultiplicative():
            m = h.times_var(k)
            heapq.heappush(queue, (m.degree(), m.exps))

    for g in ideal.gens:
        # minimal generators always belong to the basis
        cones.add(g)
        push_products(g)
    while queue:
        deg, exps = heapq.heappop(queue)
        m = Monomial(ideal.ring, exps)
        if next(cones.divisors(m), None) is not None:
            continue
        if deg > cap:  # unreachable given the guard above
            raise NotQuasiStable("completion passed the degree cap")
        cones.add(m)
        push_products(m)
    return PommaretBasis(ideal, cones.elements)


class PGraph:
    """Directed multigraph on basis elements: one edge per
    nonmultiplicative product, labelled by the variable and the factor t."""

    __slots__ = ("basis", "edges")

    def __init__(self, basis):
        self.basis = basis
        self.edges = tuple(sorted(
            (a, k, b, t) for (a, k), (b, t) in basis.delta.items()))

    def to_dot(self):
        basis = self.basis
        lines = ["digraph pgraph {"]
        for h in basis.elements:
            lines.append('  "%s";' % h)
        for (a, k, b, t) in self.edges:
            lines.append('  "%s" -> "%s" [label="%s | t=%s"];' % (
                basis.elements[a], basis.elements[b],
                basis.ring.names[k - 1], t))
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_p_graph(basis):
    return PGraph(basis)
