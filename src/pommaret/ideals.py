"""Monomial ideals, quasi-stability, and Pommaret bases.

A finite Pommaret basis H of a monomial ideal I splits I into disjoint
cones h * k[x_1..x_cls(h)], one per basis element.  Ideals admitting such a
basis are exactly the quasi-stable ones; stable ideals are those whose
minimal generators already form the basis.

An ideal holds its minimal generators as ``Monomial``s.  From the
completion on, every basis element, rewrite product and factor is an
exponent tuple, classed and multiplied by ``monomials.class_of`` and
``monomials.times_var``.
"""

import heapq
from operator import le, sub

from .errors import (ArityMismatch, BrokenInvariant, EmptyInput,
                     NotQuasiStable, UnitGenerator)
from .monomials import class_of, p_order_key, times_var


class MonomialIdeal:
    """A monomial ideal held by its minimal generators."""

    __slots__ = ("ring", "gens")

    def __init__(self, ring, generators):
        self.ring = ring
        self.gens = minimal_generators(generators)
        for g in self.gens:
            if g.ring.n != ring.n:
                raise ArityMismatch("monomials from different rings")

    def contains(self, exps):
        """Membership of the monomial with exponent tuple exps."""
        return any(all(map(le, g.exps, exps)) for g in self.gens)

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
                if g.exps[i - 1] == 0:
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
            c = class_of(g.exps)
            lowered = g.exps[:c - 1] + (g.exps[c - 1] - 1,) + g.exps[c:]
            for j in range(c + 1, self.ring.n + 1):
                if not self.contains(times_var(lowered, j)):
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

    Elements are exponent tuples, bucketed by (class, exponents above the
    class).  An element h of class c is zero below x_c, so it involutively
    divides m iff h[c:] = m[c:], which its bucket key fixes, and 0 <
    h[c-1] <= m[c-1]: a query is one dict hit per class c with m[c-1] > 0
    and one comparison per element found.
    """

    def __init__(self):
        self.buckets = {}
        self.elements = []

    def add(self, h):
        self.elements.append(h)
        c = class_of(h)
        self.buckets.setdefault((c, h[c:]), []).append(h)

    def divisors(self, m):
        """The involutive divisors of m among the elements, by class."""
        get = self.buckets.get
        for c, e in enumerate(m, 1):
            if e:
                for h in get((c, m[c:]), ()):
                    if h[c - 1] <= e:
                        yield h


class PommaretBasis:
    """The (unique, minimal) Pommaret basis of a quasi-stable ideal.

    Elements are exponent tuples, stored in the basis order: class
    ascending, ties by exponents read from the last variable down.
    ``classes`` holds their classes, so the nonmultiplicative variables of
    element alpha are x_k for classes[alpha] < k <= n; ``ring.text``
    displays an element.  ``delta`` maps (alpha, k), k nonmultiplicative
    for element alpha, to the index beta of the involutive divisor h_beta
    of x_k * h_alpha.  The factor t of x_k * h_alpha = t * h_beta is
    derived by ``PGraph``, which shows it.
    """

    __slots__ = ("ring", "ideal", "elements", "classes", "delta", "d",
                 "_index", "_cones")

    def __init__(self, ideal, elements):
        self.ring = ideal.ring
        self.ideal = ideal
        self.elements = tuple(sorted(elements, key=p_order_key))
        self.classes = tuple(map(class_of, self.elements))
        self.d = min(self.classes)
        self._index = {h: a for a, h in enumerate(self.elements)}
        n = self.ring.n
        self._cones = _ConeIndex()
        for h in self.elements:
            self._cones.add(h)
        self.delta = {}
        for a, (h, c) in enumerate(zip(self.elements, self.classes)):
            for k in range(c + 1, n + 1):
                m = times_var(h, k)
                div = next(self._cones.divisors(m), None)
                if div is None:
                    raise NotQuasiStable(
                        "no involutive divisor for %s" % self.ring.text(m))
                self.delta[(a, k)] = self._index[div]
        self._check_linear_quotients()

    def __len__(self):
        return len(self.elements)

    def index(self, h):
        return self._index[h]

    def degree(self):
        """Largest total degree of a basis element."""
        return max(map(sum, self.elements))

    def class_counts(self):
        """Number of basis elements of each class 1..n."""
        counts = [0] * self.ring.n
        for c in self.classes:
            counts[c - 1] += 1
        return tuple(counts)

    def involutive_divisor(self, m):
        """The unique basis element involutively dividing the exponent
        tuple m, or None."""
        return next(self._cones.divisors(m), None)

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
        for (a, k), b in self.delta.items():
            if b <= a:
                raise BrokenInvariant(
                    "order broken: x%d sends element %d to %d" % (k, a, b))
        if list(self.classes) != sorted(self.classes):
            raise BrokenInvariant("classes fall along the element order")
        for h in self.elements:
            if list(self._cones.divisors(h)) != [h]:
                raise BrokenInvariant("cones overlap at %s"
                                      % self.ring.text(h))

    def __repr__(self):
        return "PommaretBasis[%s]" % ", ".join(map(self.ring.text,
                                                   self.elements))


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
    cones = _ConeIndex()
    queue = []

    def push_products(h):
        deg = sum(h) + 1
        for k in range(class_of(h) + 1, n + 1):
            heapq.heappush(queue, (deg, times_var(h, k)))

    for g in ideal.gens:
        # minimal generators always belong to the basis
        cones.add(g.exps)
        push_products(g.exps)
    while queue:
        deg, m = heapq.heappop(queue)
        if next(cones.divisors(m), None) is not None:
            continue
        if deg > cap:  # unreachable given the guard above
            raise NotQuasiStable("completion passed the degree cap")
        cones.add(m)
        push_products(m)
    return PommaretBasis(ideal, cones.elements)


class PGraph:
    """Directed multigraph on basis elements: one edge (alpha, k, beta, t)
    per nonmultiplicative product x_k * h_alpha = t * h_beta, labelled by
    the variable and by the factor t, an exponent tuple derived here from
    the rewrite target."""

    __slots__ = ("basis", "edges")

    def __init__(self, basis):
        self.basis = basis
        elements = basis.elements
        self.edges = tuple(
            (a, k, b, tuple(map(sub, times_var(elements[a], k), elements[b])))
            for (a, k), b in sorted(basis.delta.items()))

    def to_dot(self):
        basis = self.basis
        text = basis.ring.text
        lines = ["digraph pgraph {"]
        for h in basis.elements:
            lines.append('  "%s";' % text(h))
        for (a, k, b, t) in self.edges:
            lines.append('  "%s" -> "%s" [label="%s | t=%s"];' % (
                text(basis.elements[a]), text(basis.elements[b]),
                basis.ring.names[k - 1], text(t)))
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_p_graph(basis):
    return PGraph(basis)
