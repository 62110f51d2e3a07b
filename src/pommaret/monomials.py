"""Monomials in a fixed polynomial ring, and the class of an exponent tuple.

Variables are indexed 1..n.  ``Monomial`` is the input boundary: an ideal's
generators are ``Monomial``s, parsed or drawn once and checked for arity.
Everything past the ideal (basis elements, rewrite factors, multidegrees)
is a plain exponent tuple, and ``Ring.text`` displays one.

The class of an exponent tuple is the smallest index of a variable
dividing it (``class_of``); its multiplicative variables are x_1..x_cls,
the rest are nonmultiplicative.  ``times_var`` forms the products x_k * h
that the completion and the rewrite walks take.
"""

from .errors import ArityMismatch, UnitMonomial


class Ring:
    """Ambient polynomial ring: number of variables plus display names."""

    __slots__ = ("n", "names")

    def __init__(self, n, names=None):
        if n < 1:
            raise ArityMismatch("need at least one variable, got %d" % n)
        if names is None:
            names = tuple("x%d" % i for i in range(1, n + 1))
        else:
            names = tuple(names)
            if len(names) != n:
                raise ArityMismatch(
                    "got %d names for %d variables" % (len(names), n))
        self.n = n
        self.names = names

    def monomial(self, exps):
        return Monomial(self, exps)

    def unit(self):
        return Monomial(self, (0,) * self.n)

    def text(self, exps):
        """Display form of an exponent tuple: ``x1^2*x3``, or ``1``."""
        parts = []
        for name, e in zip(self.names, exps):
            if e == 1:
                parts.append(name)
            elif e:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts) or "1"

    def __eq__(self, other):
        return isinstance(other, Ring) and self.n == other.n

    def __hash__(self):
        return hash(("Ring", self.n))

    def __repr__(self):
        return "Ring(%d, names=%r)" % (self.n, list(self.names))


class Monomial:
    """Power product stored as an exponent tuple, immutable and hashable:
    a generator of an ideal."""

    __slots__ = ("ring", "exps")

    def __init__(self, ring, exps):
        exps = tuple(int(e) for e in exps)
        if len(exps) != ring.n:
            raise ArityMismatch(
                "%d exponents for %d variables" % (len(exps), ring.n))
        if any(e < 0 for e in exps):
            raise ArityMismatch("negative exponent in %r" % (exps,))
        self.ring = ring
        self.exps = exps

    def degree(self):
        return sum(self.exps)

    def is_unit(self):
        return all(e == 0 for e in self.exps)

    def divides(self, other):
        if self.ring.n != other.ring.n:
            raise ArityMismatch("monomials from different rings")
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __str__(self):
        return self.ring.text(self.exps)

    def __repr__(self):
        return "Monomial(%s)" % str(self)


def class_of(exps):
    """Class of an exponent tuple: the smallest (1-based) index of a
    variable dividing it."""
    for i, e in enumerate(exps, start=1):
        if e:
            return i
    raise UnitMonomial("the unit monomial has no class")


def times_var(exps, k):
    """The exponent tuple of x_k times exps (k 1-based)."""
    return exps[:k - 1] + (exps[k - 1] + 1,) + exps[k:]


def p_order_key(exps):
    """Sort key for the basis order: class ascending, then exponents
    compared from the last variable down (ascending)."""
    return (class_of(exps), exps[::-1])
