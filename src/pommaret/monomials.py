"""Monomials in a fixed polynomial ring, with the Pommaret division.

Variables are indexed 1..n.  The class of a monomial is the smallest index
of a variable dividing it; its multiplicative variables are x_1..x_cls, the
rest are nonmultiplicative.  A monomial h involutively divides m when h | m
and the quotient uses multiplicative variables of h only.
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

    def variable(self, i):
        """The monomial x_i (1-based)."""
        if not 1 <= i <= self.n:
            raise ArityMismatch("variable index %d outside 1..%d" % (i, self.n))
        return Monomial(self, tuple(int(j == i) for j in range(1, self.n + 1)))

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
    """Power product stored as an exponent tuple, immutable and hashable."""

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

    # -- basic structure ----------------------------------------------

    def degree(self):
        return sum(self.exps)

    def is_unit(self):
        return all(e == 0 for e in self.exps)

    def exponent(self, i):
        """Exponent of x_i (1-based)."""
        return self.exps[i - 1]

    @property
    def cls(self):
        """Smallest variable index dividing the monomial."""
        for i, e in enumerate(self.exps):
            if e:
                return i + 1
        raise UnitMonomial("the unit monomial has no class")

    def multiplicative(self):
        """Multiplicative variables x_1..x_cls, as a tuple of indices."""
        return tuple(range(1, self.cls + 1))

    def nonmultiplicative(self):
        """Nonmultiplicative variables x_{cls+1}..x_n."""
        return tuple(range(self.cls + 1, self.ring.n + 1))

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if self.ring.n != other.ring.n:
            raise ArityMismatch("monomials from different rings")

    def __mul__(self, other):
        self._check(other)
        return Monomial(self.ring,
                        tuple(a + b for a, b in zip(self.exps, other.exps)))

    def times_var(self, i):
        e = list(self.exps)
        e[i - 1] += 1
        return Monomial(self.ring, tuple(e))

    def divides(self, other):
        self._check(other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def __truediv__(self, other):
        """Exact quotient; caller guarantees divisibility."""
        self._check(other)
        q = tuple(a - b for a, b in zip(self.exps, other.exps))
        if any(e < 0 for e in q):
            raise ArityMismatch("%s does not divide %s" % (other, self))
        return Monomial(self.ring, q)

    def lcm(self, other):
        self._check(other)
        return Monomial(self.ring,
                        tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def gcd(self, other):
        self._check(other)
        return Monomial(self.ring,
                        tuple(min(a, b) for a, b in zip(self.exps, other.exps)))

    def involutively_divides(self, other):
        """h | m with quotient supported on x_1..x_cls(h)."""
        self._check(other)
        c = self.cls  # raises UnitMonomial for the unit
        e, f = self.exps, other.exps
        # above the class the exponents must agree exactly
        for j in range(c, self.ring.n):
            if e[j] != f[j]:
                return False
        return all(e[j] <= f[j] for j in range(c))

    # -- container protocol -------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __lt__(self, other):
        # plain degree-then-exponent order; only used for determinism
        return (self.degree(), self.exps) < (other.degree(), other.exps)

    def __str__(self):
        return self.ring.text(self.exps)

    def __repr__(self):
        return "Monomial(%s)" % str(self)


def p_order_key(m):
    """Sort key for the basis order: class ascending, then exponents
    compared from the last variable down (ascending)."""
    return (m.cls, m.exps[::-1])
