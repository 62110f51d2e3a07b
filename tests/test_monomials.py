import random

import pytest

from pommaret import Ring, p_order_key
from pommaret.errors import ArityMismatch, UnitMonomial
from pommaret.ideals import _ConeIndex
from pommaret.monomials import class_of, times_var


def rand_monomial(rng, ring, max_deg=6):
    e = [0] * ring.n
    for i in rng.choices(range(ring.n), k=rng.randint(0, max_deg)):
        e[i] += 1
    return ring.monomial(e)


def test_ring_basics():
    r = Ring(3)
    assert r.names == ("x1", "x2", "x3")
    named = Ring(3, names=("x", "y", "z"))
    assert named.names == ("x", "y", "z")
    assert r == named  # same arity, names are display only
    assert hash(r) == hash(named)
    assert str(r.monomial((0, 1, 0))) == "x2"
    assert r.unit().is_unit()
    with pytest.raises(ArityMismatch):
        Ring(0)
    with pytest.raises(ArityMismatch):
        Ring(2, names=("x",))


def test_monomial_construction_errors():
    r = Ring(2)
    with pytest.raises(ArityMismatch):
        r.monomial((1, 2, 3))
    with pytest.raises(ArityMismatch):
        r.monomial((-1, 0))


def test_class_and_variable_split():
    assert class_of((2, 3, 0)) == 1
    assert class_of((0, 0, 3)) == 3
    with pytest.raises(UnitMonomial):
        class_of((0, 0, 0))


def test_arithmetic():
    r = Ring(3)
    a = r.monomial((2, 0, 1))
    b = r.monomial((0, 3, 1))
    assert times_var(a.exps, 2) == (2, 1, 1)
    assert times_var(b.exps, 3) == (0, 3, 2)
    assert not a.divides(b)
    assert r.monomial((0, 0, 1)).divides(a)
    with pytest.raises(ArityMismatch):
        a.divides(Ring(2).monomial((1, 0)))


def _involutively_divides(h, m):
    # the basis's involutive division: the cone index of h alone
    cones = _ConeIndex()
    cones.add(h)
    return list(cones.divisors(m)) == [h]


def test_involutive_divisibility_matches_definition():
    # h involutively divides m iff h | m and m/h uses x_1..x_cls(h) only
    rng = random.Random(11)
    r = Ring(4)
    for _ in range(400):
        h = rand_monomial(rng, r)
        m = rand_monomial(rng, r)
        if h.is_unit():
            continue
        expected = False
        if h.divides(m):
            q = [b - a for a, b in zip(h.exps, m.exps)]
            expected = all(q[j] == 0 for j in range(class_of(h.exps), r.n))
        assert _involutively_divides(h.exps, m.exps) == expected


def test_involutive_divisibility_examples():
    z3 = (0, 0, 3)
    # class n means every variable is multiplicative
    assert _involutively_divides(z3, (2, 1, 3))
    assert _involutively_divides(z3, (2, 1, 4))
    assert not _involutively_divides(z3, (2, 1, 2))
    y2z2 = (0, 2, 2)
    assert _involutively_divides(y2z2, (0, 5, 2))
    assert not _involutively_divides(y2z2, (0, 2, 3))
    assert not _involutively_divides(y2z2, (0, 2, 1))


def test_basis_order_key():
    # class ascending, within a class exponents read from the back
    exps = [(0, 3), (2, 2), (2, 0), (2, 1)]
    exps.sort(key=p_order_key)
    assert exps == [(2, 0), (2, 1), (2, 2), (0, 3)]

    a = (1, 0, 2)
    b = (0, 1, 2)
    assert p_order_key(a) < p_order_key(b)  # class 1 before class 2
    c = (3, 1, 0)
    assert p_order_key(c) < p_order_key(a)  # same class, smaller tail


def test_str_and_repr():
    r = Ring(3, names=("x", "y", "z"))
    assert str(r.monomial((2, 0, 1))) == "x^2*z"
    assert str(r.monomial((0, 1, 0))) == "y"
    assert str(r.unit()) == "1"
    assert "x^2*z" in repr(r.monomial((2, 0, 1)))
    # the same text for bare exponent tuples
    assert r.text((2, 0, 1)) == "x^2*z" and r.text((0, 0, 0)) == "1"


def test_hash_and_order():
    r = Ring(2)
    a = r.monomial((1, 2))
    b = r.monomial((1, 2))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
