import random

import pytest

from pommaret import Ring, p_order_key
from pommaret.errors import ArityMismatch, UnitMonomial


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
    assert str(r.variable(2)) == "x2"
    assert r.unit().is_unit()
    with pytest.raises(ArityMismatch):
        Ring(0)
    with pytest.raises(ArityMismatch):
        Ring(2, names=("x",))
    with pytest.raises(ArityMismatch):
        r.variable(4)


def test_monomial_construction_errors():
    r = Ring(2)
    with pytest.raises(ArityMismatch):
        r.monomial((1, 2, 3))
    with pytest.raises(ArityMismatch):
        r.monomial((-1, 0))


def test_class_and_variable_split():
    r = Ring(3)
    m = r.monomial((2, 3, 0))
    assert m.cls == 1
    assert m.multiplicative() == (1,)
    assert m.nonmultiplicative() == (2, 3)
    z3 = r.monomial((0, 0, 3))
    assert z3.cls == 3
    assert z3.multiplicative() == (1, 2, 3)
    assert z3.nonmultiplicative() == ()
    with pytest.raises(UnitMonomial):
        r.unit().cls


def test_arithmetic():
    r = Ring(3)
    a = r.monomial((2, 0, 1))
    b = r.monomial((0, 3, 1))
    assert (a * b).exps == (2, 3, 2)
    assert a.times_var(2).exps == (2, 1, 1)
    assert a.lcm(b).exps == (2, 3, 1)
    assert a.gcd(b).exps == (0, 0, 1)
    assert not a.divides(b)
    assert a.gcd(b).divides(a)
    assert (a.lcm(b) / a).exps == (0, 3, 0)
    with pytest.raises(ArityMismatch):
        a / b  # not divisible


def test_lattice_laws_random():
    rng = random.Random(7)
    r = Ring(4)
    for _ in range(200):
        a, b, c = (rand_monomial(rng, r) for _ in range(3))
        assert a.lcm(b) == b.lcm(a)
        assert a.gcd(b) == b.gcd(a)
        assert a.lcm(b.lcm(c)) == a.lcm(b).lcm(c)
        assert a.gcd(a.lcm(b)) == a
        assert a.lcm(a.gcd(b)) == a
        assert a.divides(a.lcm(b)) and a.gcd(b).divides(a)
        if b.divides(a):
            assert (a / b) * b == a


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
            q = m / h
            expected = all(q.exps[j] == 0 for j in range(h.cls, r.n))
        assert h.involutively_divides(m) == expected


def test_involutive_divisibility_examples():
    r = Ring(3)
    z3 = r.monomial((0, 0, 3))
    # class n means every variable is multiplicative
    assert z3.involutively_divides(r.monomial((2, 1, 3)))
    assert z3.involutively_divides(r.monomial((2, 1, 4)))
    assert not z3.involutively_divides(r.monomial((2, 1, 2)))
    y2z2 = r.monomial((0, 2, 2))
    assert y2z2.involutively_divides(r.monomial((0, 5, 2)))
    assert not y2z2.involutively_divides(r.monomial((0, 2, 3)))
    assert not y2z2.involutively_divides(r.monomial((0, 2, 1)))


def test_basis_order_key():
    # class ascending, within a class exponents read from the back
    r = Ring(2)
    mons = [r.monomial(e) for e in
            [(0, 3), (2, 2), (2, 0), (2, 1)]]
    mons.sort(key=p_order_key)
    assert [m.exps for m in mons] == [(2, 0), (2, 1), (2, 2), (0, 3)]

    r3 = Ring(3)
    a = r3.monomial((1, 0, 2))
    b = r3.monomial((0, 1, 2))
    assert p_order_key(a) < p_order_key(b)  # class 1 before class 2
    c = r3.monomial((3, 1, 0))
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
    assert r.monomial((0, 1)) < r.monomial((2, 0))  # degree first
