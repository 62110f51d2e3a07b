import itertools
import random
import time

import pytest

from helpers import (NotAPath, NotNonMultiplicative, VariablesNotIncreasing,
                     delta_map, edge_between, make_ideal_a, make_ideal_b,
                     monomials_up_to, naive_completion, path_multidegree,
                     random_ideal, random_monomials, random_stable)
from pommaret import (MonomialIdeal, PommaretBasis, Ring, build_p_graph,
                      minimal_generators, p_order_key, pommaret_basis,
                      random_quasi_stable)
from pommaret.errors import (BrokenInvariant, EmptyInput, NotQuasiStable,
                             UnitGenerator)


def test_minimal_generators():
    r = Ring(2)
    mons = [r.monomial((2, 1)), r.monomial((2, 0)), r.monomial((2, 0)),
            r.monomial((0, 3)), r.monomial((1, 3))]
    gens = minimal_generators(mons)
    assert [g.exps for g in gens] == [(2, 0), (0, 3)]
    # antichain: no generator divides another
    for a in gens:
        for b in gens:
            assert a is b or not a.divides(b)
    with pytest.raises(EmptyInput):
        minimal_generators([])
    with pytest.raises(UnitGenerator):
        minimal_generators([r.unit(), r.monomial((1, 0))])


def test_contains_is_stable_under_reduction():
    # membership must not change when the generating set is minimized
    rng = random.Random(3)
    r = Ring(3)
    for _ in range(10):
        raw = [r.monomial([rng.randint(0, 3) for _ in range(3)])
               for _ in range(6)]
        raw = [m for m in raw if not m.is_unit()] or [r.monomial((1, 0, 0))]
        ideal = MonomialIdeal(r, raw)
        for m in itertools.islice(monomials_up_to(r, 4), 200):
            assert ideal.contains(m) == any(g.divides(m) for g in raw)


def test_quasi_stability_examples(ideal_a, ideal_b):
    assert ideal_a.is_quasi_stable()
    assert ideal_b.is_quasi_stable()
    r = Ring(2)
    assert not MonomialIdeal(r, [r.monomial((1, 0))]).is_quasi_stable()
    assert MonomialIdeal(r, [r.monomial((0, 1))]).is_quasi_stable()
    # x1*x2 alone: x2^t * x2 / nothing ... the mixed generator fails
    assert not MonomialIdeal(r, [r.monomial((1, 1))]).is_quasi_stable()


def test_quasi_stability_agrees_with_completion():
    # the criterion must coincide with "completion terminates"
    for seed in range(40):
        ideal = random_ideal(seed, max_deg=3, count=3)
        cap = sum(ideal.max_exponents()) + ideal.ring.n
        done = naive_completion(ideal, cap)
        assert ideal.is_quasi_stable() == (done is not None), repr(ideal)
        if done is not None:
            basis = pommaret_basis(ideal)
            assert set(basis.elements) == done


def test_stability_examples(ideal_a, ideal_b):
    assert not ideal_a.is_stable()
    assert not ideal_b.is_stable()
    r = Ring(2)
    assert MonomialIdeal(r, [r.monomial((0, 1)),
                             r.monomial((2, 0))]).is_stable()
    for seed in range(25):
        ideal = random_stable(seed)
        assert ideal.is_stable()
        assert ideal.is_quasi_stable()


def test_basis_of_two_variable_example(ideal_a):
    basis = pommaret_basis(ideal_a)
    assert [h.exps for h in basis.elements] == [
        (2, 0), (2, 1), (2, 2), (0, 3)]
    assert basis.classes == (1, 1, 1, 2)
    assert basis.d == 1
    assert basis.degree() == 4
    assert basis.class_counts() == (3, 1)
    # rewrite map: x2 pushes along the chain, with a factor on the last step
    assert basis.delta[(0, 2)] == (1, ideal_a.ring.unit())
    assert basis.delta[(1, 2)] == (2, ideal_a.ring.unit())
    assert basis.delta[(2, 2)] == (3, ideal_a.ring.monomial((2, 0)))
    assert (3, 2) not in basis.delta  # x2 is multiplicative for x2^3


def test_basis_rejects_non_quasi_stable():
    r = Ring(2)
    with pytest.raises(NotQuasiStable):
        pommaret_basis(MonomialIdeal(r, [r.monomial((1, 0))]))


def test_disjoint_cones():
    """Every ideal member has exactly one involutive divisor in the basis."""
    for seed in range(12):
        ideal = random_ideal(seed * 13 + 1, max_deg=3, count=2)
        if not ideal.is_quasi_stable():
            continue
        basis = pommaret_basis(ideal)
        bound = basis.degree() + 3
        for m in monomials_up_to(ideal.ring, bound):
            hits = [h for h in basis.elements if h.involutively_divides(m)]
            if ideal.contains(m):
                assert len(hits) == 1, (ideal, m)
                assert basis.involutive_divisor(m) == hits[0]
                assert basis.contains(m)
            else:
                assert not hits
                assert basis.involutive_divisor(m) is None


def test_basis_contains_minimal_generators():
    for seed in range(20):
        ideal = random_ideal(seed * 7 + 2, max_deg=4, count=3)
        if not ideal.is_quasi_stable():
            continue
        basis = pommaret_basis(ideal)
        assert set(ideal.gens) <= set(basis.elements)
        for h in basis.elements:
            assert ideal.contains(h)
        # order is the documented one
        keys = [p_order_key(h) for h in basis.elements]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_linear_quotients():
    # <h_{a+1}, ...> : h_a is generated by the nonmultiplicative variables
    for seed in range(15):
        ideal = random_ideal(seed * 3, max_deg=4, count=3)
        if not ideal.is_quasi_stable():
            continue
        basis = pommaret_basis(ideal)
        n = basis.ring.n
        for (a, k), (b, t) in basis.delta.items():
            assert b > a
            h = basis.elements[a]
            assert h.times_var(k) == t * basis.elements[b]
            assert basis.elements[b].involutively_divides(h.times_var(k))
        for a, h in enumerate(basis.elements):
            for g in basis.elements[a + 1:]:
                assert any(g.exps[j] > h.exps[j]
                           for j in range(h.cls, n)), (h, g)


def _pairwise_violation(elements, n):
    """Some a < b in basis order with h_b[j] <= h_a[j] at every
    nonmultiplicative variable of h_a: the colon-ideal condition fails."""
    elems = sorted(elements, key=p_order_key)
    return any(all(g.exps[j] <= h.exps[j] for j in range(h.cls, n))
               for a, h in enumerate(elems) for g in elems[a + 1:])


def test_corrupted_bases_fail_exactly_the_pairwise_condition():
    # elements dropped, added or multiplied: wherever every nonmultiplicative
    # product still has an involutive divisor, the basis is refused exactly
    # when some pair breaks the colon-ideal condition
    rng = random.Random(5)
    verdicts = []
    for seed in range(40):
        ideal = random_quasi_stable(seed, 2 + seed % 3, 3, 2)
        ring = ideal.ring
        elements = pommaret_basis(ideal).elements
        for _ in range(12):
            corrupt = list(elements)
            for _ in range(rng.randint(1, 2)):
                k = rng.randrange(len(corrupt))
                move = rng.randrange(3)
                if move == 0 and len(corrupt) > 1:
                    del corrupt[k]
                elif move == 1:
                    corrupt += random_monomials(rng, ring, 1, 4)
                else:
                    corrupt[k] = corrupt[k].times_var(rng.randint(1, ring.n))
            try:
                PommaretBasis(ideal, corrupt)
                refused = False
            except NotQuasiStable:
                continue
            except BrokenInvariant:
                refused = True
            assert refused == _pairwise_violation(corrupt, ring.n), corrupt
            verdicts.append(refused)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 25


def test_basis_with_thousands_of_elements_is_fast():
    # the linear-quotient gate is one cone query per element, not one
    # comparison per pair of elements
    r = Ring(3)
    ideal = MonomialIdeal(r, [r.monomial(e) for e in
                              [(3, 0, 0), (0, 2, 0), (0, 0, 3000), (1, 1, 1)]])
    start = time.perf_counter()
    basis = pommaret_basis(ideal)
    assert len(basis) == 9001
    assert time.perf_counter() - start < 5


def test_delta_map_guard(ideal_a):
    basis = pommaret_basis(ideal_a)
    beta, t = delta_map(basis, 0, 2)
    assert beta == 1 and t.is_unit()
    with pytest.raises(NotNonMultiplicative):
        delta_map(basis, 3, 2)  # x2 multiplicative for x2^3
    with pytest.raises(NotNonMultiplicative):
        delta_map(basis, 0, 1)


def test_p_graph_structure(ideal_a):
    basis = pommaret_basis(ideal_a)
    graph = build_p_graph(basis)
    assert graph.edges == (
        (0, 2, 1, ideal_a.ring.unit()),
        (1, 2, 2, ideal_a.ring.unit()),
        (2, 2, 3, ideal_a.ring.monomial((2, 0))))
    assert edge_between(graph, 0, 1) == (0, 2, 1, ideal_a.ring.unit())
    assert edge_between(graph, 0, 3) is None
    dot = graph.to_dot()
    assert dot.startswith("digraph")
    assert '"x1^2*x2^2" -> "x2^3" [label="x2 | t=x1^2"];' in dot


def test_p_graph_edge_count_random():
    # one edge per nonmultiplicative variable of each element
    for seed in range(10):
        ideal = random_ideal(seed * 11 + 5, max_deg=4, count=2)
        if not ideal.is_quasi_stable():
            continue
        basis = pommaret_basis(ideal)
        graph = build_p_graph(basis)
        n = basis.ring.n
        assert len(graph.edges) == sum(n - c for c in basis.classes)


def test_path_multidegree(ideal_b):
    basis = pommaret_basis(ideal_b)
    graph = build_p_graph(basis)
    names = [str(h) for h in basis.elements]
    assert names == ["x^2", "x^2*y", "x^2*y^2", "x^2*y^3", "x^2*z",
                     "x^2*y*z", "x^2*y^2*z", "x^2*y^3*z", "x^2*z^2",
                     "x^2*y*z^2", "y^4", "y^4*z", "y^2*z^2", "z^3"]
    # x^2 --y--> x^2*y --z--> x^2*y*z: both factors 1
    assert path_multidegree(graph, [0, 1, 5]).is_unit()
    # x^2*y^3 --y--> y^4 carries the factor x^2
    assert path_multidegree(graph, [3, 10]).exps == (2, 0, 0)
    assert path_multidegree(graph, [4]).is_unit()
    assert path_multidegree(graph, []).is_unit()
    with pytest.raises(NotAPath):
        path_multidegree(graph, [0, 13])
    with pytest.raises(VariablesNotIncreasing):
        path_multidegree(graph, [0, 1, 2])  # y twice
    with pytest.raises(VariablesNotIncreasing):
        path_multidegree(graph, [0, 4, 5])  # z then y


def test_stable_basis_is_minimal_generators():
    for seed in range(25):
        ideal = random_stable(seed + 100)
        basis = pommaret_basis(ideal)
        assert set(basis.elements) == set(ideal.gens)
    # and conversely a strict completion means not stable
    a = make_ideal_a()
    assert len(pommaret_basis(a)) > len(a.gens)


def test_fourteen_element_basis(ideal_b):
    basis = pommaret_basis(ideal_b)
    assert len(basis) == 14
    assert basis.class_counts() == (10, 3, 1)
    assert basis.degree() == 6
    assert basis.d == 1
    # spot-check the rewrite map on the completion part
    i = basis.index(ideal_b.ring.monomial((0, 4, 1)))   # y^4*z
    beta, t = delta_map(basis, i, 3)
    assert basis.elements[beta].exps == (0, 2, 2)
    assert t.exps == (0, 2, 0)


def test_max_exponents(ideal_b):
    assert ideal_b.max_exponents() == (2, 4, 3)
    assert make_ideal_a().max_exponents() == (2, 3)
