from itertools import permutations
from operator import gt, le

import pytest

import pommaret.cellular
from helpers import lcm, positive_dimensional_ideals, random_ideal
from pommaret import (FreeComplex, MonomialIdeal, PommaretBasis,
                      Ring, build_cell_complex, chain_vertices, expected_ranks,
                      pommaret_basis, ps_complex, random_quasi_stable,
                      supports_check, taylor_complex)
from pommaret.errors import (MismatchedBases, NotAComplex,
                             TauNotNonMultiplicative)


def test_chain_vertices_orders(ideal_b):
    """The two orderings of {y,z} on x^2*z^2 trace the triangle."""
    basis = pommaret_basis(ideal_b)
    a = basis.index((2, 0, 2))     # x^2*z^2
    b = basis.index((2, 1, 2))     # x^2*y*z^2
    z3 = basis.index((0, 0, 3))
    walk, degen = chain_vertices(basis, a, (2, 3), (2, 3))
    assert walk == [a, b, z3] and not degen
    walk, degen = chain_vertices(basis, a, (2, 3), (3, 2))
    assert walk == [a, z3, z3] and degen


def test_chain_vertices_guards(ideal_b):
    basis = pommaret_basis(ideal_b)
    with pytest.raises(TauNotNonMultiplicative):
        chain_vertices(basis, 0, (1, 2), (1, 2))  # x1 is multiplicative
    with pytest.raises(TauNotNonMultiplicative):
        chain_vertices(basis, 0, (2, 3), (2, 2))  # not an ordering


def test_cell_counts_match_ranks(ideal_a, ideal_b):
    for ideal in (ideal_a, ideal_b):
        basis = pommaret_basis(ideal)
        cells = build_cell_complex(basis)
        assert cells.counts() == ps_complex(basis).ranks()
    assert build_cell_complex(pommaret_basis(ideal_a)).counts() == (4, 3)
    assert build_cell_complex(pommaret_basis(ideal_b)).counts() == (14, 23, 10)


def test_triangle_cell(ideal_b):
    basis = pommaret_basis(ideal_b)
    a = basis.index((2, 0, 2))
    b = basis.index((2, 1, 2))
    z3 = basis.index((0, 0, 3))
    cells = build_cell_complex(basis)
    cell = cells.lookup[(a, (2, 3))]
    assert cell.dim == 2
    assert cell.vertices == tuple(sorted((a, b, z3)))
    assert cell.label == (2, 1, 3)
    # the facet toward [z^3, y] collapses, three facets remain
    assert sorted(cell.boundary) == sorted([
        ((a, (3,)), -1), ((b, (3,)), 1), ((a, (2,)), 1)])


def test_vertex_and_edge_cells(ideal_a):
    basis = pommaret_basis(ideal_a)
    cells = build_cell_complex(basis)
    for alpha in range(len(basis)):
        v = cells.lookup[(alpha, ())]
        assert v.vertices == (alpha,)
        assert v.boundary == []
        assert v.label == basis.elements[alpha]
    e = cells.lookup[(2, (2,))]               # x1^2*x2^2 --x2--> x2^3
    assert e.vertices == (2, 3)
    assert e.label == (2, 3)


def _assert_cells_are_walk_unions(basis, cells):
    """Each cell is the union of its |tau|! chain_vertices walks, and a
    walk is degenerate exactly when it repeats a vertex."""
    for layer in cells.cells:
        for cell in layer:
            assert cell.alpha in cell.vertices
            label = basis.elements[cell.vertices[0]]
            for v in cell.vertices[1:]:
                label = lcm(label, basis.elements[v])
            assert label == cell.label
            union = set()
            for sigma in permutations(cell.tau):
                walk, degen = chain_vertices(
                    basis, cell.alpha, cell.tau, sigma)
                union.update(walk)
                # degenerate exactly when a vertex repeats
                assert degen == (len(set(walk)) < len(walk))
                if not degen:
                    assert len(set(walk)) == cell.dim + 1
            assert cell.vertices == tuple(sorted(union))


def test_walks_stay_inside_the_cell():
    for seed in range(8):
        ideal = random_ideal(seed * 17 + 4, max_deg=3, count=2)
        if not ideal.is_quasi_stable():
            continue
        basis = pommaret_basis(ideal)
        _assert_cells_are_walk_unions(basis, build_cell_complex(basis))


def _ideal(n, gens):
    ring = Ring(n)
    return MonomialIdeal(ring, [ring.monomial(g) for g in gens])


def test_walk_unions_on_positive_dimensional_ideals():
    """Quasi-stable ideals without a pure power of x1, which
    random_quasi_stable never draws.  Every one but the last hand-built
    ideal avoids x1 altogether, so its basis has d >= 2."""
    ideals = [
        _ideal(3, [(0, 2, 0), (0, 1, 2), (0, 0, 3)]),
        _ideal(4, [(0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]),
        _ideal(4, [(0, 0, 2, 0), (0, 0, 1, 1), (0, 0, 0, 3)]),
        _ideal(5, [(0, 0, 1, 0, 0), (0, 0, 0, 2, 0), (0, 0, 0, 0, 2)]),
        _ideal(6, [(0, 1, 1, 1, 0, 0), (0, 3, 0, 0, 0, 0),
                   (0, 0, 2, 0, 0, 0), (0, 0, 0, 2, 0, 0),
                   (0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 2, 0),
                   (0, 0, 0, 0, 0, 2)]),
        _ideal(4, [(1, 1, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]),
    ]
    ideals += positive_dimensional_ideals()
    ds = set()
    for ideal in ideals:
        basis = pommaret_basis(ideal)
        ds.add(basis.d)
        cells = build_cell_complex(basis)
        assert cells.counts() == ps_complex(basis).ranks()
        _assert_cells_are_walk_unions(basis, cells)
    assert ds >= {2, 3}


def test_cells_need_no_walk_or_divisor_search(monkeypatch):
    """The n = 8 case of the ROADMAP baseline: 12 143 cells, about 41 s
    with one walk per order of tau."""
    basis = pommaret_basis(random_quasi_stable(11, 8, 3, 3))

    def forbidden(*args):
        raise RuntimeError("build_cell_complex walked the basis")

    monkeypatch.setattr(pommaret.cellular, "chain_vertices", forbidden)
    monkeypatch.setattr(PommaretBasis, "involutive_divisor", forbidden)
    cells = build_cell_complex(basis)
    assert cells.counts() == expected_ranks(basis)
    assert sum(cells.counts()) == 12143


def test_supports_check_accepts(ideal_a, ideal_b):
    for ideal in (ideal_a, ideal_b):
        basis = pommaret_basis(ideal)
        report = supports_check(build_cell_complex(basis), ps_complex(basis))
        assert report.ok and not report.failures
        assert bool(report)


def test_supports_check_random():
    for seed in range(10):
        ideal = random_ideal(seed * 29 + 7, max_deg=4, count=3)
        if not ideal.is_quasi_stable():
            continue
        basis = pommaret_basis(ideal)
        assert supports_check(build_cell_complex(basis),
                              ps_complex(basis)).ok


def test_supports_check_structure_guards(ideal_a, ideal_b):
    basis_a = pommaret_basis(ideal_a)
    basis_b = pommaret_basis(ideal_b)
    cells_a = build_cell_complex(basis_a)
    with pytest.raises(MismatchedBases):
        supports_check(cells_a, ps_complex(basis_b))
    with pytest.raises(MismatchedBases):
        supports_check(cells_a, taylor_complex(ideal_a))


def _copy_with_diffs(cplx, diffs):
    return FreeComplex(cplx.ring, cplx.ideal, cplx.levels, diffs,
                       cplx.provenance, basis=cplx.basis)


def _deep_diffs(cplx):
    out = [None]
    for i in range(1, len(cplx.levels)):
        out.append({c: dict(col) for c, col in cplx.diffs[i].items()})
    return out


def test_supports_check_detects_corruption(ideal_a):
    basis = pommaret_basis(ideal_a)
    cells = build_cell_complex(basis)
    good = ps_complex(basis)

    diffs = _deep_diffs(good)
    row = sorted(diffs[1][2])[0]
    diffs[1][2][row] *= 2                      # coefficient not a sign
    report = supports_check(cells, _copy_with_diffs(good, diffs))
    assert not report.ok
    assert any("not a sign" in f for f in report.failures)

    # entry monomials are the generators' multidegrees over each other,
    # so a wrong cell label disagrees with them through its generator's
    # multidegree; an entry in a row that does not divide its column
    # makes no complex
    cell = cells.cells[1][2]
    cell.label = (cell.label[0] + 1,) + cell.label[1:]
    report = supports_check(cells, good)
    assert not report.ok
    assert report.failures[0] == (
        "label of %r is not the symbol multidegree" % (cell.key(),))
    src = good.levels[1][0].multidegree
    row = next(r for r, g in enumerate(good.levels[0])
               if any(map(gt, g.multidegree, src)))
    diffs = _deep_diffs(good)
    diffs[1][0][row] = 1
    with pytest.raises(NotAComplex, match="does not divide"):
        _copy_with_diffs(good, diffs)

    diffs = _deep_diffs(good)
    row = sorted(diffs[1][2])[0]
    del diffs[1][2][row]                       # support shrinks
    report = supports_check(cells, _copy_with_diffs(good, diffs))
    assert not report.ok
    assert any("support" in f for f in report.failures)


def test_supports_check_detects_cell_corruption(ideal_b):
    basis = pommaret_basis(ideal_b)
    cplx = ps_complex(basis)

    cells = build_cell_complex(basis)
    edge = cells.cells[1][0]
    edge.vertices = tuple(v for v in edge.vertices if v != edge.alpha)
    report = supports_check(cells, cplx)
    assert not report.ok
    assert "cell %r does not contain its own vertex" % (edge.key(),) \
        in report.failures
    assert "facet %r has vertices outside %r" % ((edge.alpha, ()),
                                                 edge.key()) \
        in report.failures

    cells = build_cell_complex(basis)
    square = cells.cells[2][0]
    square.boundary = list(square.boundary) + [((99, ()), 1)]
    report = supports_check(cells, cplx)
    assert not report.ok
    assert "facet (99, ()) of %r is not a cell" % (square.key(),) \
        in report.failures


def test_supports_check_rejects_a_label_without_quotient(ideal_a):
    basis = pommaret_basis(ideal_a)
    cells = build_cell_complex(basis)
    cplx = ps_complex(basis)
    # a facet label that does not divide the cell label has no quotient;
    # it is a failure of the check, not an error of its input
    cell = cells.cells[1][0]
    cell.label = basis.elements[cell.alpha]
    report = supports_check(cells, cplx)
    assert not report.ok
    text = basis.ring.text
    facets = [cells.lookup[fkey].label for fkey, _ in cell.boundary]
    wrong = [f for f in facets if not all(map(le, f, cell.label))]
    assert wrong
    for f in wrong:
        assert "facet label %s does not divide %s of %r" % (
            text(f), text(cell.label), cell.key()) in report.failures


def test_supports_check_detects_sign_inconsistency(ideal_b):
    # the entry [x^2, y] -> [x^2] sits on the 4-cycle through [x^2, yz]
    # and [x^2, z], so flipping it alone cannot be absorbed by regauging
    from pommaret import Symbol
    basis = pommaret_basis(ideal_b)
    cells = build_cell_complex(basis)
    good = ps_complex(basis)
    col = {g.key: i for i, g in enumerate(good.levels[1])}[Symbol(0, (2,))]
    row = {g.key: i for i, g in enumerate(good.levels[0])}[Symbol(0, ())]
    diffs = _deep_diffs(good)
    diffs[1][col][row] = -diffs[1][col][row]
    report = supports_check(cells, _copy_with_diffs(good, diffs))
    assert not report.ok
    assert any("sign choice" in f for f in report.failures)


def test_json_and_dot(ideal_b):
    basis = pommaret_basis(ideal_b)
    cells = build_cell_complex(basis)
    doc = cells.to_json_dict()
    assert doc["n"] == 3
    assert len(doc["cells"]) == 14 + 23 + 10
    rec = doc["cells"][0]
    assert set(rec) == {"h", "tau", "dim", "label", "vertices", "boundary"}
    dot = cells.to_dot()
    assert dot.startswith("graph skeleton {")
    assert 'pos="' in dot                       # n <= 3 gets coordinates
    assert dot.count(" -- ") == 23
