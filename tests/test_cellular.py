import json
import random
from itertools import combinations, permutations
from operator import gt, le

import pytest

import pommaret.cellular
from helpers import (lcm, positive_dimensional_ideals, random_ideal,
                     random_stable, reference_cells_doc,
                     reference_supports_check, times_var)
from pommaret import (Cell, CellComplex, FreeComplex, Gen, MonomialIdeal,
                      PommaretBasis, Ring, build_cell_complex, chain_vertices,
                      cli, expected_ranks, pommaret_basis, ps_complex,
                      random_quasi_stable, supports_check, taylor_complex)
from pommaret.errors import (MismatchedBases, NotAComplex,
                             TauNotNonMultiplicative)


def _by_key(cells):
    return {c.key(): c for layer in cells.cells for c in layer}


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
    cell = _by_key(cells)[(a, (2, 3))]
    assert cell.dim == 2
    assert cell.vertices == tuple(sorted((a, b, z3)))
    assert cell.label == (2, 1, 3)
    # the facet toward [z^3, y] collapses, three facets remain
    assert sorted(cell.boundary) == sorted([
        ((a, (3,)), -1), ((b, (3,)), 1), ((a, (2,)), 1)])


def test_vertex_and_edge_cells(ideal_a):
    basis = pommaret_basis(ideal_a)
    cells = _by_key(build_cell_complex(basis))
    for alpha in range(len(basis)):
        v = cells[(alpha, ())]
        assert v.vertices == (alpha,)
        assert v.boundary == []
        assert v.label == basis.elements[alpha]
    e = cells[(2, (2,))]               # x1^2*x2^2 --x2--> x2^3
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


def _closed_form_vertices(basis, h, tau):
    """{P(h x_J) : J a subset of tau} as sorted basis indices, with P(m)
    the basis element that involutively divides m."""
    found = set()
    for size in range(len(tau) + 1):
        for part in combinations(tau, size):
            m = h
            for k in part:
                m = times_var(m, k)
            found.add(basis.index(basis.involutive_divisor(m)))
    return tuple(sorted(found))


def test_cell_vertices_have_a_closed_form():
    """The vertices of [h, tau] are {P(h x_J) : J a subset of tau}.  On a
    stable ideal the basis is the minimal generators and P is the
    Eliahou-Kervaire decomposition, so the cell is Mermin's
    Eliahou-Kervaire cell (J. Commut. Algebra 2010)."""
    stable = [random_stable(s) for s in range(40)]
    ideals = stable + [
        random_quasi_stable(s, 3 + s % 4, 3 + s % 4, 2 + s % 9)
        for s in range(20)] + positive_dimensional_ideals()[:12]
    cells = 0
    for t, ideal in enumerate(ideals):
        basis = pommaret_basis(ideal)
        if t < len(stable):
            assert sorted(basis.elements) == sorted(g.exps
                                                    for g in ideal.gens)
        for layer in build_cell_complex(basis).cells:
            for c in layer:
                assert c.vertices == _closed_form_vertices(
                    basis, basis.elements[c.alpha], c.tau), (t, c.key())
                cells += 1
    assert cells > 10000


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


@pytest.mark.parametrize("outside", ["past-the-end", "negative"])
def test_a_vertex_outside_the_basis_is_a_failure(outside):
    """A vertex index past the basis raised IndexError, and a negative
    one read the last basis element; each is now one failure string, and
    the cell's lcm and own-vertex tests are skipped."""
    basis = pommaret_basis(random_quasi_stable(3, 3, 3, 2))
    cells, cplx = build_cell_complex(basis), ps_complex(basis)
    v = len(basis) if outside == "past-the-end" else -1
    edge = cells.cells[1][0]
    bad = _with_cell(cells, 1, 0, vertices=edge.vertices + (v,))
    want = ["cell %r has vertices outside the basis: [%d]"
            % (edge.key(), v)]
    assert supports_check(bad, cplx).failures == want
    assert reference_supports_check(bad, cplx).failures == want


def test_supports_check_rejects_a_label_without_quotient(ideal_a):
    basis = pommaret_basis(ideal_a)
    cells = build_cell_complex(basis)
    cplx = ps_complex(basis)
    # a facet label that does not divide the cell label has no quotient;
    # it is a failure of the check, not an error of its input
    cell = cells.cells[1][0]
    cell.label = basis.elements[cell.alpha]
    by_key = _by_key(cells)
    facets = [by_key[fkey].label for fkey, _ in cell.boundary]
    assert [f for f in facets if not all(map(le, f, cell.label))]
    # the division tests read the generators' codes, which the label
    # test has tied the labels to: the wrong label fails once
    report = supports_check(cells, cplx)
    assert report.failures == [
        "label of %r is not the symbol multidegree" % (cell.key(),)]
    assert reference_supports_check(cells, cplx).failures == report.failures


def test_supports_check_detects_sign_inconsistency(ideal_b):
    # d_1 is minus the boundary, so the flipped entry [x^2, y] -> [x^2]
    # fails at that entry and nowhere else
    from pommaret import Symbol
    basis = pommaret_basis(ideal_b)
    cells = build_cell_complex(basis)
    good = ps_complex(basis)
    col = {g.key: i for i, g in enumerate(good.levels[1])}[Symbol(0, (2,))]
    row = {g.key: i for i, g in enumerate(good.levels[0])}[Symbol(0, ())]
    diffs = _deep_diffs(good)
    diffs[1][col][row] = -diffs[1][col][row]
    bad = _copy_with_diffs(good, diffs)
    want = ["boundary sign at %r -> %r is not (-1)^1 times its d-entry"
            % ((0, (2,)), (0, ()))]
    assert supports_check(cells, bad).failures == want
    assert reference_supports_check(cells, bad).failures == want


@pytest.mark.parametrize("flip", [1, -1], ids=["same-sign", "flipped"])
def test_a_repeated_boundary_entry_is_a_failure(ideal_b, flip):
    """A facet named twice in one boundary was let through when the two
    entries agreed, since the boundary was read into a map by row; with
    the repeat's sign flipped only the global sign search failed."""
    basis = pommaret_basis(ideal_b)
    cells, cplx = build_cell_complex(basis), ps_complex(basis)
    key = (0, (2, 3))
    j = [c.key() for c in cells.cells[2]].index(key)
    boundary = cells.cells[2][j].boundary
    fkey, sign = boundary[0]
    bad = _with_cell(cells, 2, j, boundary=boundary + [(fkey, flip * sign)])
    want = ["facet %r appears twice in the boundary of %r" % (fkey, key)]
    assert supports_check(bad, cplx).failures == want
    assert reference_supports_check(bad, cplx).failures == want


def test_level_0_must_be_the_basis(ideal_b):
    """The vertex codes are level 0's.  Lowering x^2 to x on level 0 and
    on its vertex cell leaves every label, lcm and division test on codes
    satisfied, so only the test of level 0 against the basis fails."""
    basis = pommaret_basis(ideal_b)
    cells, cplx = build_cell_complex(basis), ps_complex(basis)
    u = basis.index((2, 0, 0))
    lowered = (1, 0, 0)
    levels = [list(level) for level in cplx.levels]
    levels[0][u] = Gen(levels[0][u].key, lowered)
    bad_cplx = FreeComplex(cplx.ring, cplx.ideal, levels, cplx.diffs,
                           cplx.provenance, basis=basis)
    bad_cells = _with_cell(cells, 0, u, label=lowered)
    want = ["level 0 of the free complex is not the basis"]
    assert supports_check(bad_cells, bad_cplx).failures == want
    assert reference_supports_check(bad_cells, bad_cplx).failures == want


def test_json_and_dot(ideal_b):
    basis = pommaret_basis(ideal_b)
    cells = build_cell_complex(basis)
    doc = reference_cells_doc(cells)
    assert json.loads("".join(cli._cells_json(cells))) == doc
    assert doc["n"] == 3
    assert len(doc["cells"]) == 14 + 23 + 10
    rec = doc["cells"][0]
    assert set(rec) == {"h", "tau", "dim", "label", "vertices", "boundary"}
    dot = cells.to_dot()
    assert dot.startswith("graph skeleton {")
    assert 'pos="' in dot                       # n <= 3 gets coordinates
    assert dot.count(" -- ") == 23


def _with_cell(cells, i, j, **changes):
    """A copy of cells in which cell j of dimension i has new fields."""
    old = cells.cells[i][j]
    fields = dict(alpha=old.alpha, tau=old.tau, label=old.label,
                  vertices=old.vertices, boundary=old.boundary)
    fields.update(changes)
    layers = [list(layer) for layer in cells.cells]
    layers[i][j] = Cell(**fields)
    return CellComplex(cells.basis, layers)


def _corruptions(rng, cells, cplx):
    """(kind, cells, complex, extra failure) of one seeded corruption of
    each kind.  extra is the line the positional check adds to the
    reference's failures, or None."""
    layers = cells.cells

    def pick(lowest):
        # a random cell of dimension lowest or more
        i = rng.choice([i for i in range(lowest, len(layers)) if layers[i]])
        return i, rng.randrange(len(layers[i]))

    i, j = pick(0)
    label = layers[i][j].label
    yield ("label", _with_cell(cells, i, j, label=(label[0] + 1,) + label[1:]),
           cplx, None)
    i, j = pick(1)
    vertices = list(layers[i][j].vertices)
    del vertices[rng.randrange(len(vertices))]
    yield ("vertex", _with_cell(cells, i, j, vertices=tuple(vertices)),
           cplx, None)
    i, j = pick(1)
    boundary = list(layers[i][j].boundary)
    k = rng.randrange(len(boundary))
    boundary[k] = (boundary[k][0], -boundary[k][1])
    yield "sign", _with_cell(cells, i, j, boundary=boundary), cplx, None
    i, j = pick(1)
    row = rng.choice(sorted(cplx.diffs[i][j]))
    for kind, coeff in (("negate", -1), ("double", 2), ("delete", 0)):
        diffs = _deep_diffs(cplx)
        diffs[i][j][row] *= coeff
        if not coeff:
            del diffs[i][j][row]
        yield kind, cells, _copy_with_diffs(cplx, diffs), None
    # negating generator j of level i negates its column and its row of
    # d_(i+1): the same complex up to one sign per generator, but d_i is
    # no longer (-1)^i times the boundary
    diffs = _deep_diffs(cplx)
    diffs[i][j] = {r: -c for r, c in diffs[i][j].items()}
    for up in diffs[i + 1].values() if i + 1 < len(diffs) else ():
        if j in up:
            up[j] = -up[j]
    yield "regauge", cells, _copy_with_diffs(cplx, diffs), None
    # a repeated boundary entry, with its sign, was read once by row
    i, j = pick(1)
    boundary = layers[i][j].boundary
    yield ("repeat", _with_cell(
        cells, i, j, boundary=boundary + [rng.choice(boundary)]), cplx, None)
    i, j = pick(1)
    fkey = (len(cells.basis) + rng.randrange(3), ())
    yield ("foreign", _with_cell(
        cells, i, j, boundary=layers[i][j].boundary + [(fkey, 1)]),
        cplx, None)
    # a vertex of a cell of dimension >= 2 is a cell whose label divides
    # the cell's and whose vertices lie inside, but it is no facet
    i, j = pick(2)
    cell = layers[i][j]
    fkey = (rng.choice(cell.vertices), ())
    yield ("other-dimension", _with_cell(
        cells, i, j, boundary=cell.boundary + [(fkey, rng.choice((1, -1)))]),
        cplx, "facet %r of %r is not a cell" % (fkey, cell.key()))
    # a vertex's code feeds every lcm that reads it, but it comes from the
    # complex: a wrong label on the vertex cell fails that cell alone
    j = rng.randrange(len(layers[0]))
    label = layers[0][j].label
    k = rng.randrange(len(label))
    yield ("vertex-label", _with_cell(
        cells, 0, j, label=label[:k] + (label[k] + 1,) + label[k + 1:]),
        cplx, None)
    # a facet label raised where it meets its cell's label no longer
    # divides it, though the two generator codes still do
    i, j = pick(1)
    cell = layers[i][j]
    row = rng.choice([r for r, f in enumerate(layers[i - 1])
                      if (f.key(), 1) in cell.boundary
                      or (f.key(), -1) in cell.boundary])
    label = layers[i - 1][row].label
    k = rng.choice([k for k, (a, b) in enumerate(zip(label, cell.label))
                    if a == b])
    yield ("facet-label", _with_cell(
        cells, i - 1, row, label=label[:k] + (label[k] + 1,) + label[k + 1:]),
        cplx, None)


def test_positional_check_matches_the_reference():
    """On a seeded corruption corpus the check by position and on codes
    reaches the verdict and the failures of the check by key on tuples;
    a boundary entry naming a cell of another dimension also reads "is
    not a cell".  Every corruption fails, a regauged complex among them:
    its signs are exactly (-1)^i times the boundary's."""
    ideals = ([random_quasi_stable(s, 3 + s % 3, 2 + s % 2, 1 + s % 3)
               for s in range(100)] + positive_dimensional_ideals())
    kinds = set()
    cases = 0
    for seed, ideal in enumerate(ideals):
        basis = pommaret_basis(ideal)
        cells, cplx = build_cell_complex(basis), ps_complex(basis)
        assert supports_check(cells, cplx).failures == []
        for kind, bad_cells, bad_cplx, extra in _corruptions(
                random.Random(seed), cells, cplx):
            ref = reference_supports_check(bad_cells, bad_cplx)
            report = supports_check(bad_cells, bad_cplx)
            assert report.ok == ref.ok, (seed, kind)
            assert sorted(report.failures) == sorted(
                ref.failures + ([extra] if extra else [])), (seed, kind)
            assert not report.ok, (seed, kind)
            kinds.add(kind)
            cases += 1
    assert len(ideals) == 124 and len(kinds) == 12 and cases == 12 * 124


def test_a_vertex_has_an_empty_boundary(ideal_a):
    """A vertex is compared with the zero column: a boundary entry on it
    is no cell one dimension down, even when it names the vertex itself,
    which the check by key let through."""
    basis = pommaret_basis(ideal_a)
    cells, cplx = build_cell_complex(basis), ps_complex(basis)
    key = cells.cells[0][0].key()
    bad = _with_cell(cells, 0, 0, boundary=[(key, 1)])
    assert reference_supports_check(bad, cplx).ok
    assert supports_check(bad, cplx).failures == [
        "facet %r of %r is not a cell" % (key, key),
        "support of %r differs from d-entries" % (key,)]
