import inspect

import pytest

import pommaret.resolution
from helpers import (cls_of, column_entries, delta_map, ek_differential,
                     ek_sign, lcm, random_ideal, random_stable,
                     reference_match, short_v_args, symbol_differential,
                     times_var, totals, variable)
from pommaret import (BettiTable, FreeComplex, MonomialIdeal, Ring, Symbol,
                      betti_table, check_complex, expected_ranks, minimize,
                      pommaret_basis, ps_complex, ps_generators,
                      random_quasi_stable, render_differential,
                      taylor_complex)
from pommaret.errors import DegreeOutOfRange, NotAComplex
from pommaret.resolution import coeff_text, symbol_facets


# frozen transcription of the two-variable resolution of <x1^2, x2^3>
REF_A_LEVELS = [
    [(2, 0), (2, 1), (2, 2), (0, 3)],
    [(2, 1), (2, 2), (2, 3)],
]
REF_A_ENTRIES = [
    (1, (2, 1), (2, 0), -1, (0, 1)),
    (1, (2, 1), (2, 1), 1, (0, 0)),
    (1, (2, 2), (2, 1), -1, (0, 1)),
    (1, (2, 2), (2, 2), 1, (0, 0)),
    (1, (2, 3), (2, 2), -1, (0, 1)),
    (1, (2, 3), (0, 3), 1, (2, 0)),
]


def test_generator_enumeration(ideal_a):
    basis = pommaret_basis(ideal_a)
    level0 = ps_generators(basis, 0)
    assert [s.alpha for s in level0] == [0, 1, 2, 3]
    assert all(s.u == () for s in level0)
    level1 = ps_generators(basis, 1)
    assert level1 == [Symbol(0, (2,)), Symbol(1, (2,)), Symbol(2, (2,))]
    with pytest.raises(DegreeOutOfRange):
        ps_generators(basis, 2)
    with pytest.raises(DegreeOutOfRange):
        ps_generators(basis, -1)


def test_rank_formula(ideal_a, ideal_b):
    assert expected_ranks(pommaret_basis(ideal_a)) == (4, 3)
    assert expected_ranks(pommaret_basis(ideal_b)) == (14, 23, 10)
    for seed in range(15):
        ideal = random_ideal(seed * 5 + 1, max_deg=4, count=3)
        if not ideal.is_quasi_stable():
            continue
        basis = pommaret_basis(ideal)
        cplx = ps_complex(basis)
        assert cplx.ranks() == expected_ranks(basis)
        assert cplx.length == basis.ring.n - basis.d


def test_two_variable_resolution_matches_reference(ideal_a):
    cplx = ps_complex(pommaret_basis(ideal_a))
    ok, why = reference_match(cplx, REF_A_LEVELS, REF_A_ENTRIES)
    assert ok, why


def test_differential_of_a_two_set_symbol(ideal_b):
    # d[x^2, yz] = z[x^2, y] - y[x^2, z] + [x^2*y, z] - [x^2*z, y]
    basis = pommaret_basis(ideal_b)
    cplx = ps_complex(basis)
    lookup = {g.key: i for i, g in enumerate(cplx.levels[2])}
    col = lookup[Symbol(0, (2, 3))]
    low = {g.key: i for i, g in enumerate(cplx.levels[1])}
    column = column_entries(cplx, 2, col)
    want = {
        low[Symbol(0, (2,))]: (1, (0, 0, 1)),
        low[Symbol(0, (3,))]: (-1, (0, 1, 0)),
        low[Symbol(1, (3,))]: (1, (0, 0, 0)),
        low[Symbol(4, (2,))]: (-1, (0, 0, 0)),
    }
    assert column == want


def test_dropped_rewrite_terms(ideal_b):
    # d[x^2*z^2, yz]: extracting z rewrites to z^3, but y is multiplicative
    # for z^3, so the term -x^2 [z^3, y] is dropped; three entries remain
    basis = pommaret_basis(ideal_b)
    cplx = ps_complex(basis)
    a = basis.index((2, 0, 2))       # x^2*z^2
    b = basis.index((2, 1, 2))       # x^2*y*z^2
    z3 = basis.index((0, 0, 3))
    lookup = {g.key: i for i, g in enumerate(cplx.levels[2])}
    low = {g.key: i for i, g in enumerate(cplx.levels[1])}
    column = column_entries(cplx, 2, lookup[Symbol(a, (2, 3))])
    want = {
        low[Symbol(a, (3,))]: (-1, (0, 1, 0)),
        low[Symbol(b, (3,))]: (1, (0, 0, 0)),
        low[Symbol(a, (2,))]: (1, (0, 0, 1)),
    }
    assert column == want
    assert all(cplx.levels[1][row].key.alpha != z3 for row in column)
    # at level 1 the leftover set is empty and the rewrite always appears
    col1 = column_entries(cplx, 1, low[Symbol(a, (3,))])
    rows0 = {cplx.levels[0][row].key.alpha for row in col1}
    assert rows0 == {a, z3}


def test_homogeneity(ideal_b):
    # an entry's monomial is derived from the multidegrees; it must be the
    # paper's: x_k toward [h, u - k], t toward [h', u - k] where
    # x_k h = t h' in the rewrite map
    for ideal in (ideal_b, random_quasi_stable(4, 4, 3, 3)):
        basis = pommaret_basis(ideal)
        cplx = ps_complex(basis)
        ring = ideal.ring
        for i in range(1, len(cplx.levels)):
            below = {g.key: row for row, g in enumerate(cplx.levels[i - 1])}
            for col, g in enumerate(cplx.levels[i]):
                alpha, u = g.key
                want = {}
                for k in u:
                    rest = tuple(j for j in u if j != k)
                    want[below[Symbol(alpha, rest)]] = variable(ring, k).exps
                    beta, t = delta_map(basis, alpha, k)
                    if Symbol(beta, rest) in below:
                        want[below[Symbol(beta, rest)]] = t
                assert {row: m for row, (_c, m)
                        in column_entries(cplx, i, col).items()} == want


def test_ek_sign_rule(ideal_b):
    assert ek_sign(2, (2, 3)) == -1
    assert ek_sign(3, (2, 3)) == 1
    assert ek_sign(1, (1,)) == 1
    # the differential extracts x_k from [h, u] with the EK sign
    for ideal in [ideal_b] + [random_stable(seed) for seed in range(10)]:
        cplx = ps_complex(pommaret_basis(ideal))
        for i in range(1, len(cplx.levels)):
            below = {g.key: row for row, g in enumerate(cplx.levels[i - 1])}
            for col, g in enumerate(cplx.levels[i]):
                alpha, u = g.key
                column = column_entries(cplx, i, col)
                for k in u:
                    face = Symbol(alpha, tuple(j for j in u if j != k))
                    assert column[below[face]] == (
                        ek_sign(k, u), variable(ideal.ring, k).exps)


def test_ek_complex_stable(ideal_stable2):
    for seed in range(500, 520):
        ideal = random_stable(seed)
        assert (symbol_differential(ps_complex(pommaret_basis(ideal)))
                == ek_differential(ideal)), seed
    cplx = ps_complex(pommaret_basis(ideal_stable2))
    assert symbol_differential(cplx) == ek_differential(ideal_stable2)
    assert cplx.ranks() == (2, 1)
    assert not cplx.unit_entries()
    lookup = {g.key: i for i, g in enumerate(cplx.levels[0])}
    basis = cplx.basis
    i_x = basis.index((2, 0))
    i_y = basis.index((0, 1))
    column = column_entries(cplx, 1, 0)
    assert column[lookup[Symbol(i_x, ())]] == (1, (0, 1))
    assert column[lookup[Symbol(i_y, ())]] == (-1, (2, 0))


def test_construction_finds_classes_and_units(ideal_a, ideal_b):
    # every entry is stored as its coefficient alone
    for ideal in (ideal_a, ideal_b):
        symbol = ps_complex(pommaret_basis(ideal))
        for cplx in (symbol, taylor_complex(ideal), minimize(symbol)):
            assert all(type(c) is int
                       for diff in cplx.diffs[1:]
                       for column in diff.values() for c in column.values())
    # unit entries are found while the complex is proven multigraded, and
    # come out by level, column, then row whatever order the dicts hold
    symbol = ps_complex(pommaret_basis(ideal_b))
    backwards = [None] + [
        {col: dict(reversed(list(diff[col].items())))
         for col in reversed(list(diff))} for diff in symbol.diffs[1:]]
    cases = [symbol, taylor_complex(ideal_b), minimize(symbol),
             FreeComplex(symbol.ring, symbol.ideal, symbol.levels, backwards,
                         "pommaret", basis=symbol.basis)]
    for cplx in cases:
        assert cplx.unit_entries() == [
            (i, row, col, c) for i in range(1, len(cplx.levels))
            for row, col, c, m in cplx.entries(i) if c != 0 and not any(m)]
        pairs = [(g.multidegree, cls) for level, ids in
                 zip(cplx.levels, cplx.classes) for g, cls in zip(level, ids)]
        assert len(set(pairs)) == len({md for md, _ in pairs}) == len(
            {cls for _, cls in pairs})
    assert len(symbol.unit_entries()) == 27
    # one differential per level above 0
    for diffs in (symbol.diffs[:-1], symbol.diffs + [{}]):
        with pytest.raises(NotAComplex, match="differentials for 3 levels"):
            FreeComplex(symbol.ring, symbol.ideal, symbol.levels, diffs,
                        "pommaret", basis=symbol.basis)


def _facets_by_definition(basis, alpha, u):
    # the boundary of [h_alpha, u] read off the definition, with no
    # extraction list, rewrite table or class table: for the j-th variable
    # x_k of u, the face (alpha, u minus k) with sign (-1)^j, then the
    # involutive divisor h' of x_k h_alpha with the opposite sign, kept
    # when every variable of u minus k is nonmultiplicative for h'
    h = basis.elements[alpha]
    out = []
    for j, k in enumerate(u, start=1):
        rest = tuple(v for v in u if v != k)
        out.append(((alpha, rest), (-1) ** j))
        target = basis.involutive_divisor(times_var(h, k))
        if all(v > cls_of(target) for v in rest):
            out.append(((basis.index(target), rest), -(-1) ** j))
    return out


def test_symbol_facets_follow_the_definition():
    # one extraction list per u serves every symbol of the build, so every
    # sign and every rest is compared with its derivation symbol by symbol
    args = short_v_args() + [(s, 3 + s % 4, 3 + s % 4, 2 + s % 9)
                             for s in range(100)]
    symbols = shared = 0
    for a in args:
        basis = pommaret_basis(random_quasi_stable(*a))
        templates = {}
        for i in range(basis.ring.n - basis.d + 1):
            for alpha, u in ps_generators(basis, i):
                assert (symbol_facets(basis, alpha, u, templates)
                        == _facets_by_definition(basis, alpha, u)), (a, u)
                symbols += 1
        shared += len(templates)
    assert symbols > 10 * shared


@pytest.mark.parametrize("step", [-1, 1])
def test_wrong_rewrite_target_is_still_caught(monkeypatch, step):
    # entry monomials are derived, so nothing compares them with x_k and
    # t.  Rewriting x_k [h, u] by the rewrite of another variable of u
    # (the one step places away in u) must still be refused when the
    # complex is built, or fail d o d = 0.  The rewrite is dropped when
    # the wrong target is not a symbol, so some mutated complexes are
    # built; where it is kept, the row never divides the column
    def wrong_target(basis, alpha, u, templates):
        for j, k in enumerate(u):
            rest = u[:j] + u[j + 1:]
            sign = (-1) ** (j + 1)
            yield (alpha, rest), sign
            beta = basis.delta[(alpha, u[(j + step) % len(u)])]
            if all(v > basis.classes[beta] for v in rest):
                yield (beta, rest), -sign

    mutated = built = 0
    for seed in range(60):
        basis = pommaret_basis(random_quasi_stable(
            seed, 3 + seed % 3, 3, 2 + seed % 3))
        good = ps_complex(basis)
        with monkeypatch.context() as m:
            m.setattr(pommaret.resolution, "symbol_facets", wrong_target)
            try:
                bad = ps_complex(basis)
            except NotAComplex:
                mutated += 1
                continue
        if bad.diffs == good.diffs:
            continue  # no rewrite changed
        mutated += 1
        built += 1
        assert not check_complex(bad).ok, seed
    assert mutated >= 40
    assert built >= 1


@pytest.mark.parametrize("old, new", [
    ("rest[0] > classes", "rest[0] >= classes"),
    ("rest[0] > classes", "rest[-1] > classes")], ids=[">=", "rest[-1]"])
def test_loosened_legality_rule_is_caught(monkeypatch, old, new):
    # symbol_facets keeps a rewritten term iff rest lies above the class
    # of its target.  Either loosening keeps a term that is not a symbol,
    # so the complex must be refused when it is built, or fail d o d = 0,
    # or come out unchanged where no term was affected
    source = inspect.getsource(pommaret.resolution.symbol_facets)
    assert source.count(old) == 1
    scope = dict(vars(pommaret.resolution))
    exec(source.replace(old, new), scope)
    mutated = 0
    for seed in range(60):
        basis = pommaret_basis(random_quasi_stable(
            seed, 3 + seed % 3, 3, 2 + seed % 3))
        good = ps_complex(basis)
        with monkeypatch.context() as m:
            m.setattr(pommaret.resolution, "symbol_facets",
                      scope["symbol_facets"])
            try:
                bad = ps_complex(basis)
            except NotAComplex:
                mutated += 1
                continue
        if bad.diffs != good.diffs:
            mutated += 1
            assert not check_complex(bad).ok, seed
    assert mutated >= 5


def test_taylor_complex(ideal_a):
    cplx = taylor_complex(ideal_a)
    assert cplx.ranks() == (2, 1)
    column = column_entries(cplx, 1, 0)
    assert column == {0: (-1, (0, 3)), 1: (1, (2, 0))}
    # face multidegrees are lcms and ranks are binomials
    import math
    for seed in range(10):
        ideal = random_ideal(seed + 30, max_deg=3, count=2)
        t = taylor_complex(ideal)
        m = len(ideal.gens)
        assert t.ranks() == tuple(math.comb(m, i + 1) for i in range(m))
        for level in t.levels:
            for g in level:
                md = ideal.gens[g.key.gens[0]].exps
                for j in g.key.gens[1:]:
                    md = lcm(md, ideal.gens[j].exps)
                assert g.multidegree == md


def test_betti_table_counts(ideal_a):
    cplx = ps_complex(pommaret_basis(ideal_a))
    table = betti_table(cplx)
    assert table.by_degree == {(0, 2): 1, (0, 3): 2, (0, 4): 1,
                               (1, 3): 1, (1, 4): 1, (1, 5): 1}
    assert totals(table) == (4, 3)
    assert table.by_multidegree[(1, (2, 3))] == 1
    assert table == BettiTable(table.by_multidegree)
    assert "beta_0,2 = 1" in table.render()


def test_render_and_json(ideal_a):
    cplx = ps_complex(pommaret_basis(ideal_a))
    text = render_differential(cplx, 1)
    assert "[x1^2, x2]" in text.splitlines()[0]
    assert "-x1^2" in text and "-1" in text and "." in text
    doc = cplx.to_json_dict()
    assert set(doc) == {"n", "modules", "differentials"}
    assert len(doc["modules"]) == 2
    assert doc["modules"][1][0]["u"] == [2]
    assert doc["modules"][1][0]["h"] == [2, 0]
    assert len(doc["differentials"]) == 1
    tay = taylor_complex(ideal_a).to_json_dict()
    assert tay["modules"][1][0]["face"] == [0, 1]
    text = ideal_a.ring.text
    assert coeff_text(-1, text((0, 1))) == "-x2"
    assert coeff_text(2, text((0, 0))) == "2"
    assert coeff_text(-3, text((1, 0))) == "-3*x1"


@pytest.mark.parametrize("i", [-1, 0, 3])
def test_differential_outside_its_levels_is_refused(i):
    """d_i exists for 1 <= i <= length alone: d_-1 would read levels[-1]
    and levels[-2], and d_0 and d_3 have no column dict."""
    ring = Ring(3)
    ideal = MonomialIdeal(ring, [ring.monomial(e) for e in [
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1)]])
    cplx = ps_complex(pommaret_basis(ideal))
    assert cplx.length == 2
    with pytest.raises(DegreeOutOfRange):
        cplx.entries(i)
    with pytest.raises(DegreeOutOfRange):
        render_differential(cplx, i)


def test_render_formats_only_stored_entries(monkeypatch):
    """The grid of d_i formats one text per stored entry and fills the
    rest with ".", so its cost follows the entries, not rows x
    columns."""
    cplx = ps_complex(pommaret_basis(random_quasi_stable(3, 4, 3, 4)))
    formatted = []

    def counting(c, mono):
        formatted.append(c)
        return coeff_text(c, mono)

    monkeypatch.setattr(pommaret.resolution, "coeff_text", counting)
    for i in range(1, len(cplx.levels)):
        formatted.clear()
        text = render_differential(cplx, i)
        nnz = sum(map(len, cplx.diffs[i].values()))
        assert len(formatted) == nnz
        size = len(cplx.levels[i - 1]) * len(cplx.levels[i])
        assert nnz < size
        cells = [line.split() for line in text.splitlines()[1:]]
        assert sum(row.count(".") for row in cells) == size - nnz
