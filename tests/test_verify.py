import json
import random
import tracemalloc
from fractions import Fraction

import pytest

import pommaret.verify
from helpers import (REPRODUCERS, column_entries, dense_rank,
                     dense_rank_gf2, divides, halve_generator, lcm, mul,
                     positive_dimensional_ideals, random_stable,
                     reference_lattice, reference_scalar_betti, RP2_REDUCED,
                     rp2_ideal, rp2_reduced, strand_oracle, totals, variable)
from pommaret import (FreeComplex, Gen, Monomial, MonomialIdeal, Ring,
                      build_cell_complex, build_p_graph, chain_vertices, cli,
                      check_complex, check_exactness, betti_table, exact_rank,
                      homological_invariants, lcm_lattice, minimal_betti,
                      minimize, oracle_betti, pommaret_basis, ps_complex,
                      random_quasi_stable, scalar_betti, supports_check,
                      taylor_complex)
from pommaret.errors import ArityMismatch, NotAComplex, NotMinimal
from pommaret.resolution import composite_terms
from pommaret.verify import (_gf2_rank, _parity_columns, _strand_failure,
                             _strand_selector)


def test_exact_rank_against_dense_oracle():
    rng = random.Random(17)
    # (trials, most rows, most columns, densities, entry factor): small
    # shapes first, then larger sparse ones, then all-even ones whose
    # non-unit pivots fill in the rows they meet
    shapes = [(150, 7, 7, [0.2, 0.5, 0.9], 1),
              (60, 14, 14, [0.05, 0.1, 0.2], 1),
              (40, 14, 14, [0.3, 0.6], 2)]
    for trials, max_rows, max_cols, densities, factor in shapes:
        for trial in range(trials):
            nrows = rng.randint(0, max_rows)
            ncols = rng.randint(1, max_cols)
            density = rng.choice(densities)
            rows = []
            for _ in range(nrows):
                row = {c: factor * rng.randint(-5, 5) for c in range(ncols)
                       if rng.random() < density}
                rows.append({c: v for c, v in row.items() if v})
            before = [dict(r) for r in rows]
            assert exact_rank(rows) == dense_rank(rows, ncols)
            assert rows == before  # the input rows are left as they were
            # no +-1 pivots available: scaled copy has the same rank
            doubled = [{c: 2 * v for c, v in r.items()} for r in rows]
            assert exact_rank(doubled) == dense_rank(rows, ncols)


def test_exact_rank_edge_cases():
    assert exact_rank([]) == 0
    assert exact_rank([{}, {}]) == 0
    assert exact_rank([{0: 3}, {0: -6}]) == 1
    assert exact_rank([{0: 2, 1: 4}, {0: 3, 1: 6}, {0: 0, 1: 1}]) == 2


def test_gf2_rank_against_dense_oracle():
    # the certificate rests on rank_2 <= rank_Q for integer matrices
    rng = random.Random(23)
    for _ in range(300):
        nrows = rng.randint(0, 12)
        ncols = rng.randint(1, 12)
        density = rng.choice([0.1, 0.3, 0.6])
        rows = []
        for _ in range(nrows):
            row = {c: rng.randint(-2, 2) for c in range(ncols)
                   if rng.random() < density}
            rows.append({c: v for c, v in row.items() if v})
        columns = [sum(1 << r for r, row in enumerate(rows)
                       if row.get(c, 0) % 2) for c in range(ncols)]
        every = (1 << ncols) - 1
        rank2 = _gf2_rank(columns, every, ncols)
        assert rank2 == dense_rank_gf2(rows, ncols)
        assert rank2 <= exact_rank(rows)
        assert _gf2_rank(columns, every, 1) == min(rank2, 1)
        # a mask ranks the columns of its set bits alone
        mask = rng.getrandbits(ncols)
        kept = [j for j in range(ncols) if mask >> j & 1]
        sub = [{k: row[j] for k, j in enumerate(kept) if j in row}
               for row in rows]
        assert (_gf2_rank(columns, mask, ncols)
                == dense_rank_gf2(sub, len(kept)))
    assert _gf2_rank([], 0, 1) == _gf2_rank([0, 0], 0b11, 2) == 0
    assert _gf2_rank([0b11, 0b01, 0b10], 0b111, 3) == 2
    assert _gf2_rank([0b11, 0b01, 0b10], 0b101, 3) == 2
    assert _gf2_rank([0b11, 0b01, 0b01], 0b110, 3) == 1
    # [[1, 1], [1, -1]] has determinant -2: rank 2 over Q, 1 over GF(2)
    assert exact_rank([{0: 1, 1: 1}, {0: 1, 1: -1}]) == 2
    assert _gf2_rank([0b11, 0b11], 0b11, 2) == 1


def _spy_exact_route(monkeypatch):
    """Record the mu of every strand that check_exactness hands to the
    exact route."""
    seen = []
    failure = pommaret.verify._strand_failure

    def spy(cplx, strand, mu):
        seen.append(cplx.decode(mu))
        return failure(cplx, strand, mu)

    monkeypatch.setattr(pommaret.verify, "_strand_failure", spy)
    return seen


def test_exact_fallback_decides_what_gf2_cannot(ideal_a, ideal_b,
                                                monkeypatch):
    # RP^2 has 2-torsion: one strand of its minimal resolution is exact
    # over Q but not over GF(2), so it alone takes the exact route
    seen = _spy_exact_route(monkeypatch)
    rp2 = rp2_reduced()
    report = check_exactness(rp2)
    assert seen == [(1, 1, 1, 1, 1, 1)]
    assert report.ok and report.strands_checked == 32
    assert (32, False, []) == strand_oracle(rp2)
    # failures come only from the exact route, with its detail
    del seen[:]
    basis = pommaret_basis(ideal_a)
    chopped = FreeComplex(basis.ring, ideal_a, [ps_complex(basis).levels[0]],
                          [None], "custom", basis=basis)
    report = check_exactness(chopped)
    assert not report.ok
    assert report.failures == [
        {"mu": "x1^2*x2", "position": 0, "size": 2, "ranks": (1, 0)},
        {"mu": "x1^2*x2^2", "position": 0, "size": 3, "ranks": (1, 0)},
        {"mu": "x1^2*x2^3", "position": 0, "size": 4, "ranks": (1, 0)}]
    assert len(seen) == len(report.failures)
    assert (report.strands_checked, report.capped,
            report.failures) == strand_oracle(chopped)


def test_frozen_rp2_resolution_is_minimal_and_exact():
    # the frozen minimal resolution of RP^2 over Q: its file reads back
    # through FreeComplex with the same monomials, its entries are +-1 and
    # none is a unit, and its strands are exact
    rp2 = rp2_reduced()
    assert rp2.to_json_dict() == json.loads(
        RP2_REDUCED.read_text(encoding="utf-8"))
    coeffs = [c for diff in rp2.diffs[1:] for column in diff.values()
              for c in column.values()]
    assert rp2.ranks() == (10, 15, 6) and len(coeffs) == 60
    assert set(coeffs) == {1, -1}
    assert not rp2.unit_entries()
    assert check_exactness(rp2).ok
    assert minimal_betti(rp2).by_degree == {(0, 3): 10, (1, 4): 15,
                                            (2, 5): 6}


def test_certificate_agrees_with_exact_route(monkeypatch):
    # positive-dimensional ideals that are not stable: no strand falls
    # back, and forcing every strand onto the exact route (a GF(2) rank of
    # 0 certifies only strands with nothing to rank) changes no report
    cases = []
    for ideal in positive_dimensional_ideals():
        cplx = ps_complex(pommaret_basis(ideal))
        cases += [cplx, minimize(cplx)]
    seen = _spy_exact_route(monkeypatch)
    reports = [check_exactness(cplx) for cplx in cases]
    assert seen == [] and all(r.ok for r in reports)
    monkeypatch.setattr(pommaret.verify, "_gf2_rank",
                        lambda columns, mask, cap: 0)
    assert [check_exactness(cplx) for cplx in cases] == reports
    assert len(seen) > len(cases)


def test_check_complex_accepts(ideal_a, ideal_b):
    for ideal in (ideal_a, ideal_b):
        basis = pommaret_basis(ideal)
        assert check_complex(ps_complex(basis)).ok
        assert check_complex(taylor_complex(ideal)).ok
        assert check_complex(minimize(ps_complex(basis))).ok
    assert check_complex(ps_complex(pommaret_basis(random_stable(3)))).ok


def _corrupt(cplx, level, mutate):
    diffs = [None]
    for i in range(1, len(cplx.levels)):
        diffs.append({c: dict(col) for c, col in cplx.diffs[i].items()})
    mutate(diffs[level])
    return FreeComplex(cplx.ring, cplx.ideal, cplx.levels, diffs,
                       cplx.provenance, basis=cplx.basis)


def test_check_complex_locates_failures(ideal_b):
    good = ps_complex(pommaret_basis(ideal_b))

    def flip_first(level_cols):
        col = sorted(level_cols)[0]
        row = sorted(level_cols[col])[0]
        level_cols[col][row] = -level_cols[col][row]

    bad = _corrupt(good, 2, flip_first)
    report = check_complex(bad)
    assert not report.ok
    kinds = {f["kind"] for f in report.failures}
    assert kinds == {"composite"}
    assert all(f["level"] == 2 and f["col"] == 0 for f in report.failures)

    # an entry in a row whose multidegree does not divide the column's,
    # or that reaches outside its levels, makes no complex: it is refused
    # when the complex is built, before any check can run
    col = sorted(good.diffs[1])[0]
    src = good.levels[1][col].multidegree
    row = next(r for r, g in enumerate(good.levels[0])
               if any(a > b for a, b in zip(g.multidegree, src)))
    with pytest.raises(NotAComplex,
                       match=r"entry \(%d, %d\) of d_1: its row's "
                       "multidegree does not divide" % (row, col)):
        _corrupt(good, 1, lambda cols: cols[col].update({row: 1}))

    def bad_row(level_cols):
        col = sorted(level_cols)[0]
        level_cols[col][999] = 1

    with pytest.raises(NotAComplex, match="row 999 outside F_0"):
        _corrupt(good, 1, bad_row)
    with pytest.raises(NotAComplex, match="row -1 outside F_1"):
        _corrupt(good, 2, lambda cols: cols[0].update({-1: 1}))
    with pytest.raises(NotAComplex, match="column 99 outside F_2"):
        _corrupt(good, 2, lambda cols: cols.update({99: {}}))

    def zero_coeff(level_cols):
        col = sorted(level_cols)[0]
        row = sorted(level_cols[col])[0]
        level_cols[col][row] = 0

    report = check_complex(_corrupt(good, 1, zero_coeff))
    assert any(f["kind"] == "zero-entry" for f in report.failures)


def test_augmentation_composite_detected(ideal_a):
    # flipping a d_1 sign breaks d_0 o d_1 = 0, witnessed at target None
    good = ps_complex(pommaret_basis(ideal_a))

    def flip(level_cols):
        col = sorted(level_cols)[0]
        row = sorted(level_cols[col])[0]
        level_cols[col][row] = -level_cols[col][row]

    report = check_complex(_corrupt(good, 1, flip))
    assert not report.ok
    assert any(f["kind"] == "composite" and f["level"] == 1
               and f["target"] is None for f in report.failures)


def _reference_terms(cplx, i, col):
    # d_{i-1} o d_i on one column with monomial products, as
    # {(row, exps): coeff} before zero sums are dropped
    acc = {}
    for row, (c1, m1) in column_entries(cplx, i, col).items():
        if i >= 2:
            for row2, (c2, m2) in column_entries(cplx, i - 1, row).items():
                key = (row2, mul(m1, m2))
                acc[key] = acc.get(key, 0) + c1 * c2
        else:
            key = (None, mul(m1, cplx.levels[0][row].multidegree))
            acc[key] = acc.get(key, 0) + c1
    return acc


def _flip_first(level_cols):
    col = sorted(level_cols)[0]
    row = sorted(level_cols[col])[0]
    level_cols[col][row] = -level_cols[col][row]


def _zero_first(level_cols):
    col = sorted(level_cols)[0]
    row = sorted(level_cols[col])[0]
    level_cols[col][row] = 0


def _corruptions(good):
    """good, then good with the first entry of each d_i flipped, and with
    it zeroed: the corruptions of the tests above, at every level."""
    return [good] + [_corrupt(good, level, mutate)
                     for level in range(1, len(good.levels))
                     for mutate in (_flip_first, _zero_first)]


def test_kernel_matches_monomial_products(ideal_a, ideal_b):
    cases = []
    for ideal in (ideal_a, ideal_b, random_quasi_stable(0, 4, 4, 4)):
        cases += _corruptions(ps_complex(pommaret_basis(ideal)))
    levels = [(cplx, i) for cplx in cases for i in range(1, len(cplx.levels))]
    reference = [{col: _reference_terms(cplx, i, col) for col in cplx.diffs[i]}
                 for cplx, i in levels]
    # in a complex that could be built, every path to a target row carries
    # one monomial, the column's multidegree over the row's, so the kernel
    # may sum coefficients alone
    for (cplx, i), columns in zip(levels, reference):
        for col, terms in columns.items():
            src = cplx.levels[i][col].multidegree
            for row, exps in terms:
                below = ((0,) * len(src) if row is None
                         else cplx.levels[i - 2][row].multidegree)
                assert exps == tuple(a - b for a, b in zip(src, below))
    want = []
    for columns in reference:
        nonzero = {col: {row: value for (row, _), value in terms.items()
                         if value}
                   for col, terms in columns.items()}
        want.append({col: terms for col, terms in nonzero.items() if terms})
    assert sum(map(bool, want)) >= len(cases) - 3
    assert [composite_terms(cplx.diffs, i) for cplx, i in levels] == want


def test_kernel_is_empty_on_every_resolution():
    # the symbol complex, the Taylor complex and the reduced complex of
    # every ideal of a corpus: one sweep per level, and no column fails
    ideals = ([random_quasi_stable(s, 3 + s % 4, 3 + s % 4, 2 + s % 9)
               for s in range(24)] + positive_dimensional_ideals()[:8])
    swept = 0
    for ideal in ideals:
        cplx = ps_complex(pommaret_basis(ideal))
        complexes = [cplx, minimize(cplx)]
        if len(ideal.gens) <= 8:
            complexes.append(taylor_complex(ideal))
        for c in complexes:
            for i in range(1, len(c.levels)):
                assert composite_terms(c.diffs, i) == {}
                swept += len(c.diffs[i])
    assert swept > 10000


def test_composite_witnesses_are_in_numeric_order():
    # witnesses are listed by level, column, then target as a number (the
    # augmentation, None, first): row 4 comes before row 12
    good = ps_complex(pommaret_basis(random_quasi_stable(0, 4, 4, 4)))
    wide = 0
    for level in (1, 2):
        for col, column in sorted(good.diffs[level].items()):
            for row in sorted(column):
                bad = _corrupt(good, level, lambda cols: cols[col].update(
                    {row: -cols[col][row]}))
                found = [(f["level"], f["col"],
                          -1 if f["target"] is None else f["target"])
                         for f in check_complex(bad).failures]
                assert found and found == sorted(found)
                targets = {t for _, _, t in found}
                wide += min(targets) < 10 <= max(targets)
    assert wide > 0


@pytest.mark.parametrize("wide", [1, 2, 0, "ideal"])
def test_kernel_rejects_mixed_arity(wide):
    # one tuple comes from Ring(4), everything else from Ring(3): the
    # multidegree of the generator of F_wide, or the ideal's ring.  The
    # complex is refused when it is built, so no kernel sees a key cut to
    # three exponents.
    r3 = Ring(3)
    ideal = MonomialIdeal(r3, [variable(r3, 1)])
    levels = [[Gen("a", (1, 0, 0))],
              [Gen("b", (1, 1, 0))],
              [Gen("c", (1, 1, 1))]]
    diffs = [None, {0: {0: 1}}, {0: {0: 1}}]
    if wide == "ideal":
        r4 = Ring(4)
        ideal = MonomialIdeal(r4, [variable(r4, 1)])
    else:
        gen = levels[wide][0]
        levels[wide] = [Gen(gen.key, gen.multidegree + (0,))]
    with pytest.raises(ArityMismatch, match="monomials from different rings"):
        FreeComplex(r3, ideal, levels, diffs, "custom")


def test_free_complex_refuses_fraction_coefficients(ideal_b):
    # every coefficient is an int, so the reducer's pivots are +-1 and the
    # strand columns are integer columns as stored; a fraction is refused
    # where the complex is built, even one that equals an integer
    cplx = ps_complex(pommaret_basis(ideal_b))
    with pytest.raises(NotAComplex, match="is not an integer"):
        halve_generator(cplx, 1, 0)
    for bad in (Fraction(2, 1), 1.0):
        with pytest.raises(NotAComplex, match="is not an integer"):
            _corrupt(cplx, 2, lambda cols: cols[0].update(
                {min(cols[0]): bad}))
    assert _parity_columns(cplx)[1][0] == sum(
        1 << r for r, c in cplx.diffs[1][0].items() if c % 2)


def test_strand_selection(ideal_a):
    # levels (2,0) (2,1) (2,2) (0,3) and (2,1)*x2 (2,2)*x2: x1 ranks 0 2,
    # x2 ranks 0 1 2 3, one bit for x1 then three for x2
    cplx = ps_complex(pommaret_basis(ideal_a))
    select = _strand_selector(cplx)
    mu = 0b0011
    assert cplx.decode(mu) == (2, 1)
    selected, target = select(mu)
    assert target == 1
    assert [s.bit_count() for s in selected] == [2, 1]
    assert _strand_failure(cplx, (selected, target), mu) is None
    # nothing divides (0, 0), nor (1, 1), which has the same strand
    assert cplx.decode(0) == (0, 0)
    selected, target = select(0)
    assert target == 0
    assert selected == [0, 0]
    assert _strand_failure(cplx, (selected, target), 0) is None


def test_lcm_lattice(ideal_a, ideal_b):
    cplx = ps_complex(pommaret_basis(ideal_a))
    codes, capped = lcm_lattice(cplx, 1000)
    assert not capped
    points = list(map(cplx.decode, codes))
    assert set(points) == {(2, 0), (2, 1), (2, 2), (0, 3), (2, 3)}
    # generator multidegrees come first, in degree order
    assert points[0] == (2, 0)
    for a in points:
        for b in points:
            assert tuple(map(max, a, b)) in set(points)
    big = ps_complex(pommaret_basis(ideal_b))
    points, capped = lcm_lattice(big, 5)
    assert capped and len(points) == 5
    points, capped = lcm_lattice(big, 10 ** 6)
    assert not capped and len(points) == 27


def _wide_alphabet_complexes():
    # exponents up to 12 in two and three variables: many distinct values
    # per variable, so every lattice code has wide fields
    out = []
    for seed in range(20):
        ideal = random_quasi_stable(seed, 2 + seed % 2, 9 + seed % 4,
                                    1 + seed % 3)
        cplx = ps_complex(pommaret_basis(ideal))
        out += [cplx, minimize(cplx)]
        if len(ideal.gens) <= 7:
            out.append(taylor_complex(ideal))
    return out


def test_lcm_lattice_matches_reference():
    # same points in the same order, and the same capped flag, at every cap
    # up to one past the full lattice; capped means the closure has more
    # than cap points, so a cap equal to its size is not capped
    sizes = []
    for cplx in _wide_alphabet_complexes():
        full, capped = reference_lattice(cplx, 10 ** 6)
        assert not capped
        sizes.append(len(full))
        for cap in range(1, len(full) + 2):
            codes, capped = lcm_lattice(cplx, cap)
            assert capped == (cap < len(full))
            want = reference_lattice(cplx, cap)
            assert (list(map(cplx.decode, codes)), capped) == want
    assert max(sizes) > 50


def test_multidegree_codes():
    # every pair of generators of the wide-alphabet symbol, reduced and
    # Taylor complexes: a code divides another iff its multidegree does,
    # the OR of two codes decodes to their componentwise max, and codes
    # are equal iff multidegrees are
    pairs = 0
    for cplx in _wide_alphabet_complexes():
        gens = [(g.multidegree, code)
                for level, codes in zip(cplx.levels, cplx.classes)
                for g, code in zip(level, codes)]
        gens += [(g.exps, code)
                 for g, code in zip(cplx.ideal.gens, cplx.ideal_codes)]
        for md, code in gens:
            assert cplx.decode(code) == md
        for a_md, a in gens:
            for b_md, b in gens:
                assert (a & ~b == 0) == divides(a_md, b_md)
                assert cplx.decode(a | b) == lcm(a_md, b_md)
                assert (a == b) == (a_md == b_md)
        pairs += len(gens) ** 2
    assert pairs > 10 ** 4


def test_strand_selector_matches_divisibility_scan(ideal_b):
    rng = random.Random(5)
    cases = _wide_alphabet_complexes()[:12] + [
        ps_complex(pommaret_basis(ideal_b)), taylor_complex(ideal_b)]
    for cplx in cases:
        select = _strand_selector(cplx)
        # every lattice code, the least and the greatest code, and random
        # codes: per field, a random run of low bits
        top = sum(width << off for off, width, _ in cplx.fields)
        mus = lcm_lattice(cplx, 10 ** 6)[0] + [0, top]
        mus += [sum((1 << rng.randint(0, width.bit_length())) - 1 << off
                    for off, width, _ in cplx.fields) for _ in range(40)]
        for mu in mus:
            exps = cplx.decode(mu)
            want = [sum(1 << j for j, g in enumerate(level)
                        if all(a <= b for a, b in zip(g.multidegree, exps)))
                    for level in cplx.levels]
            member = any(all(a <= b for a, b in zip(g.exps, exps))
                         for g in cplx.ideal.gens)
            assert select(mu) == (want, int(member))
        # nothing divides 1 (no generator is 1), every generator divides
        # the greatest code
        assert cplx.decode(0) == (0,) * cplx.ring.n
        assert select(0) == ([0] * len(cplx.levels), 0)
        assert select(top) == (
            [(1 << len(level)) - 1 for level in cplx.levels], 1)


def test_unfiltered_strand_columns_need_homogeneity():
    # the Koszul syzygy of x1^2, x2^2 with its source multidegree cut to
    # x1^2*x2: d o d = 0 still holds, but the row x2^2 does not divide the
    # column's multidegree, so the strand at x1^2*x2 would select the
    # column without that row.  Strand columns are not filtered by row, so
    # such a complex must be refused before any strand: it is refused when
    # it is built.
    r = Ring(2)
    ideal = MonomialIdeal(r, [r.monomial([2, 0]), r.monomial([0, 2])])
    levels = [[Gen("a", (2, 0)), Gen("b", (0, 2))],
              [Gen("ab", (2, 2))]]
    diffs = [None, {0: {0: 1, 1: -1}}]
    good = FreeComplex(r, ideal, levels, diffs, "custom")
    assert check_exactness(good).ok
    levels[1] = [Gen("ab", (2, 1))]
    with pytest.raises(NotAComplex, match=r"entry \(1, 0\) of d_1: its "
                       "row's multidegree does not divide"):
        FreeComplex(r, ideal, levels, diffs, "custom")


@pytest.mark.parametrize("gens, checks", [
    ([(10 ** 8, 0), (0, 1)],
     ["0 pairs", "3 strands", "3 strands", "pd=1 reg=100000000"]),
    ([(10 ** 8, 0, 0), (0, 2, 0), (0, 0, 3), (1, 1, 1)],
     ["9 pairs", "23 strands", "14 strands", "pd=2 reg=100000002"])])
def test_huge_exponents(tmp_path, capsys, gens, checks):
    # lattice codes and selection masks index each variable's distinct
    # exponents, never the exponents themselves
    ring = Ring(len(gens[0]))
    path = tmp_path / "ideal.txt"
    path.write_text("vars %d\n" % ring.n + "".join(
        "[%s]\n" % ",".join(map(str, g)) for g in gens))
    assert cli.main(["verify", str(path), "--format", "json"]) == 0
    pairs, strands, reduced_strands, pd_reg = checks
    details = ["0 failures", "0 failures", pairs, "0 extra cancellations",
               "", "", strands, reduced_strands, pd_reg, ""]
    names = ["complex-axioms", "cell-support", "matching-valid",
             "safety-net-silent", "reduced-complex-axioms",
             "reduced-minimal", "exactness", "reduced-exactness",
             "pd-reg-consistent", "betti-vs-oracle"]
    assert json.loads(capsys.readouterr().out) == {
        "checks": [{"name": n, "ok": True, "detail": d}
                   for n, d in zip(names, details)],
        "ok": True}
    cplx = ps_complex(pommaret_basis(
        MonomialIdeal(ring, [ring.monomial(g) for g in gens])))
    for c in (cplx, minimize(cplx)):
        tracemalloc.start()
        try:
            assert check_exactness(c).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20
        # a field per variable over its few distinct exponents
        assert max(code.bit_length() for level in c.classes
                   for code in level) < 16


def test_strand_cap_below_one_is_rejected(ideal_b):
    # no lattice points, or a closure that stops early and a seed cut off,
    # would turn into an exactness verdict over too few strands
    cplx = ps_complex(pommaret_basis(ideal_b))
    for cap in (0, -1):
        with pytest.raises(ValueError):
            check_exactness(cplx, cap=cap)
        with pytest.raises(ValueError):
            lcm_lattice(cplx, cap)
    points, capped = lcm_lattice(cplx, 1)
    assert capped and len(points) == 1


def test_exactness_of_resolutions(ideal_a, ideal_b):
    cplx = ps_complex(pommaret_basis(ideal_a))
    report = check_exactness(cplx)
    assert report.ok and report.strands_checked == 5 and not report.capped
    reduced = minimize(cplx)
    report = check_exactness(reduced)
    assert report.ok and report.strands_checked == 3
    assert check_exactness(taylor_complex(ideal_a)).ok
    big = check_exactness(ps_complex(pommaret_basis(ideal_b)))
    assert big.ok and big.strands_checked == 27
    small = check_exactness(minimize(ps_complex(pommaret_basis(ideal_b))))
    assert small.ok and small.strands_checked == 13


def test_exactness_failure_is_reported(ideal_a):
    # the bare generator module is a complex but resolves nothing
    basis = pommaret_basis(ideal_a)
    cplx = ps_complex(basis)
    chopped = FreeComplex(cplx.ring, cplx.ideal, [cplx.levels[0]], [None],
                          "custom", basis=basis)
    report = check_exactness(chopped)
    assert not report.ok
    assert report.failures[0]["position"] == 0


def test_exactness_matches_strand_oracle(ideal_a, ideal_b):
    cases = []
    for ideal in (ideal_a, ideal_b, random_quasi_stable(4, 3, 4, 3),
                  random_quasi_stable(9, 4, 3, 2)):
        cplx = ps_complex(pommaret_basis(ideal))
        cases += [(cplx, 20000), (minimize(cplx), 20000)]
    basis = pommaret_basis(ideal_a)
    chopped = FreeComplex(basis.ring, ideal_a, [ps_complex(basis).levels[0]],
                          [None], "custom", basis=basis)
    big = ps_complex(pommaret_basis(ideal_b))
    # x1^2*x2 is a member that the one level-0 generator, x2^3, misses
    r = ideal_a.ring
    uncovered = FreeComplex(r, ideal_a,
                            [[Gen("a", (0, 3))],
                             [Gen("b", (2, 1))]],
                            [None, {0: {}}], "custom")
    cases += [(chopped, 20000), (big, 5), (rp2_reduced(), 20000),
              (uncovered, 20000)]
    reports = []
    for cplx, cap in cases:
        report = check_exactness(cplx, cap=cap)
        assert ((report.strands_checked, report.capped, report.failures)
                == strand_oracle(cplx, cap))
        reports.append(report)
    chopped_report, capped_report, rp2_report, uncovered_report = reports[-4:]
    assert not chopped_report.ok and chopped_report.failures
    assert capped_report.capped and capped_report.strands_checked == 5
    assert rp2_report.ok
    assert uncovered_report.failures[0] == {
        "mu": "x1^2*x2", "position": "augmentation",
        "reason": "member without covering generator"}


def test_complex_stages_build_no_monomial(ideal_b, monkeypatch):
    # generators, differential entries and cell labels hold keys, exponent
    # tuples and coefficients only: building the symbol, Taylor and cell
    # complexes, reducing, and checking the cells build no Monomial and
    # format no text
    basis = pommaret_basis(ideal_b)
    built = []
    init = Monomial.__init__
    text = Ring.text

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    def counting_text(self, exps):
        built.append(exps)
        return text(self, exps)

    monkeypatch.setattr(Monomial, "__init__", counting_init)
    monkeypatch.setattr(Ring, "text", counting_text)
    cplx = ps_complex(basis)
    cells = build_cell_complex(basis)
    taylor = taylor_complex(ideal_b)
    reduced = minimize(cplx)
    assert supports_check(cells, cplx).ok
    assert built == []
    assert (taylor.ranks(), reduced.ranks()) == ((4, 6, 4, 1), (4, 5, 2))


def test_basis_stages_build_no_monomial(ideal_b, monkeypatch):
    # basis elements, rewrite products and factors are exponent tuples: the
    # completion, the rewrite graph, the symbol and cell complexes and a
    # vertex walk build no Monomial; an ideal's generators are the only ones
    ideals = [ideal_b] + [random_quasi_stable(*args) for args in REPRODUCERS]
    built = []
    init = Monomial.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Monomial, "__init__", counting_init)
    walks = []
    for ideal in ideals:
        basis = pommaret_basis(ideal)
        build_p_graph(basis)
        ps_complex(basis)
        cell = build_cell_complex(basis).cells[-1][0]
        walks.append(chain_vertices(basis, cell.alpha, cell.tau, cell.tau))
    assert built == []
    assert len(walks) == 6


def test_strand_check_builds_no_monomial(ideal_b, monkeypatch):
    cplx = ps_complex(pommaret_basis(ideal_b))
    cases = [cplx, minimize(cplx)]
    built = []
    init = Monomial.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Monomial, "__init__", counting_init)
    reports = [check_exactness(c) for c in cases]
    assert built == []
    assert [(r.ok, r.strands_checked) for r in reports] == [(True, 27),
                                                             (True, 13)]


def test_exactness_requires_a_complex(ideal_a):
    good = ps_complex(pommaret_basis(ideal_a))
    bad = _corrupt(good, 1, lambda cols: cols[0].update({0: -cols[0][0]}))
    with pytest.raises(NotAComplex):
        check_exactness(bad)


def test_homological_invariants(ideal_a, ideal_b):
    basis = pommaret_basis(ideal_a)
    reduced = minimize(ps_complex(basis))
    report = homological_invariants(minimal_betti(reduced), basis)
    assert report.pd == 1 and report.pd_from_classes == 1
    assert report.reg == 4 and report.reg_from_basis == 4
    assert report.consistent
    assert report.betti.by_degree == {(0, 2): 1, (0, 3): 1, (1, 5): 1}

    basis_b = pommaret_basis(ideal_b)
    report = homological_invariants(
        minimal_betti(minimize(ps_complex(basis_b))), basis_b)
    assert report.pd == 2 and report.reg == 6
    assert report.consistent
    assert totals(report.betti) == (4, 5, 2)

    with pytest.raises(NotMinimal):
        minimal_betti(ps_complex(basis))


def test_betti_oracle_route(ideal_a):
    table = oracle_betti(ideal_a)
    assert table.by_degree == {(0, 2): 1, (0, 3): 1, (1, 5): 1}
    assert table.by_multidegree == {(0, (2, 0)): 1, (0, (0, 3)): 1,
                                    (1, (2, 3)): 1}
    direct = minimize(ps_complex(pommaret_basis(ideal_a)))
    from pommaret import betti_table
    assert betti_table(direct) == table


def test_oracle_proves_the_taylor_complex(ideal_b, tmp_path, capsys,
                                          monkeypatch):
    # the oracle ranks the units of the Taylor complex only once
    # check_complex has proven d o d = 0 on it: one flipped sign is a
    # typed error, and verify, whose other checks pass, exits 4
    def flip_one(cols):
        row = min(cols[0])
        cols[0][row] = -cols[0][row]

    monkeypatch.setattr(pommaret.verify, "taylor_complex", lambda ideal:
                        _corrupt(taylor_complex(ideal), 2, flip_one))
    with pytest.raises(NotAComplex, match="Taylor complex"):
        oracle_betti(ideal_b)
    path = tmp_path / "b.ideal"
    path.write_text("vars 3\n" + "".join(
        "[%s]\n" % ",".join(map(str, g.exps)) for g in ideal_b.gens))
    assert cli.main(["verify", str(path)]) == 4
    captured = capsys.readouterr()
    assert "error [not-a-complex]:" in captured.err
    assert captured.out == ""


def _gf2_exact_rank(rows):
    """A stand-in for ``exact_rank`` that ranks over GF(2)."""
    return dense_rank_gf2(list(rows), 1 + max(map(max, rows)))


def _betti_corpus():
    """400 seeded ideals, the positive-dimensional ones and the
    reproducers where V needs completing."""
    ideals = [random_quasi_stable(seed, 2 + seed % 4, 2 + seed % 3,
                                  1 + seed % 4) for seed in range(400)]
    return ideals + positive_dimensional_ideals() + [
        random_quasi_stable(*args) for args in REPRODUCERS]


def test_scalar_betti_equals_the_reduced_table(monkeypatch):
    """The scalar route gives the table of the Morse route on the symbol
    complex, and on the Taylor complex of the same ideal, over
    ``_betti_corpus``; and on the Taylor complex of RP^2, the table of its
    frozen minimal resolution, where GF(2) ranks would be wrong."""
    checked = 0
    for ideal in _betti_corpus():
        symbol = ps_complex(pommaret_basis(ideal))
        table = betti_table(minimize(symbol))
        assert scalar_betti(symbol) == table, ideal
        checked += 1
        if len(ideal.gens) <= 9:
            assert scalar_betti(taylor_complex(ideal)) == table, ideal
            checked += 1
    assert checked > 800
    rp2 = taylor_complex(rp2_ideal((6, 2, 1, 5, 4, 3)))
    table = betti_table(rp2_reduced())
    assert scalar_betti(rp2) == table
    monkeypatch.setattr(pommaret.verify, "exact_rank", _gf2_exact_rank)
    assert scalar_betti(rp2) != table


def test_scalar_betti_matches_a_tuple_keyed_reference():
    """Keyed by multidegree codes, ``scalar_betti`` lists the same
    (level, multidegree) counts in the same order as the reference keyed
    by exponent tuples: on the symbol and Taylor complexes of
    ``_betti_corpus``, on RP^2's Taylor complex and on its frozen minimal
    resolution."""
    complexes = []
    for ideal in _betti_corpus():
        complexes.append(ps_complex(pommaret_basis(ideal)))
        if len(ideal.gens) <= 9:
            complexes.append(taylor_complex(ideal))
    complexes += [taylor_complex(rp2_ideal((6, 2, 1, 5, 4, 3))),
                  rp2_reduced()]
    units = 0
    for cplx in complexes:
        table = scalar_betti(cplx)
        by_md, by_degree = reference_scalar_betti(cplx)
        assert list(table.by_multidegree.items()) == list(by_md.items())
        assert table.by_degree == by_degree
        units += len(cplx.unit_entries())
    assert len(complexes) > 800 and units > 10000


def test_scalar_betti_ranks_each_unit_block_exactly(ideal_b, monkeypatch):
    """Zeroing the one unit entry of a class block changes the table.
    Doubling one unit, or every unit, does not: ranks over Q stay, where
    ranks over GF(2) would fall in the blocks of more than one row."""
    cplx = ps_complex(pommaret_basis(ideal_b))
    blocks = {}
    for level, row, col, _ in cplx.unit_entries():
        key = (level, cplx.classes[level][col])
        blocks.setdefault(key, []).append((level, col, row))
    table = scalar_betti(cplx)
    assert table == betti_table(minimize(cplx))
    level, col, row = next(b[0] for b in blocks.values() if len(b) == 1)
    unit = cplx.diffs[level][col][row]
    for factor, same in ((0, False), (2, True)):
        scaled = _corrupt(cplx, level, lambda cols: cols[col].update(
            {row: factor * unit}))
        assert (scalar_betti(scaled) == table) == same
    diffs = [None] + [{c: dict(column) for c, column in diff.items()}
                      for diff in cplx.diffs[1:]]
    for i, r, j, c in cplx.unit_entries():
        diffs[i][j][r] = 2 * c
    doubled = FreeComplex(cplx.ring, cplx.ideal, cplx.levels, diffs,
                          cplx.provenance, basis=cplx.basis)
    assert scalar_betti(doubled) == table
    monkeypatch.setattr(pommaret.verify, "exact_rank", _gf2_exact_rank)
    assert scalar_betti(doubled) != table


def test_betti_marginals():
    for seed in range(8):
        ideal = random_quasi_stable(seed + 60, 3, 4, 2)
        table = oracle_betti(ideal)
        marg = {}
        for (i, exps), v in table.by_multidegree.items():
            key = (i, sum(exps))
            marg[key] = marg.get(key, 0) + v
        assert marg == table.by_degree


def test_random_quasi_stable_generator():
    a = random_quasi_stable(5, 3, 4, 2)
    b = random_quasi_stable(5, 3, 4, 2)
    assert a == b
    assert a.ring.n == 3
    assert a.is_quasi_stable()
    for seed in range(30):
        ideal = random_quasi_stable(seed, 2 + seed % 3, 5, seed % 4)
        assert ideal.is_quasi_stable()
        assert all(g.degree() <= 5 for g in ideal.gens)
        assert ideal.ring.n == 2 + seed % 3


def test_invariants_without_basis():
    report = homological_invariants(minimal_betti(rp2_reduced()))
    assert report.pd == 2 and report.reg == 3
    assert report.pd_from_classes == -1  # no basis to cross-check
