import json
import random
import tracemalloc
from fractions import Fraction

import pytest

import pommaret.verify
from helpers import (dense_rank, dense_rank_gf2, halve_generator,
                     positive_dimensional_ideals, random_stable,
                     reference_lattice, rp2_ideal, strand_oracle)
from pommaret import (FreeComplex, Gen, Monomial, MonomialIdeal, Ring,
                      build_cell_complex, cli, check_complex, check_exactness,
                      exact_rank, homological_invariants, lcm_lattice,
                      minimize, oracle_betti, pommaret_basis, ps_complex,
                      random_quasi_stable, supports_check, taylor_complex)
from pommaret.errors import ArityMismatch, NotAComplex, NotMinimal
from pommaret.resolution import composite_terms
from pommaret.verify import (_columns, _gf2_rank, _integer_column,
                             _strand_failure, _strand_selector)


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
        rank2 = _gf2_rank(columns, ncols)
        assert rank2 == dense_rank_gf2(rows, ncols)
        assert rank2 <= exact_rank(rows)
        assert _gf2_rank(columns, 1) == min(rank2, 1)
    assert _gf2_rank([], 1) == _gf2_rank([0, 0], 2) == 0
    assert _gf2_rank([0b11, 0b01, 0b10], 3) == 2
    # [[1, 1], [1, -1]] has determinant -2: rank 2 over Q, 1 over GF(2)
    assert exact_rank([{0: 1, 1: 1}, {0: 1, 1: -1}]) == 2
    assert _gf2_rank([0b11, 0b11], 2) == 1


def _spy_exact_route(monkeypatch):
    """Record the mu of every strand that check_exactness hands to the
    exact route."""
    seen = []
    failure = pommaret.verify._strand_failure

    def spy(cplx, strand, cols, mu):
        seen.append(mu)
        return failure(cplx, strand, cols, mu)

    monkeypatch.setattr(pommaret.verify, "_strand_failure", spy)
    return seen


def test_exact_fallback_decides_what_gf2_cannot(ideal_a, ideal_b,
                                                monkeypatch):
    # RP^2 has 2-torsion: one strand of its minimized Taylor complex is
    # exact over Q but not over GF(2), so it alone takes the exact route
    seen = _spy_exact_route(monkeypatch)
    rp2 = minimize(taylor_complex(rp2_ideal((6, 2, 1, 5, 4, 3))))
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
    halved = halve_generator(ps_complex(pommaret_basis(ideal_b)), 1, 0)
    report = check_exactness(halved)
    assert report.ok and (report.strands_checked, report.capped,
                          report.failures) == strand_oracle(halved)


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
                        lambda columns, cap: 0)
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
        c, m = level_cols[col][row]
        level_cols[col][row] = (-c, m)

    bad = _corrupt(good, 2, flip_first)
    report = check_complex(bad)
    assert not report.ok
    kinds = {f["kind"] for f in report.failures}
    assert kinds == {"composite"}
    assert all(f["level"] == 2 and f["col"] == 0 for f in report.failures)

    def wreck_mono(level_cols):
        col = sorted(level_cols)[0]
        row = sorted(level_cols[col])[0]
        c, m = level_cols[col][row]
        level_cols[col][row] = (c, tuple(2 * e for e in m) if any(m)
                                else (1,) + m[1:])

    report = check_complex(_corrupt(good, 1, wreck_mono))
    assert not report.ok
    assert any(f["kind"] == "inhomogeneous" and f["level"] == 1
               for f in report.failures)

    # an entry in a row whose multidegree does not divide the column's
    col = sorted(good.diffs[1])[0]
    src = good.levels[1][col].multidegree
    row = next(r for r, g in enumerate(good.levels[0])
               if any(a > b for a, b in zip(g.multidegree, src)))
    report = check_complex(_corrupt(good, 1, lambda cols: cols[col].update(
        {row: (1, (0, 0, 0))})))
    assert {"kind": "inhomogeneous", "level": 1, "row": row, "col": col,
            "mono": "1"} in report.failures
    # the same row with src - dst as its entry: the difference has a
    # negative exponent, so it is not a monomial and proves no divisibility
    diff = tuple(a - b for a, b in zip(src, good.levels[0][row].multidegree))
    report = check_complex(_corrupt(good, 1, lambda cols: cols[col].update(
        {row: (1, diff)})))
    assert any(f["kind"] == "inhomogeneous" and f["row"] == row
               and f["col"] == col for f in report.failures)

    def bad_row(level_cols):
        col = sorted(level_cols)[0]
        level_cols[col][999] = (1, (0, 0, 0))

    report = check_complex(_corrupt(good, 1, bad_row))
    assert any(f["kind"] == "index" for f in report.failures)

    def zero_coeff(level_cols):
        col = sorted(level_cols)[0]
        row = sorted(level_cols[col])[0]
        _, m = level_cols[col][row]
        level_cols[col][row] = (0, m)

    report = check_complex(_corrupt(good, 1, zero_coeff))
    assert any(f["kind"] == "zero-entry" for f in report.failures)


def test_augmentation_composite_detected(ideal_a):
    # flipping a d_1 sign breaks d_0 o d_1 = 0, witnessed at target None
    good = ps_complex(pommaret_basis(ideal_a))

    def flip(level_cols):
        col = sorted(level_cols)[0]
        row = sorted(level_cols[col])[0]
        c, m = level_cols[col][row]
        level_cols[col][row] = (-c, m)

    report = check_complex(_corrupt(good, 1, flip))
    assert not report.ok
    assert any(f["kind"] == "composite" and f["level"] == 1
               and f["target"] is None for f in report.failures)


def _reference_terms(cplx, i, col):
    # the kernel's contract computed with Monomial products
    mono = cplx.ring.monomial
    acc = {}
    for row, (c1, m1) in cplx.diffs[i].get(col, {}).items():
        if i >= 2:
            for row2, (c2, m2) in cplx.diffs[i - 1].get(row, {}).items():
                key = (row2, (mono(m1) * mono(m2)).exps)
                acc[key] = acc.get(key, 0) + c1 * c2
        else:
            key = (None, (mono(m1) * mono(cplx.levels[0][row].multidegree))
                   .exps)
            acc[key] = acc.get(key, 0) + c1
    return {key: value for key, value in acc.items() if value != 0}


def test_kernel_matches_monomial_products(ideal_b):
    good = ps_complex(pommaret_basis(ideal_b))

    def flip_first(level_cols):
        col = sorted(level_cols)[0]
        row = sorted(level_cols[col])[0]
        c, m = level_cols[col][row]
        level_cols[col][row] = (-c, m)

    cases = [good, _corrupt(good, 1, flip_first), _corrupt(good, 2, flip_first)]
    columns = [(cplx, i, col) for cplx in cases
               for i in range(1, len(cplx.levels)) for col in cplx.diffs[i]]
    want = [_reference_terms(*case) for case in columns]
    assert any(want)
    got = [composite_terms(cplx.levels, cplx.diffs, i, col)
           for cplx, i, col in columns]
    assert check_complex(good).ok
    assert got == want


@pytest.mark.parametrize("wide", [1, 2, 0, "ideal"])
def test_kernel_rejects_mixed_arity(wide):
    # one tuple comes from Ring(4), everything else from Ring(3): an entry
    # of d_wide, a level-0 multidegree (wide = 0), or the ideal's ring.
    # The complex is refused when it is built, so no kernel sees a key cut
    # to three exponents.
    r3 = Ring(3)
    ideal = MonomialIdeal(r3, [r3.variable(1)])
    levels = [[Gen("a", (1, 0, 0), "a")],
              [Gen("b", (1, 1, 0), "b")],
              [Gen("c", (1, 1, 1), "c")]]
    diffs = [None, {0: {0: (1, (0, 1, 0))}},
             {0: {0: (1, (0, 0, 1))}}]
    if wide == 0:
        levels[0] = [Gen("a", (1, 0, 0, 0), "a")]
    elif wide == "ideal":
        r4 = Ring(4)
        ideal = MonomialIdeal(r4, [r4.variable(1)])
    else:
        # x_{wide+1} of Ring(4)
        diffs[wide][0][0] = (1, tuple(int(j == wide) for j in range(4)))
    with pytest.raises(ArityMismatch, match="monomials from different rings"):
        FreeComplex(r3, ideal, levels, diffs, "custom")


def test_strand_selection(ideal_a):
    cplx = ps_complex(pommaret_basis(ideal_a))
    select = _strand_selector(cplx, 2)
    cols = _columns(cplx, _integer_column)
    selected, target = select((2, 1))
    assert target == 1
    assert [len(s) for s in selected] == [2, 1]
    assert _strand_failure(cplx, (selected, target), cols, (2, 1)) is None
    selected, target = select((1, 1))
    assert target == 0
    assert [len(s) for s in selected] == [0, 0]
    assert _strand_failure(cplx, (selected, target), cols, (1, 1)) is None


def test_lcm_lattice(ideal_a, ideal_b):
    cplx = ps_complex(pommaret_basis(ideal_a))
    points, capped = lcm_lattice(cplx, 1000)
    assert not capped
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
    # up to one past the full lattice
    sizes = []
    for cplx in _wide_alphabet_complexes():
        full, capped = reference_lattice(cplx, 10 ** 6)
        assert not capped
        sizes.append(len(full))
        for cap in range(1, len(full) + 2):
            assert lcm_lattice(cplx, cap) == reference_lattice(cplx, cap)
    assert max(sizes) > 50


def test_strand_selector_matches_divisibility_scan(ideal_b):
    rng = random.Random(5)
    cases = _wide_alphabet_complexes()[:12] + [
        ps_complex(pommaret_basis(ideal_b)), taylor_complex(ideal_b)]
    for cplx in cases:
        n = cplx.ring.n
        top = max(max(g.multidegree) for level in cplx.levels
                  for g in level)
        select = _strand_selector(cplx, n)
        mus = [(0,) * n, (top + 1,) * n, (10 ** 9,) * n]
        mus += [tuple(rng.randint(0, top + 1) for _ in range(n))
                for _ in range(40)]
        for mu in mus:
            want = [[j for j, g in enumerate(level)
                     if all(a <= b for a, b in zip(g.multidegree, mu))]
                    for level in cplx.levels]
            member = any(all(a <= b for a, b in zip(g.exps, mu))
                         for g in cplx.ideal.gens)
            assert select(mu) == (want, int(member))
        # nothing divides 1, everything divides a large enough mu
        assert select((0,) * n) == ([[] for _ in cplx.levels], 0)
        assert select((top + 1,) * n) == (
            [list(range(len(level))) for level in cplx.levels], 1)


def test_unfiltered_strand_columns_need_homogeneity():
    # the Koszul syzygy of x1^2, x2^2 with its source multidegree cut to
    # x1^2*x2: d o d = 0 still holds, but the row x2^2 does not divide the
    # column's multidegree, so the strand at x1^2*x2 selects the column
    # without that row.  Strand columns are not filtered by row, so
    # check_exactness must refuse the complex before any strand.
    r = Ring(2)
    ideal = MonomialIdeal(r, [r.monomial([2, 0]), r.monomial([0, 2])])
    levels = [[Gen("a", (2, 0), "a"), Gen("b", (0, 2), "b")],
              [Gen("ab", (2, 2), "ab")]]
    diffs = [None, {0: {0: (1, (0, 2)), 1: (-1, (2, 0))}}]
    good = FreeComplex(r, ideal, levels, diffs, "custom")
    assert check_exactness(good).ok
    levels[1] = [Gen("ab", (2, 1), "ab")]
    bad = FreeComplex(r, ideal, levels, diffs, "custom")
    assert [f["kind"] for f in check_complex(bad).failures] == [
        "inhomogeneous", "inhomogeneous"]
    selected, _ = _strand_selector(bad, 2)((2, 1))
    assert selected == [[0], [0]]
    assert set(_columns(bad, _integer_column)[1][0]) == {0, 1}
    with pytest.raises(NotAComplex):
        check_exactness(bad)


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
    halved = halve_generator(big, 1, 0)
    assert any(isinstance(c, Fraction)
               for c, _m in halved.diffs[1][0].values())
    # x1^2*x2 is a member that the one level-0 generator, x2^3, misses
    r = ideal_a.ring
    uncovered = FreeComplex(r, ideal_a,
                            [[Gen("a", (0, 3), "a")],
                             [Gen("b", (2, 1), "b")]],
                            [None, {0: {}}], "custom")
    cases += [(chopped, 20000), (big, 5), (halved, 20000),
              (minimize(taylor_complex(rp2_ideal((6, 2, 1, 5, 4, 3)))),
               20000), (uncovered, 20000)]
    reports = []
    for cplx, cap in cases:
        report = check_exactness(cplx, cap=cap)
        assert ((report.strands_checked, report.capped, report.failures)
                == strand_oracle(cplx, cap))
        reports.append(report)
    (chopped_report, capped_report, halved_report, rp2_report,
     uncovered_report) = reports[-5:]
    assert not chopped_report.ok and chopped_report.failures
    assert capped_report.capped and capped_report.strands_checked == 5
    assert halved_report.ok and halved_report.strands_checked == 27
    assert rp2_report.ok
    assert uncovered_report.failures[0] == {
        "mu": "x1^2*x2", "position": "augmentation",
        "reason": "member without covering generator"}


def test_complex_stages_build_no_monomial(ideal_b, monkeypatch):
    # differential entries and generator multidegrees are exponent tuples:
    # building the symbol complex and checking the cells against it build
    # no Monomial, and the cell complex builds one per cell, its label
    basis = pommaret_basis(ideal_b)
    built = []
    init = Monomial.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Monomial, "__init__", counting_init)
    cplx = ps_complex(basis)
    cells = build_cell_complex(basis)
    assert len(built) == sum(cells.counts())
    del built[:]
    assert supports_check(cells, cplx).ok
    assert built == []


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
    bad = _corrupt(good, 1, lambda cols: cols[0].update(
        {0: (-cols[0][0][0], cols[0][0][1])}))
    with pytest.raises(NotAComplex):
        check_exactness(bad)


def test_homological_invariants(ideal_a, ideal_b):
    basis = pommaret_basis(ideal_a)
    reduced = minimize(ps_complex(basis))
    report = homological_invariants(reduced)
    assert report.pd == 1 and report.pd_from_classes == 1
    assert report.reg == 4 and report.reg_from_basis == 4
    assert report.consistent
    assert report.betti.by_degree == {(0, 2): 1, (0, 3): 1, (1, 5): 1}

    basis_b = pommaret_basis(ideal_b)
    report = homological_invariants(minimize(ps_complex(basis_b)))
    assert report.pd == 2 and report.reg == 6
    assert report.consistent
    assert report.betti.totals() == (4, 5, 2)

    with pytest.raises(NotMinimal):
        homological_invariants(ps_complex(basis))


def test_betti_oracle_route(ideal_a):
    table = oracle_betti(ideal_a)
    assert table.by_degree == {(0, 2): 1, (0, 3): 1, (1, 5): 1}
    assert table.by_multidegree == {(0, (2, 0)): 1, (0, (0, 3)): 1,
                                    (1, (2, 3)): 1}
    direct = minimize(ps_complex(pommaret_basis(ideal_a)))
    from pommaret import betti_table
    assert betti_table(direct) == table


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


def test_invariants_without_basis(ideal_a):
    reduced = minimize(taylor_complex(ideal_a))
    report = homological_invariants(reduced)
    assert report.pd == 1 and report.reg == 4
    assert report.pd_from_classes == -1  # no basis to cross-check
