"""Acceptance gate: one test per stated criterion, one line per verdict.

Reference matrices and matchings were frozen from independent hand
computation of the two worked examples; Betti oracles run through the
Taylor resolution, which shares no code with the cone construction.
"""

import time

import pytest

from helpers import (ek_differential, make_ideal_a, make_ideal_b,
                     random_stable, reference_match, symbol_differential)
from pommaret import (betti_table, build_matching_V, build_p_graph,
                      check_complex, check_exactness, expected_ranks,
                      homological_invariants, minimize, oracle_betti,
                      pommaret_basis, ps_complex, random_quasi_stable,
                      supports_check, taylor_complex)
from pommaret.cellular import build_cell_complex
from pommaret.errors import NotQuasiStable
from pommaret.ideals import MonomialIdeal
from pommaret.monomials import Ring
from pommaret.resolution import FreeComplex


def _best_time(fn, repeats=5):
    fn()  # warm caches before timing
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def _say(line):
    print(line)


# --- criterion 1: small basis, exact content, under a millisecond ----------


def test_criterion_1_basis_two_variables():
    ideal = make_ideal_a()
    basis = pommaret_basis(ideal)
    assert [str(h) for h in basis.elements] == [
        "x1^2", "x1^2*x2", "x1^2*x2^2", "x2^3"]
    assert basis.classes == (1, 1, 1, 2)
    dt = _best_time(lambda: pommaret_basis(ideal))
    assert dt < 0.001, "basis took %.6fs" % dt
    _say("criterion 1 PASS: 4-element basis, order and classes exact, "
         "%.3fms" % (dt * 1000))


# --- criterion 2: fourteen-element basis with graph and ranks --------------


def test_criterion_2_basis_three_variables():
    ideal = make_ideal_b()
    basis = pommaret_basis(ideal)
    assert [str(h) for h in basis.elements] == [
        "x^2", "x^2*y", "x^2*y^2", "x^2*y^3", "x^2*z", "x^2*y*z",
        "x^2*y^2*z", "x^2*y^3*z", "x^2*z^2", "x^2*y*z^2",
        "y^4", "y^4*z", "y^2*z^2", "z^3"]
    assert basis.class_counts() == (10, 3, 1)
    graph = build_p_graph(basis)
    assert len(graph.edges) == 23
    assert expected_ranks(basis) == (14, 23, 10)
    assert ps_complex(basis).ranks() == (14, 23, 10)

    def pipeline():
        b = pommaret_basis(ideal)
        build_p_graph(b)
        expected_ranks(b)

    dt = _best_time(pipeline)
    assert dt < 0.05, "basis+graph took %.6fs" % dt
    _say("criterion 2 PASS: 14 elements in order, 23 edges, ranks "
         "(14, 23, 10), %.3fms" % (dt * 1000))


# --- criterion 3: resolution matrices match the worked two-variable case ---

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


def test_criterion_3_resolution_matrices():
    cplx = ps_complex(pommaret_basis(make_ideal_a()))
    assert check_complex(cplx).ok
    ok, why = reference_match(cplx, REF_A_LEVELS, REF_A_ENTRIES)
    assert ok, why
    _say("criterion 3 PASS: differential matches the reference up to "
         "per-generator signs")


# --- criterion 4: matching, critical cells and minimal matrices ------------

V3_EDGES = {
    ("[x^2, z]", "[x^2*z]"),
    ("[x^2*y, z]", "[x^2*y*z]"),
    ("[x^2*y^2, z]", "[x^2*y^2*z]"),
    ("[x^2*y^3, z]", "[x^2*y^3*z]"),
    ("[x^2*z, z]", "[x^2*z^2]"),
    ("[x^2*y*z, z]", "[x^2*y*z^2]"),
    ("[y^4, z]", "[y^4*z]"),
    ("[x^2, y*z]", "[x^2*z, y]"),
    ("[x^2*y, y*z]", "[x^2*y*z, y]"),
    ("[x^2*y^2, y*z]", "[x^2*y^2*z, y]"),
    ("[x^2*y^3, y*z]", "[x^2*y^3*z, y]"),
    ("[x^2*z, y*z]", "[x^2*z^2, y]"),
    ("[x^2*y*z, y*z]", "[x^2*y*z^2, y]"),
}
V2_EDGES = {
    ("[x^2, y]", "[x^2*y]"),
    ("[x^2*y, y]", "[x^2*y^2]"),
    ("[x^2*y^2, y]", "[x^2*y^3]"),
    ("[x^2*y^2*z, y*z]", "[x^2*y^3*z, z]"),
    ("[x^2*z^2, y*z]", "[x^2*y*z^2, z]"),
}
CRITICAL = [
    ["[x^2]", "[y^4]", "[y^2*z^2]", "[z^3]"],
    ["[x^2*y^3, y]", "[x^2*y^2*z, z]", "[x^2*z^2, z]", "[y^4*z, z]",
     "[y^2*z^2, z]"],
    ["[x^2*y^3*z, y*z]", "[x^2*y*z^2, y*z]"],
]

REF_B_LEVELS = [
    [(2, 0, 0), (0, 4, 0), (0, 2, 2), (0, 0, 3)],
    [(2, 4, 0), (0, 4, 2), (2, 2, 2), (2, 0, 3), (0, 2, 3)],
    [(2, 4, 2), (2, 2, 3)],
]
REF_B_ENTRIES = [
    (1, (2, 4, 0), (2, 0, 0), -1, (0, 4, 0)),
    (1, (2, 4, 0), (0, 4, 0), 1, (2, 0, 0)),
    (1, (0, 4, 2), (0, 4, 0), -1, (0, 0, 2)),
    (1, (0, 4, 2), (0, 2, 2), 1, (0, 2, 0)),
    (1, (2, 2, 2), (2, 0, 0), -1, (0, 2, 2)),
    (1, (2, 2, 2), (0, 2, 2), 1, (2, 0, 0)),
    (1, (2, 0, 3), (2, 0, 0), -1, (0, 0, 3)),
    (1, (2, 0, 3), (0, 0, 3), 1, (2, 0, 0)),
    (1, (0, 2, 3), (0, 2, 2), -1, (0, 0, 1)),
    (1, (0, 2, 3), (0, 0, 3), 1, (0, 2, 0)),
    (2, (2, 4, 2), (2, 4, 0), 1, (0, 0, 2)),
    (2, (2, 4, 2), (0, 4, 2), 1, (2, 0, 0)),
    (2, (2, 4, 2), (2, 2, 2), -1, (0, 2, 0)),
    (2, (2, 2, 3), (2, 2, 2), 1, (0, 0, 1)),
    (2, (2, 2, 3), (2, 0, 3), -1, (0, 2, 0)),
    (2, (2, 2, 3), (0, 2, 3), 1, (2, 0, 0)),
]


def test_criterion_4_matching_and_minimal_resolution():
    ideal = make_ideal_b()

    def pipeline():
        basis = pommaret_basis(ideal)
        cplx = ps_complex(basis)
        v = build_matching_V(cplx)
        return cplx, v, minimize(cplx)

    cplx, v, reduced = pipeline()
    edges = {(cplx.levels[p.level][p.source].text,
              cplx.levels[p.level - 1][p.target].text, p.var)
             for p in v.pairs}
    assert {(s, t) for s, t, var in edges if var == 3} == V3_EDGES
    assert {(s, t) for s, t, var in edges if var == 2} == V2_EDGES
    assert len(v) == 18
    assert [[g.text for g in lv] for lv in reduced.levels] == CRITICAL
    assert reduced.ranks() == (4, 5, 2)
    assert reduced.safety_net_cancellations == 0
    assert not reduced.unit_entries()
    ok, why = reference_match(reduced, REF_B_LEVELS, REF_B_ENTRIES)
    assert ok, why
    dt = _best_time(pipeline, repeats=3)
    assert dt < 1.0, "minimize pipeline took %.3fs" % dt
    _say("criterion 4 PASS: |V_3|=13, |V_2|=5, 11 critical generators, "
         "minimal matrices match, %.1fms" % (dt * 1000))


# --- criterion 5: invariants and the independent Betti oracle --------------


def test_criterion_5_invariants():
    ideal = make_ideal_b()
    basis = pommaret_basis(ideal)
    reduced = minimize(ps_complex(basis))
    report = homological_invariants(reduced)
    assert report.pd == 2 and report.pd_from_classes == 2
    assert report.reg == 6 and report.reg_from_basis == 6
    assert report.consistent
    assert report.betti.by_degree == {
        (0, 2): 1, (0, 3): 1, (0, 4): 2,
        (1, 5): 2, (1, 6): 3,
        (2, 7): 1, (2, 8): 1}
    assert report.betti.totals() == (4, 5, 2)
    assert betti_table(reduced) == oracle_betti(ideal)
    _say("criterion 5 PASS: pd=2, reg=6 (both routes), Betti table "
         "matches the Taylor-route oracle")


# --- criterion 6: randomized end-to-end sweep under a time budget ----------


def test_criterion_6_random_sweep():
    t0 = time.perf_counter()
    cases = 0
    for seed in range(200):
        n = 2 + seed % 3
        count = seed % 5
        max_deg = 2 + seed % 4
        ideal = random_quasi_stable(seed, n, max_deg, count)
        basis = pommaret_basis(ideal)
        cplx = ps_complex(basis)
        assert check_complex(cplx).ok, (seed, ideal)
        assert cplx.ranks() == expected_ranks(basis)
        cells = build_cell_complex(basis)
        assert cells.counts() == cplx.ranks()
        assert supports_check(cells, cplx).ok, (seed, ideal)
        reduced = minimize(cplx)
        assert reduced.safety_net_cancellations == 0, (seed, ideal)
        assert check_complex(reduced).ok
        assert not reduced.unit_entries()
        ex = check_exactness(cplx, cap=300)
        assert ex.ok, (seed, ideal, ex.failures[:2])
        exr = check_exactness(reduced, cap=300)
        assert exr.ok, (seed, ideal, exr.failures[:2])
        inv = homological_invariants(reduced)
        assert inv.consistent, (seed, ideal)
        assert betti_table(reduced) == oracle_betti(ideal), (seed, ideal)
        cases += 1
    dt = time.perf_counter() - t0
    assert cases == 200
    assert dt < 120.0, "sweep took %.1fs" % dt
    _say("criterion 6 PASS: 200 random quasi-stable ideals verified "
         "end to end in %.1fs" % dt)


# --- criterion 7: stable ideals collapse to the classical construction -----


def test_criterion_7_stable_ideals():
    checked = 0
    for seed in range(50):
        ideal = random_stable(seed)
        assert ideal.is_stable()
        basis = pommaret_basis(ideal)
        assert set(basis.elements) == set(ideal.gens), (seed, ideal)
        cplx = ps_complex(basis)
        # the Eliahou-Kervaire differential is built from the minimal
        # generators alone, sharing no code with the symbol complex
        assert symbol_differential(cplx) == ek_differential(ideal), \
            (seed, ideal)
        assert len(build_matching_V(cplx)) == 0
        assert not cplx.unit_entries()
        checked += 1
    assert checked == 50
    _say("criterion 7 PASS: 50 stable ideals: basis = generators, "
         "empty matching, classical EK differential = cone resolution")


# --- criterion 8: failures are loud and located ----------------------------


def test_criterion_8_negative_paths(tmp_path, capsys):
    r = Ring(2)
    with pytest.raises(NotQuasiStable):
        pommaret_basis(MonomialIdeal(r, [r.monomial((1, 0))]))

    good = ps_complex(pommaret_basis(make_ideal_b()))
    diffs = [None] + [{c: dict(col) for c, col in good.diffs[i].items()}
                      for i in range(1, len(good.levels))]
    col = sorted(diffs[2])[0]
    row = sorted(diffs[2][col])[0]
    c, m = diffs[2][col][row]
    diffs[2][col][row] = (-c, m)
    bad = FreeComplex(good.ring, good.ideal, good.levels, diffs,
                      good.provenance, basis=good.basis)
    report = check_complex(bad)
    assert not report.ok
    witness = report.failures[0]
    assert witness["kind"] == "composite"
    assert witness["level"] == 2 and witness["col"] == col

    from pommaret import cli
    p = tmp_path / "nq.ideal"
    p.write_text("vars 2\nx1\n")
    assert cli.main(["basis", str(p)]) == 3
    s = tmp_path / "syn.ideal"
    s.write_text("vars 2\nq^2\n")
    assert cli.main(["basis", str(s)]) == 2
    capsys.readouterr()
    _say("criterion 8 PASS: precondition errors raise, corrupted "
         "differential is caught with a located witness, CLI exit codes "
         "3 and 2")
