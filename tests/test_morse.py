from itertools import combinations
from operator import add

import pytest

from helpers import (positive_dimensional_ideals, random_ideal, random_stable,
                     reference_match, reference_matching_V, rp2_ideal)
from pommaret import (FreeComplex, Gen, Matching, MonomialIdeal, Pair, Ring,
                      Symbol, betti_table, build_matching_V, check_exactness,
                      is_morse_matching, minimize, morse_reduce, oracle_betti,
                      pommaret_basis, ps_complex, random_quasi_stable,
                      taylor_complex)
from pommaret.errors import (ArityMismatch, BrokenInvariant, NonUnitPair,
                             NotAMorseMatching, NotPSComplex)
from pommaret.monomials import Monomial
from pommaret.morse import _Reducer
from pommaret.resolution import unit_entries


def test_matching_rejects_reuse():
    with pytest.raises(NotAMorseMatching):
        Matching([Pair(1, 0, 0, 2), Pair(1, 0, 1, 3)])
    with pytest.raises(NotAMorseMatching):
        Matching([Pair(1, 0, 0, 2), Pair(2, 5, 0, 3)])  # source reused as target
    m = Matching([Pair(1, 0, 0, 2), Pair(1, 1, 1, 3)])
    assert len(m) == 2
    assert m.sizes_by_var() == {2: 1, 3: 1}


def test_matching_v_two_variables(ideal_a):
    cplx = ps_complex(pommaret_basis(ideal_a))
    v = build_matching_V(cplx)
    assert v.sizes_by_var() == {2: 2}
    got = {(cplx.levels[p.level][p.source].text,
            cplx.levels[p.level - 1][p.target].text) for p in v.pairs}
    assert got == {("[x1^2, x2]", "[x1^2*x2]"),
                   ("[x1^2*x2, x2]", "[x1^2*x2^2]")}
    assert is_morse_matching(cplx, v)


def test_matching_v_three_variables(ideal_b):
    cplx = ps_complex(pommaret_basis(ideal_b))
    v = build_matching_V(cplx)
    assert v.sizes_by_var() == {3: 13, 2: 5}
    assert is_morse_matching(cplx, v)
    # edges extract the stated variable with factor 1
    basis = cplx.basis
    for p in v.pairs:
        src = cplx.levels[p.level][p.source].key
        dst = cplx.levels[p.level - 1][p.target].key
        beta, t = basis.delta[(src.alpha, p.var)]
        assert t.is_unit()
        assert dst == Symbol(beta, tuple(k for k in src.u if k != p.var))


def test_matching_v_matches_the_rewrite_oracle(ideal_a, ideal_b):
    # V read from the unit entries equals V derived from the rewrite map,
    # pair for pair and in the same order
    ideals = [ideal_a, ideal_b] + positive_dimensional_ideals()
    ideals += [random_quasi_stable(seed, 2 + seed % 5, 3, 2 + seed % 3)
               for seed in range(40)]
    matched = 0
    for ideal in ideals:
        cplx = ps_complex(pommaret_basis(ideal))
        v = build_matching_V(cplx)
        assert v.pairs == reference_matching_V(cplx).pairs, ideal
        matched += len(v)
    assert matched > 1000


def test_matching_v_leaves_stray_units_to_the_sweep():
    # a unit entry whose row is not u minus one variable pairs nothing
    cplx = ps_complex(pommaret_basis(random_quasi_stable(3, 4, 3, 3)))
    col = next(c for c, g in enumerate(cplx.levels[2]) if g.key.u == (3, 4))
    row = next(r for r, g in enumerate(cplx.levels[1]) if g.key.u == (2,))
    diffs = list(cplx.diffs)
    diffs[2] = dict(diffs[2])
    diffs[2][col] = dict(diffs[2][col])
    diffs[2][col][row] = (1, (0, 0, 0, 0))
    stray = FreeComplex(cplx.ring, cplx.ideal, cplx.levels, diffs,
                        "pommaret", basis=cplx.basis)
    assert (2, row, col, 1) in stray.unit_entries()
    assert build_matching_V(stray).pairs == build_matching_V(cplx).pairs
    assert build_matching_V(stray).pairs == reference_matching_V(stray).pairs


def test_matching_v_requires_symbol_complex(ideal_a):
    with pytest.raises(NotPSComplex):
        build_matching_V(taylor_complex(ideal_a))


def test_empty_matching_iff_stable():
    for seed in range(18):
        ideal = random_quasi_stable(seed, 2 + seed % 3, 4, 2)
        cplx = ps_complex(pommaret_basis(ideal))
        v = build_matching_V(cplx)
        assert (len(v) == 0) == ideal.is_stable()
        # unit differential entries appear exactly for unstable ideals
        assert bool(cplx.unit_entries()) == (not ideal.is_stable())
    for seed in range(10):
        ideal = random_stable(seed + 40)
        cplx = ps_complex(pommaret_basis(ideal))
        assert len(build_matching_V(cplx)) == 0


def _toy_two_cycle():
    """F_1 = <a, a'>, F_0 = <b, b'>, d a = d a' = b - b'; matching both
    pairs closes an alternating cycle."""
    from pommaret import MonomialIdeal, Ring
    r = Ring(1)
    ideal = MonomialIdeal(r, [r.monomial((1,))])
    x = (1,)
    levels = [[Gen("b", x, "b"), Gen("b'", x, "b'")],
              [Gen("a", x, "a"), Gen("a'", x, "a'")]]
    diffs = [None, {0: {0: (1, (0,)), 1: (-1, (0,))},
                    1: {0: (1, (0,)), 1: (-1, (0,))}}]
    return FreeComplex(r, ideal, levels, diffs, "custom")


def test_morse_matching_cycle_detection():
    cplx = _toy_two_cycle()
    assert is_morse_matching(cplx, [Pair(1, 0, 0, 0)])
    assert is_morse_matching(cplx, [Pair(1, 1, 1, 0)])
    assert not is_morse_matching(cplx, [Pair(1, 0, 0, 0), Pair(1, 1, 1, 0)])
    assert not is_morse_matching(cplx, [Pair(1, 0, 0, 0), Pair(1, 0, 1, 0)])
    with pytest.raises(NotAMorseMatching):
        morse_reduce(cplx, [Pair(1, 0, 0, 0), Pair(1, 1, 1, 0)])


def test_morse_matching_rejects_non_unit(ideal_a):
    cplx = ps_complex(pommaret_basis(ideal_a))
    lookup = {g.key: i for i, g in enumerate(cplx.levels[1])}
    col = lookup[Symbol(2, (2,))]
    # entry toward x2^3 carries the factor x1^2
    assert not is_morse_matching(cplx, [Pair(1, col, 3, 2)])
    assert not is_morse_matching(cplx, [Pair(1, col, 0, 2)])  # no edge at all
    assert not is_morse_matching(cplx, [Pair(5, 0, 0, 2)])    # no such level


def test_reducer_refuses_non_unit_pair(ideal_a):
    cplx = ps_complex(pommaret_basis(ideal_a))
    lookup = {g.key: i for i, g in enumerate(cplx.levels[1])}
    reducer = _Reducer(cplx)
    with pytest.raises(NonUnitPair):
        reducer.cancel(Pair(1, lookup[Symbol(2, (2,))], 3, 2))


def test_cancel_toy_pair():
    cplx = _toy_two_cycle()
    reduced = morse_reduce(cplx, [Pair(1, 0, 0, 0)])
    assert reduced.ranks() == (1, 1)
    # the correction wipes the remaining column completely
    assert list(reduced.entries(1)) == []
    assert reduced.provenance == "reduced"


def test_reduce_with_empty_matching(ideal_a):
    cplx = ps_complex(pommaret_basis(ideal_a))
    same = morse_reduce(cplx, Matching(()))
    assert same.ranks() == cplx.ranks()
    for i in range(1, len(cplx.levels)):
        assert same.diffs[i] == cplx.diffs[i]


def test_reduce_bookkeeping():
    for seed in range(12):
        ideal = random_ideal(seed * 31 + 2, max_deg=4, count=3)
        if not ideal.is_quasi_stable():
            continue
        cplx = ps_complex(pommaret_basis(ideal))
        v = build_matching_V(cplx)
        reduced = morse_reduce(cplx, v)
        sources = {}
        targets = {}
        for p in v.pairs:
            sources[p.level] = sources.get(p.level, 0) + 1
            targets[p.level - 1] = targets.get(p.level - 1, 0) + 1
        for i in range(len(cplx.levels)):
            want = cplx.rank(i) - sources.get(i, 0) - targets.get(i, 0)
            got = reduced.rank(i) if i < len(reduced.levels) else 0
            assert got == want


@pytest.mark.parametrize("level", [1, 2])
def test_step_check_catches_a_dropped_correction(ideal_b, monkeypatch,
                                                 level):
    # losing one fill-in entry must be caught by the check that runs right
    # after the cancellation, through the real d o d = 0 kernel
    set_entry = _Reducer._set
    dropped = []

    def dropping_set(self, lvl, col, row, coeff, mono):
        if lvl == level and not dropped:
            dropped.append((col, row))
            return
        set_entry(self, lvl, col, row, coeff, mono)

    monkeypatch.setattr(_Reducer, "_set", dropping_set)
    with pytest.raises(BrokenInvariant) as info:
        minimize(ps_complex(pommaret_basis(ideal_b)))
    assert dropped
    frames = [entry.name for entry in info.traceback]
    assert "_local_check" in frames and "compact" not in frames


@pytest.mark.parametrize("case, stride", [("ideal_b", 1), ("sweep", 6)])
def test_every_defect_that_changes_the_result_is_caught(ideal_b, monkeypatch,
                                                        case, stride):
    # the k-th fill-in entry is dropped, or its coefficient is off by one:
    # minimize must raise, or the defect must not reach the result (a later
    # cancellation can erase it before the check of its level runs)
    if case == "ideal_b":
        cplx = ps_complex(pommaret_basis(ideal_b))
    else:
        cplx = ps_complex(pommaret_basis(random_quasi_stable(2520, 5, 4, 6)))
    set_entry = _Reducer._set
    calls = [0]
    mutate = [None, None]  # k, "drop" or "plus1"

    def mutated_set(self, level, col, row, coeff, mono):
        calls[0] += 1
        if calls[0] == mutate[0]:
            if mutate[1] == "drop":
                return
            coeff += 1
        set_entry(self, level, col, row, coeff, mono)

    monkeypatch.setattr(_Reducer, "_set", mutated_set)
    reduced = minimize(cplx)
    assert reduced.safety_net_cancellations == (2 if case == "sweep" else 0)
    want = reduced.to_json_dict()
    total = calls[0]
    raised = 0
    for mode in ("drop", "plus1"):
        # counted from the end, so the sweep's own fill-in is hit too
        for k in range(total, 0, -stride):
            calls[0] = 0
            mutate[:] = k, mode
            try:
                got = minimize(cplx).to_json_dict()
            except BrokenInvariant:
                raised += 1
                continue
            assert got == want, (mode, k)
    assert raised


def test_fill_in_multiplies_no_monomial(ideal_b, monkeypatch):
    # fill-in products are sums of exponent tuples: the reducer builds no
    # Monomial at all
    symbol = ps_complex(pommaret_basis(ideal_b))
    taylor = taylor_complex(rp2_ideal((6, 2, 1, 5, 4, 3)))
    built = []
    init = Monomial.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Monomial, "__init__", counting_init)
    assert minimize(symbol).ranks() == (4, 5, 2)
    assert minimize(taylor).ranks() == (10, 15, 6)
    assert built == []


@pytest.mark.parametrize("wide", ["corrected", "source", "level-0",
                                  "ideal"])
def test_fill_in_rejects_mixed_arity(wide):
    # F_1 = <a, b>, F_0 = <p, q>, d a = p - q, d b = y p; cancelling a -> p
    # would give b the fill-in entry y q.  One tuple comes from Ring(4):
    # an entry of either factor of that product, a level-0 multidegree, or
    # the ideal's ring.  The complex is refused when it is built, so the
    # reducer never meets it.
    r3 = Ring(3)
    x, y, unit = (1, 0, 0), (0, 1, 0), (0, 0, 0)
    ideal = MonomialIdeal(r3, [r3.variable(1)])
    levels = [[Gen("p", x, "p"), Gen("q", x, "q")],
              [Gen("a", x, "a"), Gen("b", (1, 1, 0), "b")]]
    diffs = [None, {0: {0: (1, unit), 1: (-1, unit)},
                    1: {0: (1, y)}}]
    if wide == "corrected":
        diffs[1][1][0] = (1, (0, 1, 0, 0))      # x2 of Ring(4)
    elif wide == "source":
        diffs[1][0][1] = (-1, (0, 0, 0, 0))     # the unit of Ring(4)
    elif wide == "level-0":
        levels[0][1] = Gen("q", (1, 0, 0, 0), "q")
    else:
        r4 = Ring(4)
        ideal = MonomialIdeal(r4, [r4.variable(1)])
    with pytest.raises(ArityMismatch, match="monomials from different rings"):
        FreeComplex(r3, ideal, levels, diffs, "custom")


def test_minimize_two_variables(ideal_a):
    reduced = minimize(ps_complex(pommaret_basis(ideal_a)), trace=True)
    assert reduced.ranks() == (2, 1)
    assert reduced.safety_net_cancellations == 0
    assert not reduced.unit_entries()
    assert len(reduced.trace) == 2
    rec = reduced.trace[0]
    assert set(rec) == {"level", "source", "target", "source_text",
                        "target_text", "var", "lambda", "updated"}
    assert rec["lambda"] in (1, -1)
    # d_1 = +-(x2^3 [x1^2] - x1^2 [x2^3]) after reduction
    ok, why = reference_match(reduced, [[(2, 0), (0, 3)], [(2, 3)]],
                              [(1, (2, 3), (2, 0), -1, (0, 3)),
                               (1, (2, 3), (0, 3), 1, (2, 0))])
    assert ok, why


def test_minimize_three_variables(ideal_b):
    reduced = minimize(ps_complex(pommaret_basis(ideal_b)), trace=True)
    assert reduced.ranks() == (4, 5, 2)
    assert reduced.safety_net_cancellations == 0
    assert not reduced.unit_entries()
    assert len(reduced.trace) == 18
    assert reduced.matching.sizes_by_var() == {3: 13, 2: 5}
    critical = [[g.text for g in level] for level in reduced.levels]
    assert critical == [
        ["[x^2]", "[y^4]", "[y^2*z^2]", "[z^3]"],
        ["[x^2*y^3, y]", "[x^2*y^2*z, z]", "[x^2*z^2, z]", "[y^4*z, z]",
         "[y^2*z^2, z]"],
        ["[x^2*y^3*z, y*z]", "[x^2*y*z^2, y*z]"],
    ]


def test_minimize_taylor_by_safety_net(ideal_b):
    cplx = taylor_complex(ideal_b)
    assert cplx.ranks() == (4, 6, 4, 1)
    reduced = minimize(cplx)
    assert reduced.ranks() == (4, 5, 2)
    assert len(reduced.matching) == 0
    assert reduced.safety_net_cancellations == 2
    assert not reduced.unit_entries()
    assert betti_table(reduced) == betti_table(
        minimize(ps_complex(pommaret_basis(ideal_b))))


def test_safety_net_sweep_on_symbol_complex():
    # fill-in leaves unit entries after V on this ideal; the sweep cancels
    # them highest level first, then lowest column, then lowest row
    ideal = random_quasi_stable(2520, 5, 4, 6)
    reduced = minimize(ps_complex(pommaret_basis(ideal)), trace=True)
    assert reduced.safety_net_cancellations == 2
    assert [(r["source_text"], r["target_text"])
            for r in reduced.trace[-2:]] == [
        ("[x1^2*x5, x2*x3*x4]", "[x1^2*x3*x4, x2*x5]"),
        ("[x1^2*x5, x3*x4]", "[x1^2*x3*x4, x5]")]
    assert not reduced.unit_entries()
    assert betti_table(reduced) == oracle_betti(ideal)


def _unit_keys(reducer):
    """Sweep keys (-level, col, row) of a full scan for unit entries."""
    return {(-level, col, row)
            for level, row, col, _ in unit_entries(reducer.cols)}


def test_tracked_unit_entries_match_a_full_scan(ideal_b, monkeypatch):
    # the sweep picks from a heap of unit keys that the reducer pushes to;
    # after every sweep cancellation it must hold every key of a full scan,
    # and its next pick must be the least of them
    cancel = _Reducer.cancel
    checked = []

    def checked_cancel(self, pair):
        cancel(self, pair)
        if self.units is not None:
            checked.append(pair)
            scan = _unit_keys(self)
            assert scan <= set(self.units)
            assert self.least_unit() == min(scan, default=None)

    monkeypatch.setattr(_Reducer, "cancel", checked_cancel)
    cases = [taylor_complex(ideal_b),
             ps_complex(pommaret_basis(random_quasi_stable(2520, 5, 4, 6))),
             taylor_complex(rp2_ideal((6, 2, 1, 5, 4, 3)))]
    sweeps = [minimize(cplx).safety_net_cancellations for cplx in cases]
    assert sweeps == [2, 2, 496]
    assert len(checked) == sum(sweeps)
    # the sweep only cancels at the highest level holding a unit, so a
    # dead source row one level up never held one; cancelling the lowest
    # unit of a full scan first meets such rows
    del checked[:]
    reducer = _Reducer(cases[2])
    reducer.track_units()
    while scan := _unit_keys(reducer):
        minus_level, col, row = max(scan)
        reducer.cancel(Pair(-minus_level, col, row, 0))
    assert len(checked) == 496


@pytest.mark.parametrize("relabel, corrects", [
    ((1, 2, 3, 4, 5, 6), False), ((6, 2, 1, 5, 4, 3), True)])
def test_safety_net_divides_by_a_non_unit_pivot(relabel, corrects):
    """The Stanley-Reisner ideal of the 6-vertex real projective plane: its
    generators are the 10 triples that are not faces.  Its Betti numbers
    change in characteristic 2, so no reduction with only +-1 pivots (which
    would work over Z) can reach the minimal resolution.  In the first
    labelling the -2 pivot meets no other column; in the second it corrects
    the columns it meets by a quotient with denominator 2."""
    facets = {(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
              (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)}
    facets = {tuple(sorted(relabel[v - 1] for v in f)) for f in facets}
    ring = Ring(6)
    ideal = MonomialIdeal(ring, [
        ring.monomial([int(v in t) for v in range(1, 7)])
        for t in combinations(range(1, 7), 3) if t not in facets])
    reduced = minimize(taylor_complex(ideal), trace=True)
    pivots = [r for r in reduced.trace if r["lambda"] == -2]
    assert pivots
    assert any(r["updated"] for r in pivots) == corrects
    assert reduced.ranks() == (10, 15, 6)
    assert not reduced.unit_entries()
    assert check_exactness(reduced).ok
    assert betti_table(reduced).by_degree == {(0, 3): 10, (1, 4): 15,
                                              (2, 5): 6}


def test_minimize_preserves_multidegrees():
    # critical generators keep their multidegrees; columns stay homogeneous
    for seed in range(10):
        ideal = random_ideal(seed * 41 + 3, max_deg=4, count=3)
        if not ideal.is_quasi_stable():
            continue
        cplx = ps_complex(pommaret_basis(ideal))
        reduced = minimize(cplx)
        assert reduced.safety_net_cancellations == 0
        # a silent sweep leaves exactly the reduction along V
        along_v = morse_reduce(cplx, build_matching_V(cplx))
        assert reduced.diffs == along_v.diffs
        for i in range(1, len(reduced.levels)):
            for row, col, c, m in reduced.entries(i):
                src = reduced.levels[i][col].multidegree
                dst = reduced.levels[i - 1][row].multidegree
                assert tuple(map(add, dst, m)) == src
                assert any(m)
