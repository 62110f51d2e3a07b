import gc
import random
import traceback
from operator import add

import pytest

import pommaret.morse
from helpers import (REPRODUCERS, delta_map, positive_dimensional_ideals,
                     random_ideal, random_stable, reference_cancel,
                     reference_has_cycle, reference_match,
                     reference_matching_V, short_v_args, variable)
from pommaret import (FreeComplex, Gen, Matching, MonomialIdeal, Pair, Ring,
                      Symbol, betti_table, build_matching_V, cli,
                      is_morse_matching, minimize, oracle_betti,
                      pommaret_basis, ps_complex, random_quasi_stable,
                      render_differential, scalar_betti, taylor_complex)
from pommaret.errors import (ArityMismatch, BrokenInvariant, NonUnitPair,
                             NotAMorseMatching, NotMinimal, NotPSComplex)
from pommaret.monomials import Monomial
from pommaret.morse import _cancel_matching, _kahn_order


def _reduce(cplx, pairs, trace=False):
    """cplx with every pair of a Morse matching cancelled."""
    return _cancel_matching(cplx, Matching(pairs), trace)


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
    got = {(cplx.text(cplx.levels[p.level][p.source]),
            cplx.text(cplx.levels[p.level - 1][p.target])) for p in v.pairs}
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
        beta, t = delta_map(basis, src.alpha, p.var)
        assert not any(t)
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


def test_matching_v_skips_stray_units():
    # a unit entry whose row is not u minus one variable is no candidate;
    # a unit joins equal multidegrees, and these two symbols share one
    cplx = ps_complex(pommaret_basis(random_quasi_stable(3, 5, 3, 3)))
    col = next(c for c, g in enumerate(cplx.levels[2])
               if cplx.text(g) == "[x1*x2, x3*x5]")
    row = next(r for r, g in enumerate(cplx.levels[1])
               if cplx.text(g) == "[x1*x3*x5, x2]")
    diffs = list(cplx.diffs)
    diffs[2] = dict(diffs[2])
    diffs[2][col] = dict(diffs[2][col])
    assert row not in diffs[2][col]
    diffs[2][col][row] = 1
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
    levels = [[Gen("b", x), Gen("b'", x)],
              [Gen("a", x), Gen("a'", x)]]
    diffs = [None, {0: {0: 1, 1: -1}, 1: {0: 1, 1: -1}}]
    return FreeComplex(r, ideal, levels, diffs, "custom")


def test_morse_matching_cycle_detection():
    cplx = _toy_two_cycle()
    assert is_morse_matching(cplx, [Pair(1, 0, 0, 0)])
    assert is_morse_matching(cplx, [Pair(1, 1, 1, 0)])
    assert not is_morse_matching(cplx, [Pair(1, 0, 0, 0), Pair(1, 1, 1, 0)])
    assert not is_morse_matching(cplx, [Pair(1, 0, 0, 0), Pair(1, 0, 1, 0)])
    with pytest.raises(NotAMorseMatching):
        _reduce(cplx, [Pair(1, 0, 0, 0), Pair(1, 1, 1, 0)])


def _random_matchings(edges, rng, count):
    """Seeded random maximal matchings along edges, a list of (level, col,
    row) entries of one complex, which is shuffled in place."""
    out = []
    for _ in range(count):
        rng.shuffle(edges)
        used = set()
        pairs = []
        for level, col, row in edges:
            if (level, col) not in used and (level - 1, row) not in used:
                pairs.append(Pair(level, col, row, 0))
                used.update({(level, col), (level - 1, row)})
        out.append(Matching(pairs))
    return out


def _assert_kahn_order(cplx, matching, level, order):
    """order lists every matched column of d_level once, each before the
    source of every other matched row of its column."""
    partner = {p.target: p.source for p in matching.pairs
               if p.level == level}
    assert sorted(order) == sorted(partner.values())
    place = {s: i for i, s in enumerate(order)}
    for s in order:
        for row in cplx.diffs[level].get(s, {}):
            if row in partner and partner[row] != s:
                assert place[s] < place[partner[row]]


def test_matched_column_acyclicity_matches_the_full_digraph():
    # _kahn_order builds its digraph on the matched columns alone; the
    # reference searches the whole digraph of both degrees.  Besides V, the
    # matchings run along random unit entries, or along random entries of
    # any multidegree, so that pairs join different classes too
    rng = random.Random(11)
    toy = _toy_two_cycle()
    cases = [(toy, [Matching([Pair(1, 0, 0, 0)]), Matching([Pair(1, 1, 1, 0)]),
                    Matching([Pair(1, 0, 0, 0), Pair(1, 1, 1, 0)])])]
    ideals = [random_quasi_stable(seed, 2 + seed % 4, 3 + seed % 2,
                                  2 + seed % 4) for seed in range(40)]
    for ideal in ideals + positive_dimensional_ideals():
        cplx = ps_complex(pommaret_basis(ideal))
        units = [(level, col, row)
                 for level, row, col, _ in cplx.unit_entries()]
        entries = [(level, col, row) for level in range(1, cplx.length + 1)
                   for col, column in cplx.diffs[level].items()
                   for row in column]
        cases.append((cplx, [build_matching_V(cplx)]
                      + _random_matchings(units, rng, 8)
                      + _random_matchings(entries, rng, 4)))
    verdicts = []
    cross_class_cycles = 0
    for cplx, matchings in cases:
        for matching in matchings:
            for level in range(1, cplx.length + 1):
                order = _kahn_order(cplx, matching, level)
                got = order is None
                assert got == reference_has_cycle(cplx, matching, level)
                if order is not None:
                    # every matched column once, each before those it
                    # reaches: the order the flows are evaluated in reverse
                    _assert_kahn_order(cplx, matching, level, order)
                verdicts.append(got)
                cross_class_cycles += got and any(
                    p.level == level and cplx.classes[level][p.source]
                    != cplx.classes[level - 1][p.target]
                    for p in matching.pairs)
    assert verdicts[:3] == [False, False, True]
    assert verdicts.count(True) > 10 and len(verdicts) > 1000
    assert cross_class_cycles > 100


def test_morse_matching_rejects_non_unit(ideal_a):
    cplx = ps_complex(pommaret_basis(ideal_a))
    lookup = {g.key: i for i, g in enumerate(cplx.levels[1])}
    col = lookup[Symbol(2, (2,))]
    # entry toward x2^3 carries the factor x1^2
    assert not is_morse_matching(cplx, [Pair(1, col, 3, 2)])
    assert not is_morse_matching(cplx, [Pair(1, col, 0, 2)])  # no edge at all
    assert not is_morse_matching(cplx, [Pair(5, 0, 0, 2)])    # no such level


def test_reducer_refuses_non_unit_pair(ideal_a):
    # an entry with a monomial factor fails the matching test before any
    # flow is evaluated; between equal multidegrees, an entry is a pivot
    # only when it is +-1
    cplx = ps_complex(pommaret_basis(ideal_a))
    lookup = {g.key: i for i, g in enumerate(cplx.levels[1])}
    with pytest.raises(NotAMorseMatching):
        _reduce(cplx, [Pair(1, lookup[Symbol(2, (2,))], 3, 2)])
    toy = _toy_two_cycle()
    doubled = FreeComplex(toy.ring, toy.ideal, toy.levels,
                          [None, {0: {0: 2, 1: -2}, 1: {0: 1, 1: -1}}],
                          "custom")
    assert is_morse_matching(doubled, [Pair(1, 0, 0, 0)])
    with pytest.raises(NonUnitPair, match="not a unit entry of"):
        _reduce(doubled, [Pair(1, 0, 0, 0)])
    # d a = 2 b - 2 b' = 2 b - 2 b once b' flows to b
    reduced = _reduce(doubled, [Pair(1, 1, 1, 0)])
    assert reduced.ranks() == (1, 1)
    assert list(reduced.entries(1)) == []


def test_cancel_toy_pair():
    cplx = _toy_two_cycle()
    reduced = _reduce(cplx, [Pair(1, 0, 0, 0)], trace=True)
    assert reduced.ranks() == (1, 1)
    # the correction wipes the remaining column completely
    assert list(reduced.entries(1)) == []
    assert reduced.provenance == "reduced"
    # a key that is neither a symbol nor a face is shown as itself
    assert [(r["source_text"], r["target_text"]) for r in reduced.trace] \
        == [("a", "b")]
    assert render_differential(reduced, 1).split() == ["d_1", "a'", "b'",
                                                       "."]


def test_reduce_with_empty_matching(ideal_a):
    cplx = ps_complex(pommaret_basis(ideal_a))
    same = _reduce(cplx, ())
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
        reduced = _reduce(cplx, v.pairs)
        sources = {}
        targets = {}
        for p in v.pairs:
            sources[p.level] = sources.get(p.level, 0) + 1
            targets[p.level - 1] = targets.get(p.level - 1, 0) + 1
        for i in range(len(cplx.levels)):
            want = (len(cplx.levels[i]) - sources.get(i, 0)
                    - targets.get(i, 0))
            got = len(reduced.levels[i]) if i < len(reduced.levels) else 0
            assert got == want


class _TermMutant:
    """morse._add_scaled, patched so that the k-th term it adds, counted
    over one ``run``, is dropped or has 1 added; ``seen`` counts the
    terms."""

    def __init__(self, monkeypatch):
        self.k, self.mode, self.seen = 0, None, 0
        monkeypatch.setattr(pommaret.morse, "_add_scaled", self.add_scaled)

    def add_scaled(self, acc, scale, terms):
        for row, value in terms.items():
            self.seen += 1
            hit = self.seen == self.k
            if not (hit and self.mode == "drop"):
                acc[row] = acc.get(row, 0) + scale * value + hit

    def run(self, cplx, k=0, mode=None):
        """minimize(cplx)'s JSON with the k-th term mutated (k = 0: none),
        or the BrokenInvariant it raised."""
        self.k, self.mode, self.seen = k, mode, 0
        try:
            return minimize(cplx).to_json_dict()
        except BrokenInvariant as exc:
            return exc


@pytest.mark.parametrize("level", [1, 2])
def test_step_check_catches_a_dropped_correction(ideal_b, monkeypatch,
                                                 level):
    # dropping one term of a flow or of a Morse column: _cancel_matching's
    # d o d = 0 check over every column of the result raises, naming the
    # level it broke, or the term never reaches the result (it falls in a
    # flow that no critical column reads, directly or through another
    # flow); a dropped term is caught at each level of ideal_b's complex
    cplx = ps_complex(pommaret_basis(ideal_b))
    mutant = _TermMutant(monkeypatch)
    want = mutant.run(cplx)
    outcomes = [mutant.run(cplx, k, "drop")
                for k in range(1, mutant.seen + 1)]
    assert len(outcomes) == 30
    caught = [exc for exc in outcomes if isinstance(exc, BrokenInvariant)]
    assert len(outcomes) - len(caught) == outcomes.count(want) == 3
    for exc in caught:
        frames = [f.name for f in traceback.extract_tb(exc.__traceback__)]
        assert frames[-1] == "_cancel_matching"
    assert any("at level %d col" % level in str(exc) for exc in caught)


@pytest.mark.parametrize("case", ["ideal_b", "completed"])
def test_every_defect_that_changes_the_result_is_caught(ideal_b, monkeypatch,
                                                        case):
    # every term of every flow and Morse column, in turn, is dropped or
    # off by one: minimize must raise, or the defect must not reach the
    # result (a flow no critical column reads, or the cancellation of V
    # alone where V is completed and cancelled again from the start)
    if case == "ideal_b":
        cplx = ps_complex(pommaret_basis(ideal_b))
    else:
        cplx = ps_complex(pommaret_basis(random_quasi_stable(2520, 5, 4, 6)))
    v = build_matching_V(cplx)
    assert (minimize(cplx).matching.pairs == v.pairs) == (case == "ideal_b")
    mutant = _TermMutant(monkeypatch)
    want = mutant.run(cplx)
    total = mutant.seen
    escaped = []
    raised = 0
    for mode in ("drop", "plus1"):
        for k in range(1, total + 1):
            got = mutant.run(cplx, k, mode)
            if isinstance(got, BrokenInvariant):
                raised += 1
            elif got != want:
                escaped.append((mode, k))
    assert escaped == []
    assert raised


def test_fill_in_multiplies_no_monomial(ideal_b, monkeypatch):
    # fill-in products are sums of exponent tuples: the reducer, and the
    # completion of V, build no Monomial at all
    symbol = ps_complex(pommaret_basis(ideal_b))
    completed = ps_complex(pommaret_basis(random_quasi_stable(2520, 5, 4, 6)))
    built = []
    init = Monomial.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Monomial, "__init__", counting_init)
    assert minimize(symbol).ranks() == (4, 5, 2)
    assert minimize(completed).ranks() == (9, 25, 31, 18, 4)
    assert built == []


@pytest.mark.parametrize("wide", ["corrected", "source", "level-0",
                                  "ideal"])
def test_fill_in_rejects_mixed_arity(wide):
    # F_1 = <a, b>, F_0 = <p, q>, d a = p - q, d b = y p; cancelling a -> p
    # would give b the fill-in entry y q.  One multidegree comes from
    # Ring(4): of the corrected column b, of the cancelled source a, of a
    # level-0 generator, or the ideal's ring.  The complex is refused when
    # it is built, so the reducer never meets it.
    r3 = Ring(3)
    x = (1, 0, 0)
    ideal = MonomialIdeal(r3, [variable(r3, 1)])
    levels = [[Gen("p", x), Gen("q", x)],
              [Gen("a", x), Gen("b", (1, 1, 0))]]
    diffs = [None, {0: {0: 1, 1: -1}, 1: {0: 1}}]
    if wide == "corrected":
        levels[1][1] = Gen("b", (1, 1, 0, 0))
    elif wide == "source":
        levels[1][0] = Gen("a", (1, 0, 0, 0))
    elif wide == "level-0":
        levels[0][1] = Gen("q", (1, 0, 0, 0))
    else:
        r4 = Ring(4)
        ideal = MonomialIdeal(r4, [variable(r4, 1)])
    with pytest.raises(ArityMismatch, match="monomials from different rings"):
        FreeComplex(r3, ideal, levels, diffs, "custom")


def test_minimize_two_variables(ideal_a):
    cplx = ps_complex(pommaret_basis(ideal_a))
    reduced = minimize(cplx, trace=True)
    assert reduced.ranks() == (2, 1)
    assert reduced.matching.pairs == build_matching_V(cplx).pairs
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
    cplx = ps_complex(pommaret_basis(ideal_b))
    reduced = minimize(cplx, trace=True)
    assert reduced.ranks() == (4, 5, 2)
    assert reduced.matching.pairs == build_matching_V(cplx).pairs
    assert not reduced.unit_entries()
    assert len(reduced.trace) == 18
    assert reduced.matching.sizes_by_var() == {3: 13, 2: 5}
    critical = [[reduced.text(g) for g in level] for level in reduced.levels]
    assert critical == [
        ["[x^2]", "[y^4]", "[y^2*z^2]", "[z^3]"],
        ["[x^2*y^3, y]", "[x^2*y^2*z, z]", "[x^2*z^2, z]", "[y^4*z, z]",
         "[y^2*z^2, z]"],
        ["[x^2*y^3*z, y*z]", "[x^2*y*z^2, y*z]"],
    ]


def test_minimize_refuses_a_taylor_complex(ideal_b):
    # the Taylor route reads its Betti numbers with scalar_betti instead
    cplx = taylor_complex(ideal_b)
    assert cplx.ranks() == (4, 6, 4, 1)
    with pytest.raises(NotPSComplex):
        minimize(cplx)


def test_completion_on_symbol_complex():
    # V leaves two classes short on this ideal; two augmenting paths of
    # three edges each trade V's two x5 pairs for two x3 and two x4 pairs
    ideal = random_quasi_stable(2520, 5, 4, 6)
    cplx = ps_complex(pommaret_basis(ideal))
    v = build_matching_V(cplx)
    reduced = minimize(cplx, trace=True)

    def texts(pairs):
        return sorted((cplx.text(cplx.levels[p.level][p.source]),
                       cplx.text(cplx.levels[p.level - 1][p.target]), p.var)
                      for p in pairs)

    grown = set(reduced.matching.pairs)
    assert texts(grown - set(v.pairs)) == [
        ("[x1^2*x4, x2*x3*x5]", "[x1^2*x3*x4, x2*x5]", 3),
        ("[x1^2*x4, x3*x5]", "[x1^2*x3*x4, x5]", 3),
        ("[x1^2*x5, x2*x3*x4]", "[x1^2*x4*x5, x2*x3]", 4),
        ("[x1^2*x5, x3*x4]", "[x1^2*x4*x5, x3]", 4)]
    assert texts(set(v.pairs) - grown) == [
        ("[x1^2*x4, x2*x3*x5]", "[x1^2*x4*x5, x2*x3]", 5),
        ("[x1^2*x4, x3*x5]", "[x1^2*x4*x5, x3]", 5)]
    assert is_morse_matching(cplx, reduced.matching)
    # one cancellation per pair, each along a candidate of V
    assert len(reduced.trace) == len(reduced.matching) == len(v) + 2
    assert {rec["lambda"] for rec in reduced.trace} <= {1, -1}
    assert all(rec["var"] > 0 for rec in reduced.trace)
    assert not reduced.unit_entries()
    assert betti_table(reduced) == oracle_betti(ideal)


def _ideal_file(tmp_path, ideal):
    """The path of an ideal file that holds ideal's generators."""
    path = tmp_path / "short.ideal"
    path.write_text("vars %d\n" % ideal.ring.n + "".join(
        "[%s]\n" % ",".join(map(str, g.exps)) for g in ideal.gens))
    return str(path)


@pytest.mark.parametrize("args", short_v_args(),
                         ids=lambda args: "-".join(map(str, args)))
def test_completed_v_is_minimal_where_v_falls_short(args, tmp_path, capsys):
    ideal = random_quasi_stable(*args)
    basis = pommaret_basis(ideal)
    cplx = ps_complex(basis)
    reduced = minimize(cplx)
    # pd = n - d, so no level of the minimal resolution is left empty
    assert reduced.length == ideal.ring.n - basis.d
    assert len(reduced.matching) > len(build_matching_V(cplx))
    assert not reduced.unit_entries()
    assert betti_table(reduced) == scalar_betti(cplx)
    if len(ideal.gens) <= 10:
        assert betti_table(reduced) == oracle_betti(ideal)
    path = _ideal_file(tmp_path, ideal)
    assert cli.main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "%-24s ok  (0 extra cancellations)\n" % "safety-net-silent" in out
    assert out.endswith("verdict: ok\n")


def test_a_unit_left_by_the_completion_is_an_error(tmp_path, capsys,
                                                   monkeypatch):
    # a completion that finds nothing leaves V's surviving unit entry:
    # minimize raises, and verify exits 4 with no verdict at all
    ideal = random_quasi_stable(*REPRODUCERS[1])
    monkeypatch.setattr(pommaret.morse, "_complete",
                        lambda cplx, candidates, matching, short: matching)
    with pytest.raises(NotMinimal, match="survive the completed matching"):
        minimize(ps_complex(pommaret_basis(ideal)))
    path = _ideal_file(tmp_path, ideal)
    assert cli.main(["verify", path]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error [not-minimal]: ")
    assert captured.out == ""
    monkeypatch.undo()
    # no drawn ideal has an augmenting path whose flip closes a cycle, so
    # one is made up: every matching that holds one pair the completion
    # adds has a cycle, the completion keeps no flip with it, and that
    # pair's class stays short
    cplx = ps_complex(pommaret_basis(ideal))
    grown = set(minimize(cplx).matching.pairs) - set(
        build_matching_V(cplx).pairs)
    refused = min(grown, key=lambda p: (p.level, p.source))
    monkeypatch.setattr(pommaret.morse, "_kahn_order",
                        lambda c, m, level: None if refused in m.pairs
                        else _kahn_order(c, m, level))
    with pytest.raises(NotMinimal, match="survive the completed matching"):
        minimize(cplx)


def test_a_flip_is_tested_only_where_it_can_close_a_cycle(monkeypatch):
    """_complete tests a flip for a cycle only at the levels of the pairs
    it adds; on every path it tries, that gives is_morse_matching's
    verdict."""
    calls = []
    complete = pommaret.morse._complete
    monkeypatch.setattr(pommaret.morse, "_complete",
                        lambda *args: calls.append(args) or complete(*args))
    for args in short_v_args():
        minimize(ps_complex(pommaret_basis(random_quasi_stable(*args))))
    monkeypatch.undo()
    assert len(calls) == len(short_v_args())
    tried = {}  # id -> [matching, whether a cycle was found]

    def spy(cplx, matching, level):
        order = _kahn_order(cplx, matching, level)
        tried.setdefault(id(matching), [matching, False])[1] |= order is None
        return order

    monkeypatch.setattr(pommaret.morse, "_kahn_order", spy)
    flips = []
    for args in calls:
        tried.clear()
        complete(*args)
        flips += [(args[0], matching, not cycle)
                  for matching, cycle in tried.values()]
    monkeypatch.undo()
    assert len(flips) == 34
    assert all(is_morse_matching(cplx, matching) == kept
               for cplx, matching, kept in flips)


def test_completion_leaves_no_garbage():
    """_complete's recursive path search is freed with the call: a
    reference cycle would keep its edges, mates and tried matchings alive
    until the cyclic collector runs."""
    cases = [ps_complex(pommaret_basis(random_quasi_stable(*args)))
             for args in short_v_args()[:3]]
    gc.collect()
    gc.disable()
    try:
        for cplx in cases:
            minimize(cplx)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cancelling_lowest_level_first_gives_the_same_complex(ideal_b):
    # V leaves unit entries in its result on every reproducer and on no
    # other case, and minimize completes it there; the matching minimize
    # ends with, eliminated one pair at a time by the reference, highest
    # level first or lowest level first (so that each source row one
    # level up dies with its pair), gives minimize's complex
    cases = [ps_complex(pommaret_basis(ideal_b))]
    cases += [ps_complex(pommaret_basis(random_quasi_stable(*args)))
              for args in REPRODUCERS]
    v = [build_matching_V(cplx) for cplx in cases]
    assert [len(m) for m in v] == [18, 157, 77, 71, 78, 162]
    assert [bool(_cancel_matching(cplx, m, False).unit_entries())
            for cplx, m in zip(cases, v)] == [False] + [True] * 5
    reduced = [minimize(cplx) for cplx in cases]
    assert [len(r.matching) for r in reduced] == [18, 158, 79, 72, 80, 166]
    for cplx, r in zip(cases, reduced):
        for order in (lambda p: (-p.level, p.source),
                      lambda p: (p.level, p.source)):
            assert (reference_cancel(cplx, r.matching, order).to_json_dict()
                    == r.to_json_dict())


def test_minimize_preserves_multidegrees():
    # critical generators keep their multidegrees; columns stay homogeneous
    for seed in range(10):
        ideal = random_ideal(seed * 41 + 3, max_deg=4, count=3)
        if not ideal.is_quasi_stable():
            continue
        cplx = ps_complex(pommaret_basis(ideal))
        reduced = minimize(cplx)
        # V alone sufficed
        assert reduced.matching.pairs == build_matching_V(cplx).pairs
        for i in range(1, len(reduced.levels)):
            for row, col, c, m in reduced.entries(i):
                src = reduced.levels[i][col].multidegree
                dst = reduced.levels[i - 1][row].multidegree
                assert tuple(map(add, dst, m)) == src
                assert any(m)
