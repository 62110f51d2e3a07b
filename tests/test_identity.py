"""Frozen digests of the complexes', the reducer's, the d o d = 0
check's and the printed outputs.

Each digest is the sha256 of one JSON line per record, keys sorted, over a
fixed corpus.  They were taken from the program while every stored entry
still carried its exponent tuple, and while its reducer and its d o d = 0
kernel still read them; with entries stored as coefficients and their
monomials derived, the outputs must keep the same bytes.  The digests of
the printed outputs were taken while every generator still stored its
display text and every cell label was a ``Monomial``; with both formatted
only where output prints them, the printed bytes must stay the same.  The
digests of ``basis``, ``pgraph`` and ``verify``, each output with its exit
code, were taken while every rewrite still stored its factor t, every cell
counted its degenerate walk orders and every Betti table counted by degree
apart from by multidegree.  The reproducers' digests of ``minimize`` and
``verify`` were taken again when ``minimize`` began to complete V where it
falls short, instead of sweeping up the units left after it; the
minimized Taylor complexes of RP^2 went with that sweep.  When the reducer
became a sum over gradient paths in place of elimination with fill-in,
``minimize``'s digests were split: ``MINIMIZED`` hashes the reduced
complexes alone, taken from the eliminating reducer and unchanged since,
and ``TRACED`` hashes the traces, taken anew because each record's
``updated`` holds the flow of the pair's target instead of the entries
its elimination filled in.
"""

import contextlib
import hashlib
import io
import json

import pytest

from helpers import REPRODUCERS, positive_dimensional_ideals, rp2_ideal
from pommaret import (FreeComplex, build_matching_V, check_complex, cli,
                      minimize, pommaret_basis, ps_complex,
                      random_quasi_stable, render_differential,
                      taylor_complex)

# the second labelling of RP^2 divides by the -2 pivot when minimized
RP2_LABELS = ((1, 2, 3, 4, 5, 6), (6, 2, 1, 5, 4, 3))


def _digest(records):
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec, sort_keys=True, default=str).encode())
        h.update(b"\n")
    return h.hexdigest()


def _minimized(complexes):
    """The digest of every result, the digest of every trace, the traces,
    and the sizes of V."""
    results = []
    traces = []
    sizes = []
    for cplx in complexes:
        results.append(minimize(cplx).to_json_dict())
        traces.append(minimize(cplx, trace=True).trace)
        sizes.append(len(build_matching_V(cplx)))
    return _digest(results), _digest(traces), traces, sizes


def _ideals(corpus):
    if corpus == "random":
        return (random_quasi_stable(seed, 2 + seed % 4, 2 + seed % 3,
                                    1 + seed % 4) for seed in range(400))
    if corpus == "positive-dimensional":
        return positive_dimensional_ideals()
    if corpus == "reproducers":
        return (random_quasi_stable(*args) for args in REPRODUCERS)
    return (rp2_ideal(relabel) for relabel in RP2_LABELS)


def _symbol(ideals):
    return (ps_complex(pommaret_basis(ideal)) for ideal in ideals)


def _rendered(cplx):
    """The JSON form of a complex, then the text grid of every d_i."""
    return [cplx.to_json_dict()] + [render_differential(cplx, i)
                                    for i in range(1, len(cplx.levels))]


BUILT = {
    "random":
        "69bd546b1ee25ccf6b1fe3edd1c9ca18223a675f2e6c319147ee2d94303168cb",
    "positive-dimensional":
        "fee9d82c58062f167f77c554293e804aa66f7070cbf0c8e25a703b23dda473d7",
    "reproducers":
        "088fcba63a02ad54c6bb1b87bf38ce8a96764c16f3bcc27b87d748aa3aa6f103",
    "rp2-taylor":
        "56cba81fbff22537644d060624991d7ab034c44409834da9b39879dfc2da4bcf",
}


@pytest.mark.parametrize("corpus", sorted(BUILT))
def test_built_complexes_are_frozen(corpus):
    """Every entry monomial shown is derived from the multidegrees: the
    JSON and text of each symbol complex, and the JSON of the Taylor
    complex of each ideal with at most 8 generators (RP^2 is not
    quasi-stable: its Taylor complexes, JSON and text)."""
    records = []
    taylor = 0
    for ideal in _ideals(corpus):
        if corpus == "rp2-taylor":
            records += _rendered(taylor_complex(ideal))
            taylor += 1
            continue
        records += _rendered(ps_complex(pommaret_basis(ideal)))
        if len(ideal.gens) <= 8:
            records.append(taylor_complex(ideal).to_json_dict())
            taylor += 1
    assert taylor
    assert _digest(records) == BUILT[corpus]


MINIMIZED = {
    "random":
        "a061396efa9d8a672876052d40b54f139e4930b30825ea7b354121ada2cd28d3",
    "positive-dimensional":
        "b06bc5d41a5afc5693d4be865beb36bf8d26b1b7e386a81f3b482b3f40b68282",
    "reproducers":
        "3f3d3431ee3590905fb72ec216835a1863f2b9afac9af83b8a8e411729444174",
}

TRACED = {
    "random":
        "7ce5a36c6bf12b6b545b392157ca01b9d41e5922d3fc699ef6c5f74420a0e12d",
    "positive-dimensional":
        "da40184e1994f3091cbf3b5593a47127dc8a10f64938c286c9bd8eeb185495ad",
    "reproducers":
        "8d81fd2c34cc1c75c728009a55d2b084f9719a97e405f5eb6997b6b1506f59f0",
}


@pytest.mark.parametrize("corpus", sorted(MINIMIZED))
def test_minimize_outputs_are_frozen(corpus):
    digest, traced, traces, sizes = _minimized(_symbol(_ideals(corpus)))
    # every cancellation is a +-1 pivot along a candidate of V
    assert {rec["lambda"] for trace in traces for rec in trace} == {1, -1}
    assert all(rec["var"] > 0 for trace in traces for rec in trace)
    # V alone, or on every reproducer V completed
    grown = [len(trace) > size for trace, size in zip(traces, sizes)]
    assert set(grown) == {corpus == "reproducers"}
    assert digest == MINIMIZED[corpus]
    assert traced == TRACED[corpus]


PRINTED = {
    "random":
        "68c3f2d7c77c7ccab604d4c6f45a9d205d26f552ac3c63b04ea93fd5e1134fc9",
    "positive-dimensional":
        "d792eb7b16352a611e55ad8eaec4b37a755bc75727cbbab26501455246e0f9b9",
    "reproducers":
        "70a0de09a42153e2da83421bc3200d2bdac962bf42a9e62e8cf61b2d8c5cb24e",
}


def _run(monkeypatch, ideal, *argv):
    """(exit code, standard output, standard error) of the CLI command
    argv run on ideal."""
    monkeypatch.setattr(cli, "_load", lambda args: ideal)
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([argv[0], "ideal-file"] + list(argv[1:]))
    return [code, out.getvalue(), err.getvalue()]


def _printed(monkeypatch, ideal, *argv):
    """Standard output of the CLI command argv run on ideal, which must
    exit 0."""
    code, out, _ = _run(monkeypatch, ideal, *argv)
    assert code == 0
    return out


@pytest.mark.parametrize("corpus", sorted(PRINTED))
def test_printed_outputs_are_frozen(corpus, monkeypatch):
    """The text of the symbol complex, of its minimization and of the
    Taylor complex (at most 8 generators), and the cell complex in every
    format: generator texts, cell labels and the cellular grid."""
    records = []
    for ideal in _ideals(corpus):
        records += [_printed(monkeypatch, ideal, "resolution"),
                    _printed(monkeypatch, ideal, "minimize")]
        if len(ideal.gens) <= 8:
            records.append(_printed(monkeypatch, ideal, "resolution",
                                    "--variant", "taylor"))
        records += [_printed(monkeypatch, ideal, "cellular", "--format", fmt)
                    for fmt in ("text", "json", "dot")]
    assert _digest(records) == PRINTED[corpus]


BETTI = {
    "random":
        "699fd9b5eb7dc71b6c2a9f270a7441ac0ea3e3a0cdd0463a0a4ba0622bb8a731",
    "positive-dimensional":
        "83c339bfa1eaa7b953feba16ee5b4cf8a7c546c17602ce7a6dea8e808f7320d2",
    "reproducers":
        "670de60cf95d29816aba7adc255779ec7c7dbf0de919b09b934434ce7225e543",
}


@pytest.mark.parametrize("corpus", sorted(BETTI))
def test_betti_outputs_are_frozen(corpus, monkeypatch):
    """The Betti table, pd and regularity that ``betti`` prints, in text
    and JSON, each with exit code 0."""
    records = [_printed(monkeypatch, ideal, "betti", "--format", fmt)
               for ideal in _ideals(corpus) for fmt in ("text", "json")]
    assert _digest(records) == BETTI[corpus]


CHECKED_OUTPUTS = {
    "random":
        "aa91f17db854b58047b1871286e919cb6b480aba97858721ccf86b9db8c14f3f",
    "positive-dimensional":
        "d17b85a1cf3765e284118d91f12316eba9593c9bb55989ac0d6e6fa906b874ec",
    "reproducers":
        "5090d7c096b7df52bb72ff8d5697228c43937b2a693bad14f8470111908bc8f2",
}


@pytest.mark.parametrize("corpus", sorted(CHECKED_OUTPUTS))
def test_basis_pgraph_verify_outputs_are_frozen(corpus, monkeypatch):
    """The basis (text, JSON), its rewrite graph (text, JSON, dot) and the
    verify report (text, JSON), each with its exit code, which is 0."""
    records = []
    codes = set()
    for ideal in _ideals(corpus):
        runs = [_run(monkeypatch, ideal, "basis", "--format", fmt)
                for fmt in ("text", "json")]
        runs += [_run(monkeypatch, ideal, "pgraph", "--format", fmt)
                 for fmt in ("text", "json", "dot")]
        runs += [_run(monkeypatch, ideal, "verify", "--format", fmt)
                 for fmt in ("text", "json")]
        codes.update(code for code, _, _ in runs)
        records += runs
    assert codes == {0}
    assert _digest(records) == CHECKED_OUTPUTS[corpus]


CHECKED = (
    "164ea89a79b879b836e7819235ca2b6b395e2d3dd243de50e513efd0ef01b336")


def _flipped(cplx, level, col, row):
    """cplx with the sign of one entry of d_level flipped."""
    diffs = [None] + [{c: dict(column) for c, column in diff.items()}
                      for diff in cplx.diffs[1:]]
    diffs[level][col][row] = -diffs[level][col][row]
    return FreeComplex(cplx.ring, cplx.ideal, cplx.levels, diffs,
                       cplx.provenance, basis=cplx.basis)


def _zeroed(cplx, level, col, row):
    diffs = [None] + [{c: dict(column) for c, column in diff.items()}
                      for diff in cplx.diffs[1:]]
    diffs[level][col][row] = 0
    return FreeComplex(cplx.ring, cplx.ideal, cplx.levels, diffs,
                       cplx.provenance, basis=cplx.basis)


def test_check_complex_failures_are_frozen(ideal_a, ideal_b):
    # the corruptions of test_verify.py that still make a complex, then
    # one flipped entry per level of larger complexes, whose witnesses
    # reach rows past 9 (failures are sorted by level, column, then
    # target as a number)
    a = ps_complex(pommaret_basis(ideal_a))
    b = ps_complex(pommaret_basis(ideal_b))
    cases = []
    for cplx in (a, b):
        for level in range(1, len(cplx.levels)):
            col = sorted(cplx.diffs[level])[0]
            row = sorted(cplx.diffs[level][col])[0]
            cases += [_flipped(cplx, level, col, row),
                      _zeroed(cplx, level, col, row)]
    cases.append(_flipped(a, 1, 0, 0))
    for seed in (4, 9, 2520):
        cplx = ps_complex(pommaret_basis(random_quasi_stable(
            seed, 4 + seed % 2, 4, 5)))
        for level in range(1, len(cplx.levels)):
            cols = sorted(cplx.diffs[level])
            col = cols[len(cols) // 2]
            for row in sorted(cplx.diffs[level][col]):
                cases.append(_flipped(cplx, level, col, row))
        cases += [cplx, minimize(cplx)]
    reports = [check_complex(cplx) for cplx in cases]
    assert sum(not r.ok for r in reports) > 30
    assert max(f.get("target") or 0 for r in reports
               for f in r.failures) > 9
    assert _digest([r.failures for r in reports]) == CHECKED
