"""Frozen digests of the reducer's and the d o d = 0 check's outputs.

Each digest is the sha256 of one JSON line per record, keys sorted, over a
fixed corpus.  They were taken from the program while its reducer and its
d o d = 0 kernel still carried exponent tuples for every entry; the
coefficient-only versions must give the same bytes.
"""

import hashlib
import json

import pytest

from helpers import positive_dimensional_ideals, rp2_ideal
from pommaret import (FreeComplex, check_complex, minimize, pommaret_basis,
                      ps_complex, random_quasi_stable, taylor_complex)

# the reproducers of perfbench/README.md, "Known defect": V leaves unit
# entries that fill-in created, and the safety-net sweep cancels them
REPRODUCERS = [(31000, 4, 6, 8), (2520, 5, 4, 6), (3774, 5, 4, 6),
               (3452, 5, 6, 8), (115, 6, 4, 8)]


def _digest(records):
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec, sort_keys=True, default=str).encode())
        h.update(b"\n")
    return h.hexdigest()


def _minimized(complexes):
    """The digest of every result and trace, and the traces."""
    records = []
    traces = []
    for cplx in complexes:
        records.append(minimize(cplx).to_json_dict())
        traces.append(minimize(cplx, trace=True).trace)
        records.append(traces[-1])
    return _digest(records), traces


def _random_corpus():
    for seed in range(400):
        ideal = random_quasi_stable(seed, 2 + seed % 4, 2 + seed % 3,
                                    1 + seed % 4)
        yield ps_complex(pommaret_basis(ideal))


def _symbol(ideals):
    return (ps_complex(pommaret_basis(ideal)) for ideal in ideals)


MINIMIZED = {
    "random":
        "3e5e4f0017a9dd97baedb8ee2ff7e4534d5f8b658a6a69f6a792ba7ace76aaf6",
    "positive-dimensional":
        "ed0423f1beb866c593e0472f45743f61aa19ddab496b19b49c889614e72f70d5",
    "reproducers":
        "02214c24dd4ca5f4ddb22be9bd72ab142e18e6c40c1f01cdb521d630612a9799",
    "rp2-taylor":
        "f10c674a0e2e92f3d28524521ded3a1e8e4a4cfebcb067d155fd3ad2d5207f03",
}


@pytest.mark.parametrize("corpus", sorted(MINIMIZED))
def test_minimize_outputs_are_frozen(corpus):
    if corpus == "random":
        complexes = _random_corpus()
    elif corpus == "positive-dimensional":
        complexes = _symbol(positive_dimensional_ideals())
    elif corpus == "reproducers":
        complexes = _symbol(random_quasi_stable(*args)
                            for args in REPRODUCERS)
    else:
        # the second labelling divides by the -2 pivot
        complexes = [taylor_complex(rp2_ideal(relabel))
                     for relabel in ((1, 2, 3, 4, 5, 6), (6, 2, 1, 5, 4, 3))]
    digest, traces = _minimized(complexes)
    lambdas = {rec["lambda"] for trace in traces for rec in trace}
    if corpus == "reproducers":
        # every one of them needs the sweep, whose pairs carry var 0
        assert all(any(rec["var"] == 0 for rec in trace) for trace in traces)
    elif corpus == "rp2-taylor":
        assert -2 in lambdas
    assert digest == MINIMIZED[corpus]


CHECKED = (
    "f4b77125702b7077d820b76108f0414dc2c01f1b7e90543058046ccb8a51561f")


def _flipped(cplx, level, col, row):
    """cplx with the sign of one entry of d_level flipped."""
    diffs = [None] + [{c: dict(column) for c, column in diff.items()}
                      for diff in cplx.diffs[1:]]
    c, m = diffs[level][col][row]
    diffs[level][col][row] = (-c, m)
    return FreeComplex(cplx.ring, cplx.ideal, cplx.levels, diffs,
                       cplx.provenance, basis=cplx.basis)


def _zeroed(cplx, level, col, row):
    diffs = [None] + [{c: dict(column) for c, column in diff.items()}
                      for diff in cplx.diffs[1:]]
    diffs[level][col][row] = (0, diffs[level][col][row][1])
    return FreeComplex(cplx.ring, cplx.ideal, cplx.levels, diffs,
                       cplx.provenance, basis=cplx.basis)


def test_check_complex_failures_are_frozen(ideal_a, ideal_b):
    # the corruptions of test_verify.py that still make a complex, then
    # one flipped entry per level of larger complexes, whose witnesses
    # reach rows past 9 (failures are sorted by the text of their key)
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
