"""Seeded ideal ladders for the benchmark.

A ladder is a list of rungs.  A rung is a (n, max_deg, count) triple, the
arguments of ``random_quasi_stable``, plus a band on the number of Pommaret
symbols and a base seed.  Each rung contributes one ideal: the first draw,
over the ideal seeds ``base + STRIDE * seed + RETRY * j`` for j = 0, 1, ...,
whose symbol count lies in the band.  At workload seed 0 the first
candidate of every rung is ``random_quasi_stable(base, n, max_deg, count)``
itself.

The band is a size target that keeps the cost of a ladder similar from one
workload seed to the next; it looks at nothing but the size of the basis.
Symbols (the sum of 2^(n - cls h) over the basis, which is also the number
of cells) are used instead of the plain basis size because the hot paths
iterate over symbols: at equal basis size the cost of `betti` still spreads
by about 35% between ideals, at equal symbol count by about 15-25%.

The draw and the completion below are the benchmark's own copies, so that a
change to the library's generator or completion cannot silently move the
workloads.
"""

import heapq
import random
from dataclasses import dataclass

STRIDE = 1_000_000  # ideal-seed offset between workload seeds
RETRY = 1_000       # ideal-seed offset between draws of one rung
MAX_TRIES = STRIDE // RETRY


@dataclass(frozen=True)
class Rung:
    n: int
    max_deg: int
    count: int
    lo: int    # symbol band, inclusive
    hi: int
    base: int  # ideal seed of the first candidate at workload seed 0


@dataclass(frozen=True)
class Ideal:
    name: str
    seed: int
    rung: Rung
    gens: tuple     # minimal generators as exponent tuples
    basis: int      # Pommaret basis size
    symbols: int


def draw(seed, n, max_deg, count):
    """Minimal generators of ``random_quasi_stable(seed, n, max_deg,
    count)``: one pure power per variable plus ``count`` monomials of
    degree <= max_deg, drawn in the same order from the same generator."""
    rng = random.Random(seed)
    mons = []
    for i in range(n):
        e = [0] * n
        e[i] = rng.randint(1, max_deg)
        mons.append(tuple(e))
    for _ in range(count):
        e = [0] * n
        for i in rng.choices(range(n), k=rng.randint(1, max_deg)):
            e[i] += 1
        mons.append(tuple(e))
    kept = []
    for m in sorted(set(mons), key=lambda m: (sum(m), m)):
        if not any(all(a <= b for a, b in zip(g, m)) for g in kept):
            kept.append(m)
    return tuple(kept)


def _cls(m):
    for i, e in enumerate(m):
        if e:
            return i + 1
    raise ValueError("the unit monomial has no class")


def basis_size(gens, n, limit):
    """(basis size, symbol count) of the Pommaret basis of a quasi-stable
    ideal, or None as soon as the symbol count passes ``limit``.

    Worklist completion in degree order: a nonmultiplicative product
    x_k * h joins the basis when no element divides it involutively.
    """
    buckets = {}  # (class, exponents above the class) -> elements
    heap = []
    size = symbols = 0

    def covered(m):
        for c in range(1, n + 1):
            for h in buckets.get((c, m[c:]), ()):
                if all(h[j] <= m[j] for j in range(c)):
                    return True
        return False

    def add(m):
        c = _cls(m)
        buckets.setdefault((c, m[c:]), []).append(m)
        for k in range(c, n):
            p = list(m)
            p[k] += 1
            heapq.heappush(heap, (sum(p), tuple(p)))
        return 1 << (n - c)

    for g in gens:  # minimal generators always belong to the basis
        size += 1
        symbols += add(g)
    while heap and symbols <= limit:
        _, m = heapq.heappop(heap)
        if not covered(m):
            size += 1
            symbols += add(m)
    return None if symbols > limit else (size, symbols)


def build_ladder(rungs, seed):
    """The ladder's ideals for one workload seed, in rung order."""
    ideals = []
    for idx, r in enumerate(rungs):
        for j in range(MAX_TRIES):
            s = r.base + STRIDE * seed + RETRY * j
            gens = draw(s, r.n, r.max_deg, r.count)
            sizes = basis_size(gens, r.n, r.hi)
            if sizes is not None and sizes[1] >= r.lo:
                ideals.append(Ideal("%03d-n%d-s%d" % (idx, r.n, s), s, r,
                                    gens, *sizes))
                break
        else:
            raise RuntimeError("rung %d %r: no draw in the symbol band after"
                               " %d tries" % (idx, r, MAX_TRIES))
    return ideals


def ideal_text(ideal):
    """The ideal file the CLI reads: header plus exponent vectors."""
    lines = ["# %s: random_quasi_stable(%d, %d, %d, %d)" % (
        ideal.name, ideal.seed, ideal.rung.n, ideal.rung.max_deg,
        ideal.rung.count), "vars %d" % ideal.rung.n]
    lines += ["[%s]" % ",".join(map(str, g)) for g in ideal.gens]
    return "\n".join(lines) + "\n"
