"""Matchings on a resolution and reduction to the minimal one.

A matching pairs generators in adjacent homological degrees along unit
differential entries.  Reversing the matched edges must leave the entry
digraph acyclic; then the surviving (critical) generators carry a complex
with the same homology, whose differential is a sum over gradient paths
(Skoeldberg, Trans. AMS 2006; Joellenbeck-Welker, Mem. AMS 2009).  The
paths leaving a generator one level down add up to its flow, which is
memoized per generator: the walk that proves a level's digraph acyclic
also orders that level's flows, so that each is evaluated after the flows
it reads.

The distinguished matching V pairs [h, u] with [h', u minus x_i] whenever
extracting the nonmultiplicative variable x_i rewrites with factor t = 1,
sweeping variables from x_n downward and skipping generators already
matched.  Those rewritten terms are exactly the unit entries of a symbol
resolution, so V is read from the complex's unit entries, not from the
rewrite map.  On some symbol resolutions V leaves a multidegree class
short, and the differential summed over V's gradient paths keeps a unit
entry (``random_quasi_stable(2520, 5, 4, 6)`` is one); ``minimize`` then
grows V in those classes along acyclic augmenting paths
(Joellenbeck-Welker).  Every entry of a symbol resolution is +-1, and a
flow divides only by the entry of a matched pair in the complex itself,
so every pivot is +-1 and the flows stay in the integers.

d o d = 0 is proved once per reduced complex, on every column of the
result, the augmentation of d_1 included.

Every complex was proven multigraded when it was built, and the Morse
complex stays so: a gradient path joins generators of one multidegree
through each matched pair, so an entry's monomial is fixed by the
multidegrees of its row and column, complexes store coefficients alone
and the flows run on them (Batzies-Welker, J. reine angew. Math. 2002).
"""

from dataclasses import dataclass

from .errors import (BrokenInvariant, NonUnitPair, NotAMorseMatching,
                     NotMinimal, NotPSComplex)
from .resolution import FreeComplex, composite_terms


@dataclass(frozen=True)
class Pair:
    """One matched edge: source at ``level``, target one degree below."""
    level: int
    source: int
    target: int
    var: int  # extracted variable; 0 in a matching not read from symbols

    @property
    def ends(self):  # the matched generators as (level, index)
        return (self.level, self.source), (self.level - 1, self.target)


class Matching:
    """A partial matching: no generator appears in two pairs."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = tuple(pairs)
        seen = set()
        for p in self.pairs:
            for node in p.ends:
                if node in seen:
                    raise NotAMorseMatching(
                        "generator %r matched twice" % (node,))
                seen.add(node)

    def __len__(self):
        return len(self.pairs)

    def sizes_by_var(self):
        out = {}
        for p in self.pairs:
            out[p.var] = out.get(p.var, 0) + 1
        return out


def _kahn_order(cplx, matching, level):
    """The matched columns of d_level, each before every column it
    reaches, or None when the digraph of d_level with the matched edges
    reversed has a directed cycle.

    A directed cycle alternates reversed matched edges (row to column) and
    unmatched entries (column to row) between two adjacent degrees, so each
    of its columns is entered by a matched edge: only the matched columns
    of d_level are vertices, with an arc from s to the partner of each
    other matched row of s's column.  Those are the pairs whose flows the
    flow of s's target reads (``_cancel_matching``).
    """
    partner = {p.target: p.source for p in matching.pairs
               if p.level == level}
    column = cplx.diffs[level].get
    successors = {s: [partner[row] for row in column(s, ())
                      if row in partner and partner[row] != s]
                  for s in partner.values()}
    # Kahn: repeatedly drop vertices no remaining edge enters; a cycle is
    # what can never be dropped
    indegree = dict.fromkeys(successors, 0)
    for succ in successors.values():
        for v in succ:
            indegree[v] += 1
    ready = [v for v, k in indegree.items() if k == 0]
    order = []
    while ready:
        order.append(ready.pop())
        for v in successors[order[-1]]:
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    return order if len(order) == len(indegree) else None


def _orders(cplx, matching):
    """``_kahn_order`` of every level >= 1 (index 0 is None), or None
    when a pair is not along a unit entry or some level has a cycle."""
    cls = cplx.classes
    for p in matching.pairs:
        if not 1 <= p.level <= cplx.length:
            return None
        if (not cplx.diffs[p.level].get(p.source, {}).get(p.target)
                or cls[p.level][p.source] != cls[p.level - 1][p.target]):
            return None
    orders = [None]
    for level in range(1, cplx.length + 1):
        orders.append(_kahn_order(cplx, matching, level))
        if orders[-1] is None:
            return None
    return orders


def is_morse_matching(cplx, matching):
    """True when the matching is along unit entries and reversing them
    leaves every degree-pair digraph acyclic."""
    try:
        matching = (matching if isinstance(matching, Matching)
                    else Matching(matching))
    except NotAMorseMatching:
        return False
    return _orders(cplx, matching) is not None


def _order(p):
    """V's order of pairs: x_n first, then by level, source and target."""
    return -p.var, p.level, p.source, p.target


def _candidates(cplx):
    """V's candidate edges, in ``_order``: the unit entries of a symbol
    resolution (its rewritten terms with t = 1) whose row is the column's
    u minus one variable, the one each extracts.  NotPSComplex on any
    other complex."""
    if cplx.provenance != "pommaret" or cplx.basis is None:
        raise NotPSComplex("matching V needs a symbol resolution")
    candidates = []
    for level, row, col, _ in cplx.unit_entries():
        u = cplx.levels[level][col].key.u
        rest = cplx.levels[level - 1][row].key.u
        extracted = [k for k in u if k not in rest]
        if len(extracted) == 1 and len(rest) == len(u) - 1:
            candidates.append(Pair(level, col, row, extracted[0]))
    return sorted(candidates, key=_order)


def build_matching_V(cplx):
    """The unit-rewrite matching on a symbol resolution: an edge of
    ``_candidates`` joins V_i when its endpoints were not used by any V_j,
    j > i, nor earlier in V_i (greedy, in generator order).  ``minimize``
    completes it where it falls short."""
    return _greedy(_candidates(cplx))


def _greedy(candidates):
    """V from a complex's ``_candidates``, in their order: each joins
    unless an endpoint is already matched."""
    matched = set()
    pairs = []
    for p in candidates:
        if not matched.intersection(p.ends):
            pairs.append(p)
            matched.update(p.ends)
    return Matching(pairs)


def _complete(cplx, candidates, matching, short):
    """matching grown inside the multidegrees ``short`` (exponent tuples,
    since a reduced complex codes classes its own way): from each
    unmatched generator in turn, a depth-first search walks the simple
    alternating paths of V's candidate edges (``_candidates(cplx)``,
    bipartite by the parity of the level) to another unmatched generator,
    and flips the first path that leaves a Morse matching; as the pairs it
    adds are units, only their levels are tested for a cycle."""
    edges = {}
    for p in candidates:
        if cplx.levels[p.level][p.source].multidegree in short:
            for node, far in (p.ends, p.ends[::-1]):
                edges.setdefault(node, []).append((far, p))
    pairs = set(matching.pairs)
    mate = {end: p for p in pairs for end in p.ends}

    def paths(node, seen):
        # (pairs to add, pairs to drop) of each augmenting path from node
        for far, pair in edges[node]:
            if far in seen:
                continue
            back = mate.get(far)
            if back is None:
                yield [pair], []
                continue
            near = back.ends[back.ends[0] == far]  # back's other end
            for add, drop in paths(near, seen | {far, near}):
                yield [pair] + add, [back] + drop

    for start in sorted(edges):
        if start in mate:
            continue
        for add, drop in paths(start, {start}):
            flipped = Matching((pairs - set(drop)) | set(add))
            if all(_kahn_order(cplx, flipped, level) is not None
                   for level in {p.level for p in add}):
                pairs = set(flipped.pairs)
                mate = {end: p for p in pairs for end in p.ends}
                break
    del paths  # paths' closure holds paths: free the cycle with the call
    return Matching(sorted(pairs, key=_order))


class ReducedComplex(FreeComplex):
    """The Morse complex of a parent complex and an acyclic matching: its
    critical generators, renumbered in order, and the differential summed
    over gradient paths.  ``trace`` is None, or one record per matched
    pair: its pivot ``lambda``, and in ``updated`` the flow of its target
    as sorted [row, coeff] pairs, rows numbered as in the parent."""

    # every cancellation is a pair of the matching: none is ever extra
    safety_net_cancellations = 0

    def __init__(self, ring, ideal, levels, diffs, basis, matching, trace):
        FreeComplex.__init__(self, ring, ideal, levels, diffs, "reduced",
                             basis=basis)
        self.matching = matching
        self.trace = trace


def _add_scaled(acc, scale, terms):
    """acc += scale * terms, on {row: coeff} columns: each flow and each
    Morse column is a sum of such terms, and zeros are left in acc."""
    get = acc.get
    for row, value in terms.items():
        acc[row] = get(row, 0) + scale * value


def _cancel_matching(cplx, matching, trace):
    """The Morse complex of a valid matching, checked.

    Level by level, the flow of a generator one level down is itself when
    it is critical, absent (0) when it is matched downward, and
    -lambda * sum_{z != t} d[z, s] flow(z) when it is the target t of the
    pair (s -> t) with pivot lambda; each critical column is then
    sum_f d[f, c] flow(f).  ``_orders`` lists each level's sources so that
    a pair comes before the pairs whose flows its own reads: the flows are
    evaluated in reverse.  d o d = 0, and the augmentation of d_1, are
    proved on every column of the result."""
    orders = _orders(cplx, matching)
    if orders is None:
        raise NotAMorseMatching("matching fails the unit or acyclicity test")
    matched = [set() for _ in cplx.levels]
    for p in matching.pairs:
        matched[p.level].add(p.source)
        matched[p.level - 1].add(p.target)
    keep = [[j for j in range(len(cplx.levels[i])) if j not in matched[i]]
            for i in range(len(cplx.levels))]
    remap = [{j: k for k, j in enumerate(kept)} for kept in keep]
    diffs = [None] * len(keep)
    records = [] if trace else None
    for level in range(cplx.length, 0, -1):
        columns = cplx.diffs[level]
        pair_of = {p.source: p for p in matching.pairs if p.level == level}
        flows = {row: {row: 1} for row in keep[level - 1]}
        for s in reversed(orders[level]):
            t = pair_of[s].target
            lam = columns[s][t]
            if lam not in (1, -1):
                raise NonUnitPair("pair (%d: %d -> %d) is not a unit entry "
                                  "of +-1" % (level, s, t))
            acc = {}
            for z, coeff in columns[s].items():
                if z != t and z in flows:
                    _add_scaled(acc, -lam * coeff, flows[z])
            flows[t] = {row: v for row, v in acc.items() if v}
        if records is not None:
            for s in sorted(pair_of):
                p = pair_of[s]
                records.append({
                    "level": level, "source": s, "target": p.target,
                    "source_text": cplx.text(cplx.levels[level][s]),
                    "target_text": cplx.text(cplx.levels[level - 1][p.target]),
                    "var": p.var, "lambda": columns[s][p.target],
                    "updated": sorted(flows[p.target].items()),
                })
        rows = remap[level - 1]
        diffs[level] = reduced = {}
        for c, column in columns.items():
            if c not in matched[level]:
                acc = {}
                for f, coeff in column.items():
                    if f in flows:
                        _add_scaled(acc, coeff, flows[f])
                reduced[remap[level][c]] = {rows[row]: v
                                            for row, v in acc.items() if v}
    for level in range(1, len(diffs)):
        for col, bad in sorted(composite_terms(diffs, level).items()):
            raise BrokenInvariant(
                "the Morse differential breaks d o d = 0 at level %d "
                "col %d: %r" % (level, col, bad))
    levels = [[cplx.levels[i][j] for j in keep[i]] for i in range(len(keep))]
    return ReducedComplex(cplx.ring, cplx.ideal, levels, diffs, cplx.basis,
                          matching, records)


def minimize(cplx, trace=False):
    """Minimal resolution of a symbol resolution: cancel V (NotPSComplex
    on any other complex); if the result still holds unit entries, cancel
    V completed in their multidegrees (``_complete``) afresh instead.  V
    and its completion read one scan of the candidate edges.  A unit
    entry that survives raises NotMinimal: every cancellation is a
    matched pair."""
    candidates = _candidates(cplx)
    matching = _greedy(candidates)
    reduced = _cancel_matching(cplx, matching, trace)
    units = reduced.unit_entries()
    if units:
        short = {reduced.levels[level][col].multidegree
                 for level, _, col, _ in units}
        matching = _complete(cplx, candidates, matching, short)
        reduced = _cancel_matching(cplx, matching, trace)
        left = [reduced.classes[level][col]
                for level, _, col, _ in reduced.unit_entries()]
        if left:
            raise NotMinimal(
                "unit entries survive the completed matching V at %s"
                % reduced.ring.text(reduced.decode(min(left))))
    return reduced
