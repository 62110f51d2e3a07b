"""Matchings on a resolution and reduction to the minimal one.

A matching pairs generators in adjacent homological degrees along unit
differential entries.  Reversing the matched edges must leave the entry
digraph acyclic; then every pair can be cancelled one at a time, each
cancellation being a change of basis that removes the pair and corrects the
remaining columns, and the surviving (critical) generators carry a complex
with the same homology.

The distinguished matching V pairs [h, u] with [h', u minus x_i] whenever
extracting the nonmultiplicative variable x_i rewrites with factor t = 1,
sweeping variables from x_n downward and skipping generators already
matched.  Those rewritten terms are exactly the unit entries of a symbol
resolution, so V is read from the complex's unit entries, not from the
rewrite map.  On some symbol resolutions V leaves a multidegree class
short, and a unit entry made by fill-in survives its cancellation
(``random_quasi_stable(2520, 5, 4, 6)`` is one); ``minimize`` then grows V
in those classes along acyclic augmenting paths (Joellenbeck-Welker, Mem.
AMS 2009).  Every entry of a symbol resolution is +-1, and fill-in never
changes the entry of a matched pair (that would need an alternating
cycle), so every pivot is +-1 and the elimination stays in the integers.

The pairs are cancelled highest degree first, though the result does not
depend on their order.  d o d = 0 is proved once per reduced complex, on
every column of the result: a defect that a later cancellation erases
never reaches it.

Every complex was proven multigraded when it was built, and cancelling a
unit pair keeps it so: an entry's monomial is fixed by the multidegrees of
its row and column, so complexes store coefficients alone and the
elimination runs on them (Batzies-Welker, J. reine angew. Math. 2002).
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


def _has_cycle(cplx, matching, level):
    """Whether the digraph of d_level with matched edges reversed has a
    directed cycle.

    A directed cycle alternates reversed matched edges (row to column) and
    unmatched entries (column to row) between two adjacent degrees, so each
    of its columns is entered by a matched edge: only the matched columns
    of d_level are vertices, with an arc from s to the partner of each
    other matched row of s's column.
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
    dropped = 0
    while ready:
        dropped += 1
        for v in successors[ready.pop()]:
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    return dropped < len(indegree)


def is_morse_matching(cplx, matching):
    """True when the matching is along unit entries and reversing them
    leaves every degree-pair digraph acyclic."""
    try:
        matching = (matching if isinstance(matching, Matching)
                    else Matching(matching))
    except NotAMorseMatching:
        return False
    cls = cplx.classes
    for p in matching.pairs:
        if not 1 <= p.level <= cplx.length:
            return False
        if (not cplx.diffs[p.level].get(p.source, {}).get(p.target)
                or cls[p.level][p.source] != cls[p.level - 1][p.target]):
            return False
    for level in range(1, cplx.length + 1):
        if _has_cycle(cplx, matching, level):
            return False
    return True


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
            if not any(_has_cycle(cplx, flipped, level)
                       for level in {p.level for p in add}):
                pairs = set(flipped.pairs)
                mate = {end: p for p in pairs for end in p.ends}
                break
    del paths  # paths' closure holds paths: free the cycle with the call
    return Matching(sorted(pairs, key=_order))


class ReducedComplex(FreeComplex):
    """Result of cancelling a Morse matching out of a parent complex."""

    # every cancellation is a pair of the matching: none is ever extra
    safety_net_cancellations = 0

    def __init__(self, ring, ideal, levels, diffs, basis, matching, trace):
        FreeComplex.__init__(self, ring, ideal, levels, diffs, "reduced",
                             basis=basis)
        self.matching = matching
        self.trace = trace


class _Reducer:
    """Mutable sparse copy of a complex supporting pair cancellation.

    Columns are {row: coeff}, as in ``FreeComplex.diffs``.  ``cls`` is the
    complex's ``classes``, and an entry is a unit when its coefficient is
    nonzero and its row and column share a class.

    Cancellations check nothing but their pivot; ``compact`` proves
    d o d = 0 on every surviving column, and the complex it builds lists
    the units left (``unit_entries``)."""

    def __init__(self, cplx, trace=False):
        self.cplx = cplx
        self.cls = cplx.classes
        self.cols = [None] + [{col: dict(column)
                               for col, column in diff.items()}
                              for diff in cplx.diffs[1:]]
        self.row_index = [None]
        for level_cols in self.cols[1:]:
            index = {}
            for col, column in level_cols.items():
                for row in column:
                    index.setdefault(row, set()).add(col)
            self.row_index.append(index)
        self.alive = [set(range(len(lv))) for lv in cplx.levels]
        self.trace = [] if trace else None

    def _set(self, level, col, row, coeff):
        column = self.cols[level][col]
        if coeff == 0:
            if row in column:
                del column[row]
                self.row_index[level][row].discard(col)
        else:
            column[row] = coeff
            self.row_index[level].setdefault(row, set()).add(col)

    def cancel(self, pair):
        level, s, t = pair.level, pair.source, pair.target
        cols = self.cols[level]
        lam_c = cols.get(s, {}).get(t)
        if (lam_c not in (1, -1)
                or self.cls[level][s] != self.cls[level - 1][t]):
            raise NonUnitPair("pair (%d: %d -> %d) is not a unit entry of "
                              "+-1" % (level, s, t))
        source_col = cols[s]
        fill = [(row, sc) for row, sc in source_col.items() if row != t]
        touched = []
        for c in sorted(self.row_index[level].get(t, set()) - {s}):
            column = cols[c]
            q = column[t] * lam_c  # the pivot is its own inverse
            for row, sc in fill:
                self._set(level, c, row, column.get(row, 0) - q * sc)
            if self.trace is not None:
                touched.extend((c, row) for row, _ in fill)
            # the t entry of every corrected column cancels exactly
            del column[t]
            self.row_index[level][t].discard(c)
        # drop the source column and the target's own column
        for row in source_col:
            self.row_index[level][row].discard(s)
        del cols[s]
        if level - 1 >= 1 and t in self.cols[level - 1]:
            for row in self.cols[level - 1][t]:
                self.row_index[level - 1][row].discard(t)
            del self.cols[level - 1][t]
        # the columns one level up lose the dead source row
        if level + 1 < len(self.cols):
            for c in self.row_index[level + 1].pop(s, ()):
                del self.cols[level + 1][c][s]
        self.alive[level].discard(s)
        self.alive[level - 1].discard(t)
        if self.trace is not None:
            cplx = self.cplx
            self.trace.append({
                "level": level, "source": s, "target": t,
                "source_text": cplx.text(cplx.levels[level][s]),
                "target_text": cplx.text(cplx.levels[level - 1][t]),
                "var": pair.var, "lambda": lam_c,
                "updated": sorted(touched),
            })

    def compact(self, matching):
        """The surviving complex, after checking d o d = 0 on every
        column, its generators and entries renumbered."""
        for level in range(1, len(self.cols)):
            for col in self.cols[level]:
                bad = composite_terms(self.cols, level, col)
                if bad:
                    raise BrokenInvariant(
                        "cancellation broke d o d = 0 at level %d col %d: %r"
                        % (level, col, bad))
        cplx = self.cplx
        levels = []
        remap = []
        for i, level in enumerate(cplx.levels):
            keep = [j for j in range(len(level)) if j in self.alive[i]]
            remap.append({j: k for k, j in enumerate(keep)})
            levels.append([level[j] for j in keep])
        diffs = [None]
        for i in range(1, len(levels)):
            rows = remap[i - 1]
            diffs.append({remap[i][col]: {rows[row]: c
                                          for row, c in column.items()}
                          for col, column in self.cols[i].items()})
        while len(levels) > 1 and not levels[-1]:
            levels.pop()
            diffs.pop()
        return ReducedComplex(cplx.ring, cplx.ideal, levels, diffs,
                              cplx.basis, matching, self.trace)


def _cancel_matching(cplx, matching, trace):
    """The checked complex left when every pair of a valid matching is
    cancelled, highest degree first."""
    if not is_morse_matching(cplx, matching):
        raise NotAMorseMatching("matching fails the unit or acyclicity test")
    reducer = _Reducer(cplx, trace)
    for pair in sorted(matching.pairs, key=lambda p: (-p.level, p.source)):
        reducer.cancel(pair)
    return reducer.compact(matching)


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
