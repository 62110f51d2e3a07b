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
rewrite map.  On most symbol resolutions this matching alone leaves the
minimal resolution behind, but not on all: cancellation can create unit
entries by fill-in that V does not pair (``random_quasi_stable(2520, 5,
4, 6)`` is one), and ``minimize`` then cancels them in a safety-net sweep,
always the least live unit (highest level, then column, then row), taken
from a lazy heap.

All the pairs of one homological degree form one block of elimination; its
result does not depend on the order of the pairs inside it, so d o d = 0
is checked on the columns a block changed once the block is done.
"""

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add

from .errors import (BrokenInvariant, NonUnitPair, NotAMorseMatching,
                     NotPSComplex)
from .resolution import FreeComplex, composite_terms, unit_entries


@dataclass(frozen=True)
class Pair:
    """One matched edge: source at ``level``, target one degree below."""
    level: int
    source: int
    target: int
    var: int  # extracted variable; 0 for generic scalar cancellations


class Matching:
    """A partial matching: no generator appears in two pairs."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = tuple(pairs)
        seen = set()
        for p in self.pairs:
            for node in ((p.level, p.source), (p.level - 1, p.target)):
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

    Vertices are split by homological degree; a directed cycle must
    alternate matched (upward) and unmatched (downward) edges between two
    adjacent degrees, so acyclicity is checked per degree pair on the
    column side only.
    """
    matched_cols = {}
    row_partner = {}
    for p in matching.pairs:
        if p.level == level:
            matched_cols[p.source] = p.target
            row_partner[p.target] = p.source
    successors = {}
    for col, column in cplx.diffs[level].items():
        succ = []
        for row in column:
            if matched_cols.get(col) == row:
                continue  # this edge is reversed, not outgoing
            partner = row_partner.get(row)
            if partner is not None and partner != col:
                succ.append(partner)
        successors[col] = succ
    # Kahn: repeatedly drop vertices no remaining edge enters; a cycle is
    # what can never be dropped
    indegree = dict.fromkeys(successors, 0)
    for succ in successors.values():
        for v in succ:
            indegree[v] = indegree.get(v, 0) + 1
    ready = [v for v, k in indegree.items() if k == 0]
    dropped = 0
    while ready:
        dropped += 1
        for v in successors.get(ready.pop(), ()):
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    return dropped < len(indegree)


def _is_unit(entry):
    return entry is not None and entry[0] != 0 and not any(entry[1])


def is_morse_matching(cplx, matching):
    """True when the matching is along unit entries and reversing them
    leaves every degree-pair digraph acyclic."""
    try:
        matching = (matching if isinstance(matching, Matching)
                    else Matching(matching))
    except NotAMorseMatching:
        return False
    for p in matching.pairs:
        if not 1 <= p.level <= cplx.length:
            return False
        if not _is_unit(cplx.entry(p.level, p.target, p.source)):
            return False
    for level in range(1, cplx.length + 1):
        if _has_cycle(cplx, matching, level):
            return False
    return True


def build_matching_V(cplx):
    """The unit-rewrite matching on a symbol resolution.

    Its candidates are the unit entries, in a symbol resolution exactly the
    rewritten terms with t = 1, each extracting the variable of the
    column's u that the row's u lacks (a unit whose row is not u minus one
    variable is left to the safety-net sweep).  Variables are processed
    from x_n down; an edge joins V_i when its endpoints were not used by
    any V_j, j > i, nor earlier in V_i (greedy, in generator order).
    """
    if cplx.provenance != "pommaret" or cplx.basis is None:
        raise NotPSComplex("matching V needs a symbol resolution")
    candidates = []
    for level, row, col, _ in cplx.unit_entries():
        u = cplx.levels[level][col].key.u
        rest = cplx.levels[level - 1][row].key.u
        extracted = [k for k in u if k not in rest]
        if len(extracted) == 1 and len(rest) == len(u) - 1:
            candidates.append((-extracted[0], level, col, row))
    matched = set()
    pairs = []
    for minus_var, level, col, row in sorted(candidates):
        if (level, col) in matched or (level - 1, row) in matched:
            continue
        pairs.append(Pair(level, col, row, -minus_var))
        matched.add((level, col))
        matched.add((level - 1, row))
    return Matching(pairs)


class ReducedComplex(FreeComplex):
    """Result of cancelling a matching out of a parent complex."""

    def __init__(self, ring, ideal, levels, diffs, basis, matching,
                 safety_net_cancellations, trace):
        FreeComplex.__init__(self, ring, ideal, levels, diffs, "reduced",
                             basis=basis)
        self.matching = matching
        self.safety_net_cancellations = safety_net_cancellations
        self.trace = trace


class _Reducer:
    """Mutable sparse copy of a complex supporting pair cancellation.

    Each cancellation records the columns it changed; ``_local_check``
    proves d o d = 0 on them when the level of cancellation moves, and the
    callers run it once more after their last cancellation."""

    def __init__(self, cplx, trace=False):
        self.cplx = cplx
        self.cols = [None]
        self.row_index = [None]
        for i in range(1, len(cplx.levels)):
            level_cols = {}
            index = {}
            for col, column in cplx.diffs[i].items():
                level_cols[col] = dict(column)
                for row in column:
                    index.setdefault(row, set()).add(col)
            self.cols.append(level_cols)
            self.row_index.append(index)
        self.alive = [set(range(len(lv))) for lv in cplx.levels]
        # once tracked, a heap of keys (-level, col, row) holding every
        # unit entry, plus stale keys that ``least_unit`` skips
        self.units = None
        self.trace = [] if trace else None
        self.cancelled = 0
        self.dirty = set()  # (level, col) changed since the last check
        self.level = None   # level of the last cancellation

    def track_units(self):
        """Keep ``units`` from now on, seeded from a scan; ``_set`` pushes
        every unit entry it writes."""
        self.units = [(-level, col, row)
                      for level, row, col, _ in unit_entries(self.cols)]
        heapify(self.units)

    def least_unit(self):
        """The least key (-level, col, row) of a live unit entry, or None;
        stale keys, whose entry has changed or gone, are dropped."""
        units = self.units
        while units:
            minus_level, col, row = units[0]
            if _is_unit(self.cols[-minus_level].get(col, {}).get(row)):
                return units[0]
            heappop(units)
        return None

    def _set(self, level, col, row, coeff, exps):
        column = self.cols[level].setdefault(col, {})
        if coeff == 0:
            if row in column:
                del column[row]
                self.row_index[level][row].discard(col)
        else:
            if isinstance(coeff, Fraction) and coeff.denominator == 1:
                coeff = int(coeff)
            column[row] = (coeff, exps)
            self.row_index[level].setdefault(row, set()).add(col)
            if self.units is not None and not any(exps):
                heappush(self.units, (-level, col, row))

    def cancel(self, pair):
        level, s, t = pair.level, pair.source, pair.target
        if level != self.level:
            self._local_check()
            self.level = level
        cols = self.cols[level]
        lam = cols.get(s, {}).get(t)
        if not _is_unit(lam):
            raise NonUnitPair("pair (%d: %d -> %d) is not a unit entry"
                              % (level, s, t))
        lam_c = lam[0]
        source_col = cols[s]
        fill = [(row, sc, se) for row, (sc, se) in source_col.items()
                if row != t]
        upper = (self.row_index[level + 1] if level + 1 < len(self.cols)
                 else {})
        touched = []
        for c in sorted(self.row_index[level].get(t, set()) - {s}):
            column = cols[c]
            alpha_c, ae = column[t]
            if lam_c in (1, -1):
                q = alpha_c * lam_c
            else:
                q = Fraction(alpha_c, lam_c)
            for row, sc, se in fill:
                exps = tuple(map(add, ae, se))
                old = column.get(row)
                if old is None:
                    self._set(level, c, row, -q * sc, exps)
                elif old[1] != exps:
                    raise BrokenInvariant("inhomogeneous correction")
                else:
                    self._set(level, c, row, old[0] - q * sc, old[1])
            if fill:
                self.dirty.add((level, c))
                self.dirty.update((level + 1, u) for u in upper.get(c, ()))
                if self.trace is not None:
                    touched.extend((c, row) for row, _, _ in fill)
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
        for c in upper.pop(s, ()):
            del self.cols[level + 1][c][s]
            self.dirty.add((level + 1, c))
        self.alive[level].discard(s)
        self.alive[level - 1].discard(t)
        self.cancelled += 1
        if self.trace is not None:
            self.trace.append({
                "level": level, "source": s, "target": t,
                "source_text": self.cplx.levels[level][s].text,
                "target_text": self.cplx.levels[level - 1][t].text,
                "var": pair.var, "lambda": lam_c,
                "updated": sorted(touched),
            })

    def _local_check(self):
        # d o d = 0 can only break where entries changed since the last
        # check: the corrected columns, and one level up the columns that
        # met a dead source row or a corrected column
        for level, col in sorted(self.dirty):
            if col in self.cols[level]:
                self._compose_check(level, col)
        self.dirty.clear()

    def _compose_check(self, level, col):
        bad = composite_terms(self.cplx.levels, self.cols, level, col)
        if bad:
            raise BrokenInvariant(
                "cancellation broke d o d = 0 at level %d col %d: %r"
                % (level, col, bad))

    def compact(self, matching):
        """The surviving complex, after checking d o d = 0 on every
        column; cancellations beyond the matching's pairs were the
        safety net's."""
        for level in range(1, len(self.cols)):
            for col in self.cols[level]:
                self._compose_check(level, col)
        cplx = self.cplx
        levels = []
        remap = []
        for i, level in enumerate(cplx.levels):
            keep = [j for j in range(len(level)) if j in self.alive[i]]
            remap.append({j: k for k, j in enumerate(keep)})
            levels.append([level[j] for j in keep])
        diffs = [None]
        for i in range(1, len(levels)):
            cols = {}
            for col, column in self.cols[i].items():
                cols[remap[i][col]] = {
                    remap[i - 1][row]: entry
                    for row, entry in column.items()}
            diffs.append(cols)
        while len(levels) > 1 and not levels[-1]:
            levels.pop()
            diffs.pop()
        return ReducedComplex(cplx.ring, cplx.ideal, levels, diffs,
                              cplx.basis, matching,
                              self.cancelled - len(matching), self.trace)


def _cancel_matching(cplx, matching, trace):
    """A checked reducer with every pair of a valid matching cancelled,
    highest degree first."""
    if not is_morse_matching(cplx, matching):
        raise NotAMorseMatching("matching fails the unit or acyclicity test")
    reducer = _Reducer(cplx, trace)
    for pair in sorted(matching.pairs, key=lambda p: (-p.level, p.source)):
        reducer.cancel(pair)
    reducer._local_check()
    return reducer


def morse_reduce(cplx, matching, trace=False):
    """Cancel every pair of the matching, highest degree first."""
    if not isinstance(matching, Matching):
        matching = Matching(matching)
    return _cancel_matching(cplx, matching, trace).compact(matching)


def minimize(cplx, trace=False):
    """Minimal resolution from any resolution we can build.

    Symbol resolutions go through the matching V; whatever provenance, a
    safety-net sweep then cancels any surviving invertible scalar entry one
    pair at a time, checking d o d = 0 after each.  After V the sweep can
    still find unit entries that fill-in created; the count is reported.
    """
    if cplx.provenance == "pommaret":
        matching = build_matching_V(cplx)
    else:
        matching = Matching(())
    reducer = _cancel_matching(cplx, matching, trace)
    reducer.track_units()
    # highest level first, then lowest column, then lowest row
    while (key := reducer.least_unit()) is not None:
        minus_level, col, row = key
        # a single reversed edge cannot close an alternating cycle
        reducer.cancel(Pair(-minus_level, col, row, 0))
        reducer._local_check()
    return reducer.compact(matching)
