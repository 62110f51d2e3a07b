"""Geometric cells underneath the symbol resolution.

The cells are read from the symbol layer of ``resolution``: each symbol
[h, tau] of ``ps_generators`` is one |tau|-dimensional cell, its label is
the symbol's multidegree, and its boundary facets are the terms of
``symbol_facets``, the same terms as the differential of [h, tau] and with
the same dropped-term rule.  A cell's key (alpha, tau) is equal to, and
hashes like, its ``Symbol``.

The vertices of a cell are found by walking the basis: apply the variables
of tau in some order, replacing the current vertex v by the involutive
divisor of x_k * v at every step (``chain_vertices`` walks one order).  The
cell is the union of the walks over all orders; orders that revisit a
vertex are degenerate.  ``build_cell_complex`` does not enumerate the
|tau|! orders.  A step reads the rewrite table: for k nonmultiplicative for
v it goes to ``basis.delta[(v, k)]``, and for k multiplicative, which the
table has no entry for, it stays at v, because x_k * v lies in v's own
cone and the involutive divisor is unique.  So the walks from v through
the remaining variables depend only on (v, rest), and one memo over those
pairs serves every cell of the build.
"""

from operator import le

from .errors import MismatchedBases, TauNotNonMultiplicative
from .monomials import times_var
from .resolution import (Symbol, ps_generators, symbol_facets,
                         symbol_multidegree)
from .verify import ComplexReport


def chain_vertices(basis, alpha, tau, sigma):
    """Vertex walk for one ordering sigma of tau.

    Returns (indices, degenerate): the visited basis indices in walk order,
    and whether any vertex repeats.
    """
    if not all(basis.classes[alpha] < k <= basis.ring.n for k in tau):
        raise TauNotNonMultiplicative(
            "tau %r leaves the nonmultiplicative variables of %s" % (
                list(tau), basis.ring.text(basis.elements[alpha])))
    if sorted(sigma) != sorted(tau):
        raise TauNotNonMultiplicative(
            "sigma %r is not an ordering of tau %r" % (list(sigma), list(tau)))
    v = alpha
    out = [v]
    for k in sigma:
        v = basis.index(basis.involutive_divisor(
            times_var(basis.elements[v], k)))
        out.append(v)
    return out, len(set(out)) < len(out)


class Cell:
    """One cell: owning symbol, vertex set, label, signed boundary.

    The label is an exponent tuple, the symbol's multidegree and the lcm
    of the vertices; ``basis.ring.text`` displays it."""

    __slots__ = ("alpha", "tau", "dim", "label", "vertices", "boundary")

    def __init__(self, alpha, tau, label, vertices, boundary):
        self.alpha = alpha
        self.tau = tau
        self.dim = len(tau)
        self.label = label
        self.vertices = vertices
        self.boundary = boundary

    def key(self):
        return (self.alpha, self.tau)

    def __repr__(self):
        return "Cell(%d, %r, dim=%d)" % (self.alpha, self.tau, self.dim)


class CellComplex:
    """All cells of the basis, grouped by dimension in symbol order, keyed
    by (alpha, tau)."""

    __slots__ = ("basis", "cells", "lookup")

    def __init__(self, basis, cells):
        self.basis = basis
        self.cells = cells
        self.lookup = {}
        for dim, layer in enumerate(cells):
            for c in layer:
                self.lookup[c.key()] = c

    @property
    def dimension(self):
        return len(self.cells) - 1

    def counts(self):
        return tuple(len(layer) for layer in self.cells)

    def to_json_dict(self):
        basis = self.basis
        recs = []
        for layer in self.cells:
            for c in layer:
                recs.append({
                    "h": list(basis.elements[c.alpha]),
                    "tau": list(c.tau),
                    "dim": c.dim,
                    "label": list(c.label),
                    "vertices": [list(basis.elements[v])
                                 for v in c.vertices],
                    "boundary": [{"h": list(basis.elements[a]),
                                  "tau": list(t), "sign": s}
                                 for (a, t), s in c.boundary],
                })
        return {"n": basis.ring.n, "cells": recs}

    def to_dot(self):
        """1-skeleton; exponent vectors double as coordinates for n <= 3."""
        basis = self.basis
        n = basis.ring.n
        text = basis.ring.text
        lines = ["graph skeleton {"]
        for h in basis.elements:
            if n == 2:
                pos = ' [pos="%d,%d!"]' % h
            elif n == 3:
                pos = ' [pos="%d,%d,%d!"]' % h
            else:
                pos = ""
            lines.append('  "%s"%s;' % (text(h), pos))
        for c in self.cells[1] if len(self.cells) > 1 else []:
            ends = sorted(c.vertices)
            lines.append('  "%s" -- "%s" [label="%s"];' % (
                text(basis.elements[ends[0]]), text(basis.elements[ends[-1]]),
                text(c.label)))
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_cell_complex(basis):
    memo = {}
    return CellComplex(basis, [
        [_make_cell(basis, memo, alpha, tau)
         for alpha, tau in ps_generators(basis, dim)]
        for dim in range(basis.ring.n - basis.d + 1)])


def _reach(basis, memo, v, rest):
    """The vertices of the walks from v through every order of the sorted
    tuple rest; memo holds the pairs already seen.  A nonmultiplicative
    step goes to its rewrite target, a multiplicative one stays at v."""
    hit = memo.get((v, rest))
    if hit is None:
        verts = {v}
        for i, k in enumerate(rest):
            verts |= _reach(basis, memo, basis.delta.get((v, k), v),
                            rest[:i] + rest[i + 1:])
        memo[(v, rest)] = hit = frozenset(verts)
    return hit


def _make_cell(basis, memo, alpha, tau):
    verts = _reach(basis, memo, alpha, tau)
    boundary = []
    for j, (face, rewritten) in enumerate(symbol_facets(basis, alpha, tau)):
        sign = 1 if j % 2 else -1
        boundary.append((face, sign))
        if rewritten is not None:
            boundary.append((rewritten, -sign))
    return Cell(alpha, tau, symbol_multidegree(basis, alpha, tau),
                tuple(sorted(verts)), boundary)


def supports_check(cellcomplex, cplx):
    """Compare the cell data against a symbol complex.

    Structural mismatches (different bases, generators other than the
    cells' symbols in the cells' order) raise MismatchedBases; value
    mismatches are returned as failure strings.  A per-generator sign
    choice reconciling every differential entry with the cell boundary sign
    is searched for; its absence is a failure.  Labels are compared with
    the generator multidegrees, which fix every entry's monomial, and with
    the lcm of their vertices; a facet label that does not divide its
    cell's label is a failure.
    """
    basis = cellcomplex.basis
    if cplx.basis is not basis and (
            cplx.basis is None
            or cplx.basis.elements != basis.elements):
        raise MismatchedBases("cell complex and free complex disagree")
    if not all(isinstance(g.key, Symbol)
               for level in cplx.levels for g in level):
        raise MismatchedBases("free complex has non-symbol generators")
    if ([[c.key() for c in layer] for layer in cellcomplex.cells]
            != [[g.key for g in level] for level in cplx.levels]):
        raise MismatchedBases("cells and symbols do not biject")

    text = basis.ring.text
    failures = []
    for key, cell, gen in sorted(
            (cell.key(), cell, gen)
            for layer, level in zip(cellcomplex.cells, cplx.levels)
            for cell, gen in zip(layer, level)):
        if gen.multidegree != cell.label:
            failures.append("label of %r is not the symbol multidegree" % (key,))
        lcm = basis.elements[cell.vertices[0]]
        for v in cell.vertices[1:]:
            lcm = tuple(map(max, lcm, basis.elements[v]))
        if lcm != cell.label:
            failures.append("label of %r is not the lcm of its vertices"
                            % (key,))
        if cell.alpha not in cell.vertices:
            failures.append("cell %r does not contain its own vertex" % (key,))
        for (fkey, _sign) in cell.boundary:
            facet = cellcomplex.lookup.get(fkey)
            if facet is None:
                failures.append("facet %r of %r is not a cell" % (fkey, key))
                continue
            if not all(map(le, facet.label, cell.label)):
                failures.append("facet label %s does not divide %s of %r"
                                % (text(facet.label), text(cell.label), key))
            if not set(facet.vertices) <= set(cell.vertices):
                failures.append("facet %r has vertices outside %r"
                                % (fkey, key))

    # boundary entries and differential entries must agree up to one sign
    # per generator: 2-colour the incidence graph
    edges = {}
    for i, layer in enumerate(cellcomplex.cells[1:], start=1):
        for col, cell in enumerate(layer):
            key = cell.key()
            centries = {fkey: s for fkey, s in cell.boundary}
            dentries = {cplx.levels[i - 1][row].key: (row, c)
                        for row, c in cplx.diffs[i].get(col, {}).items()}
            if set(centries) != set(dentries):
                failures.append("support of %r differs from d-entries" % (key,))
                continue
            for fkey, s in centries.items():
                row, c = dentries[fkey]
                if abs(c) != 1:
                    failures.append("entry coefficient at %r -> %r is not "
                                    "a sign" % (key, fkey))
                    continue
                edges[((i, col), (i - 1, row))] = c * s
    adjacency = {}
    for (a, b), q in edges.items():
        adjacency.setdefault(a, []).append((b, q))
        adjacency.setdefault(b, []).append((a, q))
    sign = {}
    ok_signs = True
    for root in sorted(adjacency):
        if root in sign:
            continue
        sign[root] = 1
        stack = [root]
        while stack:
            cur = stack.pop()
            for other, q in adjacency[cur]:
                want = q * sign[cur]
                if other in sign:
                    if sign[other] != want:
                        ok_signs = False
                else:
                    sign[other] = want
                    stack.append(other)
    if not ok_signs:
        failures.append("no per-generator sign choice matches the boundary")
    return ComplexReport(not failures, failures)

