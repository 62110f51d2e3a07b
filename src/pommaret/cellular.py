"""Geometric cells underneath the symbol resolution.

The cells are read from the symbol layer of ``resolution``: each symbol
[h, tau] of ``ps_generators`` is one |tau|-dimensional cell, its label is
the symbol's multidegree, and its boundary facets are the terms of
``symbol_facets``, the same terms as the differential of [h, tau] and with
the same dropped-term rule.  A cell's key (alpha, tau) is equal to, and
hashes like, its ``Symbol``.

The vertices of the cell [h, tau] are {P(h x_J) : J a subset of tau}, with
P(m) the basis element that involutively divides m; on a stable ideal
these are Mermin's Eliahou-Kervaire cells.  ``_make_cell`` reads them from
one subset table: starting from [alpha], each k of tau appends the step in
x_k of every entry so far, where a step from v stays at v when k is
multiplicative for v and goes to ``basis.delta[(v, k)]`` otherwise.  If
h x_J = t v, then t uses only x_1..x_cls(v), and a rewrite target's class
is at least v's (``_check_linear_quotients``), so t stays multiplicative
and each step lands on P(h x_J x_k).  ``chain_vertices`` walks one order of
tau through the involutive divisor itself; it is the tests' definition.

``supports_check`` reads cell j of dimension i with generator j of level i
of a symbol complex, and a facet by its position one dimension down.  It
tests vertices as bitmasks, lcms and divisibility on the complex's
multidegree codes, and each boundary sign exactly: d_i is (-1)^i times the
boundary, both signed by ``symbol_facets``.
"""

from functools import reduce
from operator import or_

from .errors import MismatchedBases, TauNotNonMultiplicative
from .monomials import times_var
from .resolution import (Symbol, ps_generators, symbol_facets,
                         symbol_multidegree)
from .verify import ComplexReport


def chain_vertices(basis, alpha, tau, sigma):
    """Vertex walk for one ordering sigma of tau.

    Returns (indices, degenerate): the visited basis indices in walk order,
    and whether any vertex repeats.  alpha must index the basis
    (MismatchedBases), and tau must be a set of nonmultiplicative
    variables of h_alpha (TauNotNonMultiplicative).
    """
    if not 0 <= alpha < len(basis.elements):
        raise MismatchedBases("alpha %r is not an index of the %d basis "
                              "elements" % (alpha, len(basis.elements)))
    if len(set(tau)) < len(tau) or not all(
            basis.classes[alpha] < k <= basis.ring.n for k in tau):
        raise TauNotNonMultiplicative(
            "tau %r is not a set of nonmultiplicative variables of %s" % (
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
    """All cells of the basis, grouped by dimension in symbol order."""

    __slots__ = ("basis", "cells")

    def __init__(self, basis, cells):
        self.basis = basis
        self.cells = cells

    def counts(self):
        return tuple(len(layer) for layer in self.cells)

    def to_dot(self):
        """1-skeleton; exponent vectors double as coordinates for n <= 3."""
        basis = self.basis
        n = basis.ring.n
        text = basis.ring.text
        shown = [text(h) for h in basis.elements]
        lines = ["graph skeleton {"]
        for h, name in zip(basis.elements, shown):
            if n == 2:
                pos = ' [pos="%d,%d!"]' % h
            elif n == 3:
                pos = ' [pos="%d,%d,%d!"]' % h
            else:
                pos = ""
            lines.append('  "%s"%s;' % (name, pos))
        for c in self.cells[1] if len(self.cells) > 1 else []:
            ends = sorted(c.vertices)
            lines.append('  "%s" -- "%s" [label="%s"];' % (
                shown[ends[0]], shown[ends[-1]], text(c.label)))
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_cell_complex(basis):
    templates = {}
    return CellComplex(basis, [
        [_make_cell(basis, templates, alpha, tau)
         for alpha, tau in ps_generators(basis, dim)]
        for dim in range(basis.ring.n - basis.d + 1)])


def _make_cell(basis, templates, alpha, tau):
    delta = basis.delta
    ends = [alpha]  # ends[J] is P(h_alpha x_J), J a mask of positions in tau
    for k in tau:
        ends += [delta.get((v, k), v) for v in ends]
    return Cell(alpha, tau, symbol_multidegree(basis, alpha, tau),
                tuple(sorted(set(ends))),
                symbol_facets(basis, alpha, tau, templates))


def supports_check(cellcomplex, cplx):
    """Compare the cell data against a symbol complex.

    Structural mismatches (different bases, generators other than the
    cells' symbols in the cells' order) raise MismatchedBases.  So cell j
    of dimension i is generator j of level i, and a facet is found by its
    position one dimension down; a boundary entry naming anything else is
    not a cell.  Labels are compared with the generator multidegrees,
    which fix every entry's monomial, and level 0's multidegrees with the
    basis elements.  Each boundary is compared with its column of d
    entry by entry (a vertex's column is empty): d_i = (-1)^i times the
    boundary, so the entry of cell j of dimension i at facet row r with
    sign s must be exactly (-1)^i * s, and no facet may appear twice.
    Value mismatches are returned as failure strings, by dimension and
    then in symbol order.  So is a vertex outside ``0 <= v < len(basis)``:
    its cell skips the lcm and own-vertex tests, and facet containment
    sees its other vertices.  No test divides labels: ``FreeComplex``
    refuses a d-entry whose row does not divide its column.

    Each cell's vertices are read into a bitmask once, so the own-vertex
    test and facet containment (``f & ~m == 0``) are bit tests.  Past the
    label test a label is stood for by its generator's code
    (``FreeComplex.classes``): the lcm of the vertices is the OR of their
    level-0 codes.  A wrong label fails its own test, so this test needs
    no second route.
    """
    basis = cellcomplex.basis
    if cplx.basis is not basis and (
            cplx.basis is None
            or cplx.basis.elements != basis.elements):
        raise MismatchedBases("cell complex and free complex disagree")
    if not all(isinstance(g.key, Symbol)
               for level in cplx.levels for g in level):
        raise MismatchedBases("free complex has non-symbol generators")
    keys = [[c.key() for c in layer] for layer in cellcomplex.cells]
    if keys != [[g.key for g in level] for level in cplx.levels]:
        raise MismatchedBases("cells and symbols do not biject")

    failures = []
    fail = failures.append
    # vertex u reads the code of generator u of level 0, which stands for
    # basis element u once the multidegrees are the basis
    level0 = cplx.levels[0] if cplx.levels else ()
    if [g.multidegree for g in level0] != list(basis.elements):
        fail("level 0 of the free complex is not the basis")
    vcodes = cplx.classes[0] if level0 else ()
    bit = [1 << u for u in range(len(vcodes))]
    inside = range(len(vcodes))  # the vertex indices
    below_masks = ()
    position = {}
    for i, (layer, level) in enumerate(zip(cellcomplex.cells, cplx.levels)):
        masks = []
        column_of = cplx.diffs[i] if i else {}
        flip = (-1) ** i
        for j, (key, cell, gen, code) in enumerate(zip(
                keys[i], layer, level, cplx.classes[i])):
            label = cell.label
            vertices = cell.vertices
            if gen.multidegree != label:
                fail("label of %r is not the symbol multidegree" % (key,))
            if vertices and (min(vertices) not in inside
                             or max(vertices) not in inside):
                # no lcm or own-vertex test: the mask that its facets and
                # cofaces are tested against holds its basis vertices
                fail("cell %r has vertices outside the basis: %r" % (
                    key, [v for v in vertices if v not in inside]))
                mask = reduce(or_, (bit[v] for v in vertices if v in inside),
                              0)
            else:
                if reduce(or_, map(vcodes.__getitem__, vertices), 0) != code:
                    fail("label of %r is not the lcm of its vertices"
                         % (key,))
                mask = reduce(or_, map(bit.__getitem__, vertices), 0)
                if not mask >> cell.alpha & 1:
                    fail("cell %r does not contain its own vertex" % (key,))
            masks.append(mask)
            rows = {}
            for fkey, sign in cell.boundary:
                row = position.get(fkey)
                if row is None:
                    fail("facet %r of %r is not a cell" % (fkey, key))
                    rows[None] = sign  # no column has a row None
                    continue
                if row in rows:
                    fail("facet %r appears twice in the boundary of %r"
                         % (fkey, key))
                    continue
                rows[row] = sign
                if below_masks[row] & ~mask:
                    fail("facet %r has vertices outside %r" % (fkey, key))
            column = column_of.get(j, {})
            if rows.keys() != column.keys():
                fail("support of %r differs from d-entries" % (key,))
                continue
            for row, sign in rows.items():
                c = column[row]
                if abs(c) != 1:
                    fail("entry coefficient at %r -> %r is not a sign"
                         % (key, keys[i - 1][row]))
                elif c != flip * sign:
                    fail("boundary sign at %r -> %r is not (-1)^%d times "
                         "its d-entry" % (key, keys[i - 1][row], i))
        below_masks = masks
        position = dict(zip(keys[i], range(len(layer))))
    return ComplexReport(not failures, failures)
