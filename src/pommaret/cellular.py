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
pairs serves every cell of the build.  The walk runs on integer bitmasks:
rest is a mask of variables, and the vertices reached are a mask of basis
indices, which ``Cell.vertices`` holds as a sorted tuple.

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
    memo, templates = {}, {}
    return CellComplex(basis, [
        [_make_cell(basis, memo, templates, alpha, tau)
         for alpha, tau in ps_generators(basis, dim)]
        for dim in range(basis.ring.n - basis.d + 1)])


def _reach(basis, memo, v, rest):
    """The vertices of the walks from v through every order of the
    variables in rest, as a mask with bit u set for basis element u; rest
    has bit k set for x_k.  The variables are taken bit by bit: a
    nonmultiplicative step goes to its rewrite target, a multiplicative
    one stays at v.  memo maps each (vertex, variable mask) pair walked so
    far to its vertex mask, and is read before each step's walk; the cells
    are built by dimension, so a cell's own pair, which only the walks of
    higher cells reach, is never in it yet."""
    delta = basis.delta
    hit = 1 << v
    todo = rest
    while todo:
        low = todo & -todo
        todo ^= low
        w = delta.get((v, low.bit_length() - 1), v)
        left = rest ^ low
        if left:
            sub = memo.get((w, left))
            if sub is None:
                sub = _reach(basis, memo, w, left)
            hit |= sub
        else:
            hit |= 1 << w
    memo[(v, rest)] = hit
    return hit


def _make_cell(basis, memo, templates, alpha, tau):
    mask = _reach(basis, memo, alpha, sum([1 << k for k in tau]))
    verts = []
    while mask:
        low = mask & -mask
        verts.append(low.bit_length() - 1)
        mask ^= low
    return Cell(alpha, tau, symbol_multidegree(basis, alpha, tau),
                tuple(verts), symbol_facets(basis, alpha, tau, templates))


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
