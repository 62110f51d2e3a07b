"""Pommaret bases of quasi-stable monomial ideals, the symbol resolution
they support, its cell structure, and reduction to the minimal free
resolution, with exact self-verification throughout."""

from . import errors
from .monomials import Monomial, Ring, p_order_key
from .ideals import (MonomialIdeal, PGraph, PommaretBasis, build_p_graph,
                     minimal_generators, pommaret_basis)
from .resolution import (BettiTable, Face, FreeComplex, Gen, Symbol,
                         betti_table, expected_ranks, ps_complex,
                         ps_generators, render_differential, taylor_complex)
from .cellular import (Cell, CellComplex, build_cell_complex, chain_vertices,
                       supports_check)
from .morse import (Matching, Pair, ReducedComplex, build_matching_V,
                    is_morse_matching, minimize)
from .verify import (ComplexReport, ExactnessReport, InvariantReport,
                     check_complex, check_exactness, exact_rank,
                     homological_invariants, lcm_lattice, minimal_betti,
                     oracle_betti, random_quasi_stable, scalar_betti)

__version__ = "0.1.0"

__all__ = [
    "errors", "Monomial", "Ring", "p_order_key",
    "MonomialIdeal", "PGraph", "PommaretBasis", "build_p_graph",
    "minimal_generators", "pommaret_basis",
    "BettiTable", "Face", "FreeComplex", "Gen", "Symbol", "betti_table",
    "expected_ranks", "ps_complex", "ps_generators", "render_differential",
    "taylor_complex",
    "Cell", "CellComplex", "build_cell_complex", "chain_vertices",
    "supports_check",
    "Matching", "Pair", "ReducedComplex", "build_matching_V",
    "is_morse_matching", "minimize",
    "ComplexReport", "ExactnessReport", "InvariantReport", "check_complex",
    "check_exactness", "exact_rank", "homological_invariants", "lcm_lattice",
    "minimal_betti", "oracle_betti", "random_quasi_stable", "scalar_betti",
]
