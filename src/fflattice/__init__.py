"""Lattices of compatibly embedded finite fields via standard Kummer theory.

Public surface: polynomial and linear algebra over GF(p) (fppoly, linalg),
extension fields (ExtField), Conway polynomial tables, the cyclotomic lattice
of roots of unity, Kummer algebras with Hilbert-90 solutions, field
decoration and standard embeddings, the StdLattice registry, and the limits
every stage checks before its work.
"""

from . import (fppoly, linalg, extfield, conway, cyclotomic, kummer, standardize, lattice,
               limits)
from .extfield import ExtField, FFElem
from .conway import ConwayTable, ConwayUnavailable, conway_search, load_table, parse_table
from .cyclotomic import CycloLattice
from .kummer import KummerAlg, KummerElem, solve_h90, kummer_constant
from .standardize import (DecoratedField, EmbeddingDesc, decorate, standard_polynomial,
                          kappa_constant, standard_embed, baseline_embed,
                          verify_key_identity)
from .lattice import StdLattice, default_lattice

__version__ = "0.1.0"

__all__ = [
    "fppoly", "linalg", "extfield", "conway", "cyclotomic", "kummer",
    "standardize", "lattice", "limits",
    "ExtField", "FFElem",
    "ConwayTable", "ConwayUnavailable", "conway_search", "load_table", "parse_table",
    "CycloLattice",
    "KummerAlg", "KummerElem", "solve_h90", "kummer_constant",
    "DecoratedField", "EmbeddingDesc", "decorate", "standard_polynomial",
    "kappa_constant", "standard_embed", "baseline_embed", "verify_key_identity",
    "StdLattice", "default_lattice",
]
