"""Exact construction and certification of nut graphs with prescribed
vertex, edge and arc orbit counts.

Everything runs in exact integer arithmetic: nut certificates are integer
kernel vectors with zero residual, symbolic circulant criteria use
cyclotomic divisibility, spectra are compared through power traces, and
automorphism groups are searched from scratch, with exact orders read off
the search's first path as products of orbit sizes.
"""

__version__ = "0.1.0"

from .automorphisms import (OrbitCensus, Permutation, PermutationGroup,
                            automorphism_group, is_vertex_transitive,
                            orbit_census, stabilizer)
from .constructions import (ConstructionParams, VerifiedNut, cayley_nut,
                            cayley_nut_edge_orbits, buset_connected,
                            buset_general, construct_with_orbits, fig3_graph,
                            nut_realizable, primes_from, prop1_graph,
                            prop2_graph, prop3_graph, subdivided_nut)
from .errors import (Graph6ParseError, HypothesisError, InputError,
                     NotCoveredByThisPaper, NotRealizable, ResourceCapError,
                     SpecificationError, VerificationError)
from .graphs import (AbelianCayleySpec, CirculantSpec, Graph,
                     cartesian_product, cayley_abelian, circulant,
                     complete_graph, read_graph6, subdivide_edges, write_dot,
                     write_graph6)
from .linalg import (NutVerdict, char_poly, is_nut, kernel_basis,
                     kernel_vector_from_factors, product_spectrum_check)
from .polynomials import (circulant_is_nut_symbolic, circulant_symbol,
                          cyclotomic, gcd_criterion, vanishing_orders)

__all__ = [
    "AbelianCayleySpec", "CirculantSpec", "ConstructionParams", "Graph",
    "Graph6ParseError", "HypothesisError", "InputError",
    "NotCoveredByThisPaper", "NotRealizable", "NutVerdict", "OrbitCensus",
    "Permutation", "PermutationGroup", "ResourceCapError", "SpecificationError",
    "VerificationError", "VerifiedNut",
    "automorphism_group", "buset_connected", "buset_general",
    "cartesian_product", "cayley_abelian", "cayley_nut",
    "cayley_nut_edge_orbits", "char_poly", "circulant",
    "circulant_is_nut_symbolic", "circulant_symbol", "complete_graph",
    "construct_with_orbits", "cyclotomic", "fig3_graph",
    "gcd_criterion", "is_nut", "is_vertex_transitive",
    "kernel_basis", "kernel_vector_from_factors", "nut_realizable",
    "orbit_census", "primes_from", "product_spectrum_check", "prop1_graph",
    "prop2_graph", "prop3_graph", "read_graph6",
    "stabilizer", "subdivide_edges", "subdivided_nut", "vanishing_orders",
    "write_dot", "write_graph6",
]
