"""Exact construction and certification of nut graphs with prescribed
vertex, edge and arc orbit counts.

Everything runs in exact integer arithmetic: nut certificates are integer
kernel vectors with zero residual, the character sums of abelian Cayley
graphs are tested for zeros by cyclotomic divisibility, and automorphism
groups are searched from scratch, with exact orders read off the search's
first path as products of orbit sizes.
"""

__version__ = "0.1.0"

from .automorphisms import (OrbitCensus, Permutation, PermutationGroup,
                            automorphism_group, orbit_census, stabilizer)
from .constructions import (VerifiedNut, cayley_nut, cayley_nut_edge_orbits,
                            construct_with_orbits, fig3_graph, nut_realizable,
                            primes_from, prop1_graph, prop2_graph,
                            prop3_graph, subdivided_nut)
from .errors import (Graph6ParseError, HypothesisError, InputError,
                     NotCoveredByThisPaper, NotRealizable, ResourceCapError,
                     SpecificationError, VerificationError)
from .graphs import (AbelianCayleySpec, CirculantSpec, Graph, cayley_abelian,
                     circulant, read_graph6, subdivide_edges, write_dot,
                     write_graph6)
from .linalg import NutVerdict, is_nut
from .polynomials import (circulant_is_nut_symbolic, cyclotomic,
                          vanishing_subgroups)

__all__ = [
    "AbelianCayleySpec", "CirculantSpec", "Graph",
    "Graph6ParseError", "HypothesisError", "InputError",
    "NotCoveredByThisPaper", "NotRealizable", "NutVerdict", "OrbitCensus",
    "Permutation", "PermutationGroup", "ResourceCapError", "SpecificationError",
    "VerificationError", "VerifiedNut",
    "automorphism_group", "cayley_abelian", "cayley_nut",
    "cayley_nut_edge_orbits", "circulant", "circulant_is_nut_symbolic",
    "construct_with_orbits", "cyclotomic", "fig3_graph", "is_nut",
    "nut_realizable", "orbit_census", "primes_from", "prop1_graph",
    "prop2_graph", "prop3_graph", "read_graph6", "stabilizer",
    "subdivide_edges", "subdivided_nut", "vanishing_subgroups", "write_dot",
    "write_graph6",
]
