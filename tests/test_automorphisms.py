import random
from itertools import combinations

import pytest
from oracles import exhaustive_automorphisms

from nutorbits import (CirculantSpec, Graph, automorphism_group,
                       cartesian_product, circulant, complete_graph,
                       is_vertex_transitive, orbit_census, stabilizer)
from nutorbits.automorphisms import (PermutationGroup, compose, identity,
                                     invert, is_automorphism, orbits_of)


def test_permutation_helpers():
    p = (1, 2, 0)
    assert compose(p, invert(p)) == identity(3)
    assert invert(p) == (2, 0, 1)
    assert compose(p, p) == (2, 0, 1)


def test_generators_preserve_adjacency(circ_10_12, k4):
    for g in (circ_10_12, k4, Graph(3, ((0, 1), (1, 2)))):
        grp = automorphism_group(g)
        assert all(is_automorphism(g, p) for p in grp.generators)


@pytest.mark.parametrize("build,order", [
    (lambda: complete_graph(4), 24),
    (lambda: circulant(CirculantSpec(4, {1})), 8),
    (lambda: Graph(3, ((0, 1), (1, 2))), 2),          # path P3
    (lambda: Graph(1, ()), 1),
    (lambda: Graph(4, ()), 24),                        # edgeless
    (lambda: circulant(CirculantSpec(10, {1, 2})), 20),
])
def test_known_group_orders(build, order):
    assert automorphism_group(build()).order == order


def test_agrees_with_exhaustive_search_on_random_graphs():
    rng = random.Random(0xC0FFEE)
    for trial in range(25):
        n = rng.randint(2, 8)
        p = rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        g = Graph(n, tuple(sorted(edges)))
        grp = automorphism_group(g)
        expected = exhaustive_automorphisms(g)
        # a subgroup of Aut(G) with the order of Aut(G) is Aut(G)
        assert grp.order == len(expected)
        assert all(p in expected for p in grp.generators)
        for x in range(n):
            assert stabilizer(grp, x).order == sum(p[x] == x for p in expected)


def test_dihedral_orders_for_consecutive_circulants():
    # |Aut(Circ(n, {1..k}))| = 2n whenever n >= 2k + 3
    for n, k in [(7, 2), (9, 3), (10, 2), (14, 4), (22, 6), (13, 5)]:
        g = circulant(CirculantSpec(n, set(range(1, k + 1))))
        assert automorphism_group(g).order == 2 * n, (n, k)


def test_census_examples(circ_10_12):
    assert orbit_census(circ_10_12).counts == (1, 2, 2)
    g = circulant(CirculantSpec(14, {1, 2, 3, 4}))
    assert orbit_census(g).counts == (1, 4, 4)
    prod = cartesian_product(circulant(CirculantSpec(10, {1, 5})), complete_graph(4))
    cen = orbit_census(prod)
    assert cen.counts == (1, 3, 3) and cen.aut_order == 480


def test_census_path_has_unpaired_arcs():
    # P3: swapping the endpoints is the only symmetry, so the two arcs of
    # each edge fall in distinct orbits
    cen = orbit_census(Graph(3, ((0, 1), (1, 2))))
    assert cen.counts == (2, 1, 2)
    assert cen.o_e <= cen.o_a <= 2 * cen.o_e


def test_census_partitions_cover_everything(circ_10_12):
    cen = orbit_census(circ_10_12)
    assert sorted(v for o in cen.vertex_orbits for v in o) == list(range(10))
    assert sorted(e for o in cen.edge_orbits for e in o) == list(circ_10_12.edges)
    assert sorted(a for o in cen.arc_orbits for a in o) == circ_10_12.arcs()
    # edge orbits are ordered by lexicographically smallest edge
    reps = [o[0] for o in cen.edge_orbits]
    assert reps == sorted(reps)


def test_orbit_stabilizer_identity(circ_10_12, k4):
    for g in (circ_10_12, k4, Graph(3, ((0, 1), (1, 2)))):
        grp = automorphism_group(g)
        for x in range(g.n):
            st = stabilizer(grp, x)
            orbit = next(o for o in orbits_of(grp.generators, range(g.n),
                                              lambda p, v: p[v]) if x in o)
            assert st.order * len(orbit) == grp.order


def test_stabilizer_examples(circ_10_12, k4):
    dih10 = automorphism_group(circ_10_12)
    assert stabilizer(dih10, 0).order == 2
    sym4 = automorphism_group(k4)
    assert stabilizer(sym4, 2).order == 6
    trivial = PermutationGroup.from_generators(3, [])
    assert stabilizer(trivial, 1).order == 1


def test_is_vertex_transitive(circ_10_12):
    assert is_vertex_transitive(circ_10_12)
    assert is_vertex_transitive(circulant(CirculantSpec(9, {2})))
    assert not is_vertex_transitive(Graph(3, ((0, 1), (1, 2))))
    prod = cartesian_product(circulant(CirculantSpec(10, {1, 5})), complete_graph(4))
    assert is_vertex_transitive(prod)


def test_group_closure_properties(circ_10_12):
    # Aut(Circ(10, {1, 2})) is the dihedral group of the maps x -> +-x + c
    grp = automorphism_group(circ_10_12)
    dihedral = {tuple((sign * x + c) % 10 for x in range(10))
                for sign in (1, -1) for c in range(10)}
    assert grp.order == 20
    assert all(p in dihedral for p in grp.generators)


def _hypercube(d: int) -> Graph:
    g = complete_graph(2)
    for _ in range(d - 1):
        g = cartesian_product(g, complete_graph(2))
    return g


# Petersen as the Kneser graph K(5, 2): 2-subsets of {0..4}, adjacent if disjoint
_PAIRS = list(combinations(range(5), 2))
PETERSEN = Graph.from_edges(10, [(i, j) for i, j in combinations(range(10), 2)
                                 if not set(_PAIRS[i]) & set(_PAIRS[j])])


@pytest.mark.parametrize("name, g, aut_order", [
    ("Q5", _hypercube(5), 3840),
    ("K5xK5", cartesian_product(complete_graph(5), complete_graph(5)), 28800),
    ("Petersen", PETERSEN, 120),
])
def test_census_invariant_under_relabelling(name, g, aut_order):
    rng = random.Random(name)
    for _ in range(5):
        perm = list(range(g.n))
        rng.shuffle(perm)
        cen = orbit_census(Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
        assert (cen.counts, cen.aut_order) == ((1, 1, 1), aut_order)


def test_orders_agree_with_networkx_vf2():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    graphs = [PETERSEN, circulant(CirculantSpec(12, {1})),
              circulant(CirculantSpec(10, {1, 2})), _hypercube(4)]
    rng = random.Random(0xB0B)
    for _ in range(10):
        n = rng.randint(9, 11)
        p = rng.choice([0.3, 0.5, 0.7])
        graphs.append(Graph(n, tuple(e for e in combinations(range(n), 2)
                                     if rng.random() < p)))
    orders = []
    for g in graphs:
        h = nx.Graph(g.edges)
        h.add_nodes_from(range(g.n))
        count = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
        assert automorphism_group(g).order == count
        orders.append(count)
    assert orders[:4] == [120, 24, 20, 384]
