import hashlib
import random
from itertools import combinations
from math import factorial

import pytest
from oracles import (cartesian_product, chain_order, coarsest_equitable_partition,
                     complete_graph, compose, exhaustive_automorphisms, invert,
                     is_automorphism, orbit_partition)

from nutorbits import (AbelianCayleySpec, CirculantSpec, Graph, automorphism_group,
                       cayley_abelian, circulant, construct_with_orbits, fig3_graph,
                       orbit_census, prop2_graph, prop3_graph, stabilizer, write_graph6)
from nutorbits import automorphisms
from nutorbits.automorphisms import _cell_starts, _Partition, _refine, identity
from nutorbits.cli import main


def test_permutation_helpers():
    p = (1, 2, 0)
    assert compose(p, invert(p)) == identity(3)
    assert invert(p) == (2, 0, 1)
    assert compose(p, p) == (2, 0, 1)


# Regular graphs whose one equitable cell holds several orbits, so the search
# explores siblings that yield no automorphism: the Frucht graph (cubic,
# |Aut| = 1; LCF [-5,-2,-4,2,5,-2,2,5,-2,-5,4,2]) and C6 + 2 C3.
_FRUCHT_LCF = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)
FRUCHT = Graph(12, [(i, (i + 1) % 12) for i in range(12)]
               + [(i, (i + d) % 12) for i, d in enumerate(_FRUCHT_LCF)])
C6_2C3 = Graph(12, [(i, (i + 1) % 6) for i in range(6)]
               + [(6, 7), (7, 8), (6, 8), (9, 10), (10, 11), (9, 11)])


# Two strongly regular graphs with parameters (16, 6, 2, 2): refinement splits
# nothing, so the search meets candidate maps that are not automorphisms and
# must reject them (4 on the Shrikhande graph, 1 on K4 x K4).
SHRIKHANDE = cayley_abelian(AbelianCayleySpec(
    (4, 4), [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]))
K4_BOX_K4 = cartesian_product(complete_graph(4), complete_graph(4))


def test_generators_preserve_adjacency(circ_10_12, k4):
    for g in (circ_10_12, k4, Graph(3, ((0, 1), (1, 2))), FRUCHT, C6_2C3,
              SHRIKHANDE, K4_BOX_K4):
        grp = automorphism_group(g)
        assert all(is_automorphism(g, p) for p in grp.generators)


@pytest.mark.parametrize("build,order", [
    (lambda: complete_graph(4), 24),
    (lambda: circulant(CirculantSpec(4, {1})), 8),
    (lambda: Graph(3, ((0, 1), (1, 2))), 2),          # path P3
    (lambda: Graph(1, ()), 1),
    (lambda: Graph(4, ()), 24),                        # edgeless
    (lambda: circulant(CirculantSpec(10, {1, 2})), 20),
    (lambda: C6_2C3, 12 * 72),                        # D6 x (S3 wr S2)
    (lambda: SHRIKHANDE, 192),
    (lambda: K4_BOX_K4, 1152),                        # S4 wr S2
])
def test_known_group_orders(build, order):
    assert automorphism_group(build()).order == order


def _brute_force_graphs() -> list[Graph]:
    """The 25 seeded random graphs of acceptance criterion 11 (n <= 8)."""
    rng = random.Random(0xC0FFEE)
    graphs = []
    for _ in range(25):
        n = rng.randint(2, 8)
        p = rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        graphs.append(Graph(n, tuple(sorted(edges))))
    return graphs


def test_agrees_with_exhaustive_search_on_random_graphs():
    for g in _brute_force_graphs():
        n = g.n
        grp = automorphism_group(g)
        expected = exhaustive_automorphisms(g)
        # a subgroup of Aut(G) with the order of Aut(G) is Aut(G)
        assert grp.order == len(expected)
        assert all(p in expected for p in grp.generators)
        for x in range(n):
            assert stabilizer(g, x).order == sum(p[x] == x for p in expected)


def test_search_from_a_colouring_agrees_with_exhaustive_search():
    # each graph from [{x}, rest] and from random ordered colourings of 1 to 4
    # cells, some of them empty, each cell listed in shuffled order: the
    # search finds exactly the automorphisms that map every cell onto itself
    rng = random.Random(0xC010)
    for trial, g in enumerate(_brute_force_graphs()):
        n = g.n
        everything = exhaustive_automorphisms(g)
        x = rng.randrange(n)
        colourings = [[[x], [v for v in range(n) if v != x]]]
        for k in range(1, 5):
            colour = [rng.randrange(k) for _ in range(n)]
            cells = [[v for v in range(n) if colour[v] == c] for c in range(k)]
            for cell in cells:
                rng.shuffle(cell)
            colourings.append(cells)
        for cells in colourings:
            colour = {v: c for c, cell in enumerate(cells) for v in cell}
            expected = {p for p in everything
                        if all(colour[p[v]] == colour[v] for v in range(n))}
            gens, order = automorphisms._search(g, cells)
            assert order == len(expected), (trial, cells)
            assert all(p in expected for p in gens), (trial, cells)


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
            st = stabilizer(g, x)
            orbit = next(o for o in orbit_partition(grp.generators, range(g.n),
                                                    lambda p, v: p[v]) if x in o)
            assert st.order * len(orbit) == grp.order


def test_stabilizer_examples(circ_10_12, k4):
    assert stabilizer(circ_10_12, 0).order == 2
    assert stabilizer(k4, 2).order == 6
    # the smallest asymmetric graphs have six vertices; this is one of them
    trivial = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (3, 5)])
    assert stabilizer(trivial, 1).order == 1


def test_stabilizer_refuses_a_point_outside_the_graph():
    # K_{1,3}: the centre 0 is fixed by all 6 automorphisms, a leaf by 2.
    # A negative index must not wrap round to the last leaf, and a float or
    # a bool is not a vertex.
    star = _complete_bipartite(1, 3)
    assert stabilizer(star, 0).order == 6
    assert stabilizer(star, star.n - 1).order == 2
    for x in (-1, star.n, 1.0, True):
        with pytest.raises(ValueError, match="not a vertex"):
            stabilizer(star, x)
    with pytest.raises(ValueError, match="not a vertex"):
        stabilizer(Graph(0, ()), 0)


def test_is_vertex_transitive(circ_10_12):
    # a graph is vertex-transitive when its census has one vertex orbit
    def transitive(g):
        return orbit_census(g).o_v == 1

    assert transitive(circ_10_12)
    assert transitive(circulant(CirculantSpec(9, {2})))
    assert not transitive(Graph(3, ((0, 1), (1, 2))))
    prod = cartesian_product(circulant(CirculantSpec(10, {1, 5})), complete_graph(4))
    assert transitive(prod)
    # vertices with no arcs
    assert transitive(Graph(5, ()))
    assert not transitive(Graph(3, ((1, 2),)))                         # K1 + K2
    assert not transitive(Graph(4, ((0, 1), (0, 2), (0, 3))))  # K_{1,3}


def _complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _random_graphs() -> list[Graph]:
    rng = random.Random(0x0B17)
    graphs = []
    for _ in range(40):
        n = rng.randint(1, 14)
        p = rng.choice([0.1, 0.2, 0.35, 0.5, 0.8])
        graphs.append(Graph(n, tuple(e for e in combinations(range(n), 2)
                                     if rng.random() < p)))
    for _ in range(15):   # two random parts side by side, some vertices isolated
        a, b = rng.randint(1, 7), rng.randint(1, 7)
        edges = [e for e in combinations(range(a), 2) if rng.random() < 0.5]
        edges += [(a + u, a + v) for u, v in combinations(range(b - 1), 2)
                  if rng.random() < 0.5]
        graphs.append(Graph(a + b, edges))
    return graphs


ORBIT_FAMILIES = {
    "random": _random_graphs,
    "circulants": lambda: [circulant(CirculantSpec(n, s)) for n in range(2, 30)
                           for k in (1, 2)
                           for s in combinations(range(1, n // 2 + 1), k)],
    "edgeless-stars-matchings": lambda: (
        [Graph(n, ()) for n in range(1, 9)]
        + [Graph(s + 1, tuple((0, i) for i in range(1, s + 1))) for s in range(1, 9)]
        + [Graph(2 * m, tuple((2 * i, 2 * i + 1) for i in range(m))) for m in range(1, 9)]),
    "complete": lambda: [complete_graph(n) for n in range(1, 41, 3)]
                        + [_complete_bipartite(a, b) for a in range(1, 21, 3)
                           for b in range(a, 41 - a, 4)],
}


def _point(p, v):
    return p[v]


def _edge(p, e):
    a, b = p[e[0]], p[e[1]]
    return (a, b) if a < b else (b, a)


def _arc(p, e):
    return (p[e[0]], p[e[1]])


@pytest.mark.parametrize("family", ORBIT_FAMILIES)
def test_census_orbits_agree_with_closure_oracle(family, monkeypatch):
    # the oracle closes the orbits under the generators the census's own
    # search returned
    searched = []

    def recording(g, seeds=()):
        searched.append(automorphism_group(g, seeds))
        return searched[-1]

    monkeypatch.setattr(automorphisms, "automorphism_group", recording)
    rng = random.Random(family)
    for built in ORBIT_FAMILIES[family]():
        for g in (built, _relabelled(built, rng)):
            cen = orbit_census(g)
            gens = searched.pop().generators
            assert list(cen.vertex_orbits) == orbit_partition(gens, range(g.n), _point), g
            assert list(cen.edge_orbits) == orbit_partition(gens, g.edges, _edge), g
            assert list(cen.arc_orbits) == orbit_partition(gens, g.arcs(), _arc), g


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


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


# Petersen as the Kneser graph K(5, 2): 2-subsets of {0..4}, adjacent if disjoint
_PAIRS = list(combinations(range(5), 2))
PETERSEN = Graph(10, [(i, j) for i, j in combinations(range(10), 2)
                      if not set(_PAIRS[i]) & set(_PAIRS[j])])


@pytest.mark.parametrize("name, g, aut_order", [
    ("Q5", _hypercube(5), 3840),
    ("K5xK5", cartesian_product(complete_graph(5), complete_graph(5)), 28800),
    ("Petersen", PETERSEN, 120),
    ("Shrikhande", SHRIKHANDE, 192),
    ("K4xK4", K4_BOX_K4, 1152),
])
def test_census_invariant_under_relabelling(name, g, aut_order):
    rng = random.Random(name)
    for _ in range(5):
        cen = orbit_census(_relabelled(g, rng))
        assert (cen.counts, cen.aut_order) == ((1, 1, 1), aut_order)


K66 = Graph(12, [(i, 6 + j) for i in range(6) for j in range(6)])


@pytest.mark.parametrize("name, g, aut_order", [
    ("Q6", _hypercube(6), 2 ** 6 * factorial(6)),
    ("K5xK5", cartesian_product(complete_graph(5), complete_graph(5)), 2 * factorial(5) ** 2),
    ("K6,6", K66, 2 * factorial(6) ** 2),
    ("K10", complete_graph(10), factorial(10)),
    ("Petersen", PETERSEN, 120),
    # Circ(10, {1, 5}) box K4 has |Aut| = 96 * 5; subdividing keeps it
    ("dispatch(5, 7)", construct_with_orbits(5, 7).graph, 96 * 5),
])
def test_search_order_agrees_with_stabilizer_chain(name, g, aut_order):
    rng = random.Random(name)
    for _ in range(2):
        h = _relabelled(g, rng)
        grp = automorphism_group(h)
        assert grp.order == chain_order(h.n, grp.generators) == aut_order
        assert len(grp.generators) <= h.n - 1


def test_census_of_complete_graph_k25():
    cen = orbit_census(complete_graph(25))
    assert (cen.counts, cen.aut_order) == ((1, 1, 1), factorial(25))


def test_census_of_long_circulant():
    cen = orbit_census(circulant(CirculantSpec(4078, {1, 2})))
    assert (cen.counts, cen.aut_order) == ((1, 2, 2), 8156)


def test_search_accepts_automorphisms_above_the_leaves(monkeypatch):
    # On the perfect matching every sibling maps onto the first path's node
    # at its own depth, so the search refines about 1.5 n times.  A search
    # that only recognized automorphisms at discrete leaves would descend
    # below every sibling, about n^2 / 4 refinements (10002 at n = 200).
    calls = []

    def counting(*args):
        calls.append(None)
        return _refine(*args)

    monkeypatch.setattr(automorphisms, "_refine", counting)
    n = 200
    cen = orbit_census(Graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)]))
    assert (cen.counts, cen.aut_order) == ((1, 1, 1), 2 ** (n // 2) * factorial(n // 2))
    assert len(calls) <= 2 * n


def test_first_path_cells_are_sorted_only_when_explored(capsys, monkeypatch):
    # every level of the seeded subdivision is tight, so nothing is
    # explored; Petersen's search explores
    calls = []
    sorted_cells = automorphisms._sorted_cells

    def counting(*args):
        calls.append(None)
        return sorted_cells(*args)

    monkeypatch.setattr(automorphisms, "_sorted_cells", counting)
    construct_with_orbits(9, 10)
    assert calls == []
    assert main(["check", write_graph6(PETERSEN)]) == 0
    capsys.readouterr()
    assert calls


def test_orders_agree_with_networkx_vf2():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    graphs = [PETERSEN, circulant(CirculantSpec(12, {1})),
              circulant(CirculantSpec(10, {1, 2})), _hypercube(4), FRUCHT,
              SHRIKHANDE, K4_BOX_K4]
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
    assert orders[:7] == [120, 24, 20, 384, 1, 192, 1152]


def _refined(g: Graph) -> _Partition:
    part = _Partition(g.n)
    _refine(g.neighbors, part, [0])
    return part


def _cells(part: _Partition) -> list[tuple[int, ...]]:
    """The cells in position order, each listed as it lies."""
    return [tuple(part.lab[s:part.ends[s]]) for s in _cell_starts(part)]


def _refinement_cases() -> list[Graph]:
    rng = random.Random(0xE0)
    # the subdivided graphs are long degree-2 paths: after the root, almost
    # every splitter is a singleton (170 vertices at (9, 10)); C_40's pair
    # splitters have disjoint neighbourhoods, so every count is 1, and K_{4,6}
    # splits its root cell by the mixed counts 4 and 6
    graphs = [PETERSEN, _hypercube(4), construct_with_orbits(5, 6).graph,
              construct_with_orbits(9, 10).graph, circulant(CirculantSpec(40, {1})),
              _complete_bipartite(4, 6)]
    for _ in range(8):
        n = rng.randint(9, 14)
        p = rng.choice([0.2, 0.4, 0.6])
        graphs.append(Graph(n, tuple(e for e in combinations(range(n), 2)
                                     if rng.random() < p)))
    return graphs


def test_refinement_is_the_coarsest_equitable_partition():
    for g in _refinement_cases():
        cells = _cells(_refined(g))
        where = {v: i for i, cell in enumerate(cells) for v in cell}
        for cell in cells:
            profiles = {tuple(sum(1 for u in g.neighbors[v] if where[u] == j)
                              for j in range(len(cells))) for v in cell}
            assert len(profiles) == 1
        assert set(map(frozenset, cells)) == coarsest_equitable_partition(g)


def test_refinement_after_individualizing_needs_only_the_singleton():
    rng = random.Random(0xE1)
    for g in _refinement_cases():
        part = _refined(g)
        cells = _cells(part)
        while len(cells) < g.n:
            cell = rng.choice([c for c in cells if len(c) > 1])
            v = rng.choice(cell)
            split = [c for c in cells if c != cell] + [(v,), tuple(u for u in cell if u != v)]
            _refine(g.neighbors, part, [part.individualize(v)])
            cells = _cells(part)
            assert set(map(frozenset, cells)) == coarsest_equitable_partition(g, split)


def test_search_root_is_the_coarsest_equitable_partition_finer_than_its_colouring(
        monkeypatch):
    # every cell of the colouring is a splitter at the root, so none is left
    # unrefined, and the refined cells keep the colouring's order
    roots = []

    def recording(adj, part, splitters):
        _refine(adj, part, splitters)
        roots.append(_cells(part))

    monkeypatch.setattr(automorphisms, "_refine", recording)
    rng = random.Random(0xE3)
    for g in _refinement_cases():
        for k in range(1, 5):
            colour = [rng.randrange(k) for _ in range(g.n)]
            colouring = [[v for v in range(g.n) if colour[v] == c] for c in range(k)]
            roots.clear()
            automorphisms._search(g, colouring)
            cells = roots[0]
            assert set(map(frozenset, cells)) == coarsest_equitable_partition(g, colouring)
            colours = [colour[cell[0]] for cell in cells]
            assert colours == sorted(colours)


def test_refinement_commutes_with_relabelling():
    rng = random.Random(0xE2)
    for g in _refinement_cases():
        cells = _cells(_refined(g))
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            moved = _cells(_refined(h))
            assert [len(c) for c in moved] == [len(c) for c in cells]
            assert [set(c) for c in moved] == [{perm[v] for v in c} for c in cells]


def test_individualizing_commutes_with_relabelling():
    # The search compares a sibling's node with the first path's by cell
    # positions, so individualizing v in g and perm[v] in its relabelling
    # must give corresponding cells at every position, at every depth.
    rng = random.Random(0xE3)
    for g in _refinement_cases():
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            part, moved = _refined(g), _refined(h)
            while len(cells := _cells(part)) < g.n:
                v = rng.choice(rng.choice([c for c in cells if len(c) > 1]))
                _refine(g.neighbors, part, [part.individualize(v)])
                _refine(h.neighbors, moved, [moved.individualize(perm[v])])
                assert [set(c) for c in _cells(moved)] == \
                    [{perm[x] for x in c} for c in _cells(part)]


def test_refined_cell_positions_are_pinned(monkeypatch):
    # The search compares nodes by their cell starts, so a change to the
    # refinement must leave every start where it was, not only every cell
    # set.  The digest pins the positions of the one split rule: a touched
    # cell takes one two-piece split per count, highest count first, each
    # queued by Hopcroft's two-piece choice.  It covers the starts after
    # each refinement of these unseeded searches, in call order (a census
    # of a Cayley build would seed its search and refine less).
    rng = random.Random(0xE4)
    graphs = [construct_with_orbits(31, 32).graph, construct_with_orbits(9, 10).graph,
              prop2_graph(9, 19).graph, prop3_graph(13).graph, fig3_graph().graph,
              circulant(CirculantSpec(40, {1})), _complete_bipartite(4, 6)]
    for _ in range(30):
        n = rng.randint(8, 40)
        p = rng.choice([0.1, 0.2, 0.35, 0.5])
        graphs.append(Graph(n, tuple(e for e in combinations(range(n), 2)
                                     if rng.random() < p)))
    digest = hashlib.sha256()

    def recording(adj, part, splitters):
        _refine(adj, part, splitters)
        digest.update(repr(_cell_starts(part)).encode())

    monkeypatch.setattr(automorphisms, "_refine", recording)
    for g in graphs:
        automorphism_group(g)
    assert digest.hexdigest() == \
        "4171725e8913cf59fed21d3b382290cd71cb294f21bfceb66cb765b37920925c"


def test_automorphism_group_refuses_the_empty_graph():
    with pytest.raises(ValueError) as err:
        automorphism_group(Graph(0, ()))
    assert str(err.value) == "automorphism group needs at least one vertex"
