import ast
import pathlib
import re
from itertools import combinations, islice, product

import pytest
from oracles import adjacency_matrix, bicirculant_edges, complete_graph, orbit_partition

from nutorbits import (AbelianCayleySpec, CirculantSpec, Graph, HypothesisError,
                       NotCoveredByThisPaper, NotRealizable, ResourceCapError,
                       VerificationError, automorphisms, cayley_abelian,
                       cayley_nut, cayley_nut_edge_orbits, circulant,
                       constructions, construct_with_orbits, fig3_graph,
                       is_nut, nut_realizable, orbit_census, primes_from,
                       prop1_graph, prop2_graph, prop3_graph, subdivide_edges,
                       subdivided_nut)
from nutorbits.automorphisms import identity, orbits_of
from nutorbits.constructions import (FAMILIES, VerifiedNut, build, is_prime,
                                     subdivided_cayley)
from nutorbits.graphs import cayley_automorphisms


def test_primes_from():
    assert list(islice(primes_from(4), 3)) == [5, 7, 11]
    assert next(primes_from(11)) == 11
    assert next(primes_from(-5)) == 2
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_prop1_instances():
    built = prop1_graph(2, 5)
    assert built.graph.n == 10
    assert built.verdict.is_nut
    assert built.census.counts == (1, 2, 2)
    assert built.census.aut_order == 20
    assert built.provenance["variant"] == "prop1"

    built = prop1_graph(4, 7)
    assert built.graph.n == 14 and built.census.counts == (1, 4, 4)


@pytest.mark.parametrize("k,p", [(2, 4), (3, 7), (1, 5), (2, 3)])
def test_prop1_hypothesis_errors(k, p):
    with pytest.raises(HypothesisError):
        prop1_graph(k, p)


def test_prop2_instance():
    built = prop2_graph(5, 11)
    assert built.graph.n == 44
    assert built.census.counts == (1, 5, 5)
    assert built.census.aut_order == 88
    assert set(built.graph.degree_sequence()) == {8}


@pytest.mark.parametrize("k,p", [(5, 7), (4, 11), (3, 7), (5, 12)])
def test_prop2_hypothesis_errors(k, p):
    with pytest.raises(HypothesisError):
        prop2_graph(k, p)


def test_prop3_instance():
    built = prop3_graph(5)
    assert built.graph.n == 40
    assert built.census.counts == (1, 3, 3)
    assert built.census.aut_order == 480
    assert set(built.graph.degree_sequence()) == {6}


@pytest.mark.parametrize("n", [4, 3, -1, 6])
def test_prop3_hypothesis_errors(n):
    with pytest.raises(HypothesisError):
        prop3_graph(n)


def test_fig3():
    built = fig3_graph()
    assert built.graph.n == 12
    assert set(built.graph.degree_sequence()) == {8}
    assert built.census.counts == (1, 5, 5)
    assert built.census.aut_order == 24
    assert built.verdict.is_nut


def test_cayley_nut_dispatch():
    assert cayley_nut(2).provenance["variant"] == "prop1"
    assert cayley_nut(2).graph.n == 10
    assert cayley_nut(3).provenance["variant"] == "prop3"
    assert cayley_nut(5).provenance["variant"] == "prop2"
    assert cayley_nut(4).census.counts == (1, 4, 4)
    # explicit primes exhibit other members of the family
    assert cayley_nut(2, p=7).graph.n == 14
    with pytest.raises(NotRealizable):
        cayley_nut(1)
    with pytest.raises(NotRealizable):
        cayley_nut(0)


def test_defaults_are_the_smallest_admissible_choices():
    assert prop1_graph(4).provenance["p"] == 7
    assert prop2_graph(5).provenance["p"] == 11
    sweep = FAMILIES["subdiv"].sweep
    built = build("subdiv", **sweep.fixed, **sweep.cases(1, 2)[0])
    assert built.provenance["base"] == {"variant": "prop1", "k": 2, "p": 5}
    assert built.provenance["orbit_index"] == 0
    assert built.graph == subdivided_nut(prop1_graph(2, 5), 0, 1).graph


def test_subdivided_nut_counts():
    base = prop1_graph(2, 5)
    one = subdivided_nut(base, 0, 1)
    assert one.graph.n == 50 and one.census.counts == (3, 4, 6)
    assert one.census.aut_order == base.census.aut_order
    two = subdivided_nut(base, 0, 2)
    assert two.graph.n == 90 and two.census.counts == (5, 6, 10)
    # the second orbit works just as well (the construction is orbit-agnostic)
    other = subdivided_nut(base, 1, 1)
    assert other.census.counts == (3, 4, 6)


def test_subdivided_nut_hypothesis_errors():
    base = prop1_graph(2, 5)
    with pytest.raises(HypothesisError):
        subdivided_nut(base, 0, 0)
    with pytest.raises(HypothesisError):
        subdivided_nut(base, 5, 1)
    # the output of one subdivision has vertices of degree 2, so a second
    # application is refused
    once = subdivided_nut(base, 0, 1)
    assert once.census.o_v >= 3
    with pytest.raises(VerificationError, match="has a vertex of degree 2"):
        subdivided_nut(once, 0, 1)


@pytest.mark.parametrize("orbit, t", [(True, 1), (1.0, 1), (0, True), (0, 1.0)])
def test_subdivision_refuses_a_t_or_orbit_index_that_is_not_an_int(orbit, t):
    base = prop1_graph(2, 5)
    for subdivide in (lambda: subdivided_nut(base, orbit, t),
                      lambda: subdivided_cayley(k=2, t=t, orbit=orbit)):
        with pytest.raises(HypothesisError) as err:
            subdivide()
        assert str(err.value) == (f"t must be a positive integer, got {t}" if orbit == 0 else
                                  f"orbit index {orbit} out of range for 2 edge orbits")


def test_construct_with_orbits_dispatch():
    assert construct_with_orbits(1, 4).graph == prop1_graph(4, 7).graph
    built = construct_with_orbits(3, 5)
    assert built.census.counts == (3, 5, 7)
    assert built.provenance["variant"] == "subdivided"
    assert built.provenance["base"]["variant"] == "prop3"


def test_large_subdivision_is_certified():
    # Circ(10, {1, 2}) with each edge of a 10-edge orbit subdivided 4t = 120
    # times: n = 10 + 10 * 120 = 1210, mostly long induced paths
    built = construct_with_orbits(61, 62)
    assert built.graph.n == 1210
    assert built.verdict.is_nut
    assert built.census.counts == (61, 62, 122)
    assert built.census.aut_order == cayley_nut(2).census.aut_order == 20


def test_construct_with_orbits_rejections():
    with pytest.raises(NotRealizable):
        construct_with_orbits(3, 3)
    with pytest.raises(NotRealizable):
        construct_with_orbits(1, 1)
    with pytest.raises(NotCoveredByThisPaper):
        construct_with_orbits(2, 5)
    with pytest.raises(NotCoveredByThisPaper):
        construct_with_orbits(4, 9)
    with pytest.raises(HypothesisError):
        construct_with_orbits(0, 4)


def test_realizability_predicates():
    assert nut_realizable(3, 4)
    assert not nut_realizable(1, 1)
    assert not nut_realizable(3, 3)
    assert cayley_nut_edge_orbits(2) and not cayley_nut_edge_orbits(1)
    with pytest.raises(ValueError):
        nut_realizable(0, 3)


_NOT_INTS = [
    (cayley_nut, (3.0,), HypothesisError, "k must be an int, got 3.0"),
    (cayley_nut, (2.0,), HypothesisError, "k must be an int, got 2.0"),
    (construct_with_orbits, (True, 2), HypothesisError, "r must be an int, got True"),
    (construct_with_orbits, (1, 4.0), HypothesisError, "k must be an int, got 4.0"),
    (construct_with_orbits, (3.0, 5), HypothesisError, "r must be an int, got 3.0"),
    (prop1_graph, (4.0,), HypothesisError, "k must be an int, got 4.0"),
    (prop1_graph, (4, 7.0), HypothesisError, "p must be an int, got 7.0"),
    (prop2_graph, (5.0,), HypothesisError, "k must be an int, got 5.0"),
    (prop2_graph, (5, 11.0), HypothesisError, "p must be an int, got 11.0"),
    (prop3_graph, (5.0,), HypothesisError, "n must be an int, got 5.0"),
    (subdivided_cayley, (2.0, 1), HypothesisError, "k must be an int, got 2.0"),
    (subdivided_cayley, (2, "1"), HypothesisError, "t must be a positive integer, got '1'"),
    (primes_from, (2.5,), ValueError, "lower_bound must be an int, got 2.5"),
    (nut_realizable, (1.5, 3), ValueError, "r must be an int, got 1.5"),
    (cayley_nut_edge_orbits, (2.5,), ValueError, "k must be an int, got 2.5"),
]


@pytest.mark.parametrize("call, args, error, message", _NOT_INTS,
                         ids=[f"{call.__name__}{args!r}" for call, args, _, _ in _NOT_INTS])
def test_a_parameter_that_is_not_an_int_is_refused_before_any_arithmetic(
        call, args, error, message):
    with pytest.raises(ValueError) as err:
        call(*args)
    assert type(err.value) is error and str(err.value) == message


def test_every_verified_nut_satisfies_orbit_gap():
    # o_e >= o_v + 1 on a spread of builder outputs
    for built in (prop1_graph(2, 5), prop1_graph(4, 7), fig3_graph(),
                  cayley_nut(3), subdivided_nut(prop1_graph(2, 5), 0, 1)):
        assert built.census.o_e >= built.census.o_v + 1


def test_cayley_nut_census_for_small_k():
    for k in range(2, 10):
        built = cayley_nut(k)
        assert built.census.counts == (1, k, k), k


def test_certified_nuts_have_min_degree_three_on_base_vertices():
    # regular nut families are at least cubic, and subdivision only adds
    # degree-2 path vertices while keeping base degrees intact
    for built in (prop1_graph(2, 5), prop2_graph(5, 11), prop3_graph(5),
                  fig3_graph()):
        assert min(built.graph.degree_sequence()) >= 3
    base = prop1_graph(2, 5)
    sub = subdivided_nut(base, 0, 1)
    degrees = [len(s) for s in sub.graph.neighbors]
    assert all(d >= 3 for d in degrees[:base.graph.n])
    assert all(d == 2 for d in degrees[base.graph.n:])


def test_prop2_spectral_endpoints_from_symbol():
    # the two eigenvalue branches of the box-K2 family evaluate, at the
    # rational roots of unity +-1, to 2k-2, 2k-4, 2 and 0; the symbol's
    # coefficients are the circulant's adjacency row of vertex 0
    for k in (5, 7, 9):
        p = next(primes_from(2 * k + 1))
        spec = CirculantSpec(2 * p, set(range(2, k)) | {p})
        symbol = adjacency_matrix(circulant(spec))[0]
        at_one = sum(symbol)
        at_minus_one = sum(c if i % 2 == 0 else -c for i, c in enumerate(symbol))
        # K2 eigenvalue +1 branch, then -1 branch
        assert at_one + 1 == 2 * k - 2
        assert at_one - 1 == 2 * k - 4
        assert at_minus_one + 1 == 2
        assert at_minus_one - 1 == 0


@pytest.mark.parametrize("make", [lambda: prop1_graph(2, 5), lambda: prop2_graph(5, 11),
                                  lambda: prop3_graph(5), fig3_graph],
                         ids=["prop1", "prop2", "prop3", "fig3"])
@pytest.mark.parametrize("orders", [(), (1,), (2, 2)])
def test_certify_refuses_a_disagreeing_character_test(monkeypatch, make, orders):
    # (1,) agrees with the certificate on the nullity, not on the verdict;
    # the others disagree on the nullity
    monkeypatch.setattr(constructions, "vanishing_subgroups", lambda spec: orders)
    with pytest.raises(VerificationError, match="character test"):
        make()


def test_certify_refuses_a_failed_nut_check(monkeypatch):
    # no spec, so no character test runs before the nut check
    built = prop1_graph(2, 5)
    monkeypatch.setattr(constructions, "is_nut",
                        lambda g: built.verdict._replace(nullity=2, is_nut=False))
    with pytest.raises(VerificationError, match="failed the nut check: nullity=2"):
        constructions._certify(built.graph, built.provenance, (1, 2, 2), 20)


@pytest.mark.parametrize("wrong, message", [
    (lambda c: c._replace(edge_orbits=(c.edge_orbits[0] + c.edge_orbits[1],)),
     r"produced orbit counts \(1, 1, 2\), expected \(1, 2, 2\)"),
    (lambda c: c._replace(aut_order=2 * c.aut_order),
     r"has \|Aut\| = 40, expected 20"),
], ids=["counts", "aut_order"])
def test_certify_refuses_a_wrong_census(monkeypatch, wrong, message):
    census = constructions.orbit_census
    monkeypatch.setattr(constructions, "orbit_census", lambda g, seeds=(): wrong(census(g, seeds)))
    with pytest.raises(VerificationError, match=message):
        prop1_graph(2, 5)


def test_certify_refuses_counts_with_o_e_below_o_v_plus_one(monkeypatch):
    # a census that matches the expected counts (2, 2, 2), which no nut
    # graph has
    built = prop1_graph(2, 5)
    split = built.census._replace(vertex_orbits=((0, 1, 2, 3, 4), (5, 6, 7, 8, 9)))
    monkeypatch.setattr(constructions, "orbit_census", lambda g, seeds=(): split)
    with pytest.raises(VerificationError, match=r"violates o_e >= o_v \+ 1: \(2, 2, 2\)"):
        constructions._certify(built.graph, built.provenance, (2, 2, 2), 20)


# ---------------------------------------------------------------------------
# Censuses seeded with the automorphisms a construction guarantees
# ---------------------------------------------------------------------------

# every construct form of the byte-identity corpus in tests/test_cli.py
CORPUS_FORMS = [
    ("dispatch", {"r": 3, "k": 5}), ("subdiv", {"k": 2, "t": 1}),
    ("prop1", {"k": 2}), ("prop2", {"k": 5}), ("prop3", {"n": 5}), ("fig3", {}),
    ("dispatch", {"r": 1, "k": 12}), ("dispatch", {"r": 3, "k": 8}),
    ("dispatch", {"r": 9, "k": 10}), ("dispatch", {"r": 21, "k": 22}),
    ("dispatch", {"r": 31, "k": 32}), ("prop2", {"k": 9, "p": 19}),
    ("prop3", {"n": 13}),
]


def _assert_seeds_change_nothing(g, seeded):
    # the graph rebuilt from its edges holds no Cayley or chain record, so
    # its census runs the unseeded search and the whole-graph union-find
    unseeded = orbit_census(Graph(g.n, g.edges))
    assert seeded.vertex_orbits == unseeded.vertex_orbits
    assert seeded.edge_orbits == unseeded.edge_orbits
    assert seeded.arc_orbits == unseeded.arc_orbits
    assert seeded.aut_order == unseeded.aut_order
    # the orbits are those of the group the census's generators generate
    gens = seeded.generators
    assert list(seeded.vertex_orbits) == orbit_partition(gens, range(g.n), lambda p, v: p[v])
    assert list(seeded.edge_orbits) == orbit_partition(
        gens, g.edges, lambda p, e: tuple(sorted((p[e[0]], p[e[1]]))))
    assert list(seeded.arc_orbits) == orbit_partition(
        gens, g.arcs(), lambda p, a: (p[a[0]], p[a[1]]))


def _searched(monkeypatch):
    """The order of every graph the automorphism search runs on, in turn."""
    orders = []
    search = automorphisms.automorphism_group

    def spy(g, seeds=()):
        orders.append(g.n)
        return search(g, seeds)

    monkeypatch.setattr(automorphisms, "automorphism_group", spy)
    return orders


def _assert_census_lifted(built, searched):
    """A subdivision's census searched its base alone and matches the
    unseeded search; any other build searched itself."""
    subdivided = built.provenance["variant"] == "subdivided"
    assert built.graph.n not in searched if subdivided else searched[-1] == built.graph.n
    _assert_seeds_change_nothing(built.graph, built.census)


@pytest.mark.parametrize("form, params", CORPUS_FORMS,
                         ids=["-".join([f, *(f"{k}{v}" for k, v in p.items())])
                              for f, p in CORPUS_FORMS])
def test_seeds_leave_every_corpus_construction_census_unchanged(monkeypatch, form, params):
    # the corpus holds every construct-ladder argv of the benchmark
    searched = _searched(monkeypatch)
    _assert_census_lifted(build(form, **params), searched)


SUBDIV_SWEEP = FAMILIES["subdiv"].sweep


@pytest.mark.parametrize("t", range(SUBDIV_SWEEP.first, SUBDIV_SWEEP.cap + 1, SUBDIV_SWEEP.step))
def test_every_subdiv_sweep_row_lifts_its_census(monkeypatch, t):
    searched = _searched(monkeypatch)
    _assert_census_lifted(build("subdiv", k=2, t=t), searched)


@pytest.mark.parametrize("make", [lambda: prop2_graph(5, 11), lambda: prop3_graph(5),
                                  fig3_graph], ids=["prop2(5,11)", "prop3(5)", "fig3"])
def test_seeds_leave_every_subdivision_census_unchanged(monkeypatch, make):
    base = make()
    searched = _searched(monkeypatch)
    for index in range(base.census.o_e):
        for t in (1, 2):
            searched.clear()
            built = subdivided_nut(base, index, t)
            assert built.census.aut_order == base.census.aut_order
            _assert_census_lifted(built, searched)


# Two-orbit nut bases BC(m; S0, S1, T) (see oracles.bicirculant_edges), each
# with |Aut| = 2m: its census, and how many of its edge orbits no automorphism
# reverses, whose arcs fall into two arc orbits.
BICIRCULANT_BASES = [
    (5, {1}, {2}, {0, 1}, (2, 3, 4), 1),
    (6, {3}, {1, 2}, {0, 2}, (2, 4, 5), 1),
    (10, {1}, {1, 2, 3}, {0, 4}, (2, 5, 6), 1),
    (6, {3}, {1, 2, 3}, {0, 1, 2}, (2, 6, 8), 2),
    (8, {4}, {1, 2, 4}, {0, 1, 2, 3, 4}, (2, 7, 10), 3),
    (8, {1, 4}, {1, 2, 3, 4}, {0, 1, 2}, (2, 8, 10), 2),
    (8, {1, 4}, {1, 2, 3, 4}, {0, 1, 2, 3, 4}, (2, 9, 12), 3),
]


@pytest.mark.parametrize("m, S0, S1, T, counts, irreversible", BICIRCULANT_BASES,
                         ids=[f"k0={row[4][1]}" for row in BICIRCULANT_BASES])
def test_subdivided_nut_lifts_every_edge_orbit_of_a_two_orbit_base(
        monkeypatch, m, S0, S1, T, counts, irreversible):
    g = Graph(2 * m, bicirculant_edges(m, S0, S1, T))
    base = VerifiedNut(g, is_nut(g), orbit_census(g), {"variant": "bicirculant"})
    assert base.verdict.is_nut and min(g.degree_sequence()) >= 3
    assert base.census.counts == counts and base.census.aut_order == 2 * m
    searched = _searched(monkeypatch)
    arc_orbit = {a: i for i, arcs in enumerate(base.census.arc_orbits) for a in arcs}
    cs = [len({arc_orbit[a] for u, v in orbit for a in ((u, v), (v, u))})
          for orbit in base.census.edge_orbits]
    assert cs.count(2) == irreversible and set(cs) == {1, 2}
    o_v, o_e, o_a = counts
    for index, c in enumerate(cs):
        for t in (1, 2):
            searched.clear()
            built = subdivided_nut(base, index, t)
            assert built.census.counts == (o_v + 2 * c * t, o_e + 2 * c * t, o_a + 4 * c * t)
            assert built.census.aut_order == 2 * m
            _assert_census_lifted(built, searched)


# ---------------------------------------------------------------------------
# Orbits read from a construction's group: checked against the whole-graph
# union-find and the closure oracle, never against orbit_census itself
# ---------------------------------------------------------------------------

def _assert_whole_graph_orbits(g, census):
    """The census's orbits are those that ``orbits_of`` finds on the whole
    graph under the census's generators, and those of the closure oracle."""
    orbits = (census.vertex_orbits, census.edge_orbits, census.arc_orbits)
    assert orbits == orbits_of(g, census.generators)
    gens = census.generators
    assert orbits == (
        tuple(orbit_partition(gens, range(g.n), lambda p, v: p[v])),
        tuple(orbit_partition(gens, g.edges, lambda p, e: tuple(sorted((p[e[0]], p[e[1]]))))),
        tuple(orbit_partition(gens, g.arcs(), lambda p, a: (p[a[0]], p[a[1]]))))


def _orbits_of_ran(monkeypatch):
    """The order of every graph ``orbits_of`` runs on, in turn."""
    orders = []
    whole = automorphisms.orbits_of

    def spy(g, gens):
        orders.append(g.n)
        return whole(g, gens)

    monkeypatch.setattr(automorphisms, "orbits_of", spy)
    return orders


def _base_order(g):
    """The order of the base a chain-holding graph was subdivided from."""
    first, s = g.chains
    return g.n - len(first) * s


@pytest.mark.parametrize("form, params", CORPUS_FORMS,
                         ids=["-".join([f, *(f"{k}{v}" for k, v in p.items())])
                              for f, p in CORPUS_FORMS])
def test_every_corpus_construction_reads_the_whole_graph_orbits(monkeypatch, form, params):
    # Cayley builds take their orbits at vertex 0 and run no orbits_of; a
    # subdivision runs it on its base alone and carries it along the chains
    ran = _orbits_of_ran(monkeypatch)
    built = build(form, **params)
    subdivided = built.provenance["variant"] == "subdivided"
    assert (built.graph.chains is not None) == (built.graph.cayley_orders is None) == subdivided
    assert ran == ([_base_order(built.graph)] if subdivided else [])
    _assert_whole_graph_orbits(built.graph, built.census)


# every row of every default sweep that builds a graph (2 primes a k, the
# sweep's default)
SWEEP_ROWS = [(suite, {**family.sweep.fixed, **params})
              for suite, family in FAMILIES.items() if family.build and family.sweep
              for value in range(family.sweep.first, family.sweep.default_max + 1,
                                 family.sweep.step)
              for params in family.sweep.cases(value, 2)]


@pytest.mark.parametrize("suite, params", SWEEP_ROWS,
                         ids=[f"{suite}-{'-'.join(map(str, params.values()))}"
                              for suite, params in SWEEP_ROWS])
def test_every_sweep_row_reads_the_whole_graph_orbits(suite, params):
    built = build(suite, **params)
    _assert_whole_graph_orbits(built.graph, built.census)


@pytest.mark.parametrize("m, S0, S1, T, counts, irreversible", BICIRCULANT_BASES,
                         ids=[f"k0={row[4][1]}" for row in BICIRCULANT_BASES])
def test_every_two_orbit_subdivision_reads_the_whole_graph_orbits(
        m, S0, S1, T, counts, irreversible):
    # each base edge orbit, reversible or not, carried along chains of 4 and 8
    g = Graph(2 * m, bicirculant_edges(m, S0, S1, T))
    base = VerifiedNut(g, is_nut(g), orbit_census(g), {"variant": "bicirculant"})
    for index in range(base.census.o_e):
        for t in (1, 2):
            built = subdivided_nut(base, index, t)
            _assert_whole_graph_orbits(built.graph, built.census)


def test_a_chain_graph_whose_group_mixes_base_and_chains_takes_the_union_find(
        monkeypatch, c4):
    # C_4 with one edge subdivided 4 times is C_8, whose rotations carry the
    # base labels 0..3 onto chain labels 4..7
    g = subdivide_edges(c4, [(0, 1)], 4)
    assert g.chains == ({(0, 1): 4}, 4)
    assert g == Graph(8, [(0, 3), (0, 4), (1, 2), (1, 7), (2, 3), (4, 5), (5, 6), (6, 7)])
    ran = _orbits_of_ran(monkeypatch)
    census = orbit_census(g)
    assert ran == [8]
    assert any(max(p[:4]) >= 4 for p in census.generators)
    assert census.aut_order == 16 and census.counts == (1, 1, 1)
    _assert_whole_graph_orbits(g, census)


def test_subdivided_nut_refuses_a_base_of_minimum_degree_below_3():
    # C_10 passes as a base with o_v = 1 and o_e = o_a = 1, but restriction
    # to its vertices is no isomorphism: a subdivision of every edge is a
    # longer cycle, with more automorphisms
    g = circulant(CirculantSpec(10, {1}))
    base = VerifiedNut(g, None, orbit_census(g), {"variant": "fabricated"})
    with pytest.raises(VerificationError) as err:
        subdivided_nut(base, 0, 1)
    assert str(err.value) == ("base {'variant': 'fabricated'} has a vertex of degree 2: "
                              "its census lifts to a subdivision only at minimum degree "
                              "3 or more")


# The reflection of Circ(10, {1, 2}) with 0 written as a float or a bool:
# equal to an int, and a permutation by sorting, but not a permutation of ints.
_REFLECTIONS_WITH_A_NON_INT = [(0.0,) + tuple(range(9, 0, -1)),
                               (False,) + tuple(range(9, 0, -1))]


def test_lifted_census_verifies_its_seeds():
    # the lifts are checked as the search checks its seeds, by one helper
    g = circulant(CirculantSpec(10, {1, 2}))
    for seed in [(0,) * 10] + _REFLECTIONS_WITH_A_NON_INT:
        with pytest.raises(VerificationError, match="seed 0 is not a permutation"):
            orbit_census(g, [seed], aut_order=20)
    with pytest.raises(VerificationError, match="seed 0 is not a permutation"):
        orbit_census(complete_graph(2), [(1.0, 0.0)], aut_order=2)
    with pytest.raises(VerificationError, match="seed 1 maps an edge to a non-edge"):
        orbit_census(g, [identity(10), (1, 0) + tuple(range(2, 10))], aut_order=20)


@pytest.mark.parametrize("orders", [(2, 2, 2), (4, 2), (6, 2)])
def test_seeds_leave_every_small_cayley_census_unchanged(orders):
    # every connection set closed under negation, so disconnected and
    # edgeless Cayley graphs too
    elements = list(product(*map(range, orders)))
    pairs = {frozenset({x, tuple((-y) % m for y, m in zip(x, orders))})
             for x in elements[1:]}
    seeds = cayley_automorphisms(orders)
    for size in range(len(pairs) + 1):
        for chosen in combinations(sorted(pairs, key=sorted), size):
            g = cayley_abelian(AbelianCayleySpec(orders, set().union(*chosen)))
            _assert_seeds_change_nothing(g, orbit_census(g, seeds))
    if orders == (2, 2, 2):
        # in Z_2^3 the inversion is the identity, and the search drops it
        q3 = cayley_abelian(AbelianCayleySpec(orders, {(1, 0, 0), (0, 1, 0), (0, 0, 1)}))
        assert seeds[-1] == identity(8)
        gens, order = automorphisms._search(q3, seeds=seeds)
        assert order == 48 and identity(8) not in gens
        assert all(p in gens for p in seeds[:-1])


def test_census_refuses_a_seed_that_is_not_a_permutation():
    g = circulant(CirculantSpec(10, {1, 2}))
    for seed in ([(0,) * 10, tuple(range(9)), tuple(range(1, 11))]
                 + _REFLECTIONS_WITH_A_NON_INT):
        with pytest.raises(VerificationError, match="not a permutation"):
            orbit_census(g, [seed])
    with pytest.raises(VerificationError, match="not a permutation"):
        orbit_census(complete_graph(2), [(1.0, 0.0)])


def test_census_refuses_a_seed_that_breaks_an_edge(swapped_chain_lift):
    g = circulant(CirculantSpec(10, {1, 2}))
    with pytest.raises(VerificationError, match="maps an edge to a non-edge"):
        orbit_census(g, [(1, 0) + tuple(range(2, 10))])
    with pytest.raises(VerificationError, match="maps an edge to a non-edge"):
        construct_with_orbits(3, 5)


@pytest.mark.parametrize("make, calls", [
    (lambda: construct_with_orbits(31, 32), 3), (lambda: construct_with_orbits(21, 22), 3),
    (lambda: construct_with_orbits(9, 10), 3), (lambda: construct_with_orbits(3, 8), 3),
    (lambda: construct_with_orbits(1, 12), 3), (lambda: prop2_graph(9, 19), 3),
    (lambda: prop3_graph(13), 7), (fig3_graph, 3),
], ids=["r31k32", "r21k22", "r9k10", "r3k8", "r1k12", "prop2(9,19)", "prop3(13)", "fig3"])
def test_seeds_spare_the_construct_ladder_refinements(monkeypatch, make, calls):
    # Unseeded, these builds refine 12, 12, 12, 12, 6, 7, 11 and 7 times:
    # the seeds spare every explore but prop3's, whose translations and
    # inversion generate 16n of its 96n automorphisms.  A subdivision's
    # census runs no search: its 3 refinements are its base's.
    counted = []
    refine = automorphisms._refine

    def counting(adj, part, splitters):
        counted.append(1)
        refine(adj, part, splitters)

    monkeypatch.setattr(automorphisms, "_refine", counting)
    make()
    assert len(counted) == calls


def test_cayley_nut_refuses_a_prime_for_k_3():
    with pytest.raises(HypothesisError) as err:
        cayley_nut(3, p=5)
    assert str(err.value) == ("k = 3 uses the box-K4 family; its size "
                              "parameter is n, not a prime p")


def test_answer_records_are_immutable():
    built = prop1_graph(2, 5)
    group = automorphisms.automorphism_group(built.graph)
    for record, field in [(built.verdict, "nullity"), (built.census, "aut_order"),
                          (group, "order"), (built, "provenance")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) is not None


def test_cayley_nut_edge_orbits_refuses_a_negative_count():
    with pytest.raises(ValueError) as err:
        cayley_nut_edge_orbits(-1)
    assert str(err.value) == "orbit counts are nonnegative, got -1"


@pytest.mark.parametrize("k", range(2, 13))
def test_subdivision_refuses_from_the_default_orbits_exact_order(monkeypatch, k):
    # the smallest edge orbit of a base of order n holds n edges for even k
    # and n / 2 for odd k; one vertex under that order, the cap refuses it
    for t in (1, 2):
        order = subdivided_cayley(k, t).graph.n
        assert order == cayley_nut(k).graph.n * (1 + (2 if k % 2 else 4) * t)
        monkeypatch.setattr(constructions, "MAX_ORDER", order - 1)
        with pytest.raises(ResourceCapError, match=f"order at least {order} exceeds"):
            subdivided_cayley(k, t)
        monkeypatch.undo()


@pytest.mark.parametrize("k, p", [(k, None) for k in range(2, 16)]
                         + [(4, 11), (5, 13), (7, 23), (9, 29)])
def test_base_edge_orbit_sizes_are_known_before_the_build(k, p):
    # the sizes a subdivision refuses from are those of the built census
    _, _, n, sizes = constructions._cayley_base(k, p)
    base = cayley_nut(k, p)
    assert base.graph.n == n
    assert [len(orbit) for orbit in base.census.edge_orbits] == sizes


@pytest.mark.parametrize("k, orbit", [(3, 0), (3, 1), (5, 2), (7, 5)])
def test_subdivision_refuses_an_explicit_orbits_exact_order(monkeypatch, k, orbit):
    # orbits larger than the smallest, refused from their own size
    order = subdivided_cayley(k, 1, orbit=orbit).graph.n
    monkeypatch.setattr(constructions, "MAX_ORDER", order - 1)
    monkeypatch.setattr(constructions, "cayley_nut", lambda k, p=None: pytest.fail("base built"))
    with pytest.raises(ResourceCapError, match=f"order {order} exceeds"):
        subdivided_cayley(k, 1, orbit=orbit)


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# what a comment in README's library tour may state of its statement's
# value r, as a pattern and a test of r against the match m
_TOUR_CLAIMS = {
    r"nullity (\d+)": lambda r, m: r.nullity == int(m[1]),
    r"kernel \(([-\d,]+),\.\.\.\)": lambda r, m: (
        r.kernel_basis[0][:m[1].count(",") + 1] == ast.literal_eval(m[1] + ",")),
    r"\bfull\b": lambda r, m: r.is_full,
    r"o_v=(\d+), o_e=(\d+), o_a=(\d+)": lambda r, m: r.counts == tuple(map(int, m.groups())),
    r"census \((\d+), ?(\d+), ?(\d+)\)": lambda r, m: (
        r.census.counts == tuple(map(int, m.groups()))),
    r"\|Aut\|=(\d+)": lambda r, m: getattr(r, "census", r).aut_order == int(m[1]),
    r"order-(\d+)": lambda r, m: r.graph.n == int(m[1]),
}


def test_readme_library_tour_holds_what_its_comments_state():
    # the python block runs statement by statement, and every value stated
    # in a statement's comment (a literal, or a claim above) is its value's
    block = re.search(r"## Library tour\n\n```python\n(.*?)```", README.read_text(),
                      re.S)[1]
    lines = block.splitlines()
    namespace = {}
    checked = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            value = namespace[stmt.targets[0].id] if isinstance(stmt, ast.Assign) else None
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if not comment:
            continue
        claims = [(pattern, m) for pattern in _TOUR_CLAIMS
                  if (m := re.search(pattern, comment))]
        try:
            claims.append(("literal", ast.literal_eval(comment)))
        except (ValueError, SyntaxError):
            pass
        assert claims, comment
        for pattern, m in claims:
            assert (value == m if pattern == "literal"
                    else _TOUR_CLAIMS[pattern](value, m)), (comment, pattern)
        checked.append(len(claims))
    # g's verdict and census, two symbolic tests, four families, the construction
    assert checked == [3, 2, 1, 1, 2, 2, 2, 2, 1]
