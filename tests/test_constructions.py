from itertools import combinations, islice, product

import pytest
from oracles import adjacency_matrix, orbit_partition

from nutorbits import (AbelianCayleySpec, CirculantSpec, HypothesisError,
                       NotCoveredByThisPaper, NotRealizable, ResourceCapError,
                       VerificationError, automorphisms, cayley_abelian,
                       cayley_nut, cayley_nut_edge_orbits, circulant,
                       constructions, construct_with_orbits, fig3_graph,
                       nut_realizable, orbit_census, primes_from, prop1_graph,
                       prop2_graph, prop3_graph, subdivided_nut)
from nutorbits.automorphisms import identity
from nutorbits.constructions import FAMILIES, build, is_prime, subdivided_cayley
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
    # the output of one subdivision is no longer vertex-transitive, so a
    # second application is rejected
    once = subdivided_nut(base, 0, 1)
    assert once.census.o_v >= 3
    with pytest.raises(HypothesisError):
        subdivided_nut(once, 0, 1)


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
    unseeded = orbit_census(g)
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


@pytest.mark.parametrize("form, params", CORPUS_FORMS,
                         ids=["-".join([f, *(f"{k}{v}" for k, v in p.items())])
                              for f, p in CORPUS_FORMS])
def test_seeds_leave_every_corpus_construction_census_unchanged(form, params):
    built = build(form, **params)
    _assert_seeds_change_nothing(built.graph, built.census)


@pytest.mark.parametrize("make", [lambda: prop2_graph(5, 11), lambda: prop3_graph(5),
                                  fig3_graph], ids=["prop2(5,11)", "prop3(5)", "fig3"])
def test_seeds_leave_every_subdivision_census_unchanged(make):
    base = make()
    for index in range(base.census.o_e):
        built = subdivided_nut(base, index, 1)
        _assert_seeds_change_nothing(built.graph, built.census)


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
    for seed in [(0,) * 10, tuple(range(9)), tuple(range(1, 11))]:
        with pytest.raises(VerificationError, match="not a permutation"):
            orbit_census(g, [seed])


def test_census_refuses_a_seed_that_breaks_an_edge(swapped_chain_lift):
    g = circulant(CirculantSpec(10, {1, 2}))
    with pytest.raises(VerificationError, match="maps an edge to a non-edge"):
        orbit_census(g, [(1, 0) + tuple(range(2, 10))])
    with pytest.raises(VerificationError, match="maps an edge to a non-edge"):
        construct_with_orbits(3, 5)


@pytest.mark.parametrize("make, calls", [
    (lambda: construct_with_orbits(31, 32), 6), (lambda: construct_with_orbits(21, 22), 6),
    (lambda: construct_with_orbits(9, 10), 6), (lambda: construct_with_orbits(3, 8), 6),
    (lambda: construct_with_orbits(1, 12), 3), (lambda: prop2_graph(9, 19), 3),
    (lambda: prop3_graph(13), 7), (fig3_graph, 3),
], ids=["r31k32", "r21k22", "r9k10", "r3k8", "r1k12", "prop2(9,19)", "prop3(13)", "fig3"])
def test_seeds_spare_the_construct_ladder_refinements(monkeypatch, make, calls):
    # Unseeded, these builds refine 12, 12, 12, 12, 6, 7, 11 and 7 times:
    # the seeds spare every explore but prop3's, whose translations and
    # inversion generate 16n of its 96n automorphisms.
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


def test_subdivided_nut_refuses_a_base_with_more_arc_than_edge_orbits():
    # every abelian Cayley base has o_e = o_a, so the census is edited
    base = prop1_graph(2)
    census = base.census._replace(edge_orbits=base.census.edge_orbits[:1])
    with pytest.raises(HypothesisError) as err:
        subdivided_nut(base._replace(census=census), 0, 1)
    assert str(err.value) == "base must have o_e = o_a, got (1, 2)"


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
